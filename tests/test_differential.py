"""Adversarial engine-vs-oracle differentials.

The benchmark generators stick to well-behaved shapes; these queries
poke the corners: boundary elastics, constrained gaps, subtree atoms in
compositions, entity atoms with typed elastics, regex node conditions,
hidden path intermediates, combined constraints.
"""

from __future__ import annotations

import pytest

from koko.bench import synthesize_corpus
from koko.corpus import Corpus
from koko.dpli import candidate_bindings
from koko.engine import run_query
from koko.gsp import generate_skip_plan
from koko.indexes import build_indexes
from koko.normalize import normalize
from koko.oracle import oracle_evaluate
from koko.parser import parse_query

ADVERSARIAL = [
    # boundary elastics (never skippable, genuinely enumerated)
    'extract v:Str from "d" if (/ROOT:{ v = ^ + //verb })',
    'extract v:Str from "d" if (/ROOT:{ v = //verb + ^[@max=2] })',
    # constrained interior gaps
    'extract v:Str from "d" if (/ROOT:{ v = //nsubj + ^[@min=1, @max=3] + //dobj })',
    'extract v:Str from "d" if (/ROOT:{ v = //det + ^[@max=0] + //dobj })',
    # adjacency of two concrete atoms with no gap at all
    'extract v:Str from "d" if (/ROOT:{ v = //det + //dobj })',
    # subtree atom inside a composition
    'extract v:Str from "d" if (/ROOT:{ a = //dobj, v = //nsubj + ^ + (a.subtree) })',
    # entity atoms and typed elastic spans
    'extract a:Entity, v:Str from "d" if (/ROOT:{ v = a + ^[@max=4] + //verb })',
    'extract v:Str from "d" if (/ROOT:{ v = //verb + ^[@etype="Person"] })',
    # regex conditions on nodes and gaps
    'extract v:Str from "d" if (/ROOT:{ v = //*[@regex="[bd]a.*"] })',
    'extract v:Str from "d" if (/ROOT:{ v = //nsubj + ^[@regex="[a-z]+"] + //dobj })',
    # hidden intermediates from multi-step relative definitions
    'extract b:Str from "d" if (/ROOT:{ a = //verb, b = a/dobj/det })',
    'extract b:Str from "d" if (/ROOT:{ a = /root, b = a//det })',
    # constraints mixed with horizontal conditions
    'extract v:Str from "d" if (/ROOT:{ a = //nsubj, b = //dobj, v = a + ^ + b } (a) in (v))',
    'extract x:Str from "d" if (/ROOT:{ x = //dobj, y = (x.subtree) } (x) in (y))',
    # dominated variable used inside a horizontal condition
    'extract v:Str from "d" if (/ROOT:{ a = //verb, b = a/dobj, v = a + ^ + b })',
    # eq between a composition and a subtree
    'extract x:Str from "d" if (/ROOT:{ a = //dobj, x = (a.subtree) } (//det + ^) eq (x))',
    # a variable shared by two horizontal conditions
    'extract v:Str, w:Str from "d" if (/ROOT:{ a = //nsubj, b = //dobj, c = //det,'
    " v = a + ^ + b, w = b + ^ + c })",
    # a named standalone elastic referenced inside a condition
    'extract v:Str from "d" if (/ROOT:{ g = ^[@max=1], a = //nsubj, b = //dobj, v = a + g + b })',
    # elastic on both flanks of one anchor
    'extract v:Str from "d" if (/ROOT:{ v = ^[@max=1] + //verb + ^[@max=1] })',
]


@pytest.fixture(scope="module")
def env():
    docs = synthesize_corpus(777, 200, entity_rate=0.5)
    corpus = Corpus(docs)
    return corpus, build_indexes(docs)


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_engine_matches_oracle(env, text):
    corpus, bundle = env
    q = parse_query(text)
    run = run_query(q, corpus, bundle, keep_failed=True)
    nogsp = run_query(q, corpus, bundle, keep_failed=True, use_gsp=False)
    oracle_rows = oracle_evaluate(q, corpus, keep_failed=True)
    engine_keys = sorted(r.key() for r in run.rows)
    assert engine_keys == sorted(r.key() for r in nogsp.rows)
    assert engine_keys == sorted(r.key() for r in oracle_rows)
    answers = {r.sid for r in oracle_rows if r.passed}
    assert answers <= set(run.candidate_sids)


# A variable shared by two horizontal conditions and skipped by one: it is
# derived from its neighbours in the condition that skipped it. In the
# first two, g sits at the edge of the other condition, where nothing pins
# its far end.
SHARED = [
    'extract v:Str, w:Str from "d" if (/ROOT:{ g = ^[@max=2], v = g + //det, w = //nsubj + g + //verb })',
    'extract v:Str, w:Str from "d" if (/ROOT:{ g = ^[@max=2], h = ^[@max=1], v = g + h,'
    " w = //nsubj + g + //verb })",
    'extract v:Str, w:Str from "d" if (/ROOT:{ b = //det, v = //verb + b + //noun, w = b + //amod })',
    'extract v:Str, w:Str from "d" if (/ROOT:{ a = //det, b = //dobj, v = a + b, w = b + ^[@max=3] + //punct })',
    'extract v:Str, w:Str from "d" if (/ROOT:{ a = //nsubj, b = //*, c = //dobj, v = a + b + ^, w = ^ + b + c })',
    'extract v:Str, w:Str from "d" if (/ROOT:{ b = //*, v = //det + b, w = b + //punct })',
]

# Hidden path intermediates with several realizations per visible binding,
# which evaluation collapses.
HIDDEN = [
    'extract b:Str from "d" if (/ROOT:{ a = //verb, b = a//dobj//det })',
    'extract v:Str from "d" if (/ROOT:{ a = //verb, b = a//*//det, v = b + ^ + //dobj })',
]


def _assert_matches_oracle(env, q):
    corpus, bundle = env
    run = run_query(q, corpus, bundle, keep_failed=True)
    nogsp = run_query(q, corpus, bundle, keep_failed=True, use_gsp=False)
    oracle_keys = sorted(r.key() for r in oracle_evaluate(q, corpus, keep_failed=True))
    assert sorted(r.key() for r in run.rows) == oracle_keys
    assert sorted(r.key() for r in nogsp.rows) == oracle_keys
    return run


@pytest.mark.parametrize("text", SHARED)
def test_shared_variable_skipped_in_one_condition_matches_oracle(env, text):
    corpus, bundle = env
    q = parse_query(text)
    n = normalize(q)
    table = candidate_bindings(n, bundle)
    first_seen: dict[str, int] = {}
    shared = set()
    for ci, cond in enumerate(n.horizontal):
        for name in cond.atoms:
            if first_seen.setdefault(name, ci) != ci:
                shared.add(name)
    assert any(
        shared & generate_skip_plan(n, table, sid, corpus.sentence_lengths[sid]).skipped
        for sid in table.candidate_sids
    )
    assert _assert_matches_oracle(env, q).rows


@pytest.mark.parametrize("text", HIDDEN)
def test_hidden_intermediates_collapse_like_oracle(env, text):
    run = _assert_matches_oracle(env, parse_query(text))
    # More combinations were enumerated than visible tuples kept.
    assert run.stats.tuples > len(run.tuples) > 0
