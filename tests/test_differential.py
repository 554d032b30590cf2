"""Adversarial engine-vs-oracle differentials.

The benchmark generators stick to well-behaved shapes; these queries
poke the corners: boundary elastics, constrained gaps, subtree atoms in
compositions, entity atoms with typed elastics, regex node conditions,
hidden path intermediates, combined constraints.
"""

from __future__ import annotations

import pytest

from koko.bench import synthesize_corpus
from koko.corpus import Corpus, parse_corpus
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


# Evidence located through the word index (engine) against a scan of every
# sentence of the document (oracle). A sentence is written as words; a
# mention's words carry its type after a slash ("Acme/Org Corp/Org").


def _evidence_corpus(documents: list[list[str]]):
    lines = []
    sid = 0
    for d, sentences in enumerate(documents):
        lines.append(f"# doc_id = d{d}")
        for sentence in sentences:
            prev = None
            for tid, item in enumerate(sentence.split()):
                word, _, etype = item.partition("/")
                tag = "O" if not etype else ("I-" if prev == etype else "B-") + etype
                head, label = (-1, "root") if tid == 0 else (0, "dep")
                lines.append(f"{sid}\t{tid}\t{word}\tnoun\t{label}\t{head}\t{tag}")
                prev = etype or None
            lines.append("")
            sid += 1
    docs = parse_corpus("\n".join(lines) + "\n")
    return Corpus(docs), build_indexes(docs)


def _evidence_rows(rows):
    return [
        (r.key(), r.excluded_by, {var: s.describe() for var, s in r.scores.items()})
        for r in rows
    ]


def _assert_evidence_matches_oracle(corpus, bundle, text):
    q = parse_query(text)
    run = run_query(q, corpus, bundle, keep_failed=True)
    oracle = oracle_evaluate(q, corpus, keep_failed=True)
    assert _evidence_rows(run.rows) == _evidence_rows(oracle)
    return run


def _per_sentence(run, value):
    """Sids with evidence for the value, per condition, from the first row."""
    row = next(r for r in run.rows if value in r.values.values())
    (score,) = row.scores.values()
    return [[sid for sid, _ in c.per_sentence] for c in score.conditions]


def test_evidence_from_mention_free_sentences_of_the_document():
    corpus, bundle = _evidence_corpus([[
        "Acme/Org sells coffee",
        "people say Acme serves tea daily",
        "tea Acme is fine",
        "nothing here",
    ]])
    run = _assert_evidence_matches_oracle(corpus, bundle, (
        'extract x:Entity from "d" if ()\nsatisfying x\n'
        '    (x near "tea" {0.5}) or (x "serves" {0.2}) or ("tea" x {0.2}) or\n'
        '    (x [["serves tea"]] {0.2}) or ([["say"]] x {0.2})\n'
        "with threshold 0.5"
    ))
    assert run.candidate_sids == [0]
    assert _per_sentence(run, "Acme") == [[1, 2], [], [], [1], [1]]


def test_evidence_in_another_document_does_not_count():
    corpus, bundle = _evidence_corpus([
        ["Zed/Person runs", "the sun sets"],
        ["Zed sells coffee", "coffee Zed serves"],
    ])
    run = _assert_evidence_matches_oracle(corpus, bundle, (
        'extract x:Entity from "d" if ()\nsatisfying x\n'
        '    (x near "coffee" {0.5}) or (x "sells" {0.2}) or ("coffee" x {0.2}) or\n'
        '    (x [["sells coffee"]] {0.2}) or ([["coffee"]] x {0.2})\n'
        "with threshold 0.1"
    ))
    assert [r.passed for r in run.rows] == [False]
    assert _per_sentence(run, "Zed") == [[], [], [], [], []]


def test_evidence_for_multi_token_value_with_frequent_first_token():
    corpus, bundle = _evidence_corpus([[
        "the/Org Bank/Org of the city",
        "the bank lends and the Bank grows",
        "the Bank opened the the Bank",
        "the river the end",
    ]])
    run = _assert_evidence_matches_oracle(corpus, bundle, (
        'extract x:Entity from "d" if ()\nsatisfying x\n'
        '    (x near "grows" {0.5}) or (x "grows" {0.2}) or ("the" x {0.2}) or\n'
        '    (x [["opened"]] {0.2}) or ([["lends"]] x {0.2})\n'
        "with threshold 0.5"
    ))
    assert _per_sentence(run, "the Bank") == [[1], [], [], [2], [1]]


def test_near_literal_only_in_sentences_without_the_value():
    corpus, bundle = _evidence_corpus([["Acme/Org runs", "coffee is hot", "more coffee"]])
    run = _assert_evidence_matches_oracle(corpus, bundle, (
        'extract x:Entity from "d" if ()\nsatisfying x (x near "coffee" {1})\n'
        "with threshold 0.5"
    ))
    assert [(r.passed, r.scores["x"].total) for r in run.rows] == [(False, 0.0)]


# The conditions of ADJACENCY, in order: x followed by "tea", x preceded by
# "tea", x near "tea", and "tea" on either descriptor side.
ADJACENCY = (
    'extract x:Entity from "d" if ()\nsatisfying x\n'
    '    (x "tea" {0.2}) or ("tea" x {0.2}) or (x near "tea" {0.2}) or\n'
    '    (x [["tea"]] {0.2}) or ([["tea"]] x {0.2})\n'
    "with threshold 0.5"
)


def _ms(run, value):
    """Each condition's confidence for the value, from its first row."""
    row = next(r for r in run.rows if value in r.values.values())
    (score,) = row.scores.values()
    return [c.m for c in score.conditions]


def test_adjacency_does_not_cross_sentence_ends():
    # The value ends one sentence and the literal opens the next; the
    # literal ends one sentence and the value opens the next.
    corpus, bundle = _evidence_corpus([["we like Acme/Org", "tea is hot", "they sell tea", "Acme rules"]])
    run = _assert_evidence_matches_oracle(corpus, bundle, ADJACENCY)
    assert _ms(run, "Acme") == [0.0] * 5
    assert _per_sentence(run, "Acme") == [[], [], [], [], []]


def test_literal_overlapping_the_value_is_near_but_not_adjacent():
    corpus, bundle = _evidence_corpus([["Blue/Org Bottle/Org sells", "tea Bottle"]])
    run = _assert_evidence_matches_oracle(corpus, bundle, ADJACENCY.replace('"tea"', '"Bottle"'))
    assert _ms(run, "Blue Bottle")[:3] == [0.0, 0.0, 1.0]
    assert _per_sentence(run, "Blue Bottle")[2] == [0]


def test_literal_next_to_the_second_occurrence_of_the_value():
    corpus, bundle = _evidence_corpus([["Acme/Org is big so Acme tea wins", "and tea Acme"]])
    run = _assert_evidence_matches_oracle(corpus, bundle, ADJACENCY.replace('("tea" x', '("so" x'))
    assert _ms(run, "Acme")[:3] == [1.0, 1.0, 1.0]
    assert _per_sentence(run, "Acme")[2:] == [[0, 1], [0], [1]]


def test_evidence_reads_each_located_sentence_once_per_value(monkeypatch):
    corpus, bundle = _evidence_corpus([
        ["Acme/Org sells tea", "tea Acme serves coffee", "Zed/Person and Acme meet", "Acme", "none"],
        ["Acme/Org again", "Acme tea", "Zed"],
    ])
    read = []
    monkeypatch.setattr(corpus, "words", lambda sid: read.append(sid) or Corpus.words(corpus, sid))
    q = parse_query(ADJACENCY.replace('(x "tea"', '(x "serves"'))
    run = run_query(q, corpus, bundle, keep_failed=True)
    # Acme in the first document, Zed in it, and Acme in the second.
    assert [(r.sid, r.values["x"]) for r in run.rows] == [(0, "Acme"), (2, "Zed"), (5, "Acme")]
    located = []
    for r in run.rows:
        doc_sids = corpus.doc_sids(corpus.doc_index_of(r.sid))
        located += bundle.word.sentences_with(r.values["x"], doc_sids)
    assert sorted(read) == sorted(located) == [0, 1, 2, 2, 3, 5, 6]


def test_typed_entity_query_without_mentions_of_its_type():
    corpus, bundle = _evidence_corpus([["Acme/Org sells coffee", "Acme near coffee"]])
    run = _assert_evidence_matches_oracle(corpus, bundle, (
        'extract a:Person from "d" if ()\nsatisfying a (a near "coffee" {1})\n'
        "with threshold 0.5"
    ))
    assert run.candidate_sids == [] and run.rows == []


def test_query_without_index_bound_variable_evaluates_every_sentence():
    corpus, bundle = _evidence_corpus([
        ["Acme/Org sells coffee", "tea and coffee"],
        ["coffee Acme", "nothing here"],
    ])
    run = _assert_evidence_matches_oracle(corpus, bundle, (
        'extract v:Str from "d" if (/ROOT:{ v = ^[@min=1, @max=1] })\n'
        'satisfying v (v near "coffee" {1})\nwith threshold 0.5'
    ))
    assert run.candidate_sids == list(range(len(corpus)))
    assert {r.sid for r in run.rows if r.passed} == {0, 1, 2}
