"""Offset joins: a query whose every check the index answers is answered
from its postings, without the per-sentence nested loop. The direct plan,
a query with one exactly indexed variable, is the one-atom join; a span
of exactly indexed atoms and plain gaps joins its atoms' offsets.

Each query runs twice, once as usual and once forced through the nested
loop (`use_gsp=False`). Rows, their order and their scores must be equal,
and so must the loop counts of a one-atom join;
`koko.engine.evaluate_sentence` is counted to tell the two paths apart.
"""

from __future__ import annotations

import json

import pytest

import koko.engine
import koko.indexes
from koko.bench import synthesize_corpus
from koko.corpus import AnnotatedDocument, Corpus, EntitySpan, Sentence
from koko.engine import run_query
from koko.indexes import build_indexes, load_bundle, open_corpus, save_bundle
from koko.oracle import oracle_evaluate
from koko.parser import parse_query


def _tree(v: str, defs: str = "") -> str:
    return f'extract v:Str from "d" if (/ROOT:{{ {defs}v = {v} }})'


DIRECT = {
    "exact path": _tree("//dobj"),
    "exact path with *": _tree("//root/*/amod"),
    "rooted POS path": _tree("/verb//noun"),
    "one-word literal": _tree('"babe"'),
    "literal": _tree('"badi badi"'),
    "entity": 'extract x:Entity from "d" if ()',
    "typed entity": 'extract x:Date from "d" if ()',
    "entity with evidence": (
        'extract x:Entity from "d" if ()\n'
        'satisfying x (str(x) contains "babe" {1}) with threshold 0.5'
    ),
}
JOINED = {
    "path, gap, literal": _tree('//dobj + ^ + "babe"'),
    "literal, bounded gap, path": _tree('"babe" + ^[@max=3] + //dobj'),
    "two-word literal last": _tree('//dobj + ^ + "badi badi"'),
    "entity, gap, path, gap, literal": (
        'extract x:Entity, v:Str from "d" if (/ROOT:{ v = x + ^ + //dobj + ^[@min=1] + "babe" })'
    ),
    "entity last, defined first": 'extract x:Entity, v:Str from "d" if (/ROOT:{ v = //root + ^ + x })',
}
NESTED = {
    "[@text] path": _tree('//dobj[@text="badi"]'),
    "mixed label and POS path": _tree("//verb/dobj"),
    "word path": _tree('//"babe"/dobj'),
    "relative definition": _tree("a/dobj", "a = //root, "),
    "hidden intermediates": _tree("a/dobj/amod", "a = //root, "),
    "two variables": 'extract x:Entity, v:Str from "d" if (/ROOT:{ v = //dobj } (v) in (x))',
}


@pytest.fixture(scope="module")
def env():
    docs = synthesize_corpus(7, 120, entity_rate=0.5)
    return Corpus(docs), build_indexes(docs)


@pytest.fixture
def evaluated(monkeypatch):
    """The number of `evaluate_sentence` calls made through the engine."""
    calls = [0]
    original = koko.engine.evaluate_sentence

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(koko.engine, "evaluate_sentence", counted)
    return calls


def _rows(run) -> list:
    return [(r.key(), json.dumps(r.to_json(), sort_keys=True), r.excluded_by) for r in run.rows]


def _stats(run) -> tuple:
    return (run.stats.loop_iterations, run.stats.tuples, run.stats.checks)


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_direct_plan_skips_the_nested_loop(env, evaluated, name):
    corpus, bundle = env
    q = parse_query(DIRECT[name])
    run = run_query(q, corpus, bundle, keep_failed=True)
    assert evaluated[0] == 0
    assert run.joined == (q.outputs[0][0],)
    assert run.rows, "the query should match something"
    forced = run_query(q, corpus, bundle, keep_failed=True, use_gsp=False)
    assert forced.joined == ()
    assert evaluated[0] == len(forced.candidate_sids) > 0
    assert _rows(run) == _rows(forced)
    assert _stats(run) == _stats(forced)
    assert run.stats.checks == 0 and run.stats.tuples == len(run.tuples)
    assert run.tuples == forced.tuples
    assert _rows(run) == [
        (r.key(), json.dumps(r.to_json(), sort_keys=True), r.excluded_by)
        for r in oracle_evaluate(q, corpus, keep_failed=True)
    ]


@pytest.mark.parametrize("name", sorted(JOINED))
def test_span_join_skips_the_nested_loop(env, evaluated, name):
    corpus, bundle = env
    q = parse_query(JOINED[name])
    run = run_query(q, corpus, bundle, keep_failed=True)
    assert evaluated[0] == 0
    assert len(run.joined) >= 2 and run.rows
    forced = run_query(q, corpus, bundle, keep_failed=True, use_gsp=False)
    assert forced.joined == ()
    assert _rows(run) == _rows(forced)
    assert run.candidate_sids == forced.candidate_sids
    assert run.stats.checks == 0 and run.stats.tuples == len(run.tuples)
    assert _rows(run) == [
        (r.key(), json.dumps(r.to_json(), sort_keys=True), r.excluded_by)
        for r in oracle_evaluate(q, corpus, keep_failed=True)
    ]


@pytest.mark.parametrize(
    "name", ["exact path", "literal", "entity", "path, gap, literal", "entity, gap, path, gap, literal"]
)
def test_direct_plan_over_the_index_builds_no_sentence(env, tmp_path, monkeypatch, evaluated, name):
    # A join reads its values from the index: the word column, the
    # literal itself or the entity records. Nor does it inflate the POS
    # column, which only a sentence (or a POS leg) reads; the PL column is
    # inflated where a path's nodes are read from it.
    corpus, bundle = env
    save_bundle(bundle, str(tmp_path))
    loaded = load_bundle(str(tmp_path))
    inflated = []
    inflate = koko.indexes.PostingLists._inflate
    monkeypatch.setattr(
        koko.indexes.PostingLists, "_inflate", lambda self: inflated.append(self.where) or inflate(self)
    )
    opened = open_corpus(loaded)
    built = []
    build = koko.indexes.Sentence
    monkeypatch.setattr(koko.indexes, "Sentence", lambda *columns: built.append(1) or build(*columns))
    q = parse_query({**DIRECT, **JOINED}[name])
    run = run_query(q, opened, loaded, keep_failed=True)
    assert run.joined and run.rows
    assert built == [] and evaluated[0] == 0
    assert not any(where.endswith("pos.idx") for where in inflated)
    assert opened.sentence(0) == corpus.sentence(0)
    assert any(where.endswith("pos.idx") for where in inflated)
    assert _rows(run) == [
        (r.key(), json.dumps(r.to_json(), sort_keys=True), r.excluded_by)
        for r in oracle_evaluate(q, corpus, keep_failed=True)
    ]


@pytest.mark.parametrize("name", sorted(NESTED))
def test_other_plans_run_the_nested_loop(env, evaluated, name):
    corpus, bundle = env
    q = parse_query(NESTED[name])
    run = run_query(q, corpus, bundle, keep_failed=True)
    assert run.joined == ()
    assert evaluated[0] == len(run.candidate_sids) > 0
    assert run.rows, "the query should match something"
    forced = run_query(q, corpus, bundle, keep_failed=True, use_gsp=False)
    assert _rows(run) == _rows(forced)
    assert _stats(run) == _stats(forced)


def test_projected_tuples_hold_values_in_output_order(env):
    corpus, bundle = env
    q = parse_query(
        'extract x:Entity, v:Str from "d" if (/ROOT:{ v = //dobj } (v) in (x))\n'
        'satisfying x (str(x) contains "babe" {1}) with threshold 0'
    )
    run = run_query(q, corpus, bundle)
    assert run.tuples
    for sid, values in run.tuples:
        assert isinstance(sid, int) and len(values) == 2
    by_key = {(r.sid, r.values["x"], r.values["v"]) for r in run.rows}
    assert by_key == {(sid, x, v) for sid, (x, v) in run.tuples}


def _sentence(sid: int, words: str, etags: str) -> Sentence:
    """A flat sentence of `words` whose one-token mentions are its B- tags."""
    tokens = words.split()
    heads = [None] + [0] * (len(tokens) - 1)
    mentions = [EntitySpan(sid, tid, tid, tag[2:]) for tid, tag in enumerate(etags.split()) if tag != "O"]
    return Sentence(sid, tokens, ["noun"] * len(tokens), ["root"] + ["dobj"] * (len(tokens) - 1),
                    heads, mentions)


def test_entity_values_deduplicate_per_document():
    # "Rome" twice in doc a, once in doc b; "Oslo" once in doc a.
    docs = [
        AnnotatedDocument("a", [
            _sentence(0, "Rome is Rome", "B-GPE O B-GPE"),
            _sentence(1, "Oslo and Rome", "B-GPE O B-GPE"),
        ]),
        AnnotatedDocument("b", [_sentence(2, "see Rome", "O B-GPE")]),
    ]
    corpus, bundle = Corpus(docs), build_indexes(docs)
    q = parse_query('extract x:GPE from "d" if ()')
    run = run_query(q, corpus, bundle)
    assert run.joined == ("x",) and len(run.tuples) == 5
    assert [(r.sid, r.values) for r in run.rows] == [
        (0, {"x": "Rome"}), (1, {"x": "Oslo"}), (2, {"x": "Rome"}),
    ]
    assert [(r.sid, r.values) for r in oracle_evaluate(q, corpus)] == [
        (r.sid, r.values) for r in run.rows
    ]
