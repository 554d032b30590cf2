from __future__ import annotations

import hashlib

import pytest

from koko.bench import (
    effectiveness,
    generate_span_suite,
    generate_tree_suite,
    run_benchmark,
    synthesize_corpus,
)
from koko.corpus import Corpus, serialize_corpus
from koko.errors import KokoInputError
from koko.indexes import build_indexes
from koko.oracle import oracle_evaluate
from koko.parser import parse_query


@pytest.fixture(scope="module")
def small_corpus():
    docs = synthesize_corpus(99, 200)
    return docs, Corpus(docs), build_indexes(docs)


def test_synthesized_corpus_is_valid_and_reproducible():
    a = synthesize_corpus(5, 50)
    b = synthesize_corpus(5, 50)
    assert serialize_corpus(a) == serialize_corpus(b)
    c = synthesize_corpus(6, 50)
    assert serialize_corpus(a) != serialize_corpus(c)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_generators_match_recorded_output(small_corpus):
    # Recorded from an earlier build of the generators: a rewrite that
    # changes the order of random draws, or what is drawn, changes these.
    assert _sha256(serialize_corpus(synthesize_corpus(5, 50))) == (
        "83e74d1d6cdffd5d9af07c1a161af45eaa046ef95d9506be311020f8d3b6f649"
    )
    _, corpus, _ = small_corpus
    tree = "\n".join(q.text for q in generate_tree_suite(1, corpus).queries)
    assert _sha256(tree) == "99b534eddbaa4a2def477fa88bb4f6be4d606b21c31f72b171da5d1f1c9ac6fc"
    span = "\n".join(q.text for q in generate_span_suite(1, corpus).queries)
    assert _sha256(span) == "45c4518a893cd37e3c41108138a360ee6835d9c56af4e015873ac191b8829ec4"


def test_tree_suite_composition(small_corpus):
    _, corpus, _ = small_corpus
    suite = generate_tree_suite(1, corpus)
    assert len(suite.queries) == 350
    path_queries = [q for q in suite.queries if q.kind == "path"]
    tree_queries = [q for q in suite.queries if q.kind == "tree"]
    assert len(path_queries) == 240 and len(tree_queries) == 110
    settings = {
        (q.params["length"], q.params["attrs"], q.params["wildcard"], q.params["rooted"])
        for q in path_queries
    }
    assert len(settings) == 4 * 3 * 2 * 2
    sizes = sorted({q.params["labels"] for q in tree_queries})
    assert sizes == [3, 4, 5, 6, 7, 8, 9, 10]


def test_span_suite_composition(small_corpus):
    _, corpus, _ = small_corpus
    suite = generate_span_suite(1, corpus)
    assert len(suite.queries) == 300
    by_atoms = {}
    for q in suite.queries:
        by_atoms.setdefault(q.params["atoms"], 0)
        by_atoms[q.params["atoms"]] += 1
    assert by_atoms == {1: 100, 3: 100, 5: 100}


def test_same_seed_same_suite(small_corpus):
    _, corpus, _ = small_corpus
    s1 = generate_tree_suite(7, corpus)
    s2 = generate_tree_suite(7, corpus)
    assert [q.text for q in s1.queries] == [q.text for q in s2.queries]


def test_generated_queries_parse_and_oracle_evaluate(small_corpus):
    _, corpus, _ = small_corpus
    tree = generate_tree_suite(3, corpus)
    span = generate_span_suite(3, corpus)
    sample = tree.queries[::29] + span.queries[::31]
    for bq in sample:
        q = parse_query(bq.text)
        oracle_evaluate(q, corpus)  # must not raise


def test_effectiveness_definition():
    assert effectiveness(set(), set()) == 1.0
    assert effectiveness({1, 2, 3, 4}, {1, 2}) == 0.5
    assert effectiveness({1}, {1}) == 1.0


def test_empty_corpus_rejected():
    with pytest.raises(KokoInputError, match="empty corpus"):
        generate_tree_suite(1, Corpus([]))


def test_run_benchmark_reports(small_corpus):
    _, corpus, bundle = small_corpus
    suite = generate_span_suite(11, corpus)
    suite.queries = suite.queries[:10] + suite.queries[200:210]
    reports = run_benchmark(suite, corpus, bundle)
    for r in reports:
        assert r.complete, r.qid
        assert r.final_effectiveness == 1.0, r.qid
        assert 0.0 <= r.dpli_effectiveness <= 1.0
        if r.answers > 0:
            assert r.dpli_effectiveness > 0.0  # completeness keeps it off 0
        assert r.iterations_gsp >= 0 and r.iterations_nogsp >= r.iterations_gsp


def test_run_benchmark_aggregates_each_query_once(small_corpus, monkeypatch):
    # The no-GSP run is evaluated only: it builds no rows.
    import koko.engine
    from koko.engine import run_query

    _, corpus, bundle = small_corpus
    suite = generate_span_suite(11, corpus)
    suite.queries = suite.queries[:5] + suite.queries[200:205]
    expected = [
        run_query(parse_query(bq.text), corpus, bundle, use_gsp=False).stats.loop_iterations
        for bq in suite.queries
    ]
    calls = []
    finalize = koko.engine.finalize_results
    monkeypatch.setattr(koko.engine, "finalize_results", lambda *a, **k: calls.append(1) or finalize(*a, **k))
    reports = run_benchmark(suite, corpus, bundle, with_oracle=False)
    assert len(calls) == len(suite.queries)
    assert [r.iterations_nogsp for r in reports] == expected
