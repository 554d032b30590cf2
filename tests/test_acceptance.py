"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run with `pytest tests/test_acceptance.py -v -s`).

The heavyweight criteria share a seeded 2000-sentence synthetic corpus
and the full tree (350) and span (300) suites; those runs are cached at
module scope so the oracle comparison happens once.
"""

from __future__ import annotations

import time

import pytest

from koko.evidence import EvidenceEvaluator
from koko.bench import (
    effectiveness,
    generate_span_suite,
    generate_tree_suite,
    synthesize_corpus,
)
from koko.corpus import AnnotatedDocument, Corpus, Sentence, parse_corpus
from koko.dpli import decompose, join_word_path
from koko.engine import run_query
from koko.indexes import build_indexes
from koko.normalize import normalize
from koko.oracle import oracle_evaluate
from koko.parser import parse_query
from koko.resources import Expansion, Resources

from .conftest import QUERY_FIXTURES, descriptor_conf, fixture_query_text, load_fixture_query, path_offsets, postings
from .pretty import pretty_print

SEED = 20240617


def _report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit}s"
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def synth():
    docs = synthesize_corpus(SEED, 2000)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    return corpus, bundle


@pytest.fixture(scope="module")
def tree_results(synth):
    corpus, bundle = synth
    suite = generate_tree_suite(SEED, corpus)
    out = []
    for bq in suite.queries:
        q = parse_query(bq.text)
        run = run_query(q, corpus, bundle, keep_failed=True)
        oracle_rows = oracle_evaluate(q, corpus, keep_failed=True)
        out.append((bq, run, oracle_rows))
    return out


@pytest.fixture(scope="module")
def span_results(synth):
    corpus, bundle = synth
    suite = generate_span_suite(SEED, corpus)
    out = []
    for bq in suite.queries:
        q = parse_query(bq.text)
        run = run_query(q, corpus, bundle, keep_failed=True)
        oracle_rows = oracle_evaluate(q, corpus, keep_failed=True)
        nogsp = run_query(q, corpus, bundle, keep_failed=True, use_gsp=False)
        out.append((bq, run, oracle_rows, nogsp))
    return out


def test_criterion_1_golden_index_contents(ex31_corpus, ex31_bundle):
    t0 = time.time()

    def word(text):
        return postings(ex31_bundle, ex31_bundle.word.lookup(text))

    assert word("I") == [(0, 0, 0, 0, 1)]
    assert word("cream") == [(0, 5, 2, 9, 1)]
    assert word("delicious") == [
        (0, 9, 9, 9, 3),
        (1, 3, 3, 3, 2),
    ]
    # Both quintuples of the worked table appear; the corpus has a third
    # occurrence of "ate" (tid 13 of the 17-token sentence) the shortened
    # table elides, and a complete index must carry it too.
    ate = word("ate")
    assert (1, 1, 0, 12, 0) in ate and (0, 1, 0, 16, 0) in ate
    assert ate == [
        (0, 1, 0, 16, 0),
        (0, 13, 12, 15, 1),
        (1, 1, 0, 12, 0),
    ]
    entities = {
        (ex31_corpus.sentence(r.sid).text(r.start, r.end), r.sid, r.start, r.end) for r in ex31_bundle.entity.lookup()
    }
    assert entities == {
        ("cheesecake", 1, 4, 4),
        ("grocery store", 1, 10, 11),
        ("chocolate ice cream", 0, 3, 5),
    }
    pl_rows = {
        "/root": [(0, 1, 0, 16, 0), (1, 1, 0, 12, 0)],
        "/root/nsubj": [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1)],
        "/root/dobj": [(0, 5, 2, 9, 1), (1, 4, 2, 11, 1)],
        "/root/dobj/det": [(0, 2, 2, 2, 2), (1, 2, 2, 2, 2)],
        "/root/dobj/amod": [(1, 3, 3, 3, 2)],
        "/root/dobj/nn": [(0, 3, 3, 3, 2), (0, 4, 4, 4, 2)],
    }
    for path, rows in pl_rows.items():
        steps = [("/", label) for label in path.strip("/").split("/")]
        got = postings(ex31_bundle, path_offsets(ex31_bundle.pl, steps))
        assert got == rows, path
    _report(1, "golden index contents", t0, 1.0)


def test_criterion_2_golden_decomposition():
    t0 = time.time()
    q = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = //verb[@text="ate"]/dobj//"delicious" })'
    )
    dp = decompose(normalize(q).var("v").path)
    assert dp.render("pl") == "//*/dobj//*"
    assert dp.render("pos") == "//verb/*//*"
    assert dp.render("word") == '//"ate"/*//"delicious"'
    _report(2, "golden decomposition", t0, 1.0)


def test_criterion_3_golden_word_join(ex31_bundle):
    t0 = time.time()
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = //"ate"/*//"delicious" })')
    dp = decompose(normalize(q).var("v").path)
    q1 = postings(ex31_bundle, ex31_bundle.word.lookup("ate"))
    q2 = postings(ex31_bundle, ex31_bundle.word.lookup("delicious"))
    assert {(sid, tid) for sid, tid, *_ in q1} >= {(1, 1), (0, 1)}
    assert set(q2) == {(1, 3, 3, 3, 2), (0, 9, 9, 9, 3)}
    result = postings(ex31_bundle, join_word_path(ex31_bundle, dp))
    assert set(result) == {(1, 3, 3, 3, 2), (0, 9, 9, 9, 3)}
    _report(3, "golden word-path join", t0, 1.0)


def test_criterion_4_golden_query_result(figure1_corpus, figure1_bundle):
    t0 = time.time()
    rows = run_query(load_fixture_query("ex21"), figure1_corpus, figure1_bundle).rows
    assert [(r.values["e"], r.values["d"]) for r in rows] == [
        ("chocolate ice cream", "a chocolate ice cream, which was delicious"),
    ]
    _report(4, "golden query result", t0, 1.0)


def test_criterion_5_parser_fixtures():
    t0 = time.time()
    for name in QUERY_FIXTURES:
        q = parse_query(fixture_query_text(name))
        assert parse_query(pretty_print(q)) == q, name
    _report(5, "parser fixtures round-trip", t0, 1.0)


def test_criterion_6_oracle_equivalence(tree_results, span_results):
    t0 = time.time()
    checked = 0
    for bq, run, oracle_rows in tree_results:
        assert sorted(r.key() for r in run.rows) == sorted(
            r.key() for r in oracle_rows
        ), bq.qid
        checked += 1
    for bq, run, oracle_rows, _ in span_results:
        assert sorted(r.key() for r in run.rows) == sorted(
            r.key() for r in oracle_rows
        ), bq.qid
        checked += 1
    assert checked == 650
    _report(6, "oracle equivalence on 650 queries", t0, 600.0)


def test_criterion_7_completeness_and_effectiveness(tree_results, span_results):
    t0 = time.time()
    for bq, run, oracle_rows in tree_results:
        answers = {r.sid for r in oracle_rows if r.passed}
        candidates = set(run.candidate_sids)
        assert answers <= candidates, bq.qid
        assert effectiveness(run.answer_sids, answers) == 1.0, bq.qid
    for bq, run, oracle_rows, _ in span_results:
        answers = {r.sid for r in oracle_rows if r.passed}
        assert answers <= set(run.candidate_sids), bq.qid
        assert effectiveness(run.answer_sids, answers) == 1.0, bq.qid
    _report(7, "DPLI completeness, final effectiveness 1.0", t0, 600.0)


def test_criterion_8_gsp_equivalence_and_benefit(span_results):
    t0 = time.time()
    five_atom_total = 0
    five_atom_lower = 0
    for bq, run, _, nogsp in span_results:
        assert sorted(r.key() for r in run.rows) == sorted(
            r.key() for r in nogsp.rows
        ), bq.qid
        if bq.params["atoms"] == 5:
            five_atom_total += 1
            if run.stats.loop_iterations < nogsp.stats.loop_iterations:
                five_atom_lower += 1
    assert five_atom_total == 100
    assert five_atom_lower >= 95, f"strictly lower on only {five_atom_lower}/100"
    _report(8, "GSP equivalence and iteration benefit", t0, 300.0)


def test_criterion_9_formula_spot_checks():
    t0 = time.time()
    words = ["x", "a", "b", "c", "y"]
    rows = "\n".join(
        f"0\t{i}\t{w}\tnoun\t{'root' if i == 0 else 'dep'}\t{-1 if i == 0 else 0}\tO"
        for i, w in enumerate(words)
    )
    corpus = Corpus(parse_corpus(rows + "\n"))
    ev = EvidenceEvaluator(corpus, Resources(), [0])
    assert ev.eval_near("x", "a")[0] == 1.0
    assert abs(ev.eval_near("x", "y")[0] - 0.25) < 1e-12

    assert abs(descriptor_conf(
        [Expansion(("serves", "coffee"), 1.0)],
        ["it", "serves", "great", "coffee", "daily"],
    ) - 1.0) < 1e-12
    assert abs(descriptor_conf(
        [Expansion(("serves", "coffee"), 1.0), Expansion(("sells", "espresso"), 0.8)],
        ["they", "sells", "espresso"],
    ) - 0.8) < 1e-12
    assert descriptor_conf(
        [Expansion(("serves", "coffee"), 1.0)],
        ["nothing", "here"],
    ) == 0.0

    # Weighted-sum fixtures: a single full-weight boolean hit passes the
    # 0.8 threshold; two 0.6-confidence descriptors at weight 0.5 do not.
    clause_q = parse_query(
        'extract x:Entity from "d" if ()\n'
        'satisfying x\n'
        '  (str(x) contains "Cafe" {1}) or (str(x) contains "Roasters" {1}) or\n'
        '  (x ", a cafe" {1}) or (x [["serves coffee"]] {0.5}) or\n'
        '  (x [["employs baristas"]] {0.5})\n'
        "with threshold 0.8"
    )
    score = ev.score(clause_q.satisfying[0], 0, "Corner Cafe")
    assert abs(score.total - 1.0) < 1e-12 and score.passed

    class Stub(EvidenceEvaluator):
        def eval_descriptor(self, value, phrase, right_side):
            return 0.6, [(0, 0.6)]

    weak_q = parse_query(
        'extract x:Entity from "d" if ()\n'
        'satisfying x\n'
        '  (x [["serves coffee"]] {0.5}) or (x [["employs baristas"]] {0.5})\n'
        "with threshold 0.8"
    )
    weak = Stub(corpus, Resources(), [0]).score(weak_q.satisfying[0], 1, "anything")
    assert abs(weak.total - 0.6) < 1e-12 and not weak.passed
    _report(9, "formula spot checks", t0, 1.0)


def _replicate(s: Sentence, sid: int) -> Sentence:
    return Sentence(sid, s.tokens, s.pos, s.labels, s.heads, [e._replace(sid=sid) for e in s.entities])


def test_criterion_10_compression_property():
    t0 = time.time()
    template = synthesize_corpus(SEED + 1, 1, min_len=10, max_len=10)[0].sentences[0]
    distinct_docs = synthesize_corpus(
        SEED + 2, 1000, shape_pool=150, vocabulary=500, min_len=8, max_len=12
    )
    distinct = [s for d in distinct_docs for s in d.sentences]
    assert len({tuple(s.tokens) for s in distinct}) == 1000  # truly distinct sentences

    def as_corpus(sentences: list[Sentence]) -> list[AnnotatedDocument]:
        doc = AnnotatedDocument(doc_id="mix")
        doc.sentences = [_replicate(s, i) for i, s in enumerate(sentences)]
        return [doc]

    mixed = as_corpus([template] * 1000 + distinct)
    dedup = as_corpus([template] + distinct)
    mixed_bundle = build_indexes(mixed)
    dedup_bundle = build_indexes(dedup)
    assert mixed_bundle.pl.node_count <= 1.02 * dedup_bundle.pl.node_count
    naive_nodes = mixed_bundle.token_count
    reduction = 1.0 - mixed_bundle.pl.node_count / naive_nodes
    assert reduction >= 0.90, f"reduction only {reduction:.2%}"
    _report(10, "hierarchy compression", t0, 30.0)


def test_criterion_11_scaling_shape():
    t0 = time.time()
    scales = [10_000, 50_000, 100_000]
    queries = [
        'extract v:Str from "bench" if (/ROOT:{ v = /root/dobj })',
        'extract v:Str from "bench" if (/ROOT:{ v = //verb/dobj/det })',
        'extract v:Str from "bench" if (/ROOT:{ v = //nsubj + ^[@max=4] + //dobj })',
    ]
    per_sentence = []
    for n in scales:
        docs = synthesize_corpus(SEED + 3, n)
        corpus = Corpus(docs)
        bundle = build_indexes(docs)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for text in queries:
                run_query(parse_query(text), corpus, bundle)
            best = min(best, time.perf_counter() - start)
        per_sentence.append(best / n)
    ratio = max(per_sentence) / min(per_sentence)
    assert ratio <= 2.0, f"per-sentence time ratio {ratio:.2f} across {scales}"
    _report(11, "near-linear scaling", t0, 600.0)
