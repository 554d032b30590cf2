from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koko.evidence import EvidenceEvaluator
from koko.bench import synthesize_corpus
from koko.corpus import Corpus, parse_corpus
from koko.engine import run_query
from koko.errors import KokoResourceError
from koko.indexes import build_indexes
from koko.normalize import normalize
from koko.oracle import oracle_evaluate
from koko.parser import parse_query
from koko.resources import Expansion, Resources, WordVectors
from koko.syntax import SatCondition
from koko.textutil import find_token_seq

from .conftest import QUERY_FIXTURES, descriptor_conf, load_fixture_query

CAFE_TSV = """# doc_id = cafes.txt
0	0	Blue	propn	nn	1	B-Entity
0	1	Bottle	propn	nsubj	6	I-Entity
0	2	,	punct	punct	1	O
0	3	a	det	det	4	O
0	4	cafe	noun	appos	1	O
0	5	,	punct	punct	1	O
0	6	opened	verb	root	-1	O
0	7	downtown	adv	advmod	6	O
0	8	.	punct	punct	6	O

1	0	Blue	propn	nn	1	B-Entity
1	1	Bottle	propn	nsubj	2	I-Entity
1	2	serves	verb	root	-1	O
1	3	great	adj	amod	4	O
1	4	coffee	noun	dobj	2	O
1	5	daily	adv	advmod	2	O
1	6	.	punct	punct	2	O

2	0	La	propn	nn	1	B-Entity
2	1	Marzocco	propn	nsubj	3	I-Entity
2	2	machines	noun	nsubj	3	O
2	3	are	verb	root	-1	O
2	4	everywhere	adv	advmod	3	O
2	5	.	punct	punct	3	O

3	0	Ritual	propn	nn	1	B-Entity
3	1	Roasters	propn	nsubj	2	I-Entity
3	2	hired	verb	root	-1	O
3	3	a	det	det	4	O
3	4	barista	noun	dobj	2	O
3	5	.	punct	punct	2	O
"""


@pytest.fixture(scope="module")
def cafe_env():
    docs = parse_corpus(CAFE_TSV)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    resources = Resources(expansion_table={
        "serves coffee": [
            Expansion(("serves", "coffee"), 1.0),
            Expansion(("sells", "espresso"), 0.8),
        ],
        "employs baristas": [
            Expansion(("employs", "baristas"), 1.0),
            Expansion(("hired", "barista"), 0.7),
        ],
    })
    return corpus, bundle, resources


def _evaluator(corpus, resources=None):
    res = resources if resources is not None else Resources()
    return EvidenceEvaluator(corpus, res, list(range(len(corpus))))


def _boolean(ev, cond, value):
    """A boolean condition's m for the value, as the engine measures it."""
    return ev.measure(ev.plan.scorer(cond), value)[0]


def test_contains_vs_mentions():
    corpus = Corpus(parse_corpus("0\t0\tx\tnoun\troot\t-1\tO\n"))
    ev = _evaluator(corpus)
    value = "chocolate ice cream"
    assert _boolean(ev, SatCondition("contains", "x", "ice"), value) == 1.0
    assert _boolean(ev, SatCondition("mentions", "x", "choc"), value) == 1.0
    assert _boolean(ev, SatCondition("contains", "x", "choc"), value) == 0.0
    assert _boolean(ev, SatCondition("contains", "x", "ice cream"), value) == 1.0


def test_matches_is_full_string():
    corpus = Corpus(parse_corpus("0\t0\tx\tnoun\troot\t-1\tO\n"))
    ev = _evaluator(corpus)
    assert _boolean(ev, SatCondition("matches", "x", "[Ll]a Marzocco"), "La Marzocco") == 1.0
    assert _boolean(ev, SatCondition("matches", "x", "Marzocco"), "La Marzocco") == 0.0


def test_matches_empty_alternation_never_fires():
    corpus = Corpus(parse_corpus("0\t0\tx\tnoun\troot\t-1\tO\n"))
    ev = _evaluator(corpus)
    assert _boolean(ev, SatCondition("matches", "x", "a[b]c"), "") == 0.0


def test_followed_by_adjacency(cafe_env):
    corpus, _, _ = cafe_env
    ev = _evaluator(corpus)
    assert _boolean(ev, SatCondition("followed_by", "x", ", a cafe"), "Blue Bottle") == 1.0
    assert _boolean(ev, SatCondition("followed_by", "x", "a cafe"), "Blue Bottle") == 0.0
    assert _boolean(ev, SatCondition("preceded_by", "x", "Blue"), "Bottle") == 1.0


def test_token_sequences_match_on_tuple_columns():
    """A sentence's columns are tuples, and a slice of a tuple never equals
    a list: every token-sequence comparison is tuple to tuple."""
    docs = parse_corpus(
        "0\t0\tBlue\tpropn\tnn\t1\tB-Entity\n"
        "0\t1\tBottle\tpropn\tnsubj\t2\tI-Entity\n"
        "0\t2\tserves\tverb\troot\t-1\tO\n"
        "0\t3\thot\tadj\tamod\t4\tO\n"
        "0\t4\tcoffee\tnoun\tdobj\t2\tO\n"
    )
    corpus = Corpus(docs)
    words = corpus.sentence(0).tokens
    assert isinstance(words, tuple)
    assert find_token_seq(words, ("hot", "coffee")) == [3]
    ev = _evaluator(corpus)
    assert _boolean(ev, SatCondition("followed_by", "x", "serves hot"), "Blue Bottle") == 1.0
    assert _boolean(ev, SatCondition("preceded_by", "x", "Bottle serves"), "hot coffee") == 1.0
    assert _boolean(ev, SatCondition("contains", "x", "hot coffee"), "serves hot coffee") == 1.0
    # The word sequence is skipped by the plan and aligned to the gap left
    # of "coffee", which compares the sentence's tokens with the literal's.
    query = parse_query('extract v:Str from "t" if (/ROOT:{ v = "serves hot" + "coffee" })')
    rows = run_query(query, corpus, build_indexes(docs)).rows
    assert [r.values for r in rows] == [{"v": "serves hot coffee"}]


def test_in_dict_requires_known_dictionary(cafe_env):
    corpus, _, _ = cafe_env
    res = Resources()
    res.dictionaries.add("Location", {"Portland"})
    ev = _evaluator(corpus, res)
    assert _boolean(ev, SatCondition("in_dict", "x", "Location"), "Portland") == 1.0
    assert _boolean(ev, SatCondition("in_dict", "x", "Location"), "Seattle") == 0.0
    with pytest.raises(KokoResourceError, match="Nowhere"):
        _boolean(ev, SatCondition("in_dict", "x", "Nowhere"), "Portland")


def test_near_distance_zero_is_one():
    corpus = Corpus(parse_corpus(
        "0\t0\tCafe\tpropn\tnn\t1\tB-Entity\n"
        "0\t1\tBenz\tpropn\tnsubj\t2\tI-Entity\n"
        "0\t2\tserves\tverb\troot\t-1\tO\n"
        "0\t3\tgreat\tadj\tamod\t4\tO\n"
        "0\t4\tcoffee\tnoun\tdobj\t2\tO\n"
    ))
    ev = _evaluator(corpus)
    m, per = ev.eval_near("Cafe Benz", "serves")
    assert m == 1.0
    # serves(2) and great(3) separate Benz(1) from coffee(4): distance 2.
    m3, _ = ev.eval_near("Cafe Benz", "coffee")
    assert m3 == pytest.approx(1 / 3, abs=1e-12)


def test_near_formula():
    # distance 0 -> 1.0, distance 3 -> 0.25
    words = ["x", "a", "b", "c", "y"]
    rows = "\n".join(
        f"0\t{i}\t{w}\tnoun\t{'root' if i == 0 else 'dep'}\t{-1 if i == 0 else 0}\tO"
        for i, w in enumerate(words)
    )
    corpus = Corpus(parse_corpus(rows + "\n"))
    ev = _evaluator(corpus)
    assert ev.eval_near("x", "a")[0] == 1.0
    assert ev.eval_near("x", "y")[0] == 0.25
    assert ev.eval_near("x", "absent")[0] == 0.0
    # Over a document, near takes the best sentence: distance 0 in two
    # sentences gives 1.0, and distances 1 and 3 give 0.5, not 0.5 + 0.25.
    corpus = Corpus(parse_corpus(
        "0\t0\tx\tnoun\troot\t-1\tO\n0\t1\tnear\tnoun\tdep\t0\tO\n\n"
        "1\t0\tx\tnoun\troot\t-1\tO\n1\t1\tnear\tnoun\tdep\t0\tO\n\n"
        "2\t0\tx\tnoun\troot\t-1\tO\n2\t1\ta\tnoun\tdep\t0\tO\n2\t2\tfar\tnoun\tdep\t0\tO\n\n"
        "3\t0\tfar\tnoun\troot\t-1\tO\n3\t1\ta\tnoun\tdep\t0\tO\n"
        "3\t2\tb\tnoun\tdep\t0\tO\n3\t3\tc\tnoun\tdep\t0\tO\n3\t4\tx\tnoun\tdep\t0\tO\n"
    ))
    ev = EvidenceEvaluator(corpus, Resources(), [0, 1])
    assert ev.eval_near("x", "near")[0] == 1.0
    ev = EvidenceEvaluator(corpus, Resources(), [2, 3])
    assert ev.eval_near("x", "far") == (0.5, [(2, 0.5), (3, 0.25)])


def test_near_bounds_property(cafe_env):
    corpus, _, _ = cafe_env
    ev = _evaluator(corpus)
    for value in ("Blue Bottle", "Ritual Roasters"):
        for lit in ("coffee", "barista", ".", "daily"):
            m, _ = ev.eval_near(value, lit)
            assert 0.0 <= m <= 1.0


def test_conf_descriptor_in_order_with_gaps():
    e = [Expansion(("serves", "coffee"), 1.0)]
    assert descriptor_conf(e, ["it", "serves", "great", "coffee", "daily"]) == 1.0


def test_conf_descriptor_takes_best_expansion():
    e = [Expansion(("serves", "coffee"), 1.0), Expansion(("sells", "espresso"), 0.8)]
    assert descriptor_conf(e, ["they", "sells", "espresso"]) == pytest.approx(0.8, abs=1e-15)


def test_conf_descriptor_absent_words():
    e = [Expansion(("serves", "coffee"), 1.0)]
    assert descriptor_conf(e, ["nothing", "relevant", "here"]) == 0.0


def test_descriptor_window_is_one_sided(cafe_env):
    corpus, _, resources = cafe_env
    ev = EvidenceEvaluator(corpus, resources, list(range(len(corpus))))
    right, _ = ev.eval_descriptor("Blue Bottle", "serves coffee", right_side=True)
    assert right == 1.0  # "serves ... coffee" right after the mention
    left, _ = ev.eval_descriptor("Blue Bottle", "serves coffee", right_side=False)
    assert left == 0.0  # nothing before the mention


def test_descriptor_distance_damping():
    # One filler token between the mention and the matched words: 1/(1+1).
    rows = (
        "0\t0\tRoast\tpropn\tnsubj\t3\tB-Entity\n"
        "0\t1\ttruly\tadv\tadvmod\t3\tO\n"
        "0\t2\tserves\tverb\tdep\t3\tO\n"
        "0\t3\tcoffee\tnoun\troot\t-1\tO\n"
    )
    corpus = Corpus(parse_corpus(rows))
    res = Resources(expansion_table={"serves coffee": [Expansion(("serves", "coffee"), 1.0)]})
    ev = EvidenceEvaluator(corpus, res, [0])
    m, per = ev.eval_descriptor("Roast", "serves coffee", right_side=True)
    assert m == pytest.approx(0.5, abs=1e-12)


def test_aggregate_scores_cafe_contains_only(cafe_env):
    corpus, bundle, resources = cafe_env
    q = load_fixture_query("ex23")
    n = normalize(q)
    ev = EvidenceEvaluator(corpus, resources, list(range(len(corpus))))
    score = ev.score(q.satisfying[0], 0, "Corner Cafe")
    assert score.total == pytest.approx(1.0, abs=1e-12)
    assert score.passed  # 1.0 >= 0.8


def test_aggregate_scores_two_weak_descriptors_fail():
    text = 'extract x:Entity from "d" if ()\nsatisfying x\n' \
        '  (x [["serves coffee"]] {0.5}) or (x [["employs baristas"]] {0.5})\n' \
        "with threshold 0.8"
    q = parse_query(text)
    corpus = Corpus(parse_corpus("0\t0\tx\tnoun\troot\t-1\tO\n"))

    class Stub(EvidenceEvaluator):
        def eval_descriptor(self, value, phrase, right_side):
            return 0.6, [(0, 0.6)]

    ev = Stub(corpus, Resources(), [0])
    score = ev.score(q.satisfying[0], 0, "anything")
    assert score.total == pytest.approx(0.6, abs=1e-12)
    assert not score.passed


def test_empty_clause_trivially_passes(cafe_env):
    corpus, bundle, resources = cafe_env
    q = parse_query('extract x:Entity from "cafes.txt" if ()')
    rows = run_query(q, corpus, bundle, resources=resources).rows
    assert len(rows) == 3 and all(r.passed for r in rows)


def test_excluding_matches(cafe_env):
    corpus, bundle, resources = cafe_env
    text = (
        'extract x:Entity from "cafes.txt" if ()\n'
        'satisfying x (str(x) mentions "a" {1}) with threshold 0\n'
        'excluding (str(x) matches "[Ll]a Marzocco")'
    )
    q = parse_query(text)
    rows = run_query(q, corpus, bundle, resources=resources, keep_failed=True).rows
    by_value = {r.values["x"]: r for r in rows}
    assert not by_value["La Marzocco"].passed
    assert by_value["La Marzocco"].excluded_by is not None
    assert by_value["Blue Bottle"].passed


def test_excluding_in_dict(cafe_env):
    corpus, bundle, _ = cafe_env
    res = Resources()
    res.dictionaries.add("Location", {"Blue Bottle"})
    text = (
        'extract x:Entity from "cafes.txt" if ()\n'
        'satisfying x (str(x) mentions "t" {1}) with threshold 0\n'
        'excluding (str(x) in dict("Location"))'
    )
    rows = run_query(parse_query(text), corpus, bundle, resources=res, keep_failed=True).rows
    by_value = {r.values["x"]: r for r in rows}
    assert by_value["Blue Bottle"].excluded_by is not None
    assert by_value["Ritual Roasters"].passed


def test_ex23_end_to_end_totals(cafe_env):
    corpus, bundle, resources = cafe_env
    q = load_fixture_query("ex23")
    rows = run_query(q, corpus, bundle, resources=resources, keep_failed=True).rows
    totals = {r.values["x"]: r.scores["x"].total for r in rows}
    assert totals["Blue Bottle"] == pytest.approx(1.5, abs=1e-12)
    assert totals["Ritual Roasters"] == pytest.approx(1.35, abs=1e-12)
    assert totals["La Marzocco"] == pytest.approx(0.0, abs=1e-12)
    passed = {r.values["x"] for r in rows if r.passed}
    assert passed == {"Blue Bottle", "Ritual Roasters"}


@given(st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_weight_linearity(scale):
    # Scaling every weight and the threshold together preserves pass/fail.
    docs = parse_corpus(CAFE_TSV)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    resources = Resources()
    base = (
        'extract x:Entity from "d" if ()\n'
        "satisfying x\n"
        '  (str(x) contains "Roasters" {%s}) or (str(x) mentions "tt" {%s})\n'
        "with threshold %s"
    )
    w1, w2, a = 1.0, 0.5, 0.8
    q1 = parse_query(base % (w1, w2, a))
    q2 = parse_query(base % (w1 * scale, w2 * scale, a * scale))
    r1 = run_query(q1, corpus, bundle, resources=resources, keep_failed=True).rows
    r2 = run_query(q2, corpus, bundle, resources=resources, keep_failed=True).rows
    assert [(r.values["x"], r.passed) for r in r1] == [
        (r.values["x"], r.passed) for r in r2
    ]


def test_boolean_idempotence_under_duplication():
    def sent(sid: int) -> str:
        return (
            f"{sid}\t0\tRitual\tpropn\tnn\t1\tB-Entity\n"
            f"{sid}\t1\tRoasters\tpropn\troot\t-1\tI-Entity\n"
        )

    c1 = Corpus(parse_corpus(sent(0)))
    c2 = Corpus(parse_corpus(sent(0) + "\n" + sent(1)))
    cond = SatCondition("contains", "x", "Roasters")
    assert _boolean(_evaluator(c1), cond, "Ritual Roasters") == 1.0
    assert _boolean(_evaluator(c2), cond, "Ritual Roasters") == 1.0


def test_descriptor_monotonicity_added_evidence():
    res = Resources(expansion_table={"serves coffee": [Expansion(("serves", "coffee"), 1.0)]})
    one = (
        "0\t0\tRoast\tpropn\tnsubj\t1\tB-Entity\n"
        "0\t1\tserves\tverb\troot\t-1\tO\n"
        "0\t2\tcoffee\tnoun\tdobj\t1\tO\n"
    )
    two = one + "\n" + (
        "1\t0\tRoast\tpropn\tnsubj\t1\tB-Entity\n"
        "1\t1\tserves\tverb\troot\t-1\tO\n"
        "1\t2\tcoffee\tnoun\tdobj\t1\tO\n"
    )
    ev1 = _evaluator(Corpus(parse_corpus(one)), res)
    ev2 = _evaluator(Corpus(parse_corpus(two)), res)
    m1, _ = ev1.eval_descriptor("Roast", "serves coffee", True)
    m2, _ = ev2.eval_descriptor("Roast", "serves coffee", True)
    assert m2 >= m1
    assert m1 <= 1.0 and m2 <= 1.0  # clamped


def test_clamp_total_bounded_by_weight_sum(cafe_env):
    corpus, bundle, resources = cafe_env
    q = load_fixture_query("ex23")
    rows = run_query(q, corpus, bundle, resources=resources, keep_failed=True).rows
    wsum = sum(wc.weight for wc in q.satisfying[0].conditions)
    for r in rows:
        s = r.scores["x"]
        assert s.total <= wsum + 1e-12
        for c in s.conditions:
            assert 0.0 <= c.m <= 1.0


def test_evidence_scoped_per_document():
    # The same surface form appears in two documents; only the first has
    # supporting evidence, so only the first document emits the value.
    tsv = (
        "# doc_id = one\n"
        "0\t0\tRitual\tpropn\tnn\t1\tB-Entity\n"
        "0\t1\tRoasters\tpropn\tnsubj\t2\tI-Entity\n"
        "0\t2\tserves\tverb\troot\t-1\tO\n"
        "0\t3\tcoffee\tnoun\tdobj\t2\tO\n"
        "\n"
        "# doc_id = two\n"
        "1\t0\tRitual\tpropn\tnn\t1\tB-Entity\n"
        "1\t1\tRoasters\tpropn\tnsubj\t2\tI-Entity\n"
        "1\t2\tclosed\tverb\troot\t-1\tO\n"
    )
    docs = parse_corpus(tsv)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    res = Resources(expansion_table={
        "serves coffee": [Expansion(("serves", "coffee"), 1.0)],
    })
    q = parse_query(
        'extract x:Entity from "d" if ()\n'
        'satisfying x (x [["serves coffee"]] {1}) with threshold 0.9\n'
    )
    rows = run_query(q, corpus, bundle, resources=res, keep_failed=True).rows
    assert [(r.sid, r.passed) for r in rows] == [(0, True), (1, False)]


def test_query_without_evidence_is_a_projection(ex31_corpus, ex31_bundle, monkeypatch):
    import koko.evidence

    q = parse_query('extract v:Str from "d" if (/ROOT:{ v = //verb })')
    expected = run_query(q, ex31_corpus, ex31_bundle).rows
    assert expected

    def unused(*args, **kwargs):
        raise AssertionError("a query without evidence needs no document")

    monkeypatch.setattr(koko.evidence, "EvidenceEvaluator", unused)
    monkeypatch.setattr(Corpus, "doc_index_of", unused)
    assert run_query(q, ex31_corpus, ex31_bundle).rows == expected


def test_projection_rows_follow_the_key_order_of_out_of_order_outputs(monkeypatch):
    # Outputs named w, a: a row's key orders them a, w. The projection
    # sorts its tuples once, by that key, and touches no document. Two
    # independent paths give every pair in a sentence.
    import koko.evidence

    docs = synthesize_corpus(23, 150)
    corpus, bundle = Corpus(docs), build_indexes(docs)
    q = parse_query('extract w:Str, a:Str from "d" if (/ROOT:{ w = //nsubj, a = //det })')
    oracle = oracle_evaluate(q, corpus)
    keys = [r.key() for r in oracle]
    assert len(keys) > 50 and keys == sorted(keys)
    # Sorting by the values in the order named would differ.
    assert sorted(oracle, key=lambda r: (r.sid, r.values["w"], r.values["a"])) != oracle

    def unused(*args, **kwargs):
        raise AssertionError("a projection needs no document")

    monkeypatch.setattr(koko.evidence, "EvidenceEvaluator", unused)
    monkeypatch.setattr(Corpus, "doc_index_of", unused)
    rows = run_query(q, corpus, bundle).rows
    assert [(r.key(), r.to_json()) for r in rows] == [(r.key(), r.to_json()) for r in oracle]
    assert [list(r.values) for r in rows[:1]] == [["w", "a"]]


def test_a_query_lowers_each_sentence_and_renders_each_condition_once(monkeypatch):
    # One plan per query, shared by the evaluators of its documents: each
    # condition is rendered once, and each descriptor phrase is expanded
    # and its expansions lowercased once. A sentence's words are lowercased
    # once for every value and both descriptor sides, by the one evaluator
    # of its document. The rows are those of a fresh evaluation.
    import koko.evidence
    from koko.syntax import print_condition

    docs = synthesize_corpus(5, 60, entity_rate=0.6, sentences_per_doc=4)
    corpus, bundle = Corpus(docs), build_indexes(docs)
    q = parse_query(
        'extract x:Entity from "d" if ()\n'
        'satisfying x (x [["a b"]] {0.5}) or ([["c d"]] x {0.5}) or (str(x) mentions "a" {0.5})\n'
        "with threshold 0.1\n"
        'excluding (str(x) matches "Z.*")'
    )
    expected = [(r.to_json(), r.passed, r.excluded_by) for r in run_query(q, corpus, bundle, keep_failed=True).rows]
    assert len({r.sid // 4 for r in run_query(q, corpus, bundle).rows}) > 1  # rows of several documents
    plans, evaluators, rendered, expanded = [], [], [], []

    class RecordedPlan(koko.evidence.QueryPlan):
        def __init__(self, resources):
            super().__init__(resources)
            plans.append(self)

    class RecordedEvaluator(koko.evidence.EvidenceEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

    expand = Resources.expand
    monkeypatch.setattr(koko.evidence, "QueryPlan", RecordedPlan)
    monkeypatch.setattr(koko.evidence, "EvidenceEvaluator", RecordedEvaluator)
    monkeypatch.setattr(koko.evidence, "print_condition", lambda c: rendered.append(c) or print_condition(c))
    monkeypatch.setattr(Resources, "expand", lambda self, phrase: expanded.append(phrase) or expand(self, phrase))
    rows = run_query(q, corpus, bundle, keep_failed=True).rows
    assert [(r.to_json(), r.passed, r.excluded_by) for r in rows] == expected
    assert len(plans) == 1 and len(rendered) == len(set(rendered)) == 4
    assert sorted(expanded) == ["a b", "c d"] and sorted(plans[0].expansions) == ["a b", "c d"]
    assert len(evaluators) > 1 and all(ev.plan is plans[0] for ev in evaluators)
    lowered = [sid for ev in evaluators for sid in ev.lowered]
    assert len(lowered) > 4 and len(lowered) == len(set(lowered))
    for ev in evaluators:
        for sid, (words, last) in ev.lowered.items():
            assert sid in ev.doc_sids
            assert words == tuple(w.lower() for w in corpus.words(sid))
            assert last == {w: len(words) - 1 - words[::-1].index(w) for w in words}


def test_kept_rows_are_the_passing_rows_of_keep_failed_and_only_they_build_scores(tmp_path, monkeypatch):
    # Every condition kind, similarTo with and without word vectors: the
    # rows of keep_failed=False are the passing, non-excluded rows of
    # keep_failed=True, and each run builds score objects for the rows it
    # returns only.
    import koko.evidence

    docs = synthesize_corpus(17, 300, vocabulary=60, entity_rate=0.8, sentences_per_doc=5)
    corpus, bundle = Corpus(docs), build_indexes(docs)
    tokens = Counter(t for s in corpus.sentences for t in s.tokens)
    w = [word for word, _ in tokens.most_common(8)]
    surfaces = sorted({s.text(e.start, e.end) for s in corpus.sentences for e in s.entities})
    rng = random.Random(17)
    vectors_file = tmp_path / "vectors.txt"
    vectors_file.write_text("".join(
        word + "".join(f" {rng.gauss(0.0, 1.0):.3f}" for _ in range(3)) + "\n" for word in sorted(tokens)
    ))
    table = {
        f"{w[0]} {w[1]}": [Expansion((w[2], w[4]), 0.8), Expansion((w[5], w[1], w[3]), 0.5)],
        f"{w[2]} {w[3]}": [Expansion((w[0], w[5]), 0.7), Expansion((w[4], w[6]), 0.6)],
    }
    q = parse_query(
        'extract x:Entity from "d" if ()\nsatisfying x\n'
        f'  (str(x) contains "{w[0]}" {{0.2}}) or (str(x) mentions "{w[1][:3]}" {{0.1}}) or\n'
        f'  (str(x) matches "{w[2]}.*" {{0.1}}) or (str(x) in dict("Known") {{0.2}}) or\n'
        f'  (x similarTo "{surfaces[3]}" {{0.3}}) or (x "{w[3]}" {{0.3}}) or ("{w[4]}" x {{0.3}}) or\n'
        f'  (x near "{w[5]}" {{0.2}}) or (x [["{w[0]} {w[1]}"]] {{0.4}}) or ([["{w[2]} {w[3]}"]] x {{0.4}})\n'
        "with threshold 0.5\n"
        f'excluding (str(x) matches ".*{w[6]}.*") or (str(x) contains "{w[7]}")'
    )
    conditions = len(q.satisfying[0].conditions)
    built = []
    condition_score = koko.evidence.ConditionScore
    monkeypatch.setattr(koko.evidence, "ConditionScore", lambda *a: built.append(a) or condition_score(*a))
    for vectors in (None, WordVectors(str(vectors_file))):
        def resources():
            res = Resources(expansion_table=table, vectors=vectors, decomposer="clauses")
            res.dictionaries.add("Known", set(surfaces[::3]))
            return res

        built.clear()
        every = run_query(q, corpus, bundle, resources=resources(), keep_failed=True).rows
        assert len(built) == len(every) * conditions
        # Every condition scores some row, and the query keeps some rows,
        # fails some on their score and excludes some.
        assert all(any(r.scores["x"].conditions[i].m > 0 for r in every) for i in range(conditions))
        assert any(r.excluded_by for r in every) and any(not r.scores["x"].passed for r in every)
        passing = [r for r in every if r.passed]
        built.clear()
        kept = run_query(q, corpus, bundle, resources=resources()).rows
        assert 0 < len(kept) == len(passing) < len(every)
        assert len(built) == len(kept) * conditions
        assert [r.to_json() for r in kept] == [r.to_json() for r in passing]
        assert [r.scores["x"].describe() for r in kept] == [r.scores["x"].describe() for r in passing]
        assert all(r.passed and r.excluded_by is None for r in kept)


def test_a_descriptor_reads_only_the_side_it_scores(monkeypatch):
    # "serves coffee" after the value in sentence 0, before it in sentence
    # 1, and split around it in sentence 2: each descriptor side scores only
    # the sentences with the expansion's words on its side, and decomposes
    # no other. Each document holds one sentence, so a value scores 0 in a
    # document whose sentence holds the words on the other side only.
    def sentence(sid, words):
        rows = []
        for tid, word in enumerate(words):
            head, label = (-1, "root") if tid == 0 else (0, "dep")
            etag = {"Blue": "B-Entity", "Bottle": "I-Entity"}.get(word, "O")
            rows.append(f"{sid}\t{tid}\t{word}\tnoun\t{label}\t{head}\t{etag}")
        return f"# doc_id = d{sid}\n" + "\n".join(rows) + "\n"

    docs = parse_corpus("\n".join([
        sentence(0, ["Blue", "Bottle", "truly", "serves", "great", "coffee"]),
        sentence(1, ["they", "serve", "coffee", "and", "serves", "coffee", "at", "Blue", "Bottle"]),
        sentence(2, ["coffee", "fans", "like", "Blue", "Bottle", "serves", "."]),
    ]))
    corpus, bundle = Corpus(docs), build_indexes(docs)
    resources = Resources(
        expansion_table={"serves coffee": [Expansion(("sells", "espresso"), 0.8)]}, decomposer="clauses"
    )
    decomposed = []
    decompose = Resources.decompose
    monkeypatch.setattr(Resources, "decompose", lambda self, sid, words: decomposed.append(sid) or decompose(self, sid, words))
    for side, text, scored in (
        ("right", 'x [["serves coffee"]]', {0: 0.5}),
        ("left", '[["serves coffee"]] x', {1: 0.5}),
    ):
        q = parse_query(f'extract x:Entity from "d" if ()\nsatisfying x ({text} {{1}}) with threshold 0.4\n')
        decomposed.clear()
        rows = run_query(q, corpus, bundle, resources=resources, keep_failed=True).rows
        assert decomposed == list(scored), side
        by_sid = {r.sid: r.scores["x"].conditions[0] for r in rows}
        assert {sid: c.m for sid, c in by_sid.items()} == {0: 0.0, 1: 0.0, 2: 0.0, **scored}, side
        assert {sid: c.per_sentence for sid, c in by_sid.items() if c.per_sentence} == {
            sid: [(sid, m)] for sid, m in scored.items()
        }
        oracle = oracle_evaluate(q, corpus, resources, keep_failed=True)
        assert [r.to_json() for r in rows] == [r.to_json() for r in oracle], side


def test_every_condition_confidence_is_a_float(ex31_corpus, ex31_bundle):
    # A descriptor with no evidence once scored the int 0, printed as
    # "m": 0 where every other condition prints 0.0.
    scored = 0
    for name in QUERY_FIXTURES:
        for row in run_query(load_fixture_query(name), ex31_corpus, ex31_bundle, keep_failed=True).rows:
            for score in row.scores.values():
                assert all(type(c.m) is float for c in score.conditions), name
                scored += len(score.conditions)
    assert scored
