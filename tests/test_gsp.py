from __future__ import annotations

import pytest

from koko import nested
from koko.bench import synthesize_corpus
from koko.corpus import Corpus, parse_corpus
from koko.dpli import candidate_bindings
from koko.engine import run_query
from koko.gsp import EvalStats, SkipPlan, estimate_cost, evaluate_sentence, generate_skip_plan
from koko.indexes import build_indexes, load_bundle, open_corpus, save_bundle
from koko.normalize import normalize
from koko.oracle import oracle_evaluate
from koko.parser import parse_query

from .conftest import load_fixture_query

EX41_SENTENCE = """# doc_id = t
0	0	Anna	propn	nsubj	2	B-Person
0	1	nearly	adv	advmod	2	O
0	2	ate	verb	root	-1	O
0	3	a	det	det	5	O
0	4	delicious	adj	amod	5	O
0	5	cheesecake	noun	dobj	2	B-Entity
0	6	.	punct	punct	2	O
"""


@pytest.fixture(scope="module")
def ex41_env():
    docs = parse_corpus(EX41_SENTENCE)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    n = normalize(load_fixture_query("ex41"))
    table = candidate_bindings(n, bundle)
    return corpus, bundle, n, table


def test_estimate_cost_elastic_formula(ex41_env):
    corpus, bundle, n, table = ex41_env
    assert estimate_cost("__v1", 0, table, 13) == 91
    assert estimate_cost("__v1", 0, table, 1) == 1


def test_estimate_cost_counts_bindings(ex41_env):
    corpus, bundle, n, table = ex41_env
    assert estimate_cost("d", 0, table, len(corpus.sentence(0))) == 1
    assert estimate_cost("a", 0, table, len(corpus.sentence(0))) == 2  # two entities


def test_estimate_cost_per_sentence_partition():
    # Same variable, different sentences: counts come from that sid only.
    tsv = (
        "0\t0\tred\tadj\tamod\t1\tO\n0\t1\tcar\tnoun\troot\t-1\tO\n"
        "\n"
        "1\t0\tred\tadj\tamod\t2\tO\n1\t1\tred\tadj\tamod\t2\tO\n1\t2\tcar\tnoun\troot\t-1\tO\n"
    )
    docs = parse_corpus(tsv)
    bundle = build_indexes(docs)
    n = normalize(parse_query('extract v:Str from "x" if (/ROOT:{ v = //"red" })'))
    table = candidate_bindings(n, bundle)
    assert estimate_cost("v", 0, table, 2) == 1
    assert estimate_cost("v", 1, table, 3) == 2


def test_skip_plan_picks_both_elastics(ex41_env):
    corpus, bundle, n, table = ex41_env
    plan = generate_skip_plan(n, table, 0, len(corpus.sentence(0)))
    assert plan.per_condition == {0: ["__v1", "__v2"]}


def test_skip_plan_single_atom_skips_nothing():
    docs = parse_corpus(EX41_SENTENCE)
    bundle = build_indexes(docs)
    n = normalize(parse_query('extract v:Str from "x" if (/ROOT:{ v = //verb })'))
    table = candidate_bindings(n, bundle)
    plan = generate_skip_plan(n, table, 0, 7)
    assert plan.per_condition == {}


def test_skip_plan_never_skips_adjacent_atoms():
    docs = parse_corpus(EX41_SENTENCE)
    bundle = build_indexes(docs)
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = "Anna" + ^ + ^ + "cheesecake" })')
    n = normalize(q)
    table = candidate_bindings(n, bundle)
    plan = generate_skip_plan(n, table, 0, 7)
    atoms = n.horizontal[0].atoms
    skipped = plan.skipped
    for left, right in zip(atoms, atoms[1:]):
        assert not (left in skipped and right in skipped)


def test_skip_plan_boundary_elastic_not_skipped():
    docs = parse_corpus(EX41_SENTENCE)
    bundle = build_indexes(docs)
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = ^ + "cheesecake" + ^ })')
    n = normalize(q)
    table = candidate_bindings(n, bundle)
    plan = generate_skip_plan(n, table, 0, 7)
    for var in plan.skipped:
        assert n.var(var).kind != "elastic"


def test_tiny_sentence_tie_breaking_is_deterministic_and_valid():
    tsv = "0\t0\thi\tintj\troot\t-1\tO\n"
    docs = parse_corpus(tsv)
    bundle = build_indexes(docs)
    q = parse_query('extract v:Str from "x" if (/ROOT:{ a = //"hi", v = a + ^ })')
    n = normalize(q)
    table = candidate_bindings(n, bundle)
    plan1 = generate_skip_plan(n, table, 0, 1)
    plan2 = generate_skip_plan(n, table, 0, 1)
    assert plan1.per_condition == plan2.per_condition
    atoms = n.horizontal[0].atoms
    skipped = plan1.skipped
    for left, right in zip(atoms, atoms[1:]):
        assert not (left in skipped and right in skipped)


def test_evaluate_sentence_ex21(figure1_corpus, figure1_bundle):
    n = normalize(load_fixture_query("ex21"))
    table = candidate_bindings(n, figure1_bundle)
    plan = generate_skip_plan(n, table, 0, len(figure1_corpus.sentence(0)))
    tuples = evaluate_sentence(n, table, 0, plan, figure1_corpus)
    assert len(tuples) == 1
    t = tuples[0]
    assert t.bindings["a"].tid == 1
    assert t.bindings["b"].tid == 5
    assert t.bindings["c"].tid == 9
    assert (t.bindings["d"].start, t.bindings["d"].end) == (2, 9)
    assert (t.bindings["e"].start, t.bindings["e"].end) == (3, 5)


def test_gsp_results_match_forced_empty_plan(ex41_env):
    corpus, bundle, n, table = ex41_env
    with_plan = evaluate_sentence(
        n, table, 0, generate_skip_plan(n, table, 0, len(corpus.sentence(0))), corpus
    )
    without = evaluate_sentence(n, table, 0, SkipPlan(), corpus)
    key = lambda t: sorted((k, v.start, v.end) for k, v in t.bindings.items())
    assert sorted(map(key, with_plan)) == sorted(map(key, without))


def test_gsp_iterations_strictly_lower(ex41_env):
    corpus, bundle, n, table = ex41_env
    s_gsp, s_raw = EvalStats(), EvalStats()
    evaluate_sentence(
        n, table, 0, generate_skip_plan(n, table, 0, len(corpus.sentence(0))), corpus, s_gsp
    )
    evaluate_sentence(n, table, 0, SkipPlan(), corpus, s_raw)
    assert s_gsp.loop_iterations < s_raw.loop_iterations


def test_elastic_conditions_enforced():
    docs = parse_corpus(EX41_SENTENCE)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    tight = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = "Anna" + ^[@max=0] + "ate" })'
    )
    loose = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = "Anna" + ^[@min=1] + "ate" })'
    )
    assert [r.values["v"] for r in run_query(tight, corpus, bundle).rows] == []
    assert [r.values["v"] for r in run_query(loose, corpus, bundle).rows] == [
        "Anna nearly ate"
    ]
    regex = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = "Anna" + ^[@regex="nearly"] + "ate" })'
    )
    assert [r.values["v"] for r in run_query(regex, corpus, bundle).rows] == [
        "Anna nearly ate"
    ]


def test_entity_typed_elastic_alignment():
    docs = parse_corpus(EX41_SENTENCE)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    q = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = "delicious" + ^[@etype="Entity"] + "." })'
    )
    rows = run_query(q, corpus, bundle).rows
    assert [r.values["v"] for r in rows] == ["delicious cheesecake."]


def test_empty_extract_tuples_from_entity_index(ex31_corpus, ex31_bundle):
    n = normalize(load_fixture_query("ex23"))
    table = candidate_bindings(n, ex31_bundle)
    tuples = []
    for sid in table.candidate_sids:
        tuples += evaluate_sentence(n, table, sid, SkipPlan(), ex31_corpus)
    surfaces = sorted(ex31_corpus.sentence(t.sid).text(t.bindings["x"].start, t.bindings["x"].end) for t in tuples)
    assert surfaces == ["cheesecake", "chocolate ice cream", "grocery store"]


def test_engine_oracle_agree_on_title_style_query():
    tsv = (
        "0\t0\tCyd\tpropn\tnn\t1\tB-Person\n"
        "0\t1\tCharisse\tpropn\tnsubjpass\t4\tI-Person\n"
        "0\t2\thad\tverb\taux\t4\tO\n"
        "0\t3\tbeen\tverb\tauxpass\t4\tO\n"
        "0\t4\tcalled\tverb\troot\t-1\tO\n"
        "0\t5\tSid\tpropn\tdobj\t4\tO\n"
        "0\t6\tfor\tadp\tprep\t4\tO\n"
        "0\t7\tyears\tnoun\tpobj\t6\tO\n"
        "0\t8\t.\tpunct\tpunct\t4\tO\n"
    )
    docs = parse_corpus(tsv)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    q = load_fixture_query("s63_title")
    run = run_query(q, corpus, bundle)
    rows = [(r.values["a"], r.values["b"]) for r in run.rows]
    assert rows == [("Cyd Charisse", "Sid")]
    assert [r.key() for r in oracle_evaluate(q, corpus)] == [r.key() for r in run.rows]


def test_mention_values_are_read_from_its_words(tmp_path):
    # One mention whose words detokenize with attached punctuation: its
    # value is "Ann's, Ltd" in the offset join (an entity atom alone, in a
    # span and under evidence) and in the nested loop (a regex gap), over a
    # built and a loaded bundle, as in the oracle.
    tsv = (
        "0\t0\tAnn\tpropn\tposs\t3\tB-Org\n"
        "0\t1\t's\tpart\tcase\t0\tI-Org\n"
        "0\t2\t,\tpunct\tpunct\t3\tI-Org\n"
        "0\t3\tLtd\tpropn\tnsubj\t4\tI-Org\n"
        "0\t4\tsells\tverb\troot\t-1\tO\n"
        "0\t5\tpie\tnoun\tdobj\t4\tO\n"
        "0\t6\t.\tpunct\tpunct\t4\tO\n"
    )
    docs = parse_corpus(tsv)
    corpus, bundle = Corpus(docs), build_indexes(docs)
    save_bundle(bundle, str(tmp_path / "idx"))
    loaded = load_bundle(str(tmp_path / "idx"))
    queries = {
        'extract x:Org from "t" if ()': ("Ann's, Ltd",),
        'extract x:Org, v:Str from "t" if (/ROOT:{ v = x + ^ + //dobj })': ("Ann's, Ltd", "Ann's, Ltd sells pie"),
        'extract x:Org, v:Str from "t" if (/ROOT:{ v = x + ^[@regex="[a-z]+"] + //dobj })':
            ("Ann's, Ltd", "Ann's, Ltd sells pie"),
        'extract x:Org from "t" if () satisfying x (str(x) contains "Ann\'s, Ltd" {1}) with threshold 0.5':
            ("Ann's, Ltd",),
    }
    for text, values in queries.items():
        q = parse_query(text)
        expected = [r.key() for r in oracle_evaluate(q, corpus)]
        assert [tuple(r.values.values()) for r in oracle_evaluate(q, corpus)] == [values], text
        for run in (run_query(q, corpus, bundle), run_query(q, open_corpus(loaded), loaded)):
            assert [r.key() for r in run.rows] == expected, text
            assert bool(run.joined) == ("regex" not in text), text


def test_chocolate_style_query_end_to_end():
    # "Baking chocolate is a type of chocolate ..." with the entity as the
    # subject: the verb must carry a pobj "chocolate" and the nsubj must
    # sit inside the extracted entity.
    tsv = (
        "0\t0\tBaking\tnoun\tnn\t1\tB-Entity\n"
        "0\t1\tchocolate\tnoun\tnsubj\t2\tI-Entity\n"
        "0\t2\tis\tverb\troot\t-1\tO\n"
        "0\t3\ta\tdet\tdet\t4\tO\n"
        "0\t4\ttype\tnoun\tattr\t2\tO\n"
        "0\t5\tof\tadp\tprep\t4\tO\n"
        "0\t6\tchocolate\tnoun\tpobj\t2\tO\n"
        "0\t7\t.\tpunct\tpunct\t2\tO\n"
    )
    docs = parse_corpus(tsv)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    q = load_fixture_query("s63_chocolate")
    run = run_query(q, corpus, bundle)
    assert [r.values["c"] for r in run.rows] == ["Baking chocolate"]
    assert run.rows[0].scores["v"].total == 1.0  # str(v) ~ "is" at weight 1
    assert [r.key() for r in oracle_evaluate(q, corpus)] == [r.key() for r in run.rows]


def test_date_of_birth_style_query_end_to_end():
    tsv = (
        "0\t0\tVera\tpropn\tnsubjpass\t2\tB-Person\n"
        "0\t1\twas\tverb\tauxpass\t2\tO\n"
        "0\t2\tborn\tverb\troot\t-1\tO\n"
        "0\t3\tin\tadp\tprep\t2\tO\n"
        "0\t4\t1911\tnum\tpobj\t3\tB-Date\n"
        "0\t5\t.\tpunct\tpunct\t2\tO\n"
    )
    docs = parse_corpus(tsv)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    q = load_fixture_query("s63_dateofbirth")
    run = run_query(q, corpus, bundle)
    # v = //verb binds "was" and "born"; only the latter survives the
    # similarity clause, leaving one (Person, Date) pair.
    assert [(r.values["a"], r.values["b"]) for r in run.rows] == [("Vera", "1911")]
    assert [r.key() for r in oracle_evaluate(q, corpus)] == [r.key() for r in run.rows]


def test_eq_constraint_end_to_end():
    docs = parse_corpus(EX41_SENTENCE)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    hit = parse_query('extract x:Str from "t" if (/ROOT:{ x = //verb } ("ate") eq (x))')
    rows = run_query(hit, corpus, bundle).rows
    assert [r.values["x"] for r in rows] == ["ate"]
    miss = parse_query('extract x:Str from "t" if (/ROOT:{ x = //verb } ("Anna") eq (x))')
    assert run_query(miss, corpus, bundle).rows == []
    assert [r.key() for r in oracle_evaluate(hit, corpus)] == [r.key() for r in rows]


# loop_iterations and tuples per (corpus, fixture query), with and without
# skip plans, as the per-sentence evaluator counted them before plans were
# compiled once per query.
PINNED_COUNTS = {
    ("figure1", "ex21"): ((8, 1), (8, 1)),
    ("figure1", "ex23"): ((1, 1), (1, 1)),
    ("figure1", "ex41"): ((3, 0), (178, 0)),
    ("figure1", "fig9_cafes"): ((1, 1), (1, 1)),
    ("figure1", "fig10_facilities"): ((1, 1), (1, 1)),
    ("figure1", "fig11_teams"): ((1, 1), (1, 1)),
    ("ex31", "ex21"): ((18, 2), (18, 2)),
    ("ex31", "ex23"): ((3, 3), (3, 3)),
    ("ex31", "ex41"): ((7, 0), (398, 0)),
    ("ex31", "fig9_cafes"): ((3, 3), (3, 3)),
    ("ex31", "fig10_facilities"): ((3, 3), (3, 3)),
    ("ex31", "fig11_teams"): ((3, 3), (3, 3)),
}


@pytest.mark.parametrize("corpus_name,query", sorted(PINNED_COUNTS))
def test_loop_counts_pinned(request, corpus_name, query):
    corpus = request.getfixturevalue(f"{corpus_name}_corpus")
    bundle = request.getfixturevalue(f"{corpus_name}_bundle")
    q = load_fixture_query(query)
    got = tuple(
        (s.loop_iterations, s.tuples)
        for s in (run_query(q, corpus, bundle, use_gsp=g).stats for g in (True, False))
    )
    assert got == PINNED_COUNTS[(corpus_name, query)]


SHARED_QUERY = (
    'extract v:Str, w:Str from "d" if (/ROOT:{ b = //det, v = //verb + b + //noun, w = b + //amod })'
)


@pytest.fixture(scope="module")
def synthetic_env():
    docs = synthesize_corpus(777, 200, entity_rate=0.5)
    return Corpus(docs), build_indexes(docs)


def test_plan_memo_shares_one_plan_per_ranking(synthetic_env):
    corpus, bundle = synthetic_env
    n = normalize(parse_query(SHARED_QUERY))
    table = candidate_bindings(n, bundle)
    memo: dict = {}
    plans = [
        generate_skip_plan(n, table, sid, corpus.sentence_lengths[sid], memo)
        for sid in table.candidate_sids
    ]
    assert len({id(p) for p in plans}) == len(memo) < len(plans)
    for sid, plan in zip(table.candidate_sids, plans):
        fresh = generate_skip_plan(n, table, sid, corpus.sentence_lengths[sid])
        assert fresh.per_condition == plan.per_condition


def test_query_compiles_once_per_distinct_plan(synthetic_env, monkeypatch):
    corpus, bundle = synthetic_env
    built: list[tuple] = []

    class Counted(nested.CompiledPlan):
        def __init__(self, n, table, plan):
            built.append(plan.key)
            super().__init__(n, table, plan)

    monkeypatch.setattr(nested, "CompiledPlan", Counted)
    q = parse_query(SHARED_QUERY)
    run = run_query(q, corpus, bundle)
    n, table = run.normalized, run.table
    distinct = {
        generate_skip_plan(n, table, sid, corpus.sentence_lengths[sid]).key
        for sid in table.candidate_sids
    }
    assert 1 < len(distinct) < len(table.candidate_sids)
    assert sorted(built) == sorted(distinct)
    built.clear()
    run_query(q, corpus, bundle, use_gsp=False)
    assert built == [()]


# Exact bindings: a path one hierarchy lookup answers whole is not
# re-validated when its variable is enumerated from the index.


def _node_query(path: str):
    return parse_query(f'extract v:Str from "x" if (/ROOT:{{ v = {path} }})')


@pytest.mark.parametrize("path", ["/root/nsubj", "//*//nn", "//verb/*", "//*"])
def test_exact_path_runs_no_checks(ex31_corpus, ex31_bundle, path):
    run = run_query(_node_query(path), ex31_corpus, ex31_bundle)
    assert run.table.bindings["v"].exact
    assert run.stats.checks == 0 and run.stats.tuples > 0


@pytest.mark.parametrize(
    "path", ["//verb/nsubj", '/"ate"/*', '//*[@pos="noun"]', '/root/nsubj[@etype="Person"]']
)
def test_inexact_path_is_validated(ex31_corpus, ex31_bundle, path):
    run = run_query(_node_query(path), ex31_corpus, ex31_bundle)
    assert not run.table.bindings["v"].exact
    assert run.stats.checks >= run.stats.loop_iterations > 0


def test_checks_summed_over_sentences(synthetic_env):
    corpus, bundle = synthetic_env
    q = parse_query(SHARED_QUERY)
    run = run_query(q, corpus, bundle)
    n, table = run.normalized, run.table
    compiled: dict = {}
    per_sentence = []
    for sid in table.candidate_sids:
        stats = EvalStats()
        plan = generate_skip_plan(n, table, sid, corpus.sentence_lengths[sid])
        evaluate_sentence(n, table, sid, plan, corpus, stats, compiled)
        per_sentence.append(stats.checks)
    assert run.stats.checks == sum(per_sentence) > 0


def test_skipped_exact_variable_keeps_its_check(synthetic_env):
    # `a` is exact, but where "x" + a skips it, a is rebuilt from the gap
    # after the literal and must still be checked against its path.
    corpus, bundle = synthetic_env
    word = corpus.sentence(0).tokens[0]
    q = parse_query(f'extract v:Str from "d" if (/ROOT:{{ a = //nsubj, v = "{word}" + a }})')
    run = run_query(q, corpus, bundle, keep_failed=True)
    n, table = run.normalized, run.table
    assert table.bindings["a"].exact
    assert any(
        "a" in generate_skip_plan(n, table, sid, corpus.sentence_lengths[sid]).skipped
        for sid in table.candidate_sids
    )
    oracle = oracle_evaluate(q, corpus, keep_failed=True)
    assert sorted(r.key() for r in run.rows) == sorted(r.key() for r in oracle)
