from __future__ import annotations

import math

import pytest

from koko.errors import KokoResourceError
from koko.resources import (
    MAX_EXPANSIONS,
    Clause,
    Expansion,
    Resources,
    WordVectors,
    load_clause_file,
    load_expansion_table,
)

VECTORS = """serves 1.0 0.0 0.0
sells 0.9 0.43589 0.0
coffee 0.0 1.0 0.0
espresso 0.0 0.95 0.31225
tea 0.6 0.0 0.8
"""


@pytest.fixture()
def vectors(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text(VECTORS)
    return WordVectors(str(path))


def test_static_table_passthrough(tmp_path):
    path = tmp_path / "exp.tsv"
    path.write_text("serves coffee\tserves coffee\t1.0\nserves coffee\tsells espresso\t0.8\n")
    res = Resources(expansion_table=load_expansion_table(str(path)))
    out = res.expand("serves coffee")
    assert out == [
        Expansion(("serves", "coffee"), 1.0),
        Expansion(("sells", "espresso"), 0.8),
    ]


def test_expand_always_leads_with_identity():
    res = Resources(expansion_table={"x y": [Expansion(("p", "q"), 0.4)]})
    out = res.expand("x y")
    assert out[0] == Expansion(("x", "y"), 1.0)
    assert all(out[i].score >= out[i + 1].score for i in range(len(out) - 1))


def test_identity_expansion_without_providers():
    res = Resources()
    assert res.expand("serves coffee") == [Expansion(("serves", "coffee"), 1.0)]


def test_embedding_expansion_scores_are_cosines(vectors):
    res = Resources(vectors=vectors, topk=1)
    out = res.expand("serves coffee")
    assert out[0] == Expansion(("serves", "coffee"), 1.0)
    by_phrase = {e.words: e.score for e in out}
    sim_serves_sells = dict(vectors.neighbors("serves", len(vectors.vectors)))["sells"]
    sim_coffee_espresso = dict(vectors.neighbors("coffee", len(vectors.vectors)))["espresso"]
    assert by_phrase[("sells", "coffee")] == pytest.approx(sim_serves_sells, abs=1e-9)
    assert by_phrase[("serves", "espresso")] == pytest.approx(sim_coffee_espresso, abs=1e-9)
    assert by_phrase[("sells", "espresso")] == pytest.approx(
        sim_serves_sells * sim_coffee_espresso, abs=1e-9
    )


def test_embedding_expansion_skips_unknown_and_stop_words(vectors):
    res = Resources(vectors=vectors, topk=2)
    out = res.expand("the zzzunknown coffee")
    assert out[0].words == ("the", "zzzunknown", "coffee")
    for e in out[1:]:
        assert e.words[0] == "the" and e.words[1] == "zzzunknown"


def test_expansion_determinism(vectors):
    r1 = Resources(vectors=vectors, topk=2).expand("serves coffee")
    r2 = Resources(vectors=vectors, topk=2).expand("serves coffee")
    assert r1 == r2


def test_truncation_to_fixed_count(vectors):
    # With itself, each word has 3, 3 and 4 options of positive similarity,
    # so the phrase has 3 * 3 * 4 - 1 = 35 alternates, more than the cap.
    res = Resources(vectors=vectors, topk=4)
    out = res.expand("serves coffee tea")
    assert len(out) == MAX_EXPANSIONS + 1  # identity + the cap of alternates
    assert out[0] == Expansion(("serves", "coffee", "tea"), 1.0)
    scores = [e.score for e in out[1:]]
    assert scores == sorted(scores, reverse=True) and scores[-1] > 0.0


def test_similarity_with_vectors(vectors):
    res = Resources(vectors=vectors)
    assert res.similarity("coffee", "coffee") == pytest.approx(1.0, abs=1e-9)
    assert res.similarity("espresso", "coffee") == pytest.approx(0.95, abs=1e-3)
    assert res.similarity("zzz", "coffee") == 0.0


def test_similarity_computes_the_argument_vector_once(vectors, monkeypatch):
    # similarTo's argument is the same phrase for every value of a query:
    # its vector is computed at the first call, the value's at each.
    res = Resources(vectors=vectors)
    expected = [res.similarity(value, "coffee") for value in ("coffee", "espresso", "zzz")]
    computed = []
    phrase_vector = vectors.phrase_vector
    monkeypatch.setattr(vectors, "phrase_vector", lambda words: computed.append(words) or phrase_vector(words))
    fresh = Resources(vectors=vectors)
    assert [fresh.similarity(value, "coffee") for value in ("coffee", "espresso", "zzz")] == expected
    assert computed == [["coffee"], ["coffee"], ["espresso"], ["zzz"]]


def test_similarity_with_table_only():
    res = Resources(expansion_table={"city": [Expansion(("town",), 0.7)]})
    assert res.similarity("town", "city") == pytest.approx(0.7)
    assert res.similarity("City", "city") == 1.0
    assert res.similarity("village", "city") == 0.0


def test_dictionaries(tmp_path):
    path = tmp_path / "loc.txt"
    path.write_text("Portland\nSeattle\n")
    res = Resources()
    res.dictionaries.load("Location", str(path))
    assert res.dict_contains("Location", "Portland")
    assert not res.dict_contains("Location", "portland")
    with pytest.raises(KokoResourceError, match="Cities"):
        res.dict_contains("Cities", "Portland")


def test_identity_decomposer():
    res = Resources()
    clauses = res.decompose(0, ("I", "ate", "a", "pie"))
    assert clauses == [Clause((0, 1, 2, 3), 1.0)]


def test_clause_decomposer_splits_at_conjunction():
    res = Resources(decomposer="clauses")
    clauses = res.decompose(0, ("I", "ate", "a", "pie", "and", "she", "drank", "tea"))
    assert [c.token_ids for c in clauses] == [(0, 1, 2, 3), (5, 6, 7)]
    covered = [t for c in clauses for t in c.token_ids]
    assert sorted(covered) == [0, 1, 2, 3, 5, 6, 7]  # delimiter excluded once


def test_clause_decomposer_comma_before_relative_pronoun():
    res = Resources(decomposer="clauses")
    clauses = res.decompose(0, ("cream", ",", "which", "was", "delicious"))
    assert [c.token_ids for c in clauses] == [(0,), (2, 3, 4)]


def test_clause_decomposer_single_token():
    res = Resources(decomposer="clauses")
    assert res.decompose(0, ("hi",)) == [Clause((0,), 1.0)]


def test_clause_file_provider(tmp_path):
    path = tmp_path / "clauses.jsonl"
    path.write_text('{"sid": 0, "clauses": [{"tokens": [0, 1], "score": 0.9}]}\n')
    words = ("a", "b", "c")
    res = Resources(decomposer="file", clause_file=load_clause_file(str(path)))
    assert res.decompose(0, words) == [Clause((0, 1), 0.9)]
    for bad in (3, -1):
        res = Resources(decomposer="file", clause_file={0: [Clause((0, bad), 1.0)]})
        with pytest.raises(KokoResourceError, match="outside its 3 tokens"):
            res.decompose(0, words)


def test_bad_expansion_table_rejected(tmp_path):
    path = tmp_path / "exp.tsv"
    path.write_text("only two\tcolumns\n")
    with pytest.raises(KokoResourceError, match="3 tab-separated"):
        load_expansion_table(str(path))
    path.write_text("d\te\t1.5\n")
    with pytest.raises(KokoResourceError, match="score"):
        load_expansion_table(str(path))


def test_vectors_are_unit_normalized(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("w 3.0 4.0\n")
    v = WordVectors(str(path))
    assert math.isclose(sum(x * x for x in v.vectors["w"]), 1.0, abs_tol=1e-12)



@pytest.mark.parametrize(
    "sid, clause, message",
    [
        ("1", '{"tokens": [0, 1.5], "score": 0.9}', "not all integers"),
        ("1", '{"tokens": [true, 1], "score": 0.9}', "not all integers"),
        ("1", '{"tokens": [0, 1], "score": NaN}', "not a finite number"),
        ("1", '{"tokens": [0, 1], "score": Infinity}', "not a finite number"),
        ("1", '{"tokens": [0, 1], "score": "0.9"}', "not a finite number"),
        ("0.5", '{"tokens": [0]}', "sid 0.5 is not a non-negative integer"),
        ("true", '{"tokens": [0]}', "sid True is not a non-negative integer"),
        ('"3"', '{"tokens": [0]}', "sid '3' is not a non-negative integer"),
        ("-1", '{"tokens": [0]}', "sid -1 is not a non-negative integer"),
        ("1.0", '{"tokens": [0]}', "sid 1.0 is not a non-negative integer"),
    ],
    ids=["fraction", "boolean", "nan", "infinity", "string", "sid-fraction", "sid-boolean", "sid-string",
         "sid-negative", "sid-float"],
)
def test_clause_file_refuses_non_integer_tokens_and_non_finite_scores(tmp_path, sid, clause, message):
    path = tmp_path / "clauses.jsonl"
    path.write_text('{"sid": 0, "clauses": [{"tokens": [0]}]}\n{"sid": %s, "clauses": [%s]}\n' % (sid, clause))
    with pytest.raises(KokoResourceError, match=f"clauses.jsonl:2: bad clause record: .*{message}"):
        load_clause_file(str(path))
