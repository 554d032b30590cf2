from __future__ import annotations

import json
import struct
import zlib

import pytest

from koko.bench import synthesize_corpus
from koko.cli import main
from koko.corpus import Corpus, load_corpus, parse_corpus
from koko.dpli import candidate_bindings, decompose, dominant_paths, join_word_path
from koko.engine import run_query
from koko.errors import KokoInputError, KokoSyntaxError
from koko.indexes import NO_HEAD, Sentences, build_indexes, load_bundle, save_bundle
from koko.normalize import normalize
from koko.oracle import oracle_evaluate
from koko.parser import parse_query
from koko.syntax import PathExpr

from .conftest import data_path, load_fixture_query, postings


def _path(text: str) -> PathExpr:
    q = parse_query(f'extract v:Str from "x" if (/ROOT:{{ v = {text} }})')
    return q.defs[0].atoms[0].path


def test_decompose_three_patterns():
    dp = decompose(_path('//verb[@text="ate"]/dobj//"delicious"'))
    assert dp.render("pl") == "//*/dobj//*"
    assert dp.render("pos") == "//verb/*//*"
    assert dp.render("word") == '//"ate"/*//"delicious"'


def test_decompose_pl_only():
    dp = decompose(_path("/root/nsubj"))
    assert dp.render("pl") == "/root/nsubj"
    assert dp.render("pos") == "/*/*"
    assert dp.render("word") == "/*/*"


def test_decompose_single_word():
    dp = decompose(_path('//"delicious"'))
    assert dp.render("pl") == "//*"
    assert dp.render("pos") == "//*"
    assert dp.render("word") == '//"delicious"'
    assert not dp.has_pl and not dp.has_pos


def test_decompose_ambiguous_names_resolve_as_parse_labels():
    dp = decompose(_path("/root/punct"))
    assert dp.render("pl") == "/root/punct"
    assert dp.render("pos") == "/*/*"


def test_decompose_unknown_label_rejected():
    # The parser refuses the label, so decompose never meets it.
    with pytest.raises(KokoSyntaxError, match=r"blorp.* \(line 1, column 42\)"):
        decompose(_path("//blorp"))


def test_dominance_ex41():
    n = normalize(load_fixture_query("ex41"))
    assignment = dominant_paths(n)
    assert assignment["d"] == ("d", 3)
    assert assignment["b"] == ("d", 1)
    assert assignment["c"] == ("d", 2)


def test_dominance_ex21():
    n = normalize(load_fixture_query("ex21"))
    assignment = dominant_paths(n)
    assert assignment["a"] == ("c", 1)
    assert assignment["b"] == ("c", 2)
    assert assignment["c"] == ("c", 3)


def test_incomparable_paths_both_dominant():
    q = parse_query('extract v:Str, w:Str from "x" if (/ROOT:{ v = //verb/dobj, w = //noun/amod })')
    n = normalize(q)
    assignment = dominant_paths(n)
    assert assignment["v"] == ("v", 2)
    assert assignment["w"] == ("w", 2)


def test_unrelated_prefix_paths_stay_independent():
    # w's path extends v's, but w was not defined through v, so binding w's
    # ancestors would not cover every true v binding.
    q = parse_query(
        'extract v:Str, w:Str from "x" if (/ROOT:{ v = //verb/dobj, w = //verb/dobj//"x" })'
    )
    n = normalize(q)
    assignment = dominant_paths(n)
    assert assignment["v"] == ("v", 2)
    assert assignment["w"] == ("w", 3)


def test_join_word_path_golden(ex31_bundle):
    dp = decompose(_path('//"ate"/*//"delicious"'))
    q1 = postings(ex31_bundle, ex31_bundle.word.lookup("ate"))
    assert (1, 1, 0, 12, 0) in q1 and (0, 1, 0, 16, 0) in q1
    result = postings(ex31_bundle, join_word_path(ex31_bundle, dp))
    assert sorted(result) == [(0, 9, 9, 9, 3), (1, 3, 3, 3, 2)]


def test_join_word_path_absent_word(ex31_bundle):
    dp = decompose(_path('//"ate"//"absent"'))
    assert join_word_path(ex31_bundle, dp) == []


def test_join_word_path_universal(ex31_bundle):
    dp = decompose(_path("//verb/dobj"))
    assert join_word_path(ex31_bundle, dp) is None


def test_candidate_bindings_ex21_figure1(figure1_corpus, figure1_bundle):
    n = normalize(load_fixture_query("ex21"))
    table = candidate_bindings(n, figure1_bundle)
    assert table.candidate_sids == [0]
    lo, hi = table.bounds("e", 0)
    s = figure1_corpus.sentence(0)
    assert [s.text(r.start, r.end) for r in table.bindings["e"].records[lo:hi]] == ["chocolate ice cream"]
    # Dominated variables share the dominant's candidate offsets.
    assert table.bindings["a"].derived_from == "c"
    assert table.bindings["a"].offsets is table.bindings["c"].offsets


# Sentence 0 holds two entity records, sentence 1 none of the node and
# literal candidates (its "ate" is followed by the next sentence's "a"),
# and the literal "ate a" ends on the corpus's last token.
EDGES_TSV = (
    "0\t0\tRome\tnoun\tnsubj\t1\tB-GPE\n"
    "0\t1\tis\tverb\troot\t-1\tO\n"
    "0\t2\tRome\tnoun\tdobj\t1\tB-GPE\n\n"
    "1\t0\tOslo\tnoun\tnsubj\t1\tB-GPE\n"
    "1\t1\tate\tverb\troot\t-1\tO\n\n"
    "2\t0\ta\tdet\tdet\t1\tO\n"
    "2\t1\tdog\tnoun\tnsubj\t2\tO\n"
    "2\t2\tate\tverb\troot\t-1\tO\n"
    "2\t3\ta\tdet\tdobj\t2\tO\n"
)
EDGE_QUERIES = {
    # name: (query, the first tids a scan of a sentence's columns finds)
    "exact path": (
        'extract v:Str from "x" if (/ROOT:{ v = //dobj })',
        lambda s: [t for t in range(len(s)) if s.labels[t] == "dobj"],
    ),
    "literal": (
        'extract v:Str from "x" if (/ROOT:{ v = "ate a" })',
        lambda s: [t for t in range(len(s)) if s.tokens[t : t + 2] == ("ate", "a")],
    ),
    "entity": ('extract v:GPE from "x" if ()', lambda s: [e.start for e in s.entities]),
}


@pytest.mark.parametrize("name", sorted(EDGE_QUERIES))
def test_candidates_per_sentence_equal_a_scan(name):
    text, scan = EDGE_QUERIES[name]
    docs = parse_corpus(EDGES_TSV)
    corpus = Corpus(docs)
    table = candidate_bindings(normalize(parse_query(text)), build_indexes(docs))
    sids = range(len(corpus))
    scans = [scan(corpus.sentence(sid)) for sid in sids]
    assert scans == {"exact path": [[2], [], [3]], "literal": [[], [], [2]], "entity": [[0, 2], [0], []]}[name]
    assert [table.tids("v", sid) for sid in sids] == scans
    assert table.candidate_sids == [sid for sid in sids if scans[sid]]
    records = table.bindings["v"].records
    if name == "entity":
        assert [records[slice(*table.bounds("v", sid))] for sid in sids] == [
            list(corpus.sentence(sid).entities) for sid in sids
        ]
    else:
        assert records is None


def test_missing_label_short_circuits(ex31_bundle):
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = //verb/iobj })')
    table = candidate_bindings(normalize(q), ex31_bundle)
    assert table.candidate_sids == []


def test_empty_extract_considers_all_sentences(ex31_bundle):
    n = normalize(load_fixture_query("ex23"))
    table = candidate_bindings(n, ex31_bundle)
    assert table.candidate_sids == [0, 1]


def test_false_candidate_pruned_by_validation():
    # Decomposed patterns all admit "red", yet no real path realizes
    # //verb[@text="saw"]/dobj//"red": the dobj under "saw" has no "red".
    tsv = (
        "0\t0\tsaw\tverb\troot\t-1\tO\n"
        "0\t1\tcat\tnoun\tdobj\t0\tO\n"
        "0\t2\theard\tverb\tccomp\t0\tO\n"
        "0\t3\tred\tadj\tamod\t4\tO\n"
        "0\t4\tdog\tnoun\tdobj\t2\tO\n"
    )
    docs = parse_corpus(tsv)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    q = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = //verb[@text="saw"]/dobj//"red" })'
    )
    table = candidate_bindings(normalize(q), bundle)
    assert table.candidate_sids == [0]  # index says maybe
    run = run_query(q, corpus, bundle)
    assert run.rows == []  # validation says no
    assert oracle_evaluate(q, corpus) == []


def test_completeness_against_oracle_on_synthetic_corpus():
    docs = synthesize_corpus(23, 150)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    queries = [
        'extract v:Str from "x" if (/ROOT:{ v = /root/dobj })',
        'extract v:Str from "x" if (/ROOT:{ v = //nsubj })',
        'extract v:Str from "x" if (/ROOT:{ v = //verb/dobj/det })',
        'extract v:Str from "x" if (/ROOT:{ a = //dobj, v = a//amod })',
        'extract v:Str from "x" if (/ROOT:{ v = //*[@pos="noun"]/det })',
    ]
    for text in queries:
        q = parse_query(text)
        run = run_query(q, corpus, bundle)
        answers = {r.sid for r in oracle_evaluate(q, corpus)}
        assert answers <= set(run.candidate_sids), text
        assert sorted(r.key() for r in run.rows) == sorted(
            r.key() for r in oracle_evaluate(q, corpus)
        ), text


def test_empty_word_leg_short_circuits(ex31_bundle):
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = //verb//"absent" })')
    table = candidate_bindings(normalize(q), ex31_bundle)
    assert table.candidate_sids == []


def test_non_projective_tree_engine_matches_oracle():
    # Subtree of token 0 is {0, 1, 3}: its extent covers token 2 too, which
    # it does not dominate.
    tsv = (
        "0\t0\taa\tnoun\txcomp\t2\tO\n"
        "0\t1\tbb\tnoun\tamod\t3\tO\n"
        "0\t2\tcc\tverb\troot\t-1\tO\n"
        "0\t3\tdd\tnoun\tdobj\t0\tO\n"
    )
    docs = parse_corpus(tsv)
    corpus = Corpus(docs)
    s = corpus.sentence(0)
    assert s.extent(0) == (0, 3)  # non-projective extent
    bundle = build_indexes(docs)
    queries = [
        'extract v:Str from "x" if (/ROOT:{ v = //xcomp/dobj })',
        'extract v:Str from "x" if (/ROOT:{ v = //xcomp//amod })',
        'extract v:Str from "x" if (/ROOT:{ v = //"aa"//"bb" })',
        'extract v:Str from "x" if (/ROOT:{ v = //"cc"/"bb" })',
        'extract v:Str from "x" if (/ROOT:{ a = //"aa", v = a/dobj })',
    ]
    for text in queries:
        q = parse_query(text)
        engine = run_query(q, corpus, bundle).rows
        oracle = oracle_evaluate(q, corpus)
        assert [r.key() for r in engine] == [r.key() for r in oracle], text


# A word step followed only by wildcards: the PL skeleton resolves the
# last step, and the word leg must contain it.
WORD_THEN_WILDCARDS = ['/"ate"/*', '//"ate"//*', '//"ate"/*/*', '/*/"ate"//*']


@pytest.mark.parametrize("path", WORD_THEN_WILDCARDS)
def test_word_then_wildcards_matches_oracle_on_ex31(ex31_corpus, ex31_bundle, path):
    q = parse_query(f'extract v:Str from "x" if (/ROOT:{{ v = {path} }})')
    oracle = sorted(r.key() for r in oracle_evaluate(q, ex31_corpus))
    assert sorted(r.key() for r in run_query(q, ex31_corpus, ex31_bundle).rows) == oracle
    if path == '/"ate"/*':
        assert len(oracle) == 9  # every child of the two roots "ate"


def test_word_then_wildcards_matches_oracle_on_synthetic_corpus():
    docs = synthesize_corpus(7, 300)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    frequent = sorted({s.tokens[s.root_tid] for s in corpus.sentences})[:5]
    rows = 0
    for word in frequent:
        for shape in ('/"{}"/*', '//"{}"//*', '//"{}"/*/*'):
            path = shape.format(word)
            q = parse_query(f'extract v:Str from "x" if (/ROOT:{{ v = {path} }})')
            oracle = sorted(r.key() for r in oracle_evaluate(q, corpus))
            assert sorted(r.key() for r in run_query(q, corpus, bundle).rows) == oracle, path
            rows += len(oracle)
    assert rows > 0


# Two sentences of four tokens; "x" occurs once, in sentence 0, so it
# seeds every chain below, and each later variable is looked for in
# sentence 0 only: its 4 tokens.
CHAIN_TSV = (
    "0\t0\tx\tnoun\tnsubj\t1\tO\n"
    "0\t1\ty\tverb\troot\t-1\tO\n"
    "0\t2\ty\tnoun\tdobj\t1\tO\n"
    "0\t3\tw\tdet\tdet\t2\tO\n\n"
    "1\t0\ty\tnoun\tnsubj\t1\tO\n"
    "1\t1\tz\tverb\troot\t-1\tO\n"
    "1\t2\ty\tnoun\tdobj\t1\tO\n"
    "1\t3\tw\tdet\tdet\t2\tO\n"
)
CHAIN_LEGS = {
    # b's definition: (the branch that reads it, its tids in sentence 0)
    '"w"': ("filter", [3]),  # 2 postings, fewer than 4 tokens
    '"y"': ("scan", [1, 2]),  # 4 postings, as many as the tokens
    "//det": ("filter", [3]),
    "//*": ("scan", [0, 1, 2, 3]),  # the PL skeleton: 8 postings
}


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("definition", sorted(CHAIN_LEGS))
def test_later_variable_is_filtered_or_scanned_inside_the_seed(tmp_path, monkeypatch, definition, loaded):
    docs = parse_corpus(CHAIN_TSV)
    bundle = build_indexes(docs)
    if loaded:
        save_bundle(bundle, str(tmp_path))
        bundle = load_bundle(str(tmp_path))
    scans = []  # the sentences whose tokens a read scanned in a column
    bounds = Sentences.bounds
    monkeypatch.setattr(Sentences, "bounds", lambda self: scans.append(len(self.sids)) or bounds(self))
    q = parse_query(f'extract a:Str, b:Str from "x" if (/ROOT:{{ a = "x", b = {definition} }})')
    table = candidate_bindings(normalize(q), bundle)
    branch, tids = CHAIN_LEGS[definition]
    assert [(link.var, link.within) for link in table.chain] == [("a", None), ("b", 1)]
    assert table.candidate_sids == [0]
    assert table.tids("b", 0) == tids
    assert list(table.bindings["b"].offsets) == tids  # nothing from sentence 1
    assert scans == ([] if branch == "filter" else [1])
    rows = run_query(q, Corpus(docs), bundle).rows
    assert [r.key() for r in rows] == [r.key() for r in oracle_evaluate(q, Corpus(docs))]


def _ex31_index_with_heads(tmp_path, heads: dict[int, int]) -> str:
    """The ex31 index with the heads of sentence 0's tids in `heads`
    replaced, in a tree.idx whose checksum matches."""
    idx = tmp_path / "idx"
    save_bundle(build_indexes(load_corpus(data_path("corpus", "ex31.tsv"))), str(idx))
    raw = bytearray((idx / "tree.idx").read_bytes())
    # After the header: the 2 sentence lengths, 1 byte each after their
    # width byte and count, then the heads' width byte (1: no sentence has
    # 255 tokens) and the 30 heads after their count. On disk a root's head
    # is the width's largest value, 0xFF, which loads as NO_HEAD.
    assert raw[8] == 1 and struct.unpack_from("<I", raw, 9)[0] == 2
    width_at = 8 + 1 + 4 + 2
    assert raw[width_at] == 1 and struct.unpack_from("<I", raw, width_at + 1)[0] == 30
    heads_at = width_at + 1 + 4
    assert raw[heads_at + 9] == 8  # "delicious" under "was"
    for tid, head in heads.items():
        raw[heads_at + tid] = min(head, 0xFF)
    (idx / "tree.idx").write_bytes(bytes(raw))
    manifest = json.loads((idx / "manifest.json").read_text())
    manifest["checksums"]["tree.idx"] = zlib.crc32(bytes(raw))
    (idx / "manifest.json").write_text(json.dumps(manifest))
    return str(idx)


# The word chain's walk starts at "delicious" (0,9), 3 levels deep under
# "was" (0,8), "cream" (0,5) and the root "ate" (0,1): in join_word_path,
# and in join_all's word leg, where //acomp is (0,9) alone.
WALKED = ['//"ate"//"delicious"', '//"ate"//acomp']
BAD_HEADS = {
    "head_past_its_sentence": ({9: 17}, r"token \(0,9\) has head 17 but depth 3"),
    "root_reached_early": ({8: NO_HEAD}, r"token \(0,8\) has no head but depth 2"),
    # "was" and "delicious" head each other: the walk ends at depth 0 on no root.
    "head_cycle": ({8: 9}, r"token \(0,8\) has head 9 but depth 0"),
}


@pytest.mark.parametrize("path", WALKED)
@pytest.mark.parametrize("bad", sorted(BAD_HEADS))
def test_walk_rejects_malformed_heads(tmp_path, path, bad):
    # Before any sentence is built: no corpus is opened.
    heads, message = BAD_HEADS[bad]
    idx = _ex31_index_with_heads(tmp_path, heads)
    q = parse_query(f'extract v:Str from "x" if (/ROOT:{{ v = {path} }})')
    with pytest.raises(KokoInputError, match=r"tree\.idx: " + message):
        candidate_bindings(normalize(q), load_bundle(idx))


@pytest.mark.parametrize("path", WALKED)
def test_walk_error_exits_2(tmp_path, capsys, path):
    idx = _ex31_index_with_heads(tmp_path, {9: 17})
    q = tmp_path / "q.koko"
    q.write_text(f'extract v:Str from "x" if (/ROOT:{{ v = {path} }})\n')
    assert main(["query", "--query", str(q), "--index", idx]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "tree.idx: token (0,9) has head 17" in captured.err
    assert "Traceback" not in captured.err


# A non-projective sentence: "aa" (0) heads "dd" (3), so its extent 0..3
# covers "bb" (1), one level below "aa" in depth, but "bb" hangs under
# "ee" (4), not under "aa". A word chain from "aa" must not reach "bb".
CROSSING_TSV = (
    "0\t0\taa\tnoun\txcomp\t2\tO\n"
    "0\t1\tbb\tnoun\tamod\t4\tO\n"
    "0\t2\tcc\tverb\troot\t-1\tO\n"
    "0\t3\tdd\tnoun\tdobj\t0\tO\n"
    "0\t4\tee\tnoun\tnsubj\t2\tO\n"
)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("path, sids", [
    ('//"aa"//"bb"', []),  # join_word_path
    ('//"aa"//amod', []),  # join_all's word leg
    ('//"aa"/"dd"', [0]),
    ('//"cc"//"bb"', [0]),
    ('//"aa"//dobj', [0]),
])
def test_extent_covering_a_word_it_does_not_dominate(tmp_path, loaded, path, sids):
    docs = parse_corpus(CROSSING_TSV)
    s = Corpus(docs).sentence(0)
    assert s.extent(0) == (0, 3) and s.depth[1] == 2 and 0 not in s.ancestors(1)
    bundle = build_indexes(docs)
    if loaded:
        save_bundle(bundle, str(tmp_path))
        bundle = load_bundle(str(tmp_path))
    q = parse_query(f'extract v:Str from "x" if (/ROOT:{{ v = {path} }})')
    assert candidate_bindings(normalize(q), bundle).candidate_sids == sids
    rows = run_query(q, Corpus(docs), bundle).rows
    assert [r.key() for r in rows] == [r.key() for r in oracle_evaluate(q, Corpus(docs))]
    assert bool(rows) == bool(sids)
