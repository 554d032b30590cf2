from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import koko.corpus
from koko.cli import main
from koko.corpus import (
    AnnotatedDocument,
    Corpus,
    EntitySpan,
    Sentence,
    detokenize,
    load_corpus,
    parse_corpus,
    serialize_corpus,
)
from koko.errors import KokoInputError
from koko.indexes import corpus_fingerprint, fingerprint_bytes

from .conftest import data_path


def test_load_ex31_shape(ex31_corpus):
    assert len(ex31_corpus) == 2
    s0, s1 = ex31_corpus.sentences
    assert len(s0) == 17 and s0.root_tid == 1
    assert len(s1) == 13 and s1.root_tid == 1
    assert s0.tokens[5] == "cream" and s0.labels[5] == "dobj"
    assert s0.tokens[3:6] == ("chocolate", "ice", "cream")
    assert s0.entities[0] == EntitySpan(0, 3, 5, "Entity")


def _tree_meta(s: Sentence, tid: int) -> tuple[int, int, int, int, int]:
    return (s.sid, tid, *s.extent(tid), s.depth[tid])


def test_tree_meta_pinned_values(ex31_corpus):
    s0, s1 = ex31_corpus.sentences
    assert _tree_meta(s1, 1) == (1, 1, 0, 12, 0)
    assert _tree_meta(s0, 9) == (0, 9, 9, 9, 3)
    assert _tree_meta(s0, 1) == (0, 1, 0, 16, 0)
    assert _tree_meta(s0, 5) == (0, 5, 2, 9, 1)


def test_tree_meta_single_token():
    docs = parse_corpus("0\t0\thi\tintj\troot\t-1\tO\n")
    s = docs[0].sentences[0]
    assert _tree_meta(s, 0) == (0, 0, 0, 0, 0)


def _brute_extents(s: Sentence, tid: int) -> tuple[int, int, int]:
    members = [t for t in range(len(s)) if tid in (list(s.ancestors(t)) + [t])]
    depth = len(list(s.ancestors(tid)))
    return min(members), max(members), depth


def test_tree_meta_matches_brute_force(ex31_corpus):
    for s in ex31_corpus.sentences:
        for tid in range(len(s)):
            assert (*s.extent(tid), s.depth[tid]) == _brute_extents(s, tid)


def _random_sentence(rng: random.Random, n: int, sid: int = 0) -> Sentence:
    # Random (possibly non-projective) tree: each non-root token heads to
    # any other token, rejected until acyclic.
    while True:
        root = rng.randrange(n)
        heads = [rng.randrange(n) for _ in range(n)]
        heads[root] = -1
        ok = True
        for i in range(n):
            seen = set()
            cur = i
            while cur != root:
                if cur in seen or heads[cur] == cur:
                    ok = False
                    break
                seen.add(cur)
                cur = heads[cur]
            if not ok:
                break
        if ok:
            break
    s = Sentence(
        sid,
        [f"w{i}" for i in range(n)],
        ["noun"] * n,
        ["root" if i == root else "dep" for i in range(n)],
        [None if i == root else heads[i] for i in range(n)],
        (),
    )
    assert s.root_tid == root
    return s


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_tree_meta_property(n, seed):
    s = _random_sentence(random.Random(seed), n)
    for tid in range(len(s)):
        assert (*s.extent(tid), s.depth[tid]) == _brute_extents(s, tid)


def test_columns_of_different_lengths_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        Sentence(0, ["a", "b"], ["noun", "noun"], ["root", "dep"], [None], ())


_TWO_TOKENS = (0, ["Ann", "ran"], ["propn", "verb"], ["nsubj", "root"], [1, None])


@pytest.mark.parametrize(
    "mentions, message",
    [
        ([EntitySpan(1, 0, 0, "Person")], "a mention carries sid 1"),
        ([EntitySpan(0, 0, 1, "Person"), EntitySpan(0, 1, 1, "Person")], "mention 1..1 overlaps"),
        ([EntitySpan(0, 1, 1, "Person"), EntitySpan(0, 0, 0, "Person")], "mention 0..0 overlaps or precedes"),
        ([EntitySpan(0, 1, 2, "Person")], "mention 1..2 .* lies outside the sentence"),
        ([EntitySpan(0, -1, 0, "Person")], "mention -1..0 .* lies outside the sentence"),
        ([EntitySpan(0, 1, 0, "Person")], "mention 1..0 .* lies outside the sentence"),
        ([EntitySpan(0, 0, 0, "Person"), EntitySpan(0, 1, 1, "")], "mention 1..1 has no type"),
    ],
    ids=["another sid", "overlapping", "out of order", "past the end", "before the start", "empty", "no type"],
)
def test_mentions_that_are_no_spans_of_the_sentence_rejected(mentions, message):
    with pytest.raises(ValueError, match=f"^sentence 0: {message}"):
        Sentence(*_TWO_TOKENS, mentions)
    assert Sentence(*_TWO_TOKENS, [EntitySpan(0, 0, 0, "Person"), EntitySpan(0, 1, 1, "Person")])


def test_heads_that_are_no_tree_rejected():
    # In a child process with a timeout, since heads without a root once
    # sent the constructor's walk of the tree round forever.
    script = textwrap.dedent("""
        from koko.corpus import Sentence
        cases = {
            "no root": [1, 0],
            "two roots": [None, None],
            "negative head": [None, -2],
            "head past the end": [None, 5],
            "self-head": [None, 1, 1],
            "cycle": [None, 2, 1],
        }
        for case, heads in cases.items():
            n = len(heads)
            try:
                Sentence(0, ["w"] * n, ["x"] * n, ["l"] * n, heads, ())
            except ValueError as exc:
                print(f"{case}: {exc}")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "no root: sentence 0: 0 roots, expected exactly 1",
        "two roots: sentence 0: 2 roots, expected exactly 1",
        "negative head: sentence 0: a head lies outside the sentence",
        "head past the end: sentence 0: a head lies outside the sentence",
        "self-head: sentence 0: the heads run in a cycle at tid 1",
        "cycle: sentence 0: the heads run in a cycle at tid 1",
    ]


def test_extents_nest_along_head_links_on_projective_trees(ex31_corpus):
    # A head's extent contains its child's and sits one level above it.
    for s in ex31_corpus.sentences:
        for tid, head in enumerate(s.heads):
            if head is not None:
                (head_left, head_right), (left, right) = s.extent(head), s.extent(tid)
                assert head_left <= left and right <= head_right
                assert s.depth[head] == s.depth[tid] - 1


def test_entity_spans(ex31_corpus):
    s0, s1 = ex31_corpus.sentences
    assert [(e.etype, e.start, e.end, s0.text(e.start, e.end)) for e in s0.entities] == [
        ("Entity", 3, 5, "chocolate ice cream"),
    ]
    assert [(e.start, e.end, s1.text(e.start, e.end)) for e in s1.entities] == [
        (4, 4, "cheesecake"),
        (10, 11, "grocery store"),
    ]


def test_entity_spans_adjacent_b_tags():
    text = (
        "0\t0\tBob\tpropn\tnsubj\t2\tB-Person\n"
        "0\t1\tAnn\tpropn\tnsubj\t2\tB-Person\n"
        "0\t2\tran\tverb\troot\t-1\tO\n"
    )
    s = parse_corpus(text)[0].sentences[0]
    assert [(e.start, e.end) for e in s.entities] == [(0, 0), (1, 1)]


def test_empty_file_gives_empty_corpus(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert load_corpus(str(path)) == []


def test_detokenize():
    assert detokenize(["a", "cream", ",", "which", "was", "good", "."]) == (
        "a cream, which was good."
    )


def test_round_trip(ex31_docs):
    text = serialize_corpus(ex31_docs)
    again = parse_corpus(text)
    assert serialize_corpus(again) == text
    original = open(data_path("corpus", "ex31.tsv"), encoding="utf-8").read()
    stripped = "\n".join(
        line for line in original.splitlines() if not line.startswith("#")
    ).strip()
    roundtripped = "\n".join(
        line for line in text.splitlines() if not line.startswith("#")
    ).strip()
    assert roundtripped == stripped


@pytest.mark.parametrize(
    "line, message",
    [
        ("0\t0\thello\tnoun\troot\t-1", "7 tab-separated columns"),
        ("0\t0\thello\tnoun\troot\t5\tO", "out of range"),
        ("0\t0\thello\tnoun\tdep\t0\tO", "cannot head itself"),
        ("0\t0\thello\tnoun\tdep\t-1\tO", "label 'root'"),
        ("0\t0\thello\tnoun\troot\t-1\tI-Person", "I-Person tag without"),
        ("0\t0\thello\tnoun\troot\t-1\tPerson", "must be O, B-<T> or I-<T>"),
        ("0\t0\thello\tnoun\troot\t-1\tB-", "must be O, B-<T> or I-<T>, got 'B-'"),
        ("0\t0\thello\tnoun\troot\t-1\tI-", "must be O, B-<T> or I-<T>, got 'I-'"),
    ],
)
def test_malformed_lines(line, message):
    with pytest.raises(KokoInputError, match=message):
        parse_corpus(line + "\n")


# A four-token sentence after a document header (line 1); its third row,
# line 4, is replaced by each faulty row below. Token 3 hangs off token 2,
# so a head of 3 on line 4 closes a cycle.
_FOUR_ROWS = [
    "0\t0\tThe\tdet\tdet\t1\tO",
    "0\t1\tcat\tnoun\troot\t-1\tO",
    "0\t2\tsat\tverb\tdep\t1\tO",
    "0\t3\t.\tpunct\tpunct\t2\tO",
]


@pytest.mark.parametrize(
    "third_row, message",
    [
        ("0\t2\tsat\tverb\tdep\t1", "c.tsv:4: expected 7 tab-separated columns, got 6"),
        (
            "0\tx\tsat\tverb\tdep\t1\tO",
            "c.tsv:4: non-integer id field: invalid literal for int() with base 10: 'x'",
        ),
        ("1\t2\tsat\tverb\tdep\t1\tO", "c.tsv:4: sid changed mid-sentence (0 -> 1)"),
        ("0\t5\tsat\tverb\tdep\t1\tO", "c.tsv:4: token ids must be contiguous from 0, got 5"),
        ("0\t2\tsat\tverb\tdep\t-1\tO", "c.tsv:4: head -1 requires label 'root', got 'dep'"),
        ("0\t2\tsat\tverb\tdep\t4\tO", "c.tsv:4: head 4 out of range for sid 0"),
        ("0\t2\tsat\tverb\tdep\t2\tO", "c.tsv:4: token cannot head itself"),
        (
            "0\t2\tsat\tverb\tdep\t1\tPerson",
            "c.tsv:4: entity column must be O, B-<T> or I-<T>, got 'Person'",
        ),
        (
            "0\t2\tsat\tverb\tdep\t1\tI-Person",
            "c.tsv:4: I-Person tag without a preceding B-/I-Person (sid 0)",
        ),
        ("0\t2\tsat\tverb\tdep\t1\tB-", "c.tsv:4: entity column must be O, B-<T> or I-<T>, got 'B-'"),
        # Faults of the whole sentence name its first line.
        ("0\t2\tsat\tverb\troot\t-1\tO", "c.tsv:2: sentence 0 has 2 roots, expected exactly 1"),
        ("0\t2\tsat\tverb\tdep\t3\tO", "c.tsv:2: cyclic head relation at sid 0, tid 2"),
    ],
)
def test_row_errors_name_their_line(third_row, message):
    rows = [*_FOUR_ROWS[:2], third_row, *_FOUR_ROWS[3:]]
    text = "# doc_id = d\n" + "\n".join(rows) + "\n\n"
    with pytest.raises(KokoInputError) as full:
        parse_corpus(text, origin="c.tsv")
    assert str(full.value) == message


def test_four_rows_parse_without_a_fault():
    text = "# doc_id = d\n" + "\n".join(_FOUR_ROWS) + "\n\n"
    (s,) = parse_corpus(text)[0].sentences
    assert s.heads == (1, None, 1, 2)


def test_two_roots_rejected():
    text = (
        "0\t0\ta\tnoun\troot\t-1\tO\n"
        "0\t1\tb\tnoun\troot\t-1\tO\n"
    )
    with pytest.raises(KokoInputError, match="2 roots"):
        parse_corpus(text)


def test_cycle_rejected():
    text = (
        "0\t0\ta\tnoun\tdep\t1\tO\n"
        "0\t1\tb\tnoun\tdep\t0\tO\n"
        "0\t2\tc\tnoun\troot\t-1\tO\n"
    )
    with pytest.raises(KokoInputError, match="cyclic"):
        parse_corpus(text)


def test_non_contiguous_sids_rejected():
    text = "5\t0\thello\tnoun\troot\t-1\tO\n"
    with pytest.raises(KokoInputError, match="contiguous"):
        parse_corpus(text)


def test_doc_boundaries():
    text = (
        "# doc_id = one\n"
        "0\t0\ta\tnoun\troot\t-1\tO\n"
        "\n"
        "# doc_id = two\n"
        "1\t0\tb\tnoun\troot\t-1\tO\n"
    )
    docs = parse_corpus(text)
    assert [d.doc_id for d in docs] == ["one", "two"]
    corpus = Corpus(docs)
    assert corpus.doc_index_of(0) == 0 and corpus.doc_index_of(1) == 1


def test_entity_spans_empty_without_tags():
    s = parse_corpus("0\t0\thello\tnoun\troot\t-1\tO\n")[0].sentences[0]
    assert s.entities == ()


def test_cycle_message_names_first_token_off_the_root():
    text = (
        "0\t0\ta\tnoun\troot\t-1\tO\n"
        "0\t1\tb\tnoun\tdep\t0\tO\n"
        "0\t2\tc\tnoun\tdep\t3\tO\n"
        "0\t3\td\tnoun\tdep\t2\tO\n"
    )
    with pytest.raises(KokoInputError, match="cyclic head relation at sid 0, tid 2$"):
        parse_corpus(text)


def test_long_chain_parses():
    n = 3000
    text = "".join(
        f"0\t{i}\tw{i}\tnoun\t{'root' if i == n - 1 else 'dep'}\t{-1 if i == n - 1 else i + 1}\tO\n"
        for i in range(n)
    )
    s = parse_corpus(text)[0].sentences[0]
    assert s.root_tid == n - 1
    assert s.depth[0] == n - 1 and s.extent(n - 1) == (0, n - 1)


def test_non_utf8_corpus_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"0\t0\ta\tnoun\troot\t-1\tO\n\n1\t0\th\xffi\tintj\troot\t-1\tO\n")
    with pytest.raises(KokoInputError, match=r"bad.tsv:3: not valid UTF-8"):
        load_corpus(str(path))


# Two documents whose sentences repeat words, tags, labels and an entity
# type, with non-ASCII text.
_SHARED = (
    "# doc_id = one\n"
    "0\t0\tZoë\tpropn\tnsubj\t1\tB-Person\n"
    "0\t1\tsang\tverb\troot\t-1\tO\n"
    "\n"
    "1\t0\tZoë\tpropn\tnsubj\t1\tB-Person\n"
    "1\t1\tran\tverb\troot\t-1\tO\n"
    "\n"
    "# doc_id = two\n"
    "2\t0\tZoë\tpropn\tnsubj\t1\tB-Person\n"
    "2\t1\tsang\tverb\troot\t-1\tO\n"
    "2\t2\tKraków\tpropn\tobl\t1\tB-Place\n"
)


def test_equal_fields_are_one_object_across_sentences_and_documents():
    (a, b), (c,) = (doc.sentences for doc in parse_corpus(_SHARED))
    for s in (b, c):
        for column in ("tokens", "pos", "labels"):
            assert getattr(s, column)[0] is getattr(a, column)[0]
        assert s.entities[0].etype is a.entities[0].etype
    assert c.tokens[1] is a.tokens[1]
    assert c.pos[2] is c.pos[0] and c.labels[1] is b.labels[1]


_NO_ENTITY = (
    "# doc_id = one\n"
    "0\t0\tDogs\tnoun\tnsubj\t1\tO\n"
    "0\t1\tbark\tverb\troot\t-1\tO\n"
    "\n"
    "1\t0\tZoë\tpropn\tnsubj\t1\tB-Person\n"
    "1\t1\tsang\tverb\troot\t-1\tO\n"
    "\n"
    "# doc_id = two\n"
    "2\t0\tBirds\tnoun\tnsubj\t1\tO\n"
    "2\t1\tsing\tverb\troot\t-1\tO\n"
    "\n"
    "3\t0\tBirds\tnoun\tnsubj\t1\tO\n"
    "3\t1\tsing\tverb\troot\t-1\tO\n"
    "3\t2\tloudly\tadv\tadvmod\t1\tO\n"
)


def test_a_sentence_holds_its_mentions_and_the_writer_tags_them():
    # The IOB2 tags live in the file only: a sentence holds its columns
    # and its mentions, and the writer tags each mention from its span.
    assert Sentence._fields == ("sid", "tokens", "pos", "labels", "heads", "entities")
    docs = parse_corpus(_NO_ENTITY)
    (a, b), (c, d) = (doc.sentences for doc in docs)
    assert a.entities == c.entities == d.entities == () and b.entities == (EntitySpan(1, 0, 0, "Person"),)
    assert not any(hasattr(b, name) for name in ("etypes", "iobs", "left", "right"))
    assert serialize_corpus(docs) == _NO_ENTITY + "\n"
    # Mentions of one type side by side stay two: B-Person B-Person I-Person.
    adjacent = Sentence(0, ["Bob", "Ann", "Lee", "ran"], ["propn"] * 3 + ["verb"], ["nsubj"] * 3 + ["root"],
                        [3, 3, 3, None], [EntitySpan(0, 0, 0, "Person"), EntitySpan(0, 1, 2, "Person")])
    text = serialize_corpus([AnnotatedDocument("d", [adjacent])])
    assert [row.split("\t")[6] for row in text.splitlines()[1:5]] == ["B-Person", "B-Person", "I-Person", "O"]
    assert parse_corpus(text)[0].sentences == [adjacent]


@pytest.mark.parametrize(
    "docs",
    [
        parse_corpus(_SHARED),
        [AnnotatedDocument("empty")],
        [AnnotatedDocument("empty"), *parse_corpus(_SHARED)],
        [],
    ],
    ids=["two documents", "no sentence", "empty document first", "empty corpus"],
)
def test_fingerprint_hashes_the_serialization_a_document_at_a_time(docs):
    assert corpus_fingerprint(docs) == fingerprint_bytes(serialize_corpus(docs).encode("utf-8"))


@given(st.text(alphabet="ab\n", max_size=30), st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_lines_split_in_chunks_as_one_split(text, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(koko.corpus, "_CHUNK", chunk)
        assert list(koko.corpus._lines(text)) == text.split("\n")


# A document of two sentences, then a second document; each case below
# puts one fault in it.
_TWO_DOCS = [
    "# doc_id = one",
    *_FOUR_ROWS,
    "",
    "1\t0\tDogs\tnoun\tnsubj\t1\tO",
    "1\t1\tbark\tverb\troot\t-1\tO",
    "",
    "# doc_id = two",
    "2\t0\tBirds\tnoun\tnsubj\t1\tO",
    "2\t1\tsing\tverb\troot\t-1\tO",
    "",
]


def _with_line(lineno: int, row: str, lines: list[str] = _TWO_DOCS) -> list[str]:
    return [row if i == lineno else line for i, line in enumerate(lines, start=1)]


@pytest.mark.parametrize(
    "data, chunk, message",
    [
        # The cut after line 6 opens the chunk of the second sentence, whose
        # first row has a bad column.
        (
            "\n".join(_with_line(7, "1\t0\tDogs\tnoun\tnsubj\t1")).encode(),
            len("\n".join(_TWO_DOCS[:5])) + 1,
            "{path}:7: expected 7 tab-separated columns, got 6",
        ),
        (
            "\n".join(_with_line(12, "2\t1\tsing\tverb\tdep\t-1\tO")).encode(),
            16,
            "{path}:12: head -1 requires label 'root', got 'dep'",
        ),
        # The last line has no newline after it.
        (
            "\n".join(_with_line(12, "2\t1\tsing\tverb\troot\t5\tO")[:-1]).encode(),
            1 << 20,
            "{path}:12: head 5 out of range for sid 2",
        ),
        (
            "\n".join(_with_line(11, "2\t0\tB\xffirds")).encode("latin-1"),
            16,
            "{path}:11: not valid UTF-8 (invalid start byte)",
        ),
    ],
    ids=["after a chunk boundary", "second document", "last line unterminated", "not UTF-8"],
)
def test_reader_errors_name_their_line(tmp_path, capsys, monkeypatch, data, chunk, message):
    path = tmp_path / "c.tsv"
    path.write_bytes(data)
    monkeypatch.setattr(koko.corpus, "_CHUNK", chunk)
    code = main(["index", "--corpus", str(path), "--out", str(tmp_path / "idx")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err == f"error: {message.format(path=path)}\n"
