from __future__ import annotations

import functools
import json
import struct
import tempfile
import zlib
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koko.bench import synthesize_corpus
from koko.corpus import AnnotatedDocument, Corpus, EntitySpan, Sentence, load_corpus, parse_corpus, serialize_corpus
from koko.engine import run_query
from koko.errors import KokoInputError
from koko.indexes import (
    NO_HEAD,
    PostingLists,
    Sentences,
    build_indexes,
    corpus_fingerprint,
    load_bundle,
    open_corpus,
    save_bundle,
)
from koko.parser import parse_query

from .conftest import data_path, path_offsets, postings


def _parse_pattern(path: str):
    # Tiny helper: "/root/dobj" or "//*/dobj//*" into (axis, label) steps.
    steps = []
    i = 0
    while i < len(path):
        axis = "//" if path.startswith("//", i) else "/"
        i += len(axis)
        j = i
        while j < len(path) and path[j] != "/":
            j += 1
        steps.append((axis, path[i:j]))
        i = j
    return steps


def test_word_index_rows(ex31_bundle):
    def word(text):
        return postings(ex31_bundle, ex31_bundle.word.lookup(text))

    assert word("I") == [(0, 0, 0, 0, 1)]
    assert word("cream") == [(0, 5, 2, 9, 1)]
    assert word("delicious") == [
        (0, 9, 9, 9, 3),
        (1, 3, 3, 3, 2),
    ]
    # The 17-token sentence mentions "ate" twice; both occurrences index.
    assert word("ate") == [
        (0, 1, 0, 16, 0),
        (0, 13, 12, 15, 1),
        (1, 1, 0, 12, 0),
    ]
    assert word("zzz-absent") == []


def test_entity_index_rows(ex31_corpus, ex31_bundle):
    sentence = ex31_corpus.sentence
    rows = {(sentence(r.sid).text(r.start, r.end), r.sid, r.start, r.end) for r in ex31_bundle.entity.lookup()}
    assert rows == {
        ("chocolate ice cream", 0, 3, 5),
        ("cheesecake", 1, 4, 4),
        ("grocery store", 1, 10, 11),
    }
    assert ex31_bundle.entity.lookup("Person") == []
    assert len(ex31_bundle.entity.lookup("Entity")) == 3


def test_pl_index_pinned_rows(ex31_bundle):
    expect = {
        "/root": [(0, 1), (1, 1)],
        "/root/nsubj": [(0, 0), (1, 0)],
        "/root/dobj": [(0, 5), (1, 4)],
        "/root/dobj/det": [(0, 2), (1, 2)],
        "/root/dobj/amod": [(1, 3)],
        "/root/dobj/nn": [(0, 3), (0, 4)],
    }
    for path, rows in expect.items():
        got = postings(ex31_bundle, path_offsets(ex31_bundle.pl, _parse_pattern(path)))
        assert [(sid, tid) for sid, tid, *_ in got] == rows, path


def test_merged_nn_node_carries_both_tokens(ex31_bundle, ex31_corpus):
    got = postings(ex31_bundle, path_offsets(ex31_bundle.pl, _parse_pattern("/root/dobj/nn")))
    assert got == [(0, 3, 3, 3, 2), (0, 4, 4, 4, 2)]
    words = [ex31_corpus.sentence(sid).tokens[tid] for sid, tid, *_ in got]
    assert words == ["chocolate", "ice"]


def test_hierarchy_descendant_and_wildcard(ex31_bundle):
    got = postings(ex31_bundle, path_offsets(ex31_bundle.pl, _parse_pattern("//*/dobj//*")))
    # Everything strictly below a non-root-attached dobj node.
    sids_tids = {(sid, tid) for sid, tid, *_ in got}
    assert (0, 3) in sids_tids and (0, 9) in sids_tids and (1, 10) in sids_tids
    assert (0, 5) not in sids_tids  # the dobj itself is not its own descendant
    assert (0, 15) not in sids_tids  # pie sits under conj/dobj, matched elsewhere
    got_root = postings(ex31_bundle, path_offsets(ex31_bundle.pl, _parse_pattern("/root")))
    assert [(sid, tid) for sid, tid, *_ in got_root] == [(0, 1), (1, 1)]


def test_lookup_missing_path_is_empty(ex31_bundle):
    assert path_offsets(ex31_bundle.pl, _parse_pattern("/root/iobj")) == []
    assert path_offsets(ex31_bundle.pos, _parse_pattern("//sym")) == []


def test_pos_index_rooted_lookup(ex31_bundle):
    got = postings(ex31_bundle, path_offsets(ex31_bundle.pos, _parse_pattern("/verb")))
    assert [(sid, tid) for sid, tid, *_ in got] == [(0, 1), (1, 1)]


def test_every_token_reachable_through_its_root_path(ex31_bundle, ex31_corpus):
    for s in ex31_corpus.sentences:
        for tid in range(len(s)):
            chain = [tid]
            head = s.heads[tid]
            while head is not None:
                chain.append(head)
                head = s.heads[head]
            chain.reverse()
            pattern = [("/", s.labels[x]) for x in chain]
            got = postings(ex31_bundle, path_offsets(ex31_bundle.pl, pattern))
            assert any(sid == s.sid and t == tid for sid, t, *_ in got)


def test_word_index_exactness(ex31_bundle, ex31_corpus):
    total = sum(len(v) for v in ex31_bundle.word.postings.values())
    assert total == ex31_corpus.token_count


def test_posting_lists_sorted(ex31_bundle):
    for plist in ex31_bundle.word.postings.values():
        assert list(plist) == sorted(plist)
    for index in (ex31_bundle.pl, ex31_bundle.pos):
        for plist in index.postings.values():
            assert list(plist) == sorted(plist)


def test_children_labels_distinct(ex31_bundle):
    for index in (ex31_bundle.pl, ex31_bundle.pos):
        pairs = list(zip(index.parents[1:], index.labels[1:]))
        assert len(set(pairs)) == len(pairs) == index.node_count
        # Node ids are pre-order ranks: the nodes below node n are the ids
        # n + 1 up to end[n], and each label's ids are sorted.
        for n in range(len(index.labels)):
            below = {m for m in range(1, len(index.labels)) if n in _ancestors(index, m)}
            assert below == set(range(n + 1, index.end[n]))
        for label, ids in index.ids_of.items():
            assert ids == sorted(m for m in range(1, len(index.labels)) if index.labels[m] == label)


def _ancestors(index, node_id):
    """The proper ancestors of a node, the super-root included."""
    found = []
    while node_id > 0:
        node_id = index.parents[node_id]
        found.append(node_id)
    return found


def test_compression_on_repeated_sentences():
    template = synthesize_corpus(3, 1, min_len=9, max_len=9)
    ssent = template[0].sentences[0]
    distinct_paths = set()
    for tid in range(len(ssent)):
        chain = [tid]
        head = ssent.heads[tid]
        while head is not None:
            chain.append(head)
            head = ssent.heads[head]
        distinct_paths.add(tuple(ssent.labels[x] for x in reversed(chain)))
    repeated = synthesize_corpus(3, 500, min_len=9, max_len=9, shape_pool=1, vocabulary=80)
    bundle = build_indexes(repeated)
    assert bundle.pl.node_count <= len(distinct_paths) + 1
    assert bundle.pl.node_count <= bundle.token_count * 0.05


def test_save_load_round_trip(ex31_bundle, tmp_path):
    save_bundle(ex31_bundle, str(tmp_path / "idx"))
    loaded = load_bundle(str(tmp_path / "idx"))
    assert loaded == ex31_bundle


def test_save_load_round_trip_synthetic_10k(tmp_path):
    docs = synthesize_corpus(11, 10_000)
    bundle = build_indexes(docs)
    save_bundle(bundle, str(tmp_path / "idx"))
    loaded = load_bundle(str(tmp_path / "idx"))
    assert loaded == bundle
    assert loaded.fingerprint == corpus_fingerprint(docs)


def test_version_mismatch_rejected(ex31_bundle, tmp_path):
    d = tmp_path / "idx"
    save_bundle(ex31_bundle, str(d))
    path = d / "word.idx"
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(KokoInputError, match="version"):
        load_bundle(str(d))


def test_index_of_the_previous_format_exits_2(ex31_bundle, tmp_path, capsys):
    # A version-10 index, as its writer recorded it in the manifest and each
    # file's header, is refused with the version message, no traceback.
    from koko.cli import main

    d = tmp_path / "idx"
    save_bundle(ex31_bundle, str(d))
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format_version"] = 10
    (d / "manifest.json").write_text(json.dumps(manifest))
    for name in manifest["checksums"]:
        raw = bytearray((d / name).read_bytes())
        _set_u32(raw, 4, 10)
        (d / name).write_bytes(bytes(raw))
    q = tmp_path / "q.koko"
    q.write_text('extract v:Str from "x" if (/ROOT:{ v = //dobj })\n')
    capsys.readouterr()
    assert main(["query", "--query", str(q), "--index", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "format version 10 does not match supported version 11" in captured.err


def test_fingerprint_mismatch_rejected(ex31_bundle, tmp_path):
    d = tmp_path / "idx"
    save_bundle(ex31_bundle, str(d))
    with pytest.raises(KokoInputError, match="fingerprint"):
        load_bundle(str(d), expected_fingerprint="deadbeef")


def test_truncated_file_rejected(ex31_bundle, tmp_path):
    d = tmp_path / "idx"
    save_bundle(ex31_bundle, str(d))
    path = d / "pl.idx"
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(KokoInputError, match="truncated"):
        load_bundle(str(d))


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(KokoInputError, match="manifest"):
        load_bundle(str(tmp_path))


def test_empty_corpus_round_trips(tmp_path):
    bundle = build_indexes([])
    save_bundle(bundle, str(tmp_path / "idx"))
    loaded = load_bundle(str(tmp_path / "idx"))
    assert loaded == bundle and loaded.sentence_count == 0


def test_entity_type_filter_selects_single_person():
    from koko.corpus import parse_corpus

    docs = parse_corpus(
        "0\t0\tAnna\tpropn\tnsubj\t1\tB-Person\n"
        "0\t1\tate\tverb\troot\t-1\tO\n"
        "0\t2\tcheesecake\tnoun\tdobj\t1\tB-Entity\n"
    )
    bundle = build_indexes(docs)
    people = bundle.entity.lookup("Person")
    assert [(r.sid, r.start, r.end) for r in people] == [(0, 0, 0)]
    assert docs[0].sentences[0].text(0, 0) == "Anna"


def test_entity_index_holds_the_sentences_mentions(tmp_path):
    docs = synthesize_corpus(5, 60, entity_rate=0.6)
    corpus = Corpus(docs)
    mentions = [e for s in corpus.sentences for e in s.entities]
    assert len(mentions) > 20
    bundle = build_indexes(docs)
    assert bundle.entity.records == mentions
    save_bundle(bundle, str(tmp_path / "idx"))
    loaded = load_bundle(str(tmp_path / "idx"))
    assert loaded.entity.records == mentions
    assert all(type(e) is EntitySpan for e in loaded.entity.records)


def test_entity_index_stores_no_mention_text(ex31_corpus, ex31_bundle, tmp_path):
    # A mention is its span: entity.idx holds the etype table and the
    # records' columns, and no mention's text, which is read from its words.
    save_bundle(ex31_bundle, str(tmp_path / "idx"))
    raw = (tmp_path / "idx" / "entity.idx").read_bytes()
    texts = [ex31_corpus.sentence(r.sid).text(r.start, r.end) for r in ex31_bundle.entity.records]
    assert texts == ["chocolate ice cream", "cheesecake", "grocery store"]
    assert not any(text.encode("utf-8") in raw for text in texts)
    assert load_bundle(str(tmp_path / "idx")).entity.records == ex31_bundle.entity.records


def test_wildcard_descendant_union_matches_brute_force(ex31_bundle, ex31_corpus):
    # Independent computation of //*/dobj//*: walk every token's real root
    # path and keep those with a dobj strictly between two other labels.
    expected = []
    for s in ex31_corpus.sentences:
        for tid in range(len(s)):
            chain = [tid]
            head = s.heads[tid]
            while head is not None:
                chain.append(head)
                head = s.heads[head]
            chain.reverse()  # root .. tid
            labels = [s.labels[x] for x in chain]
            # pattern //* /dobj //*: some prefix of >=1 labels, then dobj,
            # then >=1 more labels ending at t
            ok = any(
                labels[i] == "dobj" and i >= 1 and i < len(labels) - 1
                for i in range(len(labels))
            )
            if ok:
                expected.append((s.sid, tid, *s.extent(tid), s.depth[tid]))
    got = postings(ex31_bundle, path_offsets(ex31_bundle.pl, [("//", "*"), ("/", "dobj"), ("//", "*")]))
    assert sorted(got) == sorted(expected)


def test_corrupt_bytes_surface_as_input_errors(ex31_bundle, tmp_path):
    d = tmp_path / "idx"
    save_bundle(ex31_bundle, str(d))
    path = d / "word.idx"
    raw = bytearray(path.read_bytes())
    # Flip bytes inside the first string of the word table to break its
    # UTF-8.
    text_at = _offsets(raw, "word.idx")["words.text"]
    raw[text_at : text_at + 2] = b"\xff\xfe"
    path.write_bytes(bytes(raw))
    with pytest.raises(KokoInputError):
        load_bundle(str(d))


def _small_index(tmp_path):
    from koko.bench import synthesize_corpus
    from koko.corpus import serialize_corpus

    docs = synthesize_corpus(6, 40, entity_rate=0.5)
    bundle = build_indexes(docs)
    d = tmp_path / "idx"
    save_bundle(bundle, str(d))
    return docs, bundle, d


# The parts of each index file after its 8-byte header, in order. A narrow
# column is a width byte, a u32 count and that many items of the width; a
# string table's UTF-8 text and a posting set's deflated forward column are
# a u32 count and that many bytes.
_LAYOUT = {
    "tree.idx": ["lengths", "heads", "doc_ids.ends", "doc_ids.text", "doc_lengths"],
    "word.idx": ["words.ends", "words.text", "counts", "column"],
    "entity.idx": ["etypes.ends", "etypes.text", "sid", "start", "end", "etype_id"],
    "pl.idx": ["labels.ends", "labels.text", "label_id", "parent", "counts", "column"],
}
_LAYOUT["pos.idx"] = _LAYOUT["pl.idx"]
_FORMATS = {1: "B", 2: "H", 4: "I"}


def _is_narrow(part):
    return not part.endswith(("text", "column"))


_NARROW = [(name, part) for name in sorted(_LAYOUT) for part in _LAYOUT[name] if _is_narrow(part)]


def _offsets(raw, name):
    """Byte offset of the first item of each part of an index file; its
    count sits in the 4 bytes before, and a narrow column's width byte in
    the one before that."""
    at, out = 8, {}
    for part in _LAYOUT[name]:
        width = 1
        if _is_narrow(part):
            width = raw[at]
            at += 1
        (n,) = struct.unpack_from("<I", raw, at)
        out[part] = at + 4
        at += 4 + n * width
    assert at == len(raw)
    return out


def _width_of(raw, offsets, part):
    return raw[offsets[part] - 5] if _is_narrow(part) else 1


def _column(raw, name, part):
    """The entries of a narrow column."""
    at = _offsets(raw, name)[part]
    return list(struct.unpack_from(f"<{_u32(raw, at - 4)}{_FORMATS[raw[at - 5]]}", raw, at))


def _with_column(raw, name, part, values):
    """`raw` with narrow column `part` replaced by `values` as a writer
    would encode them, at the fewest bytes that hold the largest."""
    at = _offsets(raw, name)[part]
    end = at + _u32(raw, at - 4) * raw[at - 5]
    width = next(w for w in (1, 2, 4) if max(values, default=0) < 1 << 8 * w)
    column = struct.pack(f"<BI{len(values)}{_FORMATS[width]}", width, len(values), *values)
    return raw[: at - 5] + column + raw[end:]


def _changed_column(name, part, change):
    """A corruption of one narrow column by `change(entries)`, written as a
    writer would encode it."""

    def corrupt(raw):
        values = _column(raw, name, part)
        change(values)
        raw[:] = _with_column(raw, name, part, values)

    corrupt.__name__ = part + change.__name__
    return corrupt


def _key_width(raw, name):
    """The width of a file's forward column: the fewest bytes that hold its
    largest key position, one less than its list count."""
    keys = _u32(raw, _offsets(raw, name)["counts"] - 4)
    return next(w for w in (1, 2, 4) if keys - 1 < 1 << 8 * w)


def _forward_column(raw, name):
    """The key position of each token, the posting set's column inflated."""
    width = _key_width(raw, name)
    column = zlib.decompress(raw[_offsets(raw, name)["column"] :])
    return list(struct.unpack(f"<{len(column) // width}{_FORMATS[width]}", column))


def _with_deflated(raw, name, data):
    """`raw` with its deflated column, which ends the file, replaced by the
    bytes `data`."""
    at = _offsets(raw, name)["column"]
    return raw[: at - 4] + struct.pack("<I", len(data)) + data


def _with_forward_column(raw, name, column):
    """`raw` with its forward column replaced by `column`, deflated as the
    writer does."""
    data = struct.pack(f"<{len(column)}{_FORMATS[_key_width(raw, name)]}", *column)
    return _with_deflated(raw, name, zlib.compress(data, 1))


def _decoded_lists(raw, name):
    """The posting lists of a file: the offsets of each key position in
    its forward column, by key position."""
    lists = [[] for _ in _column(raw, name, "counts")]
    for offset, key in enumerate(_forward_column(raw, name)):
        lists[key].append(offset)
    return lists


def _with_lists(raw, name, lists):
    """`raw` with its posting set replaced by `lists` as a writer that
    groups offsets into lists would encode them: their counts, and a column
    that gives each token the position of the last list holding it, or the
    width's largest value, which no key has, when none does."""
    width = _key_width(raw, name)
    unheld = (1 << 8 * width) - 1
    assert unheld >= len(lists)
    column = [unheld] * len(_forward_column(raw, name))
    for key, plist in enumerate(lists):
        for offset in plist:
            column[offset] = key
    raw = _with_column(raw, name, "counts", [len(plist) for plist in lists])
    return _with_forward_column(raw, name, column)


def _replace_lists(d, name, change):
    """Rewrite the posting lists of index file `name` in directory `d` by
    `change(lists)`, in a file whose checksum matches: a faulty writer."""
    raw = (d / name).read_bytes()
    lists = _decoded_lists(raw, name)
    change(lists)
    (d / name).write_bytes(_with_lists(raw, name, lists))
    _rewrite_checksum(d, name)


def _rewrite_checksum(d, name):
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["checksums"][name] = zlib.crc32((d / name).read_bytes())
    (d / "manifest.json").write_text(json.dumps(manifest))


def test_checksum_mismatch_rejected(tmp_path):
    _, bundle, d = _small_index(tmp_path)
    path = d / "entity.idx"
    raw = bytearray(path.read_bytes())
    # The first record's sid, inside the corpus after the change.
    first = bundle.entity.records[0]
    sid_at = _offsets(raw, "entity.idx")["sid"]
    assert _column(raw, "entity.idx", "sid")[0] == first.sid == 0
    raw[sid_at] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(KokoInputError, match="entity.idx: checksum mismatch"):
        load_bundle(str(d))


def test_manifest_without_checksums_rejected(tmp_path):
    _, _, d = _small_index(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    del manifest["checksums"]["pos.idx"]
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(KokoInputError, match="checksums"):
        load_bundle(str(d))


def test_node_parent_out_of_range_rejected(tmp_path):
    _, _, d = _small_index(tmp_path)
    path = d / "pl.idx"
    raw = path.read_bytes()
    # Node 1's parent, the first entry of the parent column (the
    # super-root has none), widened to 2 bytes to hold it.
    parents = _column(raw, "pl.idx", "parent")
    assert parents[0] == 0
    parents[0] = 5000
    path.write_bytes(_with_column(raw, "pl.idx", "parent", parents))
    with pytest.raises(KokoInputError, match="node record 1 has parent 5000"):
        load_bundle(str(d))


def test_posting_block_past_end_of_file_rejected(tmp_path):
    _, bundle, d = _small_index(tmp_path)
    path = d / "word.idx"
    raw = bytearray(path.read_bytes())
    # The byte count of the deflated column, which runs to the end of the file.
    count_at = _offsets(raw, "word.idx")["column"] - 4
    assert struct.unpack_from("<I", raw, count_at)[0] == len(raw) - count_at - 4
    raw[count_at : count_at + 4] = struct.pack("<I", 1 << 30)
    path.write_bytes(bytes(raw))
    with pytest.raises(KokoInputError, match="truncated"):
        load_bundle(str(d))


def test_trailing_bytes_rejected(tmp_path):
    _, _, d = _small_index(tmp_path)
    path = d / "pos.idx"
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(KokoInputError, match="after the last record"):
        load_bundle(str(d))


def _replace_column(d, name, change):
    """Rewrite the forward column of index file `name` in directory `d` by
    `change(column)`, its counts kept, in a file whose checksum matches: a
    faulty writer."""
    raw = (d / name).read_bytes()
    column = _forward_column(raw, name)
    change(column)
    (d / name).write_bytes(_with_forward_column(raw, name, column))
    _rewrite_checksum(d, name)


def test_postings_decoded_and_checked_on_first_lookup(tmp_path):
    docs, bundle, d = _small_index(tmp_path)
    words = sorted(bundle.word.postings)
    # The last token's word id set to the word count, one past the last
    # word, in a file whose checksum matches: a faulty writer, not a
    # corrupted copy. The counts are unchanged, so the file loads.
    _replace_column(d, "word.idx", lambda column: column.__setitem__(-1, len(words)))
    loaded = load_bundle(str(d))
    assert loaded.word.count(words[0]) == bundle.word.count(words[0])
    # The column is inflated and checked whole at the first lookup, of any
    # word, and again at the next, since nothing was kept.
    for word in words[1], words[0]:
        with pytest.raises(KokoInputError, match="word.idx: the posting lists do not hold every token once"):
            loaded.word.lookup(word)


def test_garbled_column_rejected_on_lookup(tmp_path):
    # Bytes in the middle of the deflated word column flipped, in a file
    # whose checksum matches: the file loads, and the first lookup, which
    # inflates the column, refuses it.
    docs, bundle, d = _small_index(tmp_path)
    raw = bytearray((d / "word.idx").read_bytes())
    at = (_offsets(raw, "word.idx")["column"] + len(raw)) // 2
    raw[at : at + 4] = bytes(b ^ 0x5A for b in raw[at : at + 4])
    (d / "word.idx").write_bytes(bytes(raw))
    _rewrite_checksum(d, "word.idx")
    loaded = load_bundle(str(d))
    with pytest.raises(KokoInputError, match="word.idx: the posting column does not inflate to its"):
        loaded.word.lookup(sorted(bundle.word.postings)[0])


def test_save_of_a_loaded_index_is_byte_identical(tmp_path):
    docs, _, d = _small_index(tmp_path)
    again = tmp_path / "again"
    save_bundle(load_bundle(str(d)), str(again))
    names = sorted(p.name for p in d.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (d / name).read_bytes(), name


# ---------------------------------------------------------------------------
# The encoded posting lists and the narrow head column


def _codec_corpus(lengths, markers=(), mentions=False):
    """One document of sentences of the given lengths, every token "a"
    hanging from its sentence's first token, except that each global offset
    in `markers` holds the marker's word. With `mentions`, each sentence's
    first token is an entity mention of a type of its own: E0, E1 and so on."""
    words = ["a"] * sum(lengths)
    for word, offset in markers:
        words[offset] = word
    sentences, at = [], 0
    for sid, n in enumerate(lengths):
        sentences.append(Sentence(
            sid, words[at : at + n], ["NN"] * n, ["root"] + ["dep"] * (n - 1),
            [None] + [0] * (n - 1), [EntitySpan(sid, 0, 0, f"E{sid}")] if mentions else (),
        ))
        at += n
    return [AnnotatedDocument("d", sentences)]


def _round_trips(docs, d):
    """Save the index of `docs` to `d`: it loads equal to the built one,
    and saving the loaded one writes the same bytes."""
    bundle = build_indexes(docs)
    save_bundle(bundle, str(d / "idx"))
    loaded = load_bundle(str(d / "idx"))
    assert loaded == bundle
    save_bundle(loaded, str(d / "again"))
    for name in sorted(p.name for p in (d / "idx").iterdir()):
        assert (d / "again" / name).read_bytes() == (d / "idx" / name).read_bytes(), name
    return bundle, loaded


@pytest.mark.parametrize("words, width", [(256, 1), (257, 2), (65536, 2), (65537, 4)])
def test_forward_column_width_follows_the_key_count(tmp_path, words, width):
    # The word column takes the fewest bytes that hold the largest word id,
    # one less than the word count: with 256 words, 255 fits in 1 byte.
    # Every token but the first is a word of its own.
    docs = _codec_corpus([words], [(f"w{i:05}", i) for i in range(1, words)])
    bundle, loaded = _round_trips(docs, tmp_path)
    raw = (tmp_path / "idx" / "word.idx").read_bytes()
    assert len(bundle.word.postings) == words
    assert _key_width(raw, "word.idx") == width
    assert _forward_column(raw, "word.idx") == list(loaded.word.postings.column) == list(range(words))
    assert list(loaded.word.lookup("a")) == [0]
    assert list(loaded.word.lookup(f"w{words - 1:05}")) == [words - 1]
    assert list(loaded.pl.postings[0]) == [] and bundle.pl.postings.ptr[1] == 0


@pytest.mark.parametrize("longest, width", [(254, 1), (255, 2), (65534, 2), (65535, 4)])
def test_head_width_follows_the_longest_sentence(tmp_path, longest, width):
    # A root's head is the width's largest value on disk, so a sentence of
    # 255 tokens or more, whose heads could reach 254, takes the next width.
    docs = _codec_corpus([3, longest, 1])
    bundle, loaded = _round_trips(docs, tmp_path)
    raw = (tmp_path / "idx" / "tree.idx").read_bytes()
    assert _width_of(raw, _offsets(raw, "tree.idx"), "heads") == width
    assert list(loaded.tokens.heads) == list(bundle.tokens.heads)
    assert loaded.tokens.heads.count(NO_HEAD) == 3
    corpus = open_corpus(loaded)
    assert corpus.sentence(1) == docs[0].sentences[1]


def _width_cases():
    """(corpus, file, column, width): a column's largest entry at each
    width's edge. A sentence of 256 tokens takes 2-byte lengths and one of
    65,536 tokens 4-byte ones; a list of 65,536 postings, the "a" tokens
    or the "dep" node's, 4-byte counts; more than 256 distinct entity
    types, one per sentence, 2-byte etype ids."""
    cases = []
    for longest, width in ((255, 1), (256, 2), (65536, 4)):
        docs = functools.partial(_codec_corpus, [3, longest])
        cases.append(pytest.param(docs, "tree.idx", "lengths", width, id=f"lengths-{longest}"))
    for largest, width in ((255, 1), (256, 2), (65535, 2), (65536, 4)):
        # One sentence: "a" and the "dep" node hold all of it but one token.
        docs = functools.partial(_codec_corpus, [largest + 1], [("b", 0)])
        for name in ("word.idx", "pl.idx"):
            cases.append(pytest.param(docs, name, "counts", width, id=f"{name}-counts-{largest}"))
    for etypes, width in ((256, 1), (257, 2)):
        docs = functools.partial(_codec_corpus, [2] * etypes, (), True)
        cases.append(pytest.param(docs, "entity.idx", "etype_id", width, id=f"etypes-{etypes}"))
    return cases


@pytest.mark.parametrize("docs, name, part, width", _width_cases())
def test_column_widths_round_trip(tmp_path, docs, name, part, width):
    # Saved, the index loads equal to the built one, and saving the loaded
    # one writes the same bytes (`_round_trips`), at each width.
    docs = docs()
    bundle, loaded = _round_trips(docs, tmp_path)
    raw = (tmp_path / "idx" / name).read_bytes()
    assert _width_of(raw, _offsets(raw, name), part) == width
    assert list(loaded.tokens.starts) == list(bundle.tokens.starts)
    assert list(loaded.word.postings.ptr) == list(bundle.word.postings.ptr)
    assert list(loaded.pl.postings.ptr) == list(bundle.pl.postings.ptr)
    assert loaded.entity.records == bundle.entity.records
    assert open_corpus(loaded).sentence(len(loaded.tokens.lengths) - 1) == docs[0].sentences[-1]


def _deflated(raw, name):
    return bytes(raw[_offsets(raw, name)["column"] :])


def _truncated(raw, name):
    data = _deflated(raw, name)
    raw[:] = _with_deflated(raw, name, data[: len(data) // 2])


def _garbled(raw, name):
    data = bytearray(_deflated(raw, name))
    at = len(data) // 2
    data[at : at + 4] = bytes(b ^ 0x5A for b in data[at : at + 4])
    raw[:] = _with_deflated(raw, name, bytes(data))


def _trailing_bytes(raw, name):
    raw[:] = _with_deflated(raw, name, _deflated(raw, name) + b"\0")


def _one_entry_short(raw, name):
    raw[:] = _with_forward_column(raw, name, _forward_column(raw, name)[:-1])


def _inflates_past_its_entries(raw, name):
    # A stream of zero bytes 64 times as long as the column.
    size = 64 * len(_forward_column(raw, name)) * _key_width(raw, name)
    raw[:] = _with_deflated(raw, name, zlib.compress(bytes(size), 1))


def _wider_entries(raw, name):
    # Each entry in 4 bytes, where the key count takes fewer.
    assert _key_width(raw, name) < 4
    column = _forward_column(raw, name)
    raw[:] = _with_deflated(raw, name, zlib.compress(struct.pack(f"<{len(column)}I", *column), 1))


def _key_past_the_keys(raw, name):
    # The last token's key position set to the key count, its counts kept.
    column = _forward_column(raw, name)
    column[-1] = len(_column(raw, name, "counts"))
    raw[:] = _with_forward_column(raw, name, column)


def _under_the_super_root(raw, name):
    # The first token filed under node 0, its counts kept.
    column = _forward_column(raw, name)
    column[0] = 0
    raw[:] = _with_forward_column(raw, name, column)


_NOT_INFLATED = "the posting column does not inflate to its"


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("pl.idx", _truncated, _NOT_INFLATED),
        ("word.idx", _garbled, _NOT_INFLATED),
        ("pos.idx", _trailing_bytes, _NOT_INFLATED),
        ("word.idx", _one_entry_short, _NOT_INFLATED),
        ("pl.idx", _inflates_past_its_entries, _NOT_INFLATED),
        ("word.idx", _wider_entries, _NOT_INFLATED),
        ("word.idx", _key_past_the_keys, "the posting lists do not hold every token once"),
        ("pl.idx", _key_past_the_keys, "the posting lists do not hold every token once"),
        ("pos.idx", _under_the_super_root, "the super-root holds postings"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_encoded_postings_reject_a_faulty_writer(tmp_path, capsys, name, corrupt, message):
    # In a file whose checksum matches, the deflated column is wrong; its
    # counts frame it, so the file loads. The column is inflated and
    # checked at its first read, here by building a sentence, which reads
    # every column, or by a query, and refused: `koko query` exits 2 with
    # the message, no traceback.
    from koko.cli import main

    _, _, d = _small_index(tmp_path)
    raw = bytearray((d / name).read_bytes())
    corrupt(raw, name)
    (d / name).write_bytes(bytes(raw))
    _rewrite_checksum(d, name)
    corpus = open_corpus(load_bundle(str(d)))
    with pytest.raises(KokoInputError, match=f"{name}: {message}"):
        corpus.sentence(0)
    q = tmp_path / "q.koko"
    q.write_text('extract v:Str from "x" if (/ROOT:{ v = //* })\n')
    capsys.readouterr()
    assert main(["query", "--query", str(q), "--index", str(d), "--no-gsp"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"{name}: {message}" in captured.err
    assert "Traceback" not in captured.err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), width=st.sampled_from([1, 2, 4]))
def test_key_bound_check_matches_a_comparison_per_entry(data, width):
    # The byte-plane check that every entry of a column lies below the key
    # count, against one comparison per entry, with bounds and entries
    # drawn near each other so that most planes tie.
    from koko.indexes import _all_below

    top = (1 << 8 * width) - 1
    bound = data.draw(st.integers(0, top + 1))
    near = st.integers(max(0, bound - 300), min(top, bound + 300))
    entries = data.draw(st.lists(st.one_of(near, st.integers(0, top)), max_size=40))
    raw = struct.pack(f"<{len(entries)}{_FORMATS[width]}", *entries)
    assert _all_below(raw, width, bound) == all(e < bound for e in entries)


def test_a_column_is_never_inflated_past_one_entry_more_than_its_tokens(tmp_path):
    # A word column that would inflate to 64 MB of zeros, where the corpus
    # needs a few hundred bytes: the reader stops one byte past the column
    # it expects, and refuses it.
    import tracemalloc

    _, bundle, d = _small_index(tmp_path)
    raw = (d / "word.idx").read_bytes()
    (d / "word.idx").write_bytes(_with_deflated(raw, "word.idx", zlib.compress(bytes(64 << 20), 1)))
    _rewrite_checksum(d, "word.idx")
    loaded = load_bundle(str(d))
    tracemalloc.start()
    try:
        with pytest.raises(KokoInputError, match=f"word.idx: {_NOT_INFLATED}"):
            loaded.word.lookup(sorted(bundle.word.postings)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and bundle.token_count * 2 < 1 << 20


def test_corrupted_index_loads_to_rows_or_input_error(tmp_path):
    import os
    import random

    from koko.engine import run_query
    from koko.parser import parse_query

    docs, _, d = _small_index(tmp_path)
    fingerprint = corpus_fingerprint(docs)
    names = sorted(os.listdir(d))
    assert "entity.idx" in names
    files = {name: (d / name).read_bytes() for name in names}
    sizes = [len(files[name]) for name in names]
    queries = [
        parse_query(text)
        for text in (
            # Every posting of the PL index.
            'extract v:Str from "t" if (/ROOT:{ v = //* })',
            'extract v:Str from "t" if (/ROOT:{ v = //verb/nsubj })',
            'extract v:Str from "t" if (/ROOT:{ v = "baka" + ^ + //dobj })',
            'extract x:Entity from "t" if ()',
        )
    ]

    def answers(directory):
        bundle = load_bundle(directory, expected_fingerprint=fingerprint)
        corpus = open_corpus(bundle)
        return [sorted(r.key() for r in run_query(q, corpus, bundle).rows) for q in queries]

    clean = answers(str(d))
    rng = random.Random(20)
    outcomes = {"rows": 0, "error": 0, "wrong": 0}
    for copy in range(200):
        flipped = {name: bytearray(raw) for name, raw in files.items()}
        for k in range(rng.randint(1, 4)):
            # The first flip goes to each file in turn, so the small ones
            # (entity.idx, manifest.json) are corrupted in a sixth of the
            # copies; the others land by file size.
            name = names[copy % len(names)] if k == 0 else rng.choices(names, weights=sizes)[0]
            at = rng.randrange(len(flipped[name]))
            flipped[name][at] ^= rng.randrange(1, 256)
        target = tmp_path / f"copy{copy}"
        target.mkdir()
        for name, raw in flipped.items():
            (target / name).write_bytes(bytes(raw))
        try:
            got = answers(str(target))
        except KokoInputError:
            outcomes["error"] += 1
            continue
        # Only a harmless change to the manifest may load.
        assert all(flipped[name] == files[name] for name in names if name.endswith(".idx")), copy
        outcomes["rows" if got == clean else "wrong"] += 1
    assert outcomes["wrong"] == 0 and outcomes["error"] > 0


# ---------------------------------------------------------------------------
# `//` steps as pre-order range filters, against a brute-force walk


def _label_path(index, node_id):
    """Labels from the top down to the node, super-root excluded."""
    labels = []
    while node_id > 0:
        labels.append(index.labels[node_id])
        node_id = index.parents[node_id]
    return labels[::-1]


def _reference_match(labels, steps) -> bool:
    """True when the steps consume the label path exactly: `/` one edge,
    `//` one or more."""

    @functools.cache
    def match(i: int, j: int) -> bool:
        if i == len(steps):
            return j == len(labels)
        axis, label = steps[i]
        last = j if axis == "/" else len(labels) - 1
        return any(
            (label == "*" or labels[k] == label) and match(i + 1, k + 1)
            for k in range(j, min(last, len(labels) - 1) + 1)
        )

    return match(0, 0)


@functools.lru_cache(maxsize=None)
def _hierarchies(seed: int, loaded: bool):
    bundle = build_indexes(synthesize_corpus(seed, 300))
    if loaded:
        with tempfile.TemporaryDirectory() as d:
            save_bundle(bundle, d)
            bundle = load_bundle(d)
            # Read (and so check) every list once.
            for index in (bundle.pl, bundle.pos):
                for node_id in index.postings:
                    index.postings[node_id]
    return {"pl": bundle.pl, "pos": bundle.pos}


_HIERARCHY_LABELS = sorted(
    {label for seed in (5, 29) for h in _hierarchies(seed, False).values() for label in h.labels[1:]}
)
_steps = st.lists(
    st.tuples(
        st.sampled_from(["/", "//"]),
        st.sampled_from(["*", "*", "missing", *_HIERARCHY_LABELS]),
    ),
    min_size=1,
    max_size=5,
)


def _assert_matches_reference(index, steps):
    expected = {
        node_id
        for node_id in range(1, len(index.labels))
        if _reference_match(_label_path(index, node_id), steps)
    }
    assert index.match_nodes(steps) == expected, steps
    assert path_offsets(index, steps) == sorted(o for n in expected for o in index.postings[n])


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("which", ["pl", "pos"])
@pytest.mark.parametrize("seed", [5, 29])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=_steps)
def test_range_filter_matches_reference_walk(seed, which, loaded, steps):
    _assert_matches_reference(_hierarchies(seed, loaded)[which], steps)


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("which", ["pl", "pos"])
@pytest.mark.parametrize("seed", [5, 29])
def test_child_steps_match_reference_walk(seed, which, loaded):
    # `/*`, `/*/*` and, for every label, `/label/*` and `//label/*`: the
    # steps that hop over a node's children.
    index = _hierarchies(seed, loaded)[which]
    patterns = [[("/", "*")], [("/", "*"), ("/", "*")]]
    for label in sorted(set(index.labels[1:])):
        patterns += [[("/", label), ("/", "*")], [("//", label), ("/", "*")]]
    for steps in patterns:
        _assert_matches_reference(index, steps)


def test_pre_order_pass_runs_at_construction_and_nothing_derived_is_saved(tmp_path):
    bundle = build_indexes(synthesize_corpus(5, 50))
    save_bundle(bundle, str(tmp_path / "idx"))
    loaded = load_bundle(str(tmp_path / "idx"))
    # A built and a loaded hierarchy derive the same subtree ends and
    # label ids, and answer every step kind alike.
    for built, read in ((bundle.pl, loaded.pl), (bundle.pos, loaded.pos)):
        assert read.end == built.end and read.ids_of == built.ids_of
    for path in ("/root/nsubj", "/root/*", "//nsubj//det", "//*", "//dobj/*"):
        steps = _parse_pattern(path)
        assert path_offsets(loaded.pl, steps) == path_offsets(bundle.pl, steps)
    assert loaded == bundle
    # Nothing derived is saved: the files stay byte-identical.
    save_bundle(loaded, str(tmp_path / "again"))
    for name in ("tree.idx", "pl.idx", "pos.idx", "manifest.json"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "idx" / name).read_bytes()


# ---------------------------------------------------------------------------
# String tables and the structural checks of the columns

# Strings a separator-byte encoding of the tables would break.
_ODD = ["", "\x00", "a\u2028b", "\U0001d538"]


def _odd_strings_corpus(etypes=("\n", "\x00", "\u2028T", "\U0001d538")):
    """One sentence whose words, labels, POS tags and one-word mentions are
    the odd strings, and whose mentions' types are odd too. A mention
    has a type, so no type is empty. TSV rows end at the entity column,
    whose trailing whitespace the reader strips, so no type ends in
    U+2028."""
    n = len(_ODD)
    sentence = Sentence(
        0,
        ["ate", *_ODD],
        ["verb", *_ODD],
        ["root", *_ODD],
        [None] + [0] * n,
        [EntitySpan(0, tid, tid, etype) for tid, etype in enumerate(etypes, start=1)],
    )
    return [AnnotatedDocument("d0", [sentence])]


def test_string_tables_round_trip_odd_strings(tmp_path):
    docs = _odd_strings_corpus()
    bundle = build_indexes(docs)
    assert set(_ODD) <= set(bundle.word.postings)
    assert {docs[0].sentences[0].text(e.start, e.end) for e in bundle.entity.records} == set(_ODD)
    save_bundle(bundle, str(tmp_path / "idx"))
    loaded = load_bundle(str(tmp_path / "idx"))
    assert loaded == bundle
    assert list(loaded.word.postings) == list(bundle.word.postings)
    for index in (loaded.pl, loaded.pos):
        assert set(_ODD) <= set(index.labels)
    assert loaded.entity.records == bundle.entity.records
    assert {e.etype for e in loaded.entity.records} == {"\n", "\x00", "\u2028T", "\U0001d538"}


def test_string_tables_round_trip_through_the_cli(tmp_path, capsys):
    from koko.cli import main
    from koko.corpus import serialize_corpus

    # A TSV entity tag needs a type, so the file's first mention is of type E.
    corpus = tmp_path / "c.tsv"
    corpus.write_bytes(serialize_corpus(_odd_strings_corpus(("E", "\x00", "\u2028T", "\U0001d538"))).encode("utf-8"))
    idx = str(tmp_path / "idx")
    assert main(["index", "--corpus", str(corpus), "--out", idx]) == 0
    queries = {
        "entities": 'extract x:Entity from "t" if ()',
        "words": 'extract v:Str from "t" if (/ROOT:{ v = /root/* })',
    }
    for name, text in queries.items():
        q = tmp_path / f"{name}.koko"
        q.write_text(text, encoding="utf-8")
        outs = []
        for extra in ([], ["--index", idx]):
            capsys.readouterr()
            assert main(["query", "--query", str(q), "--corpus", str(corpus), *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], name
        rows = [json.loads(line) for line in outs[1].split("\n") if line]
        values = {value for row in rows for value in row["values"].values()}
        assert set(_ODD) <= values, name


def _set_u32(raw, at, value):
    raw[at : at + 4] = struct.pack("<I", value)


def _u32(raw, at):
    return struct.unpack_from("<I", raw, at)[0]


def _raised(values):
    values[0] += 1


def _lowered(values):
    assert values[0] > 0
    values[0] -= 1


def _zeroed(values):
    values[0] = 0


def _past_the_table(values):
    # Ids are given in first-seen order, so every id of the table is used
    # and the largest is one short of the table's length.
    values[0] = max(values) + 1


def _own_parent(values):
    # Node 2 made its own parent.
    values[1] = 2


def _out_of_pre_order(values):
    # The last node moved under the first leaf that is not the node before
    # it: its parent still comes first, but is neither the node before it
    # nor an ancestor of that node. Entry i is node i + 1's parent, and
    # node n is a leaf when node n + 1's parent is not n.
    leaf = next(n for n in range(1, len(values) - 1) if values[n] != n)
    values[-1] = leaf


def _swapped_first_two(values):
    assert values[0] < values[1]
    values[:2] = values[1::-1]


def _first_emptied(values):
    # The first string emptied; the second takes over its text.
    values[0] = 0


def _second_emptied(values):
    # The second string emptied; the third takes over its text.
    assert values[0] > 0
    values[1] = values[0]


def _entity_records_overlap(raw):
    # The first record's sentence and end given to the second, whose
    # start is at most that end.
    sid, end = _column(raw, "entity.idx", "sid"), _column(raw, "entity.idx", "end")
    for part, first in (("sid", sid[0]), ("start", end[0]), ("end", end[0])):
        values = _column(raw, "entity.idx", part)
        values[1] = first
        raw[:] = _with_column(raw, "entity.idx", part, values)


def _changed_lists(change):
    """A corruption of the PL lists by `change(lists)`, written as a writer
    would encode them."""

    def corrupt(raw):
        lists = _decoded_lists(raw, "pl.idx")
        change(lists)
        raw[:] = _with_lists(raw, "pl.idx", lists)

    corrupt.__name__ = change.__name__
    return corrupt


def _super_root_holds_postings(lists):
    # The first posting moved from node 1's list to the super-root's: the
    # counts still sum to the tokens, and the column files it under node 0.
    lists[0].append(lists[1].pop(0))


def _siblings_share_a_label(raw):
    parents, label_ids = _column(raw, "pl.idx", "parent"), _column(raw, "pl.idx", "label_id")
    first = {}
    for i, parent in enumerate(parents):
        if parent in first:
            label_ids[i] = label_ids[first[parent]]
            raw[:] = _with_column(raw, "pl.idx", "label_id", label_ids)
            return
        first[parent] = i
    raise AssertionError("no two nodes share a parent")


def _posting_repeated(lists):
    # A single-posting list's token filed under another single-posting
    # list's key too, and that list's own token under none: a column holds
    # a token once, so it holds that one under no key.
    first, second = [plist for plist in lists if len(plist) == 1][:2]
    second[0] = first[0]


def _posting_added(lists):
    # The last token once more, in the last list: every token is still
    # held, and the lists hold one posting more than the corpus has tokens.
    lists[-1].append(lists[-1][-1])


def _drop_last(name, part):
    """A corruption that drops the last entry of one narrow column."""

    def corrupt(raw):
        offsets = _offsets(raw, name)
        at, size = offsets[part], _width_of(raw, offsets, part)
        n = _u32(raw, at - 4)
        _set_u32(raw, at - 4, n - 1)
        del raw[at + size * (n - 1) : at + size * n]

    corrupt.__name__ = f"{part}_short"
    return corrupt


def _assert_query_exits_2(tmp_path, capsys, d, message):
    """`koko query --index d` over every PL list exits 2 with `message`
    and no traceback."""
    from koko.cli import main

    q = tmp_path / "q.koko"
    q.write_text('extract v:Str from "x" if (/ROOT:{ v = //* })\n')
    capsys.readouterr()
    assert main(["query", "--query", str(q), "--index", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("word.idx", _changed_column("word.idx", "counts", _raised), "posting list counts do not sum to"),
        ("word.idx", _changed_column("word.idx", "counts", _lowered), "posting list counts do not sum to"),
        ("pl.idx", _changed_column("pl.idx", "label_id", _past_the_table), "label id"),
        ("entity.idx", _changed_column("entity.idx", "etype_id", _past_the_table), "etype id"),
        ("pl.idx", _changed_column("pl.idx", "parent", _own_parent), "node record 2 has parent 2"),
        ("pl.idx", _changed_column("pl.idx", "parent", _out_of_pre_order), "the node ids are not in pre-order"),
        ("entity.idx", _changed_column("entity.idx", "etypes.ends", _swapped_first_two), "string end offsets"),
        ("entity.idx", _changed_column("entity.idx", "etypes.ends", _first_emptied), "entity type 0 is the empty string"),
        ("word.idx", _changed_column("word.idx", "words.ends", _second_emptied), "words out of order"),
        ("tree.idx", _changed_column("tree.idx", "lengths", _zeroed), "sentence 0 has no token"),
        ("tree.idx", _changed_column("tree.idx", "lengths", _raised), "the head column does not hold"),
        ("tree.idx", _drop_last("tree.idx", "heads"), "the head column does not hold"),
        ("entity.idx", _drop_last("entity.idx", "end"), "entity columns differ"),
        ("entity.idx", _drop_last("entity.idx", "etype_id"), "entity columns differ"),
        ("pl.idx", _drop_last("pl.idx", "parent"), "node columns differ"),
        ("tree.idx", _changed_column("tree.idx", "doc_lengths", _raised), "document lengths do not sum"),
        ("tree.idx", _changed_column("tree.idx", "doc_lengths", _lowered), "document lengths do not sum"),
        ("tree.idx", _drop_last("tree.idx", "doc_lengths"), "the document table holds"),
        ("entity.idx", _entity_records_overlap, "entity records overlap"),
        ("pl.idx", _changed_lists(_super_root_holds_postings), "super-root holds postings"),
        ("pl.idx", _siblings_share_a_label, "share a label"),
        ("pl.idx", _changed_lists(_posting_repeated), "do not hold every token once"),
        ("pl.idx", _changed_lists(_posting_added), "posting list counts do not sum to"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_structural_checks_reject_a_faulty_writer(tmp_path, capsys, name, corrupt, message):
    # Each column is wrong in a file whose checksum matches. The PL column
    # is checked at its first read, here that of the depth column or of the
    # query's `//*`, when it is inflated; the other checks run in
    # `load_bundle`.
    _, _, d = _small_index(tmp_path)
    path = d / name
    raw = bytearray(path.read_bytes())
    corrupt(raw)
    path.write_bytes(bytes(raw))
    _rewrite_checksum(d, name)
    with pytest.raises(KokoInputError, match=f"{name}: .*{message}"):
        load_bundle(str(d)).tokens.depth
    _assert_query_exits_2(tmp_path, capsys, d, message)


@pytest.mark.parametrize("width", [0, 3, 8])
@pytest.mark.parametrize("name, part", _NARROW, ids=lambda v: v if isinstance(v, str) else None)
def test_column_width_other_than_1_2_or_4_rejected(tmp_path, capsys, name, part, width):
    _, _, d = _small_index(tmp_path)
    raw = bytearray((d / name).read_bytes())
    raw[_offsets(raw, name)[part] - 5] = width
    (d / name).write_bytes(bytes(raw))
    _rewrite_checksum(d, name)
    message = f"column width {width} is not 1, 2 or 4"
    with pytest.raises(KokoInputError, match=f"{name}: {message}"):
        load_bundle(str(d))
    _assert_query_exits_2(tmp_path, capsys, d, message)


@pytest.mark.xfail(strict=True, reason="FOUND: PL lists that disagree with the heads give silently wrong rows")
def test_pl_lists_that_disagree_with_the_heads_are_rejected(tmp_path, capsys):
    # Offsets 5 and 14, nsubj tokens of sentences 0 and 2 at the same
    # depth, swap their PL nodes in a writer's output: every token is still
    # held once and keeps its depth, so every check passes, and the path
    # /root/nsubj/nsubj answers sentence 2's token, where the oracle has
    # sentence 0's. Only comparing each token's node parent with its
    # head's node would reject the file.
    from koko.cli import main

    bundle = build_indexes(synthesize_corpus(5, 60, entity_rate=0.6))
    nodes = list(bundle.pl.postings.column)
    assert (nodes[5], nodes[14]) == (48, 124) and bundle.pl.labels[48] == bundle.pl.labels[124] == "nsubj"
    assert bundle.tokens.depth[5] == bundle.tokens.depth[14]
    nodes[5], nodes[14] = nodes[14], nodes[5]
    bundle.pl.postings = PostingLists.grouped(nodes, range(len(bundle.pl.labels)))
    d = tmp_path / "idx"
    save_bundle(bundle, str(d))
    q = tmp_path / "q.koko"
    q.write_text('extract v:Str from "x" if (/ROOT:{ v = /root/nsubj/nsubj })\n')
    capsys.readouterr()
    assert main(["query", "--query", str(q), "--index", str(d)]) == 2
    assert "pl.idx" in capsys.readouterr().err


def test_depth_column_rejects_a_token_deeper_than_its_sentence(tmp_path):
    # The one-token sentence 0's token swapped in the PL lists with the
    # depth-2 token of sentence 1, in a file whose checksum matches: every
    # token is still held once, so the whole column passes the check at the
    # first read of its lists. It is rejected at the first read of the
    # depth column, not at the first read of the list that holds it.
    docs = [AnnotatedDocument("d", [
        Sentence(0, ["hi"], ["UH"], ["root"], [None], ()),
        Sentence(1, ["a", "b", "c"], ["DT", "NN", "VB"], ["det", "nsubj", "root"], [1, 2, None], ()),
    ])]
    bundle = build_indexes(docs)
    assert list(bundle.tokens.depth) == [0, 2, 1, 0]
    d = tmp_path / "idx"
    save_bundle(bundle, str(d))

    def swap(lists):
        lists[:] = [sorted({0: 1, 1: 0}.get(o, o) for o in plist) for plist in lists]

    _replace_lists(d, "pl.idx", swap)
    loaded = load_bundle(str(d))
    for node in loaded.pl.postings:
        loaded.pl.postings[node]
    with pytest.raises(KokoInputError, match=r"pl.idx: token \(0,0\) lies deeper than its sentence is long"):
        loaded.tokens.depth


# ---------------------------------------------------------------------------
# The corpus built from the index


def _documents(corpus):
    return [
        AnnotatedDocument(doc_id, [corpus.sentence(sid) for sid in corpus.doc_sids(i)])
        for i, doc_id in enumerate(corpus.doc_ids)
    ]


def _assert_round_trip(text: str, directory: str) -> None:
    """The index of the canonical corpus `text`, saved and loaded, gives
    back the corpus: the same TSV bytes and the manifest's fingerprint."""
    docs = parse_corpus(text)
    built = build_indexes(docs)
    save_bundle(built, directory)
    loaded = load_bundle(directory)
    assert loaded == built
    parsed = Corpus(docs)
    for bundle in (built, loaded):
        corpus = open_corpus(bundle)
        # The word column, read before any sentence is built.
        assert [corpus.words(sid) for sid in range(len(corpus))] == [s.tokens for s in parsed.sentences]
        again = _documents(corpus)
        assert serialize_corpus(again) == text
        assert corpus_fingerprint(again) == loaded.fingerprint
        assert list(corpus.sentence_lengths) == [len(s) for doc in docs for s in doc.sentences]
        # The sentences hold the entity index's own records.
        mentions = [e for s in corpus.sentences for e in s.entities]
        assert mentions == bundle.entity.records and all(map(is_, mentions, bundle.entity.records))
        # Built once, and addressed from the end too.
        assert not len(corpus) or corpus.sentences[-1] is corpus.sentence(len(corpus) - 1)
        assert [corpus.doc_index_of(sid) for sid in range(len(corpus))] == [
            parsed.doc_index_of(sid) for sid in range(len(parsed))
        ]


def test_index_built_corpus_round_trips_ex31(tmp_path):
    with open(data_path("corpus", "ex31.tsv"), encoding="utf-8") as f:
        text = serialize_corpus(parse_corpus(f.read()))
    _assert_round_trip(text, str(tmp_path / "idx"))


def _adjacent_mentions(s, at: int):
    """`s` with its mentions replaced by two of one type side by side
    (B-X B-X I-X), from tid `at` on."""
    n = len(s)
    at %= max(1, n - 1)
    mentions = [EntitySpan(s.sid, at, at, "Person"), EntitySpan(s.sid, at + 1, min(at + 2, n - 1), "Person")]
    return Sentence(s.sid, s.tokens, s.pos, s.labels, s.heads, mentions)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.sampled_from([7, 31, 777]),
    n=st.integers(0, 45),
    per_doc=st.integers(1, 12),
    empty=st.lists(st.integers(0, 10), max_size=3),
    adjacent=st.lists(st.tuples(st.integers(0, 44), st.integers(0, 12)), max_size=4),
)
def test_index_built_corpus_round_trips(seed, n, per_doc, empty, adjacent):
    # The differential tests' synthetic corpora, with empty documents and
    # adjacent mentions of one type.
    docs = synthesize_corpus(seed, n, entity_rate=0.5, sentences_per_doc=per_doc)
    sentences = [s for doc in docs for s in doc.sentences]
    for sid, at in adjacent:
        if sid < n:
            sentences[sid] = _adjacent_mentions(sentences[sid], at)
    docs = [
        AnnotatedDocument(doc.doc_id, sentences[doc.sentences[0].sid : doc.sentences[-1].sid + 1])
        for doc in docs
    ]
    for i, at in enumerate(empty):
        docs.insert(min(at, len(docs)), AnnotatedDocument(f"empty{i}"))
    with tempfile.TemporaryDirectory() as d:
        _assert_round_trip(serialize_corpus(docs), d)


def _set_head(raw, tid, head):
    """Sentence 0's head of `tid` set to `head` at the file's head width,
    whose largest value stands for NO_HEAD."""
    at = _offsets(raw, "tree.idx")
    width = _width_of(raw, at, "heads")
    head = min(head, (1 << 8 * width) - 1)
    raw[at["heads"] + width * tid : at["heads"] + width * (tid + 1)] = head.to_bytes(width, "little")


def _head_outside(raw, s):
    _set_head(raw, 0, len(s))


def _second_root(raw, s):
    tid = next(tid for tid, head in enumerate(s.heads) if head is not None)
    _set_head(raw, tid, NO_HEAD)


def _no_root(raw, s):
    _set_head(raw, s.root_tid, 1 if s.root_tid == 0 else 0)


def _head_cycle(raw, s):
    a, b = [tid for tid, head in enumerate(s.heads) if head is not None][:2]
    _set_head(raw, a, b)
    _set_head(raw, b, a)


def _depths_differ(raw, s):
    # A token two levels deep hung from the root: still a tree, one level
    # less deep than the PL lists put it.
    _set_head(raw, s.depth.index(2), s.root_tid)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_head_outside, "sentence 0: a head lies outside the sentence"),
        (_second_root, "sentence 0: 2 roots, expected exactly 1"),
        (_no_root, "sentence 0: 0 roots, expected exactly 1"),
        (_head_cycle, "sentence 0: the heads run in a cycle"),
        (_depths_differ, "sentence 0: its depths differ from the PL lists'"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_sentence_checks_reject_a_faulty_writer(tmp_path, corrupt, message):
    # The head column of sentence 0 is wrong in a file whose checksum
    # matches; the sentence is rejected when it is built, and the others
    # still build.
    docs, _, d = _small_index(tmp_path)
    raw = bytearray((d / "tree.idx").read_bytes())
    corrupt(raw, docs[0].sentences[0])
    (d / "tree.idx").write_bytes(bytes(raw))
    _rewrite_checksum(d, "tree.idx")
    corpus = open_corpus(load_bundle(str(d)))
    assert corpus.sentence(1) == docs[0].sentences[1]
    with pytest.raises(KokoInputError, match=message):
        corpus.sentence(0)


def test_word_column_rejects_lists_that_repeat_a_token(tmp_path):
    # The word column, written from lists that file one token twice and
    # another nowhere, is inflated and checked at its first read, by the
    # first sentence an opened corpus builds or by a lookup, not by
    # `load_bundle` or `open_corpus`.
    docs, _, d = _small_index(tmp_path)
    _replace_lists(d, "word.idx", _posting_repeated)
    message = "word.idx: the posting lists do not hold every token once"
    corpus = open_corpus(load_bundle(str(d)))
    with pytest.raises(KokoInputError, match=message):
        corpus.sentence(0)
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = //dobj })')
    with pytest.raises(KokoInputError, match=message):
        run_query(q, Corpus(docs), load_bundle(str(d)))


def _ex31_index_with_a_token_under_two_nodes(tmp_path):
    """The ex31 index with a single-posting PL list's offset overwritten
    with one that another list holds, in a pl.idx whose checksum matches:
    one token filed under two nodes and one under none, which the column
    holds under no node. The built bundle and the two nodes come with
    it."""
    bundle = build_indexes(load_corpus(data_path("corpus", "ex31.tsv")))
    d = tmp_path / "idx"
    save_bundle(bundle, str(d))
    ptr, flat = bundle.pl.postings.ptr, bundle.pl.postings.flat
    single, other = [node for node in range(1, len(ptr) - 1) if ptr[node + 1] - ptr[node] == 1][:2]
    _replace_lists(d, "pl.idx", lambda lists: lists[single].__setitem__(0, flat[ptr[other]]))
    return d, bundle, single, other


def test_union_of_lists_that_repeat_a_token_is_rejected(tmp_path):
    # A union that reads both lists, on the whole and inside a sentence:
    # the first read of any list refuses the file before the union is made
    # or the depth column is read.
    d, bundle, single, other = _ex31_index_with_a_token_under_two_nodes(tmp_path)
    ptr, flat = bundle.pl.postings.ptr, bundle.pl.postings.flat
    message = "pl.idx: the posting lists do not hold every token once"
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = //* })')
    with pytest.raises(KokoInputError, match=message):
        run_query(q, Corpus(load_corpus(data_path("corpus", "ex31.tsv"))), load_bundle(str(d)))
    loaded = load_bundle(str(d))
    sentence = Sentences(loaded.tokens, [loaded.tokens.sid_of[flat[ptr[other]]]])
    assert sentence.token_count > 2
    with pytest.raises(KokoInputError, match=message):
        loaded.pl.read({single, other}, 2, sentence)


def test_query_that_reads_one_of_two_lists_sharing_a_token_is_rejected(tmp_path, capsys):
    # An exact path reads the one list that now holds another node's
    # token, and no other PL list: the whole column is still checked at
    # that first read, so the answer is an input error, not a silently
    # wrong row.
    from koko.cli import main

    d, bundle, single, _ = _ex31_index_with_a_token_under_two_nodes(tmp_path)
    path = "/" + "/".join(_label_path(bundle.pl, single))
    assert bundle.pl.match_nodes(_parse_pattern(path)) == {single}
    text = f'extract v:Str from "x" if (/ROOT:{{ v = {path} }})'
    with pytest.raises(KokoInputError, match="pl.idx: the posting lists do not hold every token once"):
        run_query(parse_query(text), Corpus(load_corpus(data_path("corpus", "ex31.tsv"))), load_bundle(str(d)))
    q = tmp_path / "q.koko"
    q.write_text(text + "\n")
    capsys.readouterr()
    assert main(["query", "--query", str(q), "--index", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "pl.idx: the posting lists do not hold every token once" in captured.err
    assert "Traceback" not in captured.err
