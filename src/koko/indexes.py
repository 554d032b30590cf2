"""The four corpus indices and their on-disk form.

* word index: surface string -> posting list of (sid, tid, left-right, depth)
* entity index: entity surface -> (sid, start-end, type) records
* PL hierarchy index: dependency trees merged on parse labels
* POS hierarchy index: dependency trees merged on POS tags

Hierarchy indices merge same-labelled children recursively, so every node
is addressed by the unique label path from the root, and each token lands
in exactly one node's posting list per index. Both hierarchies hang off a
synthetic super-root (labelled with TOP for the POS index, where sentence
roots carry arbitrary tags); the super-root is not counted as a node.

Persisted layout (directory): ``manifest.json`` plus ``word.idx``,
``entity.idx``, ``pl.idx``, ``pos.idx``. Every ``.idx`` file starts with
the magic bytes ``KOKO`` and a little-endian u32 format version, followed
by length-prefixed records as written below. The manifest records the
CRC-32 of each ``.idx`` file, checked on load.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import zlib
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter

from .corpus import AnnotatedDocument, Corpus, EntitySpan, PostingEntry, serialize_corpus
from .errors import KokoInputError

MAGIC = b"KOKO"
FORMAT_VERSION = 2
INDEX_FILES = ("word.idx", "entity.idx", "pl.idx", "pos.idx")

TOP = "⊤"  # dummy label above every sentence root in the POS index
_SID = attrgetter("sid")


class WordIndex:
    def __init__(self) -> None:
        # A dict while building; a loaded index decodes each list on first
        # read (`_LazyPostings`).
        self.postings: Mapping[str, list[PostingEntry]] = {}

    def add(self, word: str, entry: PostingEntry) -> None:
        self.postings.setdefault(word, []).append(entry)

    def lookup(self, word: str) -> list[PostingEntry]:
        return self.postings.get(word, [])

    def sentences_with(self, word: str, sids: range) -> list[int]:
        """The sids in `sids` of the sentences holding `word`, in order,
        cut from its sid-sorted posting list."""
        postings = self.lookup(word)
        lo = bisect_left(postings, sids.start, key=_SID)
        hi = bisect_left(postings, sids.stop, lo, key=_SID)
        return list(dict.fromkeys(e.sid for e in postings[lo:hi]))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WordIndex) and self.postings == other.postings


class EntityIndex:
    def __init__(self) -> None:
        self.records: list[EntitySpan] = []
        self.by_type: dict[str, list[EntitySpan]] = {}

    def add(self, record: EntitySpan) -> None:
        self.records.append(record)
        self.by_type.setdefault(record.etype, []).append(record)

    def lookup(self, etype: str | None = None) -> list[EntitySpan]:
        if etype is None:
            return list(self.records)
        return list(self.by_type.get(etype, []))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EntityIndex) and self.records == other.records


@dataclass
class HierarchyNode:
    node_id: int
    label: str
    parent: int  # -1 for the super-root
    children: dict[str, int] = field(default_factory=dict)


class HierarchyIndex:
    def __init__(self, root_label: str) -> None:
        self.nodes: list[HierarchyNode] = [HierarchyNode(0, root_label, -1)]
        # Posting list of each node, by node id; decoded on first read in
        # a loaded index, as in WordIndex.
        self.postings: Mapping[int, list[PostingEntry]] = {0: []}

    @property
    def node_count(self) -> int:
        """Number of merged nodes, super-root excluded."""
        return len(self.nodes) - 1

    def child(self, node_id: int, label: str) -> int:
        """Child with the given label, created on demand."""
        node = self.nodes[node_id]
        nxt = node.children.get(label)
        if nxt is None:
            nxt = len(self.nodes)
            node.children[label] = nxt
            self.nodes.append(HierarchyNode(nxt, label, node_id))
            self.postings[nxt] = []
        return nxt

    def lookup(self, steps: list[tuple[str, str]]) -> list[PostingEntry]:
        """Union of posting lists over nodes whose root path matches.

        ``steps`` are (axis, label) pairs where label may be ``*``. ``/``
        consumes exactly one edge, ``//`` one or more; both start from the
        super-root, so a leading ``//`` reaches the depth-0 tokens too.
        """
        matched = self.match_nodes(steps)
        out: list[PostingEntry] = []
        for node_id in sorted(matched):
            out.extend(self.postings[node_id])
        out.sort()
        return out

    def match_nodes(self, steps: list[tuple[str, str]]) -> set[int]:
        positions = {0}
        for axis, label in steps:
            nxt: set[int] = set()
            for node_id in positions:
                if axis == "/":
                    node = self.nodes[node_id]
                    if label == "*":
                        nxt.update(node.children.values())
                    elif label in node.children:
                        nxt.add(node.children[label])
                else:
                    self._descendants(node_id, label, nxt)
            positions = nxt
            if not positions:
                break
        return positions

    def _descendants(self, node_id: int, label: str, out: set[int]) -> None:
        stack = list(self.nodes[node_id].children.values())
        while stack:
            nid = stack.pop()
            if label == "*" or self.nodes[nid].label == label:
                out.add(nid)
            stack.extend(self.nodes[nid].children.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchyIndex) or len(self.nodes) != len(other.nodes):
            return False
        for a, b in zip(self.nodes, other.nodes):
            if (a.label, a.parent, a.children) != (b.label, b.parent, b.children):
                return False
        return self.postings == other.postings


@dataclass
class IndexBundle:
    word: WordIndex
    entity: EntityIndex
    pl: HierarchyIndex
    pos: HierarchyIndex
    fingerprint: str
    sentence_count: int
    token_count: int

    def counts(self) -> dict[str, int]:
        return {
            "sentences": self.sentence_count,
            "tokens": self.token_count,
            "words": len(self.word.postings),
            "entities": len(self.entity.records),
            "pl_nodes": self.pl.node_count,
            "pos_nodes": self.pos.node_count,
        }


def corpus_fingerprint(docs: list[AnnotatedDocument]) -> str:
    return fingerprint_bytes(serialize_corpus(docs).encode("utf-8"))


def fingerprint_bytes(data: bytes) -> str:
    """Fingerprint of a corpus file; equal to `corpus_fingerprint(docs)`
    exactly when the file is the canonical serialization of docs."""
    return hashlib.sha256(data).hexdigest()


def build_indexes(docs: list[AnnotatedDocument]) -> IndexBundle:
    word = WordIndex()
    entity = EntityIndex()
    pl = HierarchyIndex(root_label="")
    pos = HierarchyIndex(root_label=TOP)
    sentence_count = 0
    token_count = 0
    for doc in docs:
        for s in doc.sentences:
            sentence_count += 1
            token_count += len(s.tokens)
            pl_node = _assign_nodes(pl, s, s.labels)
            pos_node = _assign_nodes(pos, s, s.pos)
            for tid, text in enumerate(s.tokens):
                entry = s.posting(tid)
                word.add(text, entry)
                pl.postings[pl_node[tid]].append(entry)
                pos.postings[pos_node[tid]].append(entry)
            for e in s.entities:
                entity.add(e)
    for plist in word.postings.values():
        plist.sort()
    return IndexBundle(
        word=word,
        entity=entity,
        pl=pl,
        pos=pos,
        fingerprint=corpus_fingerprint(docs),
        sentence_count=sentence_count,
        token_count=token_count,
    )


def _assign_nodes(index: HierarchyIndex, sentence, column: list[str]) -> list[int]:
    """Hierarchy node id for every token of the sentence, by tid, merging
    children on their value in ``column`` (labels or POS tags)."""
    node_of = [0] * len(sentence.tokens)
    stack = [(sentence.root_tid, 0)]
    while stack:
        tid, parent_node = stack.pop()
        node = index.child(parent_node, column[tid])
        node_of[tid] = node
        for c in sentence.children[tid]:
            stack.append((c, node))
    return node_of


# ---------------------------------------------------------------------------
# Persistence


def _w_u32(f: io.BufferedWriter, value: int) -> None:
    f.write(struct.pack("<I", value))


def _w_str(f: io.BufferedWriter, value: str) -> None:
    raw = value.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _w_postings(f: io.BufferedWriter, postings: list[PostingEntry]) -> None:
    f.write(struct.pack("<I", len(postings)))
    for p in postings:
        f.write(struct.pack("<5I", *p))


_U32 = struct.Struct("<I")
_ENTITY = struct.Struct("<3I")
_POSTING = struct.Struct("<5I")
_NODE_HEAD = struct.Struct("<Ii")  # node id, parent id


class _IndexFile:
    """One .idx file in memory, scanned front to back. The scan skips each
    posting block and keeps its offset; `postings_at` decodes a block when
    a lookup first needs it and checks every entry against the corpus."""

    def __init__(
        self, directory: str, name: str, sentence_count: int, lengths: list[int] | None, crc: int
    ):
        self.path = os.path.join(directory, name)
        self.crc = crc
        try:
            with open(self.path, "rb") as f:
                self.buf = f.read()
        except OSError as exc:
            raise KokoInputError(f"{self.path}: cannot read index file: {exc.strerror}") from None
        self.pos = 0
        self.sentence_count = sentence_count
        self.lengths = lengths
        if self.take(4) != MAGIC:
            raise KokoInputError(f"{self.path}: not an index file (bad magic)")
        version = self.u32()
        if version != FORMAT_VERSION:
            raise KokoInputError(
                f"{self.path}: format version {version} does not match "
                f"supported version {FORMAT_VERSION}"
            )

    def advance(self, n: int) -> int:
        """Move the read position n bytes on; returns where it was."""
        pos = self.pos
        if pos + n > len(self.buf):
            raise KokoInputError(f"{self.path}: truncated index file")
        self.pos = pos + n
        return pos

    def take(self, n: int) -> bytes:
        start = self.advance(n)
        return self.buf[start : start + n]

    def u32(self) -> int:
        return _U32.unpack_from(self.buf, self.advance(4))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise KokoInputError(f"{self.path}: corrupt string record") from None

    def labelled_blocks(self, count: int, head: struct.Struct | None = None) -> list[tuple]:
        """Read `count` records of an optional fixed-size head, a string
        and a posting block, skipping the block: (*head fields, string,
        block offset) per record."""
        buf, pos = self.buf, self.pos
        out = []
        try:
            for _ in range(count):
                fields = ()
                if head is not None:
                    fields = head.unpack_from(buf, pos)
                    pos += head.size
                (n,) = _U32.unpack_from(buf, pos)
                label = buf[pos + 4 : pos + 4 + n].decode("utf-8")
                pos += 4 + n
                (k,) = _U32.unpack_from(buf, pos)
                out.append((*fields, label, pos))
                pos += _U32.size + _POSTING.size * k
        except struct.error:
            raise KokoInputError(f"{self.path}: truncated index file") from None
        except UnicodeDecodeError:
            raise KokoInputError(f"{self.path}: corrupt string record") from None
        if pos > len(buf):
            raise KokoInputError(f"{self.path}: truncated index file")
        self.pos = pos
        return out

    def end(self) -> None:
        """After the scan: no bytes left over, and the checksum holds."""
        if self.pos != len(self.buf):
            raise KokoInputError(f"{self.path}: {len(self.buf) - self.pos} bytes after the last record")
        if zlib.crc32(self.buf) != self.crc:
            raise KokoInputError(f"{self.path}: checksum mismatch, the file is corrupt; rebuild the index")

    def postings_at(self, offset: int) -> list[PostingEntry]:
        (n,) = _U32.unpack_from(self.buf, offset)
        start = offset + _U32.size
        entries = list(map(PostingEntry._make, _POSTING.iter_unpack(self.buf[start : start + _POSTING.size * n])))
        count, lengths = self.sentence_count, self.lengths
        prev = 0
        for sid, tid, left, right, depth in entries:
            if not (prev <= sid < count and left <= tid <= right) or (
                lengths is not None and not (right < lengths[sid] and depth < lengths[sid])
            ):
                raise KokoInputError(
                    f"{self.path}: posting ({sid},{tid},{left}-{right},{depth}) "
                    f"lies outside the corpus or out of sentence order"
                )
            prev = sid
        return entries


class _LazyPostings(Mapping):
    """Posting lists of a loaded index by word or node id; each stays an
    offset into its file until it is first read."""

    def __init__(self, file: _IndexFile, offsets: dict):
        self._file = file
        self._offsets = offsets
        self._decoded: dict = {}

    def __getitem__(self, key) -> list[PostingEntry]:
        plist = self._decoded.get(key)
        if plist is None:
            plist = self._decoded[key] = self._file.postings_at(self._offsets[key])
        return plist

    def __iter__(self):
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)


def _open_out(path: str) -> io.BufferedWriter:
    f = open(path, "wb")
    f.write(MAGIC)
    f.write(struct.pack("<I", FORMAT_VERSION))
    return f


def _file_crc(path: str) -> int:
    with open(path, "rb") as f:
        return zlib.crc32(f.read())


def save_bundle(bundle: IndexBundle, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with _open_out(os.path.join(directory, "word.idx")) as f:
        _w_u32(f, len(bundle.word.postings))
        for wordtext in sorted(bundle.word.postings):
            _w_str(f, wordtext)
            _w_postings(f, bundle.word.postings[wordtext])
    with _open_out(os.path.join(directory, "entity.idx")) as f:
        _w_u32(f, len(bundle.entity.records))
        for r in bundle.entity.records:
            _w_str(f, r.surface)
            _w_str(f, r.etype)
            f.write(struct.pack("<3I", r.sid, r.start, r.end))
    for name, index in (("pl.idx", bundle.pl), ("pos.idx", bundle.pos)):
        with _open_out(os.path.join(directory, name)) as f:
            _w_u32(f, len(index.nodes))
            for node in index.nodes:
                _w_u32(f, node.node_id)
                f.write(struct.pack("<i", node.parent))
                _w_str(f, node.label)
                _w_postings(f, index.postings[node.node_id])
    manifest = {
        "format_version": FORMAT_VERSION,
        "fingerprint": bundle.fingerprint,
        "counts": bundle.counts(),
        "checksums": {name: _file_crc(os.path.join(directory, name)) for name in INDEX_FILES},
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_manifest(directory: str) -> dict:
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise KokoInputError(f"{directory}: no manifest.json; not an index directory") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise KokoInputError(f"{manifest_path}: invalid JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("fingerprint", ""), str):
        raise KokoInputError(f"{manifest_path}: not an index manifest")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise KokoInputError(
            f"{manifest_path}: format version {manifest.get('format_version')} "
            f"does not match supported version {FORMAT_VERSION}"
        )
    return manifest


def index_fingerprint(directory: str) -> str:
    """The corpus fingerprint recorded in an index directory."""
    return _read_manifest(directory).get("fingerprint", "")


def load_bundle(
    directory: str, expected_fingerprint: str | None = None, corpus: Corpus | None = None
) -> IndexBundle:
    """Open a saved index. Only record headers are read here; posting
    lists are decoded on first lookup. Each file's checksum is checked
    against the manifest's. Given the corpus, every sentence and token an
    index record names is checked to exist in it."""
    manifest = _read_manifest(directory)
    fingerprint = manifest.get("fingerprint", "")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise KokoInputError(
            f"{directory}: index fingerprint {fingerprint[:12]}... does not match "
            f"the supplied corpus ({expected_fingerprint[:12]}...); rebuild the index"
        )
    counts = manifest.get("counts", {})
    try:
        sentence_count = int(counts.get("sentences", 0))
        token_count = int(counts.get("tokens", 0))
    except (AttributeError, TypeError, ValueError):
        raise KokoInputError(f"{directory}: manifest.json has malformed counts") from None
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict) or not all(
        isinstance(checksums.get(name), int) for name in INDEX_FILES
    ):
        raise KokoInputError(f"{directory}: manifest.json lacks the checksums of the index files")
    lengths = None
    if corpus is not None:
        if sentence_count != len(corpus):
            raise KokoInputError(
                f"{directory}: index has {sentence_count} sentences, "
                f"the corpus {len(corpus)}; rebuild the index"
            )
        lengths = corpus.sentence_lengths

    def open_file(name: str) -> _IndexFile:
        return _IndexFile(directory, name, sentence_count, lengths, checksums[name])

    f = open_file("word.idx")
    word = WordIndex()
    word.postings = _LazyPostings(f, dict(f.labelled_blocks(f.u32())))
    f.end()

    f = open_file("entity.idx")
    entity = EntityIndex()
    prev = 0
    for _ in range(f.u32()):
        surface = f.string()
        etype = f.string()
        sid, start, end = _ENTITY.unpack_from(f.buf, f.advance(_ENTITY.size))
        if not (prev <= sid < sentence_count and start <= end) or (
            lengths is not None and end >= lengths[sid]
        ):
            raise KokoInputError(
                f"{f.path}: entity ({sid},{start}-{end}) lies outside the corpus "
                f"or out of sentence order"
            )
        prev = sid
        entity.add(EntitySpan(sid, start, end, etype, surface))
    f.end()

    hierarchies: list[HierarchyIndex] = []
    for name in ("pl.idx", "pos.idx"):
        f = open_file(name)
        records = f.labelled_blocks(f.u32(), _NODE_HEAD)
        if not records:
            raise KokoInputError(f"{f.path}: hierarchy without a super-root")
        index = HierarchyIndex(root_label="")
        index.nodes = []
        offsets = {}
        for position, (node_id, parent, label, offset) in enumerate(records):
            # Parents come before their children; only the super-root has none.
            if node_id != position or not parent < node_id or (parent >= 0) != (node_id > 0):
                raise KokoInputError(
                    f"{f.path}: node record {position} has id {node_id} and parent {parent}"
                )
            offsets[node_id] = offset
            index.nodes.append(HierarchyNode(node_id, label, parent))
            if parent >= 0:
                index.nodes[parent].children[label] = node_id
        f.end()
        index.postings = _LazyPostings(f, offsets)
        hierarchies.append(index)

    return IndexBundle(
        word=word,
        entity=entity,
        pl=hierarchies[0],
        pos=hierarchies[1],
        fingerprint=fingerprint,
        sentence_count=sentence_count,
        token_count=token_count,
    )

