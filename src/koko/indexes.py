"""The token table, the four corpus indices and their on-disk form.

* token table: every token's subtree extent and depth, stored once
* word index: surface string -> posting list
* entity index: entity surface -> (sid, start-end, type) records
* PL / POS hierarchy index: dependency trees merged on parse labels / POS tags

A posting list is a sorted ``array('I')`` of global token offsets
(``starts[sid] + tid``), whose sid, tid and tree data the token table
gives. Hierarchy indices merge same-labelled children recursively, so
every node is addressed by the unique label path from the root, and each
token lands in exactly one node's posting list per index. Both hang off
a synthetic super-root (labelled TOP in the POS index, where sentence
roots carry arbitrary tags), which is not counted as a node. ``//``
steps read a pre-order numbering of the nodes (`_PrePlane`), derived at
the first such lookup and never stored.

Persisted layout (directory): ``manifest.json``, which records the CRC-32
of each file, plus ``tree.idx``, ``word.idx``, ``entity.idx``, ``pl.idx``
and ``pos.idx``: each the magic ``KOKO``, a format version and the
records `save_bundle` writes, every integer a little-endian 4-byte one.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, count, repeat
from operator import add, lt, sub

from .corpus import AnnotatedDocument, Corpus, EntitySpan, serialize_corpus
from .errors import KokoInputError

MAGIC = b"KOKO"
FORMAT_VERSION = 3
INDEX_FILES = ("tree.idx", "word.idx", "entity.idx", "pl.idx", "pos.idx")

TOP = "⊤"  # dummy label above every sentence root in the POS index

_TYPECODE = "I"  # array typecode of offsets and tree columns, 4 bytes on disk
if array(_TYPECODE).itemsize != 4:
    raise ImportError(f"koko.indexes needs 4-byte array items of type {_TYPECODE!r}")


def _swapped(a: array) -> array:
    """`a` in little-endian order: a swapped copy on a big-endian host."""
    if sys.byteorder == "big":
        a = array(_TYPECODE, a)
        a.byteswap()
    return a


@dataclass
class TokenTable:
    """Tree data of every token of the corpus, stored once. Sentence sid
    holds the offsets ``starts[sid]`` up to ``starts[sid + 1]``, so
    ``starts[-1]`` is the token count; ``left``, ``right`` and ``depth``
    are the sentence-local columns of each `Sentence`, by offset.
    ``sid_of`` (the sentence of each offset) is derived from ``starts``."""

    starts: array
    left: array
    right: array
    depth: array
    sid_of: array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sids = range(len(self.starts) - 1)
        lengths = map(sub, self.starts[1:], self.starts)
        self.sid_of = array(_TYPECODE, chain.from_iterable(map(repeat, sids, lengths)))

    def check(self, offsets: array, where: str) -> None:
        """Raise KokoInputError unless `offsets` is a strictly increasing
        list of token offsets whose tree entries lie in their sentence."""
        starts, sid_of, left, right, depth = self.starts, self.sid_of, self.left, self.right, self.depth
        prev = -1
        for o in offsets:
            if not prev < o < len(sid_of):
                raise KokoInputError(f"{where}: posting {o} lies outside the corpus or out of order")
            sid = sid_of[o]
            tid, n = o - starts[sid], starts[sid + 1] - starts[sid]
            if not (left[o] <= tid <= right[o] < n and depth[o] < n):
                raise KokoInputError(f"{where}: tree entry of token ({sid},{tid}) lies outside the corpus")
            prev = o


class WordIndex:
    def __init__(self, tokens: TokenTable, postings: Mapping[str, array]) -> None:
        self.tokens = tokens
        # A dict when built; a loaded index decodes each list on first
        # read (`_LazyPostings`).
        self.postings = postings

    def lookup(self, word: str) -> array:
        return self.postings.get(word) or array(_TYPECODE)

    def sentences_with(self, word: str, sids: range) -> list[int]:
        """The sids in `sids` of the sentences holding `word`, in order,
        cut from its offset-sorted posting list."""
        postings = self.lookup(word)
        starts = self.tokens.starts
        lo = bisect_left(postings, starts[sids.start])
        hi = bisect_left(postings, starts[sids.stop], lo)
        return list(dict.fromkeys(map(self.tokens.sid_of.__getitem__, postings[lo:hi])))

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
        self.postings: Mapping[int, array] = {0: array(_TYPECODE)}
        # Derived at the first `//` step; a new node drops it.
        self._plane: _PrePlane | None = None

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
            self.postings[nxt] = array(_TYPECODE)
            self._plane = None
        return nxt

    def lookup(self, steps: list[tuple[str, str]]) -> list[int]:
        """Sorted union of posting lists over nodes whose root path matches.

        ``steps`` are (axis, label) pairs where label may be ``*``. ``/``
        consumes exactly one edge, ``//`` one or more; both start from the
        super-root, so a leading ``//`` reaches the depth-0 tokens too.
        """
        return sorted(chain.from_iterable(map(self.postings.__getitem__, self.match_nodes(steps))))

    def match_nodes(self, steps: list[tuple[str, str]]) -> set[int]:
        positions = {0}
        for axis, label in steps:
            nxt: set[int] = set()
            if axis == "/":
                for node_id in positions:
                    children = self.nodes[node_id].children
                    if label == "*":
                        nxt.update(children.values())
                    elif label in children:
                        nxt.add(children[label])
            else:
                if self._plane is None:
                    self._plane = _PrePlane(self.nodes)
                self._plane.descendants(positions, label, nxt)
            positions = nxt
            if not positions:
                break
        return positions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HierarchyIndex)
            and self.nodes == other.nodes
            and self.postings == other.postings
        )


class _PrePlane:
    """Pre-order numbering of a hierarchy (Grust, "Accelerating XPath
    Location Steps", SIGMOD 2002): the descendants of a node hold the
    ranks after its own and before its ``end``, so a ``//label`` step is
    a bisect of the label's rank list inside each range. Derived from the
    nodes, never stored."""

    def __init__(self, nodes: list[HierarchyNode]) -> None:
        order = array(_TYPECODE)  # node id by rank
        stack = [0]
        while stack:
            node_id = stack.pop()
            order.append(node_id)
            stack.extend(nodes[node_id].children.values())
        # Every parent has a lower id than its children, so one backward
        # pass sums the subtree sizes.
        size = [1] * len(nodes)
        for node in reversed(nodes[1:]):
            size[node.parent] += size[node.node_id]
        rank = [0] * len(nodes)
        ranks_of: dict[str, array] = {}
        for r, node_id in enumerate(order):
            rank[node_id] = r
            label = nodes[node_id].label
            ranks = ranks_of.get(label)
            if ranks is None:
                ranks = ranks_of[label] = array(_TYPECODE)
            ranks.append(r)
        self.order = order
        self.rank = array(_TYPECODE, rank)
        self.end = array(_TYPECODE, map(add, rank, size))  # one past the last rank of each subtree
        self.ranks_of = ranks_of

    def descendants(self, node_ids: set[int], label: str, out: set[int]) -> None:
        """Add to `out` the nodes labelled `label` (any, for ``*``) strictly
        below some node of `node_ids`."""
        order, rank, end = self.order, self.rank, self.end
        ranks = None
        if label != "*":
            ranks = self.ranks_of.get(label)
            if ranks is None:
                return
        hi = 0
        for lo, stop in sorted((rank[n] + 1, end[n]) for n in node_ids):
            if stop <= hi:
                continue  # inside a range already taken
            hi = stop
            if ranks is None:
                out.update(order[lo:stop])
            else:
                i = bisect_left(ranks, lo)
                out.update(map(order.__getitem__, ranks[i : bisect_left(ranks, stop, i)]))


@dataclass
class IndexBundle:
    word: WordIndex
    entity: EntityIndex
    pl: HierarchyIndex
    pos: HierarchyIndex
    tokens: TokenTable
    fingerprint: str

    @property
    def sentence_count(self) -> int:
        return len(self.tokens.starts) - 1

    @property
    def token_count(self) -> int:
        return self.tokens.starts[-1]

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
    words: defaultdict[str, array] = defaultdict(partial(array, _TYPECODE))
    entity = EntityIndex()
    pl = HierarchyIndex(root_label="")
    pos = HierarchyIndex(root_label=TOP)
    starts = array(_TYPECODE, [0])
    left, right, depth = array(_TYPECODE), array(_TYPECODE), array(_TYPECODE)
    pl_nodes, pos_nodes = pl.postings, pos.postings
    for doc in docs:
        for s in doc.sentences:
            base = starts[-1]
            starts.append(base + len(s))
            left.extend(s.left)
            right.extend(s.right)
            depth.extend(s.depth)
            # Offsets grow with every token, so each list stays sorted.
            for o, text, pl_node, pos_node in zip(
                count(base), s.tokens, _assign_nodes(pl, s, s.labels), _assign_nodes(pos, s, s.pos)
            ):
                words[text].append(o)
                pl_nodes[pl_node].append(o)
                pos_nodes[pos_node].append(o)
            for e in s.entities:
                entity.add(e)
    tokens = TokenTable(starts, left, right, depth)
    return IndexBundle(
        word=WordIndex(tokens, dict(words)),
        entity=entity,
        pl=pl,
        pos=pos,
        tokens=tokens,
        fingerprint=corpus_fingerprint(docs),
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

_U32 = struct.Struct("<I")
_ENTITY = struct.Struct("<3I")
_NODE_HEAD = struct.Struct("<Ii")  # node id, parent id


def _w_str(buf: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    buf += _U32.pack(len(raw))
    buf += raw


def _w_postings(buf: bytearray, postings: array) -> None:
    buf += _U32.pack(len(postings))
    buf += _swapped(postings).tobytes()


def save_bundle(bundle: IndexBundle, directory: str) -> None:
    """Write every file from one in-memory buffer, which also gives its
    checksum."""
    files = {name: bytearray(MAGIC + _U32.pack(FORMAT_VERSION)) for name in INDEX_FILES}
    t = bundle.tokens
    buf = files["tree.idx"]
    buf += _U32.pack(bundle.sentence_count)
    for column in (t.starts, t.left, t.right, t.depth):
        buf += _swapped(column).tobytes()
    buf = files["word.idx"]
    buf += _U32.pack(len(bundle.word.postings))
    for wordtext in sorted(bundle.word.postings):
        _w_str(buf, wordtext)
        _w_postings(buf, bundle.word.postings[wordtext])
    buf = files["entity.idx"]
    buf += _U32.pack(len(bundle.entity.records))
    for r in bundle.entity.records:
        _w_str(buf, r.surface)
        _w_str(buf, r.etype)
        buf += _ENTITY.pack(r.sid, r.start, r.end)
    for name, index in (("pl.idx", bundle.pl), ("pos.idx", bundle.pos)):
        buf = files[name]
        buf += _U32.pack(len(index.nodes))
        for node in index.nodes:
            buf += _NODE_HEAD.pack(node.node_id, node.parent)
            _w_str(buf, node.label)
            _w_postings(buf, index.postings[node.node_id])
    os.makedirs(directory, exist_ok=True)
    for name, buf in files.items():
        with open(os.path.join(directory, name), "wb") as f:
            f.write(buf)
    manifest = {
        "format_version": FORMAT_VERSION,
        "fingerprint": bundle.fingerprint,
        "counts": bundle.counts(),
        "checksums": {name: zlib.crc32(buf) for name, buf in files.items()},
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


class _IndexFile:
    """One .idx file in memory, scanned front to back. The scan skips each
    posting block and keeps its offset; `block_at` decodes a block when
    a lookup first needs it and checks it against the token table."""

    def __init__(self, directory: str, name: str, crc: int, tokens: TokenTable | None = None):
        self.path = os.path.join(directory, name)
        self.crc = crc
        self.tokens = tokens
        try:
            with open(self.path, "rb") as f:
                self.buf = f.read()
        except OSError as exc:
            raise KokoInputError(f"{self.path}: cannot read index file: {exc.strerror}") from None
        self.pos = 0
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

    def u32s(self, n: int) -> array:
        return _swapped(array(_TYPECODE, self.take(4 * n)))

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
                pos += 4 + 4 * k
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

    def block_at(self, offset: int) -> array:
        (n,) = _U32.unpack_from(self.buf, offset)
        start = offset + 4
        block = _swapped(array(_TYPECODE, self.buf[start : start + 4 * n]))
        self.tokens.check(block, self.path)
        return block


class _LazyPostings(Mapping):
    """Posting lists of a loaded index by word or node id; each stays an
    offset into its file until it is first read."""

    def __init__(self, file: _IndexFile, offsets: dict):
        self._file = file
        self._offsets = offsets
        self._decoded: dict = {}

    def __getitem__(self, key) -> array:
        plist = self._decoded.get(key)
        if plist is None:
            plist = self._decoded[key] = self._file.block_at(self._offsets[key])
        return plist

    def __iter__(self):
        return iter(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)


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
    """Open a saved index. The token table is read whole; of the other
    files only record headers are read here, and posting lists are
    decoded on first lookup, each checked against the token table. Each
    file's checksum is checked against the manifest's. Given the corpus,
    the token table's sentence lengths are checked to be the corpus's."""
    manifest = _read_manifest(directory)
    fingerprint = manifest.get("fingerprint", "")
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        raise KokoInputError(
            f"{directory}: index fingerprint {fingerprint[:12]}... does not match "
            f"the supplied corpus ({expected_fingerprint[:12]}...); rebuild the index"
        )
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict) or not all(
        isinstance(checksums.get(name), int) for name in INDEX_FILES
    ):
        raise KokoInputError(f"{directory}: manifest.json lacks the checksums of the index files")

    f = _IndexFile(directory, "tree.idx", checksums["tree.idx"])
    starts = f.u32s(f.u32() + 1)
    columns = [f.u32s(starts[-1]) for _ in range(3)]
    f.end()
    # Every sentence has a token.
    if starts[0] != 0 or not all(map(lt, starts, starts[1:])):
        raise KokoInputError(f"{f.path}: sentence starts do not increase from 0")
    if corpus is not None and starts != array(_TYPECODE, accumulate(corpus.sentence_lengths, initial=0)):
        raise KokoInputError(
            f"{directory}: index sentence lengths ({len(starts) - 1} sentences) differ from "
            f"the corpus's ({len(corpus)} sentences); rebuild the index"
        )
    tokens = TokenTable(starts, *columns)

    def open_file(name: str) -> _IndexFile:
        return _IndexFile(directory, name, checksums[name], tokens)

    f = open_file("word.idx")
    word = WordIndex(tokens, _LazyPostings(f, dict(f.labelled_blocks(f.u32()))))
    f.end()

    f = open_file("entity.idx")
    entity = EntityIndex()
    prev = 0
    for _ in range(f.u32()):
        surface = f.string()
        etype = f.string()
        sid, start, end = _ENTITY.unpack_from(f.buf, f.advance(_ENTITY.size))
        if not (prev <= sid < len(starts) - 1 and start <= end < starts[sid + 1] - starts[sid]):
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
        tokens=tokens,
        fingerprint=fingerprint,
    )
