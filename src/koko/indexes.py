"""The token table, the four corpus indices and their on-disk form.

* token table: every token's subtree extent and depth, stored once
* word index: surface string -> posting list
* entity index: entity surface -> (sid, start-end, type) records
* PL / POS hierarchy index: dependency trees merged on parse labels / POS tags

A posting list is a sorted run of global token offsets (``starts[sid] +
tid``), whose sid, tid and tree data the token table gives. Every posting
list of an index lives in one `PostingLists`: the lists end to end in
``flat``, and ``ptr`` says where each key's list starts. Hierarchy indices
merge same-labelled children recursively, so every node is addressed by
the unique label path from the root, and each token lands in exactly one
node's posting list per index. Both hang off a synthetic super-root
(labelled TOP in the POS index, where sentence roots carry arbitrary
tags), which is not counted as a node. ``//`` steps read a pre-order
numbering of the nodes (`_PrePlane`), derived at the first such lookup
and never stored.

Persisted layout (directory): ``manifest.json``, which records the CRC-32
of each file, plus ``tree.idx``, ``word.idx``, ``entity.idx``, ``pl.idx``
and ``pos.idx``: each the magic ``KOKO`` and a format version, then the
columns and string tables `save_bundle` writes. A column is a count and
that many little-endian 4-byte integers; a string table is a column of
end offsets (in code points) and one UTF-8 blob (a byte count and the
bytes), so each file is read with one ``frombytes`` per column and one
decode per table.
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
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, count, repeat
from operator import add, attrgetter, le, lt, sub

from .corpus import AnnotatedDocument, Corpus, EntitySpan, Sentence, child_lists, serialize_corpus
from .errors import KokoInputError

MAGIC = b"KOKO"
FORMAT_VERSION = 4
INDEX_FILES = ("tree.idx", "word.idx", "entity.idx", "pl.idx", "pos.idx")

TOP = "⊤"  # dummy label above every sentence root in the POS index

_TYPECODE = "I"  # array typecode of every column, 4 bytes on disk
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


class PostingLists(Mapping):
    """The posting lists of an index by key (a word, or a node id), as two
    columns: key i's list is ``flat[ptr[i]:ptr[i + 1]]``. A list read from
    a file is checked on its first read (`check`); a built one is trusted."""

    def __init__(
        self, keys: Sequence, ptr: array, flat: array, check: Callable[[array], None] | None = None
    ) -> None:
        self._keys = keys
        self.ptr = ptr
        self.flat = flat
        self._at = dict(zip(keys, count()))
        self._check = check
        self._checked = bytearray(len(keys))

    @classmethod
    def grouped(cls, key_of: Iterable, keys: Sequence) -> PostingLists:
        """The offsets 0, 1, ... grouped by their key in `key_of`, the
        lists in the order of `keys`."""
        lists: dict = {key: [] for key in keys}
        for offset, key in enumerate(key_of):
            lists[key].append(offset)
        ptr = array(_TYPECODE, accumulate(map(len, lists.values()), initial=0))
        return cls(keys, ptr, array(_TYPECODE, chain.from_iterable(lists.values())))

    def __getitem__(self, key) -> array:
        i = self._at[key]
        plist = self.flat[self.ptr[i] : self.ptr[i + 1]]
        if self._check is not None and not self._checked[i]:
            self._check(plist)
            self._checked[i] = 1
        return plist

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PostingLists)
            and self._keys == other._keys
            and self.ptr == other.ptr
            and self.flat == other.flat
        )


@dataclass
class WordIndex:
    tokens: TokenTable = field(repr=False, compare=False)
    postings: PostingLists  # by word, in sorted order

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


@dataclass
class EntityIndex:
    records: list[EntitySpan]
    by_type: dict[str, list[EntitySpan]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.by_type = {}
        for record in self.records:
            self.by_type.setdefault(record.etype, []).append(record)

    def lookup(self, etype: str | None = None) -> list[EntitySpan]:
        if etype is None:
            return list(self.records)
        return list(self.by_type.get(etype, []))


@dataclass
class HierarchyNode:
    label: str
    parent: int  # -1 for the super-root
    children: dict[str, int] = field(default_factory=dict)


@dataclass
class HierarchyIndex:
    nodes: list[HierarchyNode]  # by node id; a parent's id is below its children's
    postings: PostingLists  # by node id
    # Derived at the first `//` step.
    _plane: _PrePlane | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        """Number of merged nodes, super-root excluded."""
        return len(self.nodes) - 1

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
        for node_id in range(len(nodes) - 1, 0, -1):
            size[nodes[node_id].parent] += size[node_id]
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
    sentences = [s for doc in docs for s in doc.sentences]

    def column(name: str) -> array:
        return array(_TYPECODE, chain.from_iterable(map(attrgetter(name), sentences)))

    tokens = TokenTable(
        array(_TYPECODE, accumulate(map(len, sentences), initial=0)),
        column("left"),
        column("right"),
        column("depth"),
    )
    texts = list(chain.from_iterable(s.tokens for s in sentences))
    pl, pos = _merged_trees(sentences)
    return IndexBundle(
        word=WordIndex(tokens, PostingLists.grouped(texts, sorted(set(texts)))),
        entity=EntityIndex([e for s in sentences for e in s.entities]),
        pl=pl,
        pos=pos,
        tokens=tokens,
        fingerprint=corpus_fingerprint(docs),
    )


def _walk(sentence: Sentence) -> list[int]:
    """The sentence's tids in depth-first order from the root, a token's
    children pushed in tid order (so the last child is visited first)."""
    children = child_lists(sentence.heads)
    order: list[int] = []
    stack = [sentence.root_tid]
    while stack:
        tid = stack.pop()
        order.append(tid)
        stack.extend(children[tid])
    return order


def _merged_trees(sentences: list[Sentence]) -> tuple[HierarchyIndex, HierarchyIndex]:
    """The PL and the POS hierarchy: the sentences' trees with children
    merged on their parse label and on their POS tag. Nodes are numbered
    in the order the sentences' walks first reach them."""
    planes = (
        (attrgetter("labels"), [HierarchyNode("", -1)], array(_TYPECODE)),
        (attrgetter("pos"), [HierarchyNode(TOP, -1)], array(_TYPECODE)),
    )
    for s in sentences:
        walk = _walk(s)
        for column, nodes, node_of in planes:  # node_of: by token offset
            node_of.extend(_assign_nodes(nodes, s.heads, column(s), walk))
    pl, pos = (
        HierarchyIndex(nodes, PostingLists.grouped(node_of, range(len(nodes))))
        for _, nodes, node_of in planes
    )
    return pl, pos


def _assign_nodes(
    nodes: list[HierarchyNode], heads: Sequence[int | None], column: Sequence[str], walk: list[int]
) -> list[int]:
    """Hierarchy node id for every token of a sentence, by tid, adding the
    nodes its tree opens. `walk` reaches every head before its children."""
    node_of = [0] * len(heads)
    for tid in walk:
        head = heads[tid]
        parent = 0 if head is None else node_of[head]
        merged = nodes[parent].children
        label = column[tid]
        node = merged.get(label)
        if node is None:
            node = merged[label] = len(nodes)
            nodes.append(HierarchyNode(label, parent))
        node_of[tid] = node
    return node_of


# ---------------------------------------------------------------------------
# Persistence

_U32 = struct.Struct("<I")


def _w_columns(buf: bytearray, *columns: array) -> None:
    for column in columns:
        buf += _U32.pack(len(column))
        buf += _swapped(column).tobytes()


def _w_strings(buf: bytearray, strings: Sequence[str]) -> None:
    _w_columns(buf, array(_TYPECODE, accumulate(map(len, strings))))
    raw = "".join(strings).encode("utf-8")
    buf += _U32.pack(len(raw))
    buf += raw


def _interned(values: Sequence[str]) -> tuple[list[str], array]:
    """The distinct values, in first-seen order, and each value's id."""
    ids: dict[str, int] = {}
    column = array(_TYPECODE, [ids.setdefault(v, len(ids)) for v in values])
    return list(ids), column


def save_bundle(bundle: IndexBundle, directory: str) -> None:
    """Write every file from one in-memory buffer, which also gives its
    checksum."""
    files = {name: bytearray(MAGIC + _U32.pack(FORMAT_VERSION)) for name in INDEX_FILES}
    t = bundle.tokens
    _w_columns(files["tree.idx"], t.starts, t.left, t.right, t.depth)
    words = bundle.word.postings
    _w_strings(files["word.idx"], list(words))
    _w_columns(files["word.idx"], words.ptr, words.flat)
    sid, start, end, etype, surface = list(zip(*bundle.entity.records)) or [()] * 5
    etypes, etype_ids = _interned(etype)
    _w_strings(files["entity.idx"], etypes)
    _w_columns(files["entity.idx"], *(array(_TYPECODE, c) for c in (sid, start, end)), etype_ids)
    _w_strings(files["entity.idx"], surface)
    for name, index in (("pl.idx", bundle.pl), ("pos.idx", bundle.pos)):
        nodes = index.nodes[1:]
        labels, label_ids = _interned([node.label for node in nodes])
        _w_strings(files[name], labels)
        parents = array(_TYPECODE, [node.parent for node in nodes])
        _w_columns(files[name], label_ids, parents, index.postings.ptr, index.postings.flat)
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
    """One .idx file in memory, read front to back as columns and string
    tables."""

    def __init__(self, directory: str, name: str, crc: int, tokens: TokenTable | None = None):
        self.path = os.path.join(directory, name)
        self.crc = crc
        self.tokens = tokens
        try:
            with open(self.path, "rb") as f:
                self.buf = f.read()
        except OSError as exc:
            raise KokoInputError(f"{self.path}: cannot read index file: {exc.strerror}") from None
        if self.buf[:4] != MAGIC:
            raise self.fail("not an index file (bad magic)")
        self.pos = 4
        version = self.u32()
        if version != FORMAT_VERSION:
            raise self.fail(f"format version {version} does not match supported version {FORMAT_VERSION}")

    def fail(self, what: str) -> KokoInputError:
        return KokoInputError(f"{self.path}: {what}")

    def u32(self) -> int:
        if self.pos + 4 > len(self.buf):
            raise self.fail("truncated index file")
        self.pos += 4
        return _U32.unpack_from(self.buf, self.pos - 4)[0]

    def block(self, itemsize: int) -> memoryview:
        """A count, then that many items of `itemsize` bytes, uncopied."""
        start = self.pos + 4
        end = start + itemsize * self.u32()
        if end > len(self.buf):
            raise self.fail("truncated index file")
        self.pos = end
        return memoryview(self.buf)[start:end]

    def column(self) -> array:
        column = array(_TYPECODE)
        column.frombytes(self.block(4))
        return _swapped(column)

    def strings(self) -> list[str]:
        ends = self.column()
        try:
            text = str(self.block(1), "utf-8")
        except UnicodeDecodeError:
            raise self.fail("corrupt string table") from None
        bounds = array(_TYPECODE, [0]) + ends
        if bounds[-1] != len(text) or not all(map(le, bounds, bounds[1:])):
            raise self.fail("string end offsets out of order or past the text")
        return list(map(text.__getitem__, map(slice, bounds, ends)))

    def postings(self, keys: Sequence) -> PostingLists:
        ptr, flat = self.column(), self.column()
        if len(ptr) != len(keys) + 1 or ptr[0] != 0 or ptr[-1] != len(flat) or not all(map(le, ptr, ptr[1:])):
            raise self.fail(f"posting list bounds do not rise from 0 to {len(flat)} over {len(keys)} lists")
        return PostingLists(keys, ptr, flat, partial(self.tokens.check, where=self.path))

    def end(self) -> None:
        """After the scan: no bytes left over, and the checksum holds."""
        if self.pos != len(self.buf):
            raise self.fail(f"{len(self.buf) - self.pos} bytes after the last record")
        if zlib.crc32(self.buf) != self.crc:
            raise self.fail("checksum mismatch, the file is corrupt; rebuild the index")


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
    """Open a saved index. Every file is read whole, column by column, and
    its checksum checked against the manifest's; a posting list is checked
    against the token table on first lookup. Given the corpus, the token
    table's sentence lengths are checked to be the corpus's."""
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
    starts, *columns = (f.column() for _ in range(4))
    f.end()
    # Every sentence has a token.
    if not starts or starts[0] != 0 or not all(map(lt, starts, starts[1:])):
        raise f.fail("sentence starts do not increase from 0")
    if any(len(c) != starts[-1] for c in columns):
        raise f.fail(f"tree columns do not hold the {starts[-1]} tokens")
    if corpus is not None and starts != array(_TYPECODE, accumulate(corpus.sentence_lengths, initial=0)):
        raise KokoInputError(
            f"{directory}: index sentence lengths ({len(starts) - 1} sentences) differ from "
            f"the corpus's ({len(corpus)} sentences); rebuild the index"
        )
    tokens = TokenTable(starts, *columns)

    def open_file(name: str) -> _IndexFile:
        return _IndexFile(directory, name, checksums[name], tokens)

    f = open_file("word.idx")
    words = f.strings()
    word = WordIndex(tokens, f.postings(words))
    if not all(map(lt, words, words[1:])):
        raise f.fail("words out of order")
    f.end()

    f = open_file("entity.idx")
    etypes = f.strings()
    sid, start, end, etype_ids = (f.column() for _ in range(4))
    surfaces = f.strings()
    if not len(sid) == len(start) == len(end) == len(etype_ids) == len(surfaces):
        raise f.fail("entity columns differ in length")
    if max(etype_ids, default=-1) >= len(etypes):
        raise f.fail(f"etype id {max(etype_ids)} past the {len(etypes)} etypes")
    lengths = array(_TYPECODE, map(sub, starts[1:], starts))
    if not (
        all(map(le, sid, sid[1:]))
        and (not sid or sid[-1] < len(lengths))
        and all(map(le, start, end))
        and all(map(lt, end, map(lengths.__getitem__, sid)))
    ):
        raise f.fail("an entity lies outside the corpus or out of sentence order")
    f.end()
    entity = EntityIndex(list(map(EntitySpan, sid, start, end, map(etypes.__getitem__, etype_ids), surfaces)))

    hierarchies: list[HierarchyIndex] = []
    for name, root_label in (("pl.idx", ""), ("pos.idx", TOP)):
        f = open_file(name)
        labels = f.strings()
        label_ids, parents = f.column(), f.column()
        postings = f.postings(range(len(label_ids) + 1))
        if len(parents) != len(label_ids):
            raise f.fail("node columns differ in length")
        if max(label_ids, default=-1) >= len(labels):
            raise f.fail(f"label id {max(label_ids)} past the {len(labels)} labels")
        # Parents come before their children.
        if not all(map(lt, parents, count(1))):
            node_id = next(i for i, p in enumerate(parents, 1) if p >= i)
            raise f.fail(f"node record {node_id} has parent {parents[node_id - 1]}")
        f.end()
        nodes = [HierarchyNode(root_label, -1)]
        nodes += map(HierarchyNode, map(labels.__getitem__, label_ids), parents)
        for node_id, node in enumerate(nodes[1:], 1):
            nodes[node.parent].children[node.label] = node_id
        hierarchies.append(HierarchyIndex(nodes, postings))

    return IndexBundle(
        word=word,
        entity=entity,
        pl=hierarchies[0],
        pos=hierarchies[1],
        tokens=tokens,
        fingerprint=fingerprint,
    )
