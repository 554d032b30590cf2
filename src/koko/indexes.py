"""The token table, the four corpus indices and their on-disk form.

* token table: every token's head, stored once; its depth is derived
* word index: word -> posting list
* entity index: entity type -> (sid, start, end, type) records
* PL / POS hierarchy index: dependency trees merged on parse labels / POS tags

A posting list is a sorted run of global token offsets (``starts[sid] +
tid``), whose sid, tid, head and depth the token table gives. Every posting
list of an index lives in one `PostingLists`, held as its forward column,
the position of each token's key, so each token lies in exactly one list;
a built set also holds the lists end to end in ``flat``. Hierarchy indices
merge same-labelled children recursively, so every node is addressed by
the unique label path from the root, and each token lands in exactly one
node's posting list per index. Both hang off a synthetic super-root
(labelled TOP in the POS index, where sentence roots carry arbitrary
tags), which is not counted as a node. A hierarchy is its label and
parent columns, by node id, and node ids are pre-order ranks, so a
node's descendants are one range of ids (`HierarchyIndex`).

The index holds the whole corpus, heads and document table included, and
`open_corpus` builds its sentences from the columns and the entity
records. The tree is stored once, as heads: no subtree extent is stored,
DPLI's containment join walks up the head column, and a subtree's extent
is derived from the heads where it is read (`Sentence.extent`). No entity
surface is stored either: a mention is its span, one `EntitySpan` in the
entity index and in its sentence, and its text is read from the word
column where a value is needed.

Persisted layout (directory): ``manifest.json``, which records the CRC-32
of each file, plus ``tree.idx``, ``word.idx``, ``entity.idx``, ``pl.idx``
and ``pos.idx``: each the magic ``KOKO`` and a format version (11), then
the columns, posting sets and string tables `save_bundle` writes. Every
integer column is one codec, frame-of-reference coding at a byte-aligned
width (Goldstein, Ramakrishnan & Shaft, "Compressing Relations and
Indexes", 1998): a width byte of 1, 2 or 4, a count, and that many
little-endian integers of that width, the fewest bytes that hold the
column's largest entry. The heads take the width of the longest sentence,
and the width's largest value stands for `NO_HEAD`. Each column is stored
in its cheaper form: sentence and document lengths in place of their
starts, and each posting set's list counts in place of ``ptr``, which one
`accumulate` gives back at load. A string table is a column of end
offsets (in code points) and one UTF-8 blob (a byte count and the bytes);
a column of labels or etypes is a table of its distinct strings and a
column of ids into it. A posting set ends its file: the list counts, then
its forward column, each token's key position at the fewest bytes that
hold the key count less one, deflated by `zlib` at level 1 into one blob
(Zobel & Moffat, "Inverted files for text search engines", 2006). So each
file is read with one C-level widening per column and one decode per
table, and in memory every column but a forward one is a 4-byte ``array``.
A posting set's column is inflated at the first read of any of its lists
(`PostingLists`), never past one entry more than the corpus has tokens,
and checked then: it is one stream of one entry per token, every key
position lies below the key count, and no token lies under a hierarchy's
super-root. The counts serve only as estimates, which plan the reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import and_, attrgetter, le, lt, sub

from .corpus import AnnotatedDocument, Corpus, EntitySpan, Sentence, serialized_documents
from .errors import KokoInputError
from .record import Record

MAGIC = b"KOKO"
FORMAT_VERSION = 11
INDEX_FILES = ("tree.idx", "word.idx", "entity.idx", "pl.idx", "pos.idx")
NO_HEAD = 0xFFFFFFFF  # the head column's entry for a sentence root

TOP = "⊤"  # dummy label above every sentence root in the POS index

_TYPECODE = "I"  # array typecode of every column in memory, 4 bytes on disk
_WIDTHS = {1: "B", 2: "H", 4: _TYPECODE}  # typecode by width on disk
if any(array(code).itemsize != width for width, code in _WIDTHS.items()):
    raise ImportError(f"koko.indexes needs array items of the widths {_WIDTHS}")


def _swapped(a: array) -> array:
    """`a` in little-endian order: a swapped copy on a big-endian host."""
    if sys.byteorder == "big" and a.itemsize > 1:
        a = array(a.typecode, a)
        a.byteswap()
    return a


def _width(largest: int) -> int:
    """The fewest bytes of 1, 2 or 4 that hold `largest`."""
    return 1 if largest <= 0xFF else 2 if largest <= 0xFFFF else 4


def _scan(raw: bytes, width: int, i: int, lo: int, hi: int) -> array:
    """The positions lo <= o < hi of `raw`'s little-endian entries of
    `width` bytes that equal i: a `bytes.find` that skips unaligned hits."""
    needle, stop, found = i.to_bytes(width, "little"), hi * width, array(_TYPECODE)
    at = raw.find(needle, lo * width, stop)
    while at >= 0:
        if not at % width:
            found.append(at // width)
        at = raw.find(needle, at + 1, stop)
    return found


def _all_below(raw: bytes, width: int, bound: int) -> bool:
    """Whether every little-endian entry of `width` bytes in `raw` is
    below `bound`, with no Python step per entry: compared with the largest
    allowed, byte j of every entry at once from the most significant, as
    the bits of one integer with all 8 set where the byte is greater (or
    equal), so `tied` keeps the entries equal to it so far."""
    if not raw or bound >= 1 << 8 * width:
        return True
    if not bound:
        return False
    limit, tied = (bound - 1).to_bytes(width, "little"), -1
    for j in reversed(range(width)):
        plane = raw[j::width]
        if tied & int.from_bytes(plane.translate(bytes(255 * (b > limit[j]) for b in range(256))), "little"):
            return False
        tied &= int.from_bytes(plane.translate(bytes(255 * (b == limit[j]) for b in range(256))), "little")
    return True


class TokenTable(Record):
    """The tree of every token of the corpus, stored once, as heads.
    ``lengths`` is the token count of each sentence; ``heads`` is each
    token's sentence-local head, by offset, with `NO_HEAD` as a root's.
    Derived once, from the lengths: sentence sid holds the offsets
    ``starts[sid]`` up to ``starts[sid + 1]``, so ``starts[-1]`` is the
    token count, and ``sid_of`` is the sentence of each offset. ``depth``
    is derived from ``pl``, the PL hierarchy, at its first read. `where`
    names the file the heads were read from, for error messages."""

    _fields = ("lengths", "heads")

    def __init__(self, lengths: array, heads: array, pl: HierarchyIndex | None = None, where: str = "tree.idx") -> None:
        self.lengths = lengths
        self.heads = heads
        self.pl = pl
        self.where = where
        self.starts = array(_TYPECODE, accumulate(lengths, initial=0))
        self.sid_of = array(_TYPECODE, chain.from_iterable(map(repeat, range(len(lengths)), lengths)))

    @cached_property
    def depth(self) -> array:
        """Each token's depth, its PL node's; nodes are numbered in
        pre-order, parents first, so one pass over the parents gives theirs.
        Each token's node must lie less deep than its sentence is long."""
        node_depth = [-1]
        for parent in self.pl.parents[1:]:
            node_depth.append(node_depth[parent] + 1)
        depth = array(_TYPECODE, map(node_depth.__getitem__, self.pl.postings.column))
        for o in compress(count(), map(le, map(self.lengths.__getitem__, self.sid_of), depth)):
            sid, where = self.sid_of[o], self.pl.postings.where
            raise KokoInputError(f"{where}: token ({sid},{o - self.starts[sid]}) lies deeper than its sentence is long")
        return depth


class Sentences:
    """Some sentences of the corpus, the candidates a query has left: their
    sids in order (the keys of `sids`, which also answers membership) and
    how many tokens they hold."""

    def __init__(self, tokens: TokenTable, sids: Iterable[int]) -> None:
        self.tokens = tokens
        self.sids = dict.fromkeys(sids)
        self.token_count = sum(map(tokens.lengths.__getitem__, self.sids))

    def bounds(self) -> Iterator[tuple[int, int]]:
        """Each sentence's first token offset and the one past its last."""
        starts = self.tokens.starts
        return ((starts[sid], starts[sid + 1]) for sid in self.sids)


class PostingLists(Mapping):
    """The posting lists of an index by key (a word, or a node id), held as
    their forward column: ``column[o]`` is the position of the key whose
    list holds offset o, so every offset lies in exactly one list. ``ptr``
    accumulates the lists' counts, which give `size`: the estimates that
    plan a read, read from no posting. A built set also holds its lists
    end to end in ``flat``, key i's ``flat[ptr[i]:ptr[i + 1]]``, and reads
    them. A set read from file `where` holds its column `deflated`, with
    the corpus's token count and whether key 0 is a hierarchy's super-root,
    which holds no token; it is inflated and checked at its first read
    (`column`) and then read by scans: an aligned `bytes.find` for one key,
    a `compress` for several."""

    def __init__(
        self, keys: Sequence, ptr: array, flat: array | None = None, column: Sequence[int] | None = None,
        where: str = "", deflated: tuple[memoryview, int, bool] | None = None,
    ) -> None:
        self._keys = keys
        self.ptr = ptr
        self.flat = flat
        self.width = _width(len(keys) - 1)
        self._column = column if column is None else array(_WIDTHS[self.width], column)
        self._raw = b""  # a loaded column's bytes, inflated, for `find`'s scans
        self.where = where
        self._deflated = deflated
        self._at = dict(zip(keys, count()))

    @classmethod
    def grouped(cls, column: Sequence[int], keys: Sequence) -> PostingLists:
        """The lists of `keys` over the offsets 0, 1, ...: `column` gives
        the position of each offset's key."""
        lists: list[list[int]] = [[] for _ in keys]
        for offset, i in enumerate(column):
            lists[i].append(offset)
        ptr = array(_TYPECODE, accumulate(map(len, lists), initial=0))
        return cls(keys, ptr, array(_TYPECODE, chain.from_iterable(lists)), column)

    @property
    def column(self) -> array:
        if self._column is None:
            self._inflate()
        return self._column

    def _inflate(self) -> None:
        """Inflate the column, never past one entry more than the corpus
        has tokens, and check it: one stream of exactly one entry per token,
        every key position below the key count and, under a super-root,
        none 0."""
        data, n, rooted = self._deflated
        inflater, size = zlib.decompressobj(), n * self.width
        try:
            raw = inflater.decompress(data, size + 1)
        except zlib.error:
            raw = b""
        if len(raw) != size or not inflater.eof or inflater.unused_data:
            raise KokoInputError(f"{self.where}: the posting column does not inflate to its {n} entries")
        if not _all_below(raw, self.width, len(self._keys)):
            raise KokoInputError(f"{self.where}: the posting lists do not hold every token once")
        if rooted and _scan(raw, self.width, 0, 0, n):
            raise KokoInputError(f"{self.where}: the super-root holds postings")
        self._raw, self._column = raw, _swapped(array(_WIDTHS[self.width], raw))

    def find(self, key, lo: int, hi: int) -> Sequence[int]:
        """The offsets lo <= o < hi in the list of `key`: bisected in a
        built list, else scanned for in the inflated column."""
        i = self._at[key]
        if self.flat is None:
            if self._column is None:
                self._inflate()
            return _scan(self._raw, self.width, i, lo, hi)
        a, b = self.ptr[i], self.ptr[i + 1]
        a = bisect_left(self.flat, lo, a, b)
        return self.flat[a : bisect_left(self.flat, hi, a, b)]

    def __getitem__(self, key) -> Sequence[int]:
        return self.find(key, 0, self.ptr[-1])

    def __contains__(self, key) -> bool:
        return key in self._at

    def keys_at(self, a: int, b: int) -> Iterator:
        """The keys of the offsets a .. b - 1, read from the column."""
        return map(self._keys.__getitem__, self.column[a:b])

    def keys_of(self, offsets: Iterable[int]) -> Iterator:
        """The key of each offset, read from the column."""
        return map(self._keys.__getitem__, map(self.column.__getitem__, offsets))

    def size(self, keys: Iterable) -> int:
        """How many postings the lists of `keys` hold, read from ``ptr``
        alone; a key with no list counts 0."""
        ptr, at = self.ptr, self._at
        positions = list(map(at.__getitem__, filter(at.__contains__, keys)))
        return sum(map(ptr.__getitem__, map((1).__add__, positions))) - sum(map(ptr.__getitem__, positions))

    def read(self, keys: Collection, size: int, within: Sentences | None) -> Sequence[int]:
        """The sorted union of the lists of `keys` (a key with no list has
        none), cut to the sentences of `within`, or whole when it is None.

        `size` is the postings those lists hold (`size(keys)`). `within`'s
        tokens are scanned in the column when they are no more than that,
        or when several lists are wanted and only the column holds them;
        otherwise the lists are read whole and filtered by sid."""
        at = self._at
        if within is not None and (size >= within.token_count or (self.flat is None and len(keys) > 1)):
            column, wanted = self.column, set(map(at.get, keys)).__contains__
            return list(chain.from_iterable(
                compress(range(a, b), map(wanted, column[a:b])) for a, b in within.bounds()
            ))
        keys = [key for key in keys if key in at]
        if len(keys) <= 1:
            found = self[keys[0]] if keys else []
        elif self.flat is not None:
            flat, ptr = self.flat, self.ptr
            found = sorted(chain.from_iterable([flat[ptr[i] : ptr[i + 1]] for i in map(at.get, keys)]))
        else:
            found = list(compress(count(), map(set(map(at.get, keys)).__contains__, self.column)))
        if within is None:
            return found
        return list(compress(found, map(within.sids.__contains__, map(within.tokens.sid_of.__getitem__, found))))

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PostingLists) and (self._keys, self.ptr, self.column) == (
            other._keys, other.ptr, other.column)


class WordIndex(Record):
    _fields = ("postings",)

    def __init__(self, tokens: TokenTable, postings: PostingLists) -> None:
        self.tokens = tokens
        self.postings = postings  # by word, in sorted order

    def words(self, a: int, b: int) -> tuple[str, ...]:
        """The words of the offsets a .. b - 1, read from the word column."""
        return tuple(self.postings.keys_at(a, b))

    def lookup(self, word: str) -> Sequence[int]:
        return self.postings.get(word, array(_TYPECODE))

    def count(self, word: str) -> int:
        return self.postings.size((word,))

    def read(self, word: str, within: Sentences | None = None) -> Sequence[int]:
        """The offsets of `word` in the sentences of `within` (every
        sentence when None; see `PostingLists.read`)."""
        return self.postings.read((word,), self.count(word), within)

    def sentences_with(self, word: str, sids: range) -> list[int]:
        """The sids in `sids` of the sentences holding `word`, in order,
        found among those sentences' tokens alone."""
        starts = self.tokens.starts
        found = self.postings.find(word, starts[sids.start], starts[sids.stop]) if word in self.postings else ()
        return list(dict.fromkeys(map(self.tokens.sid_of.__getitem__, found)))


class EntityIndex(Record):
    _fields = ("records",)

    def __init__(self, records: list[EntitySpan]) -> None:
        self.records = records
        self.by_type: dict[str, list[EntitySpan]] = {}
        for record in records:
            self.by_type.setdefault(record.etype, []).append(record)

    def lookup(self, etype: str | None = None) -> list[EntitySpan]:
        if etype is None:
            return list(self.records)
        return list(self.by_type.get(etype, []))


class HierarchyIndex(Record):
    """A hierarchy's nodes by id: their labels, parents and posting lists.
    Node ids are pre-order ranks, node 0 the super-root's, so the nodes
    below node n are n + 1 up to ``end[n]``, and its children are n + 1 and
    each one's next sibling, at the end of the one before (Grust,
    "Accelerating XPath Location Steps", SIGMOD 2002). One pass over the
    parents derives ``end`` and each label's sorted ids, ``ids_of``, and
    checks that each node's parent is the node before it or an ancestor of
    that node; it and the check that siblings' labels differ name the file
    of a loaded hierarchy (``postings.where``) in a KokoInputError."""

    _fields = ("labels", "parents", "postings")

    def __init__(self, labels: list[str], parents: array, postings: PostingLists) -> None:
        self.labels = labels  # by node id; node 0 is the super-root
        self.parents = parents  # by node id; the super-root's is 0
        self.postings = postings  # by node id
        n = len(labels)
        self.end = end = [n] * n  # one past the last node of each subtree
        self.ids_of = ids_of = defaultdict(list)
        path = [0]  # the previous node and its ancestors
        try:
            for node, parent, label in zip(count(1), parents[1:], labels[1:]):
                while path[-1] != parent:
                    end[path.pop()] = node
                path.append(node)
                ids_of[label].append(node)
        except IndexError:
            raise KokoInputError(
                f"{postings.where}: node record {node} has parent {parent}, which is neither "
                f"node {node - 1} nor one of its ancestors: the node ids are not in pre-order"
            ) from None
        # No two children of a node share a label: no two nodes of a label share a parent.
        for ids in ids_of.values():
            if len(set(map(parents.__getitem__, ids))) != len(ids):
                raise KokoInputError(f"{postings.where}: two children of a node share a label")

    @property
    def node_count(self) -> int:
        """Number of merged nodes, super-root excluded."""
        return len(self.labels) - 1

    def read(self, nodes: set[int], size: int, within: Sentences | None = None) -> Sequence[int]:
        """The offsets of the tokens of `nodes`, `size` postings in all, in
        the sentences of `within` (every sentence when None; see
        `PostingLists.read`)."""
        return self.postings.read(nodes, size, within)

    def match_nodes(self, steps: list[tuple[str, str]]) -> set[int]:
        """The nodes whose root path matches ``steps``, (axis, label) pairs
        where label may be ``*``. ``/`` consumes exactly one edge, ``//``
        one or more; both start from the super-root, so a leading ``//``
        reaches the depth-0 tokens too. A ``/`` step hops over each node's
        children; a ``//`` step keeps the outermost subtree ranges and
        takes each whole (``*``) or bisects the label's ids in it."""
        labels, end = self.labels, self.end
        positions = {0}
        for axis, label in steps:
            nxt: set[int] = set()
            if axis == "/":
                for n in positions:
                    child, stop = n + 1, end[n]
                    while child < stop:
                        if label == "*" or labels[child] == label:
                            nxt.add(child)
                        child = end[child]
            else:
                ids = None if label == "*" else self.ids_of.get(label, ())
                hi = 0
                for lo, stop in sorted((n + 1, end[n]) for n in positions):
                    if stop <= hi:
                        continue  # inside a range already taken
                    hi = stop
                    if ids is None:
                        nxt.update(range(lo, stop))
                    else:
                        i = bisect_left(ids, lo)
                        nxt.update(ids[i : bisect_left(ids, stop, i)])
            positions = nxt
            if not positions:
                break
        return positions


class IndexBundle(Record):
    # The document table: document i holds sids doc_starts[i] .. the next start.
    __slots__ = _fields = ("word", "entity", "pl", "pos", "tokens", "fingerprint", "doc_ids", "doc_starts")

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
    """The SHA-256 of `serialize_corpus(docs)` in UTF-8, hashed a document
    at a time."""
    digest = hashlib.sha256()
    for text in serialized_documents(docs):
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def fingerprint_bytes(data: bytes) -> str:
    """Fingerprint of a corpus file; equal to `corpus_fingerprint(docs)`
    exactly when the file is the canonical serialization of docs."""
    return hashlib.sha256(data).hexdigest()


def build_indexes(docs: list[AnnotatedDocument]) -> IndexBundle:
    sentences = [s for doc in docs for s in doc.sentences]
    tokens = TokenTable(
        array(_TYPECODE, map(len, sentences)),
        array(_TYPECODE, [NO_HEAD if h is None else h for s in sentences for h in s.heads]),
    )
    texts = list(chain.from_iterable(s.tokens for s in sentences))
    words = sorted(set(texts))
    pl, pos = _merged_trees(sentences)
    tokens.pl = pl
    return IndexBundle(
        word=WordIndex(tokens, PostingLists.grouped(list(map(dict(zip(words, count())).__getitem__, texts)), words)),
        entity=EntityIndex([e for s in sentences for e in s.entities]),
        pl=pl,
        pos=pos,
        tokens=tokens,
        fingerprint=corpus_fingerprint(docs),
        doc_ids=[doc.doc_id for doc in docs],
        doc_starts=array(_TYPECODE, accumulate([len(doc.sentences) for doc in docs], initial=0))[:-1],
    )


def _merged_trees(sentences: list[Sentence]) -> tuple[HierarchyIndex, HierarchyIndex]:
    """The PL and the POS hierarchy: the sentences' trees with children
    merged on their parse label and on their POS tag. Nodes are first
    numbered as reached, sentence by sentence, each sentence's tokens by
    depth and then tid, so a head's node is known before its children's;
    then renumbered in pre-order, each node's children in the order they
    were reached, so a build is deterministic."""
    # Each hierarchy's labels and parents by node id, its node of each
    # (parent, label) and its node of each token, by offset.
    tries = [([root], [0], {}, []) for root in ("", TOP)]
    for s in sentences:
        heads, order = s.heads, sorted(range(len(s)), key=s.depth.__getitem__)
        for (labels, parents, child, node_of), values in zip(tries, (s.labels, s.pos)):
            nodes = [0] * len(s)
            for tid in order:
                head = heads[tid]
                key = (0 if head is None else nodes[head], values[tid])
                node = child.get(key)
                if node is None:
                    node = child[key] = len(labels)
                    labels.append(key[1])
                    parents.append(key[0])
                nodes[tid] = node
            node_of += nodes
    merged = []
    for labels, parents, _, node_of in tries:
        below: list[list[int]] = [[] for _ in labels]  # each node's children, the last reached first
        for node in range(len(labels) - 1, 0, -1):
            below[parents[node]].append(node)
        reached, stack = [], [0]  # the nodes in pre-order
        while stack:
            reached.append(stack.pop())
            stack += below[reached[-1]]
        pre = sorted(range(len(labels)), key=reached.__getitem__)  # each node's pre-order id
        merged.append(HierarchyIndex(
            [labels[node] for node in reached],
            array(_TYPECODE, [pre[parents[node]] for node in reached]),
            PostingLists.grouped(list(map(pre.__getitem__, node_of)), range(len(labels))),
        ))
    return merged[0], merged[1]


# ---------------------------------------------------------------------------
# Persistence

_U32 = struct.Struct("<I")
_ONLY_ONES = bytes(255) + b"\xff"  # a translation keeping 0xFF bytes, zeroing the rest


def _w_column(buf: bytearray, values: Iterable[int], width: int | None = None) -> None:
    """A narrow column: its width, at the fewest bytes that hold its largest
    entry unless given, a count and the entries. Each is the low `width`
    bytes of its little-endian 4-byte entry, so `NO_HEAD`'s are all ones."""
    column = array(_TYPECODE, values)
    if width is None:
        width = _width(max(column, default=0))
    buf.append(width)
    buf += _U32.pack(len(column))
    buf += array(_WIDTHS[width], _swapped(column).tobytes())[:: 4 // width].tobytes()


def _w_bytes(buf: bytearray, raw: bytes) -> None:
    buf += _U32.pack(len(raw))
    buf += raw


def _w_strings(buf: bytearray, strings: Sequence[str]) -> None:
    _w_column(buf, accumulate(map(len, strings)))
    _w_bytes(buf, "".join(strings).encode("utf-8"))


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
    _w_column(files["tree.idx"], t.lengths)
    # A root's head is the width's largest value, so the width holds one
    # more than the longest sentence's token count: 1 byte below 255 tokens.
    _w_column(files["tree.idx"], t.heads, _width(max(t.lengths, default=0) + 1))
    _w_strings(files["tree.idx"], bundle.doc_ids)
    _w_column(files["tree.idx"], map(sub, [*bundle.doc_starts[1:], bundle.sentence_count], bundle.doc_starts))
    _w_strings(files["word.idx"], list(bundle.word.postings))
    sid, start, end, etype = list(zip(*bundle.entity.records)) or [()] * 4
    etypes, etype_ids = _interned(etype)
    _w_strings(files["entity.idx"], etypes)
    for column in (sid, start, end, etype_ids):
        _w_column(files["entity.idx"], column)
    for name, index in (("pl.idx", bundle.pl), ("pos.idx", bundle.pos)):
        labels, label_ids = _interned(index.labels[1:])
        _w_strings(files[name], labels)
        _w_column(files[name], label_ids)
        _w_column(files[name], index.parents[1:])
    # Each posting set ends its file: the list counts, then the forward
    # column at its width, deflated.
    for name, index in (("word.idx", bundle.word), ("pl.idx", bundle.pl), ("pos.idx", bundle.pos)):
        _w_column(files[name], map(sub, index.postings.ptr[1:], index.postings.ptr))
        _w_bytes(files[name], zlib.compress(_swapped(index.postings.column).tobytes(), 1))
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

    def __init__(self, directory: str, name: str, crc: int, token_count: int | None = None):
        self.path = os.path.join(directory, name)
        self.crc = crc
        self.token_count = token_count
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

    def column(self, no_head: bool = False) -> array:
        """A narrow column widened to 4-byte entries, with no Python step
        per entry: each entry's bytes are laid into the low bytes of its
        wide one, whose high bytes are zero or, in the head column
        (`no_head`), all ones (making `NO_HEAD`) where the entry's own
        bytes all are, the width's largest value."""
        if self.pos >= len(self.buf):
            raise self.fail("truncated index file")
        width = self.buf[self.pos]
        self.pos += 1
        if width not in _WIDTHS:
            raise self.fail(f"column width {width} is not 1, 2 or 4")
        raw = bytes(self.block(width))
        planes = [raw[j::width] for j in range(width)]  # byte j of each entry
        wide = bytearray(4 * len(planes[0]))
        for j, plane in enumerate(planes):
            wide[j::4] = plane
        if no_head and width < 4:
            all_ones = reduce(and_, (int.from_bytes(plane, "little") for plane in planes))
            high = all_ones.to_bytes(len(planes[0]), "little").translate(_ONLY_ONES)
            for j in range(width, 4):
                wide[j::4] = high
        column = array(_TYPECODE)
        column.frombytes(wide)
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

    def postings(self, keys: Sequence, rooted: bool = False) -> PostingLists:
        """A posting set, its counts checked: its column is inflated and
        checked at its first read (`PostingLists`). `rooted`: key 0 is a
        hierarchy's super-root."""
        counts, deflated = self.column(), self.block(1)
        n = self.token_count
        if len(counts) != len(keys) or sum(counts) != n:
            raise self.fail(f"posting list counts do not sum to {n} over {len(keys)} lists")
        ptr = array(_TYPECODE, accumulate(counts, initial=0))
        return PostingLists(keys, ptr, where=self.path, deflated=(deflated, n, rooted))

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


def load_bundle(directory: str, expected_fingerprint: str | None = None) -> IndexBundle:
    """Open a saved index. Every file is read whole, column by column, and
    its checksum checked against the manifest's; every column is widened to
    4-byte entries, and the lengths and counts summed back into starts and
    ``ptr``. The posting sets are kept deflated, their counts checked to sum
    to the tokens; each set's column is inflated and checked at the first
    read of any of its lists (`PostingLists`), and the depths at the first
    read of the depth column (`TokenTable.depth`)."""
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
    lengths, heads = f.column(), f.column(no_head=True)
    doc_ids, doc_lengths = f.strings(), f.column()
    f.end()
    # Every sentence has a token, and the heads are the sentences' tokens.
    if 0 in lengths:
        raise f.fail(f"sentence {lengths.index(0)} has no token")
    if len(heads) != sum(lengths):
        raise f.fail(f"the head column does not hold the {sum(lengths)} tokens of the sentence lengths")
    # The documents (an empty corpus may have none) hold every sentence.
    if len(doc_ids) != len(doc_lengths):
        raise f.fail(f"the document table holds {len(doc_ids)} ids and {len(doc_lengths)} lengths")
    if sum(doc_lengths) != len(lengths):
        raise f.fail(f"the document lengths do not sum to the {len(lengths)} sentences")
    tokens = TokenTable(lengths, heads, where=f.path)
    doc_starts = array(_TYPECODE, accumulate(doc_lengths, initial=0))[:-1]

    def open_file(name: str) -> _IndexFile:
        return _IndexFile(directory, name, checksums[name], tokens.starts[-1])

    f = open_file("word.idx")
    words = f.strings()
    word = WordIndex(tokens, f.postings(words))
    if not all(map(lt, words, words[1:])):
        raise f.fail("words out of order")
    f.end()

    f = open_file("entity.idx")
    etypes = f.strings()
    if "" in etypes:
        raise f.fail(f"entity type {etypes.index('')} is the empty string")
    sid, start, end, etype_ids = (f.column() for _ in range(4))
    if not len(sid) == len(start) == len(end) == len(etype_ids):
        raise f.fail("entity columns differ in length")
    if max(etype_ids, default=-1) >= len(etypes):
        raise f.fail(f"etype id {max(etype_ids)} past the {len(etypes)} etypes")
    # Records come in sentence order, each inside its sentence and, in one
    # sentence, starting after the one before ends.
    if not (
        all(map(lt, zip(sid, end), zip(sid[1:], start[1:])))
        and (not sid or sid[-1] < len(lengths))
        and all(map(le, start, end))
        and all(map(lt, end, map(lengths.__getitem__, sid)))
    ):
        raise f.fail("entity records overlap, come out of order or lie outside the corpus")
    f.end()
    entity = EntityIndex(list(map(EntitySpan, sid, start, end, map(etypes.__getitem__, etype_ids))))

    hierarchies: list[HierarchyIndex] = []
    for name, root_label in (("pl.idx", ""), ("pos.idx", TOP)):
        f = open_file(name)
        labels = f.strings()
        label_ids, parents = f.column(), f.column()
        postings = f.postings(range(len(label_ids) + 1), rooted=True)
        if len(parents) != len(label_ids):
            raise f.fail("node columns differ in length")
        if max(label_ids, default=-1) >= len(labels):
            raise f.fail(f"label id {max(label_ids)} past the {len(labels)} labels")
        # Building the hierarchy checks that the node ids are a pre-order
        # and that no two children of a node share a label.
        labels = [root_label, *map(labels.__getitem__, label_ids)]
        hierarchies.append(HierarchyIndex(labels, array(_TYPECODE, [0]) + parents, postings))
        f.end()

    pl, pos = hierarchies
    tokens.pl = pl
    return IndexBundle(word, entity, pl, pos, tokens, fingerprint, doc_ids, doc_starts)


def open_corpus(bundle: IndexBundle) -> Corpus:
    """The corpus the bundle was built from, read from the bundle alone. A
    sentence is built when first read, through the one `Sentence`
    constructor, from its slices of the word, PL and POS columns, its
    heads, and its slice of the entity records, the very objects the entity
    index holds; one whose heads are no tree, or whose derived depths
    differ from the PL column's (the token table's `depth`), raises
    KokoInputError then. A loaded set's column is inflated and checked at
    its first read (`PostingLists.column`). A sentence's words
    (`Corpus.words`) are its slice of the word column alone."""
    t = bundle.tokens
    records = bundle.entity.records
    record_sids = array(_TYPECODE, map(attrgetter("sid"), records))

    def fail(sid: int, what: str) -> KokoInputError:
        return KokoInputError(f"{t.where}: sentence {sid}: {what}")

    def words(sid: int) -> tuple[str, ...]:
        return bundle.word.words(t.starts[sid], t.starts[sid + 1])

    def build(sid: int) -> Sentence:
        a, b = t.starts[sid], t.starts[sid + 1]
        heads = [None if h == NO_HEAD else h for h in t.heads[a:b]]
        lo = bisect_left(record_sids, sid)
        entities = records[lo : bisect_right(record_sids, sid, lo)]
        pos = map(bundle.pos.labels.__getitem__, bundle.pos.postings.column[a:b])
        labels = map(bundle.pl.labels.__getitem__, bundle.pl.postings.column[a:b])
        try:
            s = Sentence(sid, words(sid), pos, labels, heads, entities)
        except ValueError as exc:  # heads that are no tree
            raise KokoInputError(f"{t.where}: {exc}") from None
        if s.depth != tuple(t.depth[a:b]):
            raise fail(sid, "its depths differ from the PL lists'")
        return s

    return Corpus.built_by(build, words, t.lengths, bundle.doc_ids, bundle.doc_starts)
