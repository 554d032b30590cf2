"""Annotated-corpus data model and the TSV reader/writer.

The corpus is a sequence of documents, each a sequence of sentences whose
tokens carry a POS tag, a dependency parse label, a head link and an
optional IOB2 entity tag. Sentence ids are global across the corpus.

File format (UTF-8, one token per line, tab separated)::

    SID  TID  TEXT  POS  LABEL  HEAD  ETYPE

HEAD is the parent token id or -1 for the root. ETYPE is ``O`` or
``B-<Type>`` / ``I-<Type>``. A blank line ends a sentence and a line of the
form ``# doc_id = <id>`` opens a new document. Other ``#`` lines are
comments and are dropped on read.

A sentence stores each per-token field as a column: a tuple indexed by
token id (``tokens``, ``pos``, ``labels``, ``heads``), and its entity
mentions as spans (``entities``, a tuple of ``EntitySpan``).
``Sentence(sid, tokens, pos, labels, heads, entities)`` is the one way to
build a sentence, whether it comes from the reader, a saved index
(`koko.indexes.open_corpus`, which hands it the entity index's own
records) or a synthetic corpus. Its constructor derives the root and the
depths from the heads, the one tree column the index's token table
stores; a subtree's extent is derived from them where it is read
(`Sentence.extent`). IOB2 tags live only in the file: the reader builds
the spans from them and the writer writes them back from the spans. A
mention is its span: its text is read from its words (`Sentence.text`)
where a value is needed. A sentence keeps no per-token mutable
container: CPython stops tracking a tuple of strs, ints and ``None`` at
its first collection, so a loaded corpus costs the garbage collector
about one object per sentence. Readers that walk the tree
downwards derive the children from ``heads`` (`child_lists`).

The reader is dictionary-encoded: one `parse_corpus` call keeps one
``str`` per distinct token text, POS tag, label and entity type, and
every sentence's columns hold those (Abadi, Madden & Ferreira,
"Integrating Compression and Execution in Column-Oriented Database
Systems", 2006). The table is the call's own, so nothing
outlives the corpus. The text is split into lines a bounded chunk at a
time, and the canonical serialization (`serialize_corpus`) is written,
and hashed (`koko.indexes.corpus_fingerprint`), a document at a time, so
neither holds a second copy of the corpus.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from operator import eq
from typing import Iterable, NamedTuple

from .errors import KokoInputError
from .record import Record


class EntitySpan(NamedTuple):
    """An entity mention: tokens start..end inclusive of sentence sid.
    Sentences and the entity index hold the same records; its text is its
    words' (`Sentence.text(start, end)`)."""

    sid: int
    start: int
    end: int
    etype: str


class Sentence(Record):
    """A sentence's per-token columns, tuples indexed by tid, its entity
    mentions, and what its head links imply, derived when the sentence is
    built: the root and each token's depth (the root's is 0). Columns
    given as other sequences are stored as tuples; a tuple is stored as it
    is, so sentences can share columns, and a sentence built over an index
    holds the entity index's own records.

    Heads that are no tree raise ValueError: no root or more than one, a
    head outside the sentence, or a token that does not reach the root
    (its head links run in a cycle, a token heading itself included),
    whose tid the error's ``tid`` names. So do mentions that carry
    another sid or no type, lie outside the sentence, overlap or come out
    of order.
    """

    # The columns: token texts, POS tags, labels and heads (None on the
    # root); then the mentions, in order. Sentences are equal when their
    # sids, columns and mentions are.
    _fields = ("sid", "tokens", "pos", "labels", "heads", "entities")
    __slots__ = _fields + ("root_tid", "depth")

    def __init__(self, sid: int, tokens: Sequence[str], pos: Sequence[str], labels: Sequence[str],
                 heads: Sequence[int | None], entities: Sequence[EntitySpan]) -> None:
        self.sid = sid
        self.tokens = tuple(tokens)
        self.pos = tuple(pos)
        self.labels = tuple(labels)
        self.heads = heads = tuple(heads)
        self.entities = tuple(entities)
        n = len(self.tokens)
        if not n == len(self.pos) == len(self.labels) == len(heads):
            raise ValueError(f"sentence {sid}: its per-token columns differ in length")
        end = -1
        for e in self.entities:
            if e.sid != sid:
                raise ValueError(f"sentence {sid}: a mention carries sid {e.sid}")
            if not end < e.start <= e.end < n:
                raise ValueError(f"sentence {sid}: mention {e.start}..{e.end} overlaps or precedes the one"
                                 " before or lies outside the sentence")
            if not e.etype:
                raise ValueError(f"sentence {sid}: mention {e.start}..{e.end} has no type")
            end = e.end
        if heads.count(None) != 1:
            raise ValueError(f"sentence {sid}: {heads.count(None)} roots, expected exactly 1")
        root = heads.index(None)
        linked = heads[:root] + heads[root + 1 :]
        if linked and not 0 <= min(linked) <= max(linked) < n:
            raise ValueError(f"sentence {sid}: a head lies outside the sentence")
        children = child_lists(heads)
        depth = [-1] * n
        depth[root] = 0
        # Breadth first from the root: a token that is never reached runs in
        # a cycle.
        order = [root]
        for tid in order:
            below = children[tid]
            if below:
                d = depth[tid] + 1
                for c in below:
                    depth[c] = d
                order += below
        if len(order) != n:
            error = ValueError(f"sentence {sid}: the heads run in a cycle at tid {depth.index(-1)}")
            error.tid = depth.index(-1)  # the first token off the root, for a reader's own message
            raise error
        self.root_tid = root
        self.depth = tuple(depth)

    def __len__(self) -> int:
        return len(self.tokens)

    def text(self, start: int = 0, end: int | None = None) -> str:
        """Detokenized surface text of tokens start..end inclusive."""
        if end is None:
            end = len(self.tokens) - 1
        return detokenize(self.tokens[start : end + 1])

    def extent(self, tid: int) -> tuple[int, int]:
        """The least and the greatest tid of tid's subtree. On a
        non-projective tree the tokens between them need not all lie in
        the subtree."""
        children = child_lists(self.heads)
        below = [tid]
        for t in below:
            below += children[t]
        return min(below), max(below)

    def ancestors(self, tid: int) -> Iterable[int]:
        """Proper ancestors of tid, nearest first."""
        heads = self.heads
        head = heads[tid]
        while head is not None:
            yield head
            head = heads[head]


def child_lists(heads: Sequence[int | None]) -> list[list[int]]:
    """Each token's children, in tid order, from the head links. A new
    list per call: a `Sentence` keeps none."""
    children: list[list[int]] = [[] for _ in heads]
    for tid, head in enumerate(heads):
        if head is not None:
            children[head].append(tid)
    return children


class AnnotatedDocument(Record):
    __slots__ = _fields = ("doc_id", "sentences")

    def __init__(self, doc_id: str, sentences: list[Sentence] | None = None) -> None:
        self.doc_id = doc_id
        self.sentences = [] if sentences is None else sentences


class SentenceList(Sequence):
    """Sentences by sid. In a corpus opened over an index an entry starts
    as None and is built by `build(sid)` the first time it is read."""

    __slots__ = ("_items", "_build")

    def __init__(self, items: list, build: Callable[[int], Sentence] | None = None):
        self._items = items
        self._build = build

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, sid: int) -> Sentence:
        item = self._items[sid]
        if item is None:
            sid = range(len(self._items))[sid]
            item = self._items[sid] = self._build(sid)
        return item


class Corpus:
    """Sentences addressable by sid, their token counts and words, and the
    document table: document i holds the sids from ``doc_starts[i]`` up to
    the next document's start."""

    def __init__(self, documents: list[AnnotatedDocument]):
        sentences: list[Sentence] = []
        doc_ids: list[str] = []
        doc_starts: list[int] = []
        for doc in documents:
            doc_ids.append(doc.doc_id)
            doc_starts.append(len(sentences))
            for s in doc.sentences:
                if s.sid != len(sentences):
                    raise KokoInputError(
                        f"sentence ids must be contiguous from 0; found sid {s.sid} "
                        f"at position {len(sentences)} (doc {doc.doc_id})"
                    )
                sentences.append(s)
        self.sentences = SentenceList(sentences)
        self._words = None
        self.sentence_lengths = [len(s.tokens) for s in sentences]
        self.doc_ids = doc_ids
        self.doc_starts = doc_starts

    @classmethod
    def built_by(
        cls, build: Callable[[int], Sentence], words: Callable[[int], tuple[str, ...]],
        lengths: Sequence[int], doc_ids: list[str], doc_starts: Sequence[int],
    ) -> Corpus:
        """The corpus whose sentence sid is `build(sid)`, called when it is
        first read, and whose sentence sid has the words `words(sid)`, read
        without building the sentence; `lengths` gives every sentence's
        token count."""
        corpus = cls.__new__(cls)
        corpus.sentences = SentenceList([None] * len(lengths), build)
        corpus._words = words
        corpus.sentence_lengths, corpus.doc_ids, corpus.doc_starts = lengths, doc_ids, doc_starts
        return corpus

    def __len__(self) -> int:
        return len(self.sentences)

    def sentence(self, sid: int) -> Sentence:
        return self.sentences[sid]

    def words(self, sid: int) -> tuple[str, ...]:
        """The token texts of sentence sid; a corpus built by `built_by`
        reads them without building the sentence."""
        if self._words is None:
            return self.sentences[sid].tokens
        return self._words(sid)

    def doc_index_of(self, sid: int) -> int:
        return bisect_right(self.doc_starts, sid) - 1

    def doc_sids(self, doc_index: int) -> range:
        nxt = doc_index + 1
        end = self.doc_starts[nxt] if nxt < len(self.doc_starts) else len(self.sentences)
        return range(self.doc_starts[doc_index], end)

    @property
    def token_count(self) -> int:
        return sum(self.sentence_lengths)


# Punctuation that attaches to the previous token when spans are rendered
# back to plain text.
_NO_SPACE_BEFORE = {",", ".", "!", "?", ";", ":", ")", "]", "}", "%", "'s", "n't", "''"}
_NO_SPACE_AFTER = {"(", "[", "{", "``", "$"}


def detokenize(tokens: Iterable[str]) -> str:
    out: list[str] = []
    for tok in tokens:
        if out and tok not in _NO_SPACE_BEFORE and out[-1] not in _NO_SPACE_AFTER:
            out.append(" ")
        out.append(tok)
    return "".join(out)


_DOC_LINE = re.compile(r"#\s*doc_id\s*=\s*(.+?)\s*$")
_CHUNK = 1 << 20  # characters the reader splits into lines at a time


def _lines(text: str) -> Iterator[str]:
    r"""``text.split("\n")``, a chunk of about `_CHUNK` characters at a
    time, each cut at a newline, so no list of every line is held. Not
    `splitlines`, which also splits at U+2028, "\x0c" and the like."""
    start = 0
    while (cut := text.find("\n", start + _CHUNK)) >= 0:
        yield from text[start:cut].split("\n")
        start = cut + 1
    yield from text[start:].split("\n")


def parse_corpus(text: str, origin: str = "<string>") -> list[AnnotatedDocument]:
    docs: list[AnnotatedDocument] = []
    current_doc: AnnotatedDocument | None = None
    rows: list[tuple[int, list[str]]] = []
    strings: dict[str, str] = {}  # each distinct field value, kept once

    def ensure_doc() -> AnnotatedDocument:
        nonlocal current_doc
        if current_doc is None:
            current_doc = AnnotatedDocument(doc_id="doc0")
            docs.append(current_doc)
        return current_doc

    def flush() -> None:
        nonlocal rows
        if rows:
            ensure_doc().sentences.append(_build_sentence(rows, origin, strings))
            rows = []

    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.rstrip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            m = _DOC_LINE.match(line)
            if m:
                flush()
                current_doc = AnnotatedDocument(doc_id=m.group(1))
                docs.append(current_doc)
            continue
        rows.append((lineno, line.split("\t")))
    flush()
    # Validate global sid contiguity through Corpus construction.
    Corpus(docs)
    return docs


def _build_sentence(rows: list[tuple[int, list[str]]], origin: str, strings: dict[str, str]) -> Sentence:
    """The sentence of one block of TSV rows, each (line number, fields),
    its strings replaced by their first occurrences in `strings`.

    The rows are transposed into columns and each check runs down a whole
    column, naming the first row it fails on. So of several faults in one
    sentence the first check reports, in this order: the column count,
    the integer fields, the sid, the token ids, the heads, the entity
    tags, then the number of roots and head cycles."""
    linenos, lines = zip(*rows)
    n = len(lines)

    def fail(tid: int, message: str) -> KokoInputError:
        return KokoInputError(f"{origin}:{linenos[tid]}: {message}")

    widths = list(map(len, lines))
    if widths.count(7) != n:
        tid = next(tid for tid, width in enumerate(widths) if width != 7)
        raise fail(tid, f"expected 7 tab-separated columns, got {widths[tid]}")
    sids, tids, texts, pos, labels, heads, etags = zip(*lines)
    try:
        sids, tids, heads = list(map(int, sids)), list(map(int, tids)), list(map(int, heads))
    except ValueError:
        for tid, cols in enumerate(lines):
            try:
                int(cols[0]), int(cols[1]), int(cols[5])
            except ValueError as exc:
                raise fail(tid, f"non-integer id field: {exc}") from None
    sid = sids[0]
    if sids.count(sid) != n:
        tid = next(tid for tid, row_sid in enumerate(sids) if row_sid != sid)
        raise fail(tid, f"sid changed mid-sentence ({sid} -> {sids[tid]})")
    if tids != list(range(n)):
        tid = next(tid for tid, row_tid in enumerate(tids) if row_tid != tid)
        raise fail(tid, f"token ids must be contiguous from 0, got {tids[tid]}")
    if min(heads) < -1 or max(heads) >= n or any(map(eq, heads, range(n))):
        tid = next(tid for tid, head in enumerate(heads) if head == tid or not -1 <= head < n)
        if heads[tid] == tid:
            raise fail(tid, "token cannot head itself")
        raise fail(tid, f"head {heads[tid]} out of range for sid {sid}")
    # Head -1 marks a root: its label must say so, and its head is None.
    roots = heads.count(-1)
    tid = -1
    for _ in range(roots):
        tid = heads.index(-1, tid + 1)
        if labels[tid] != "root":
            raise fail(tid, f"head -1 requires label 'root', got {labels[tid]!r}")
        heads[tid] = None
    entities: list[EntitySpan] = []
    if etags.count("O") != n:
        for tid, etag in enumerate(etags):
            if etag == "O":
                continue
            iob, etype = etag[:2], etag[2:]
            if iob not in ("B-", "I-") or not etype:
                raise fail(tid, f"entity column must be O, B-<T> or I-<T>, got {etag!r}")
            if iob == "B-":
                entities.append(EntitySpan(sid, tid, tid, strings.setdefault(etype, etype)))
                continue
            last = entities[-1] if entities else None
            if last is None or last.end != tid - 1 or last.etype != etype:
                raise fail(tid, f"I-{etype} tag without a preceding B-/I-{etype} (sid {sid})")
            entities[-1] = EntitySpan(sid, last.start, tid, last.etype)
    # Faults of the whole sentence name its first line.
    if roots != 1:
        raise fail(0, f"sentence {sid} has {roots} roots, expected exactly 1")
    share = strings.setdefault
    texts, pos, labels = (tuple(map(share, column, column)) for column in (texts, pos, labels))
    try:
        return Sentence(sid, texts, pos, labels, heads, entities)
    except ValueError as exc:
        # The one fault of the heads left: a token does not reach the root.
        raise fail(0, f"cyclic head relation at sid {sid}, tid {exc.tid}") from None


def load_corpus(path: str) -> list[AnnotatedDocument]:
    raw = read_corpus_bytes(path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + raw.count(b"\n", 0, exc.start)
        raise KokoInputError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
    del raw  # the text alone is parsed
    return parse_corpus(text, origin=path)


def read_corpus_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise KokoInputError(f"cannot read corpus: {exc}") from None


def serialized_documents(docs: Iterable[AnnotatedDocument]) -> Iterator[str]:
    """The canonical serialization, one document's text at a time: its
    ``# doc_id`` line, then each sentence's rows and a blank line, every
    line ending in a newline."""
    for doc in docs:
        out = [f"# doc_id = {doc.doc_id}"]
        for s in doc.sentences:
            sid = str(s.sid)
            etags = ["O"] * len(s.tokens)
            for e in s.entities:
                etags[e.start : e.end + 1] = [f"B-{e.etype}"] + [f"I-{e.etype}"] * (e.end - e.start)
            for tid, (text, pos, label, head, etag) in enumerate(zip(s.tokens, s.pos, s.labels, s.heads, etags)):
                head = -1 if head is None else head
                out.append("\t".join((sid, str(tid), text, pos, label, str(head), etag)))
            out.append("")
        out.append("")
        yield "\n".join(out)


def serialize_corpus(docs: list[AnnotatedDocument]) -> str:
    """Inverse of parse_corpus up to comments and trailing whitespace."""
    return "".join(serialized_documents(docs))
