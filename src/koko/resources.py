"""Pluggable providers: descriptor expansion, dictionaries, decomposition.

Expansion turns a descriptor phrase into a scored set of alternates, the
original phrase always first at score 1.0. Three providers exist: the
identity (no alternates), a static TSV table, and a word-embedding
provider that swaps content words for their nearest neighbours and scores
each composed phrase as the product of the replaced words' similarities.

Sentence decomposition yields scored clauses with token alignment; the
built-ins are the identity decomposer and a heuristic splitter that cuts
at coordinating conjunctions, semicolons, and commas preceding relative
pronouns. A precomputed clause file (JSON) can stand in for either.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

from .errors import KokoError, KokoResourceError
from .record import Record
from .vocab import STOPWORDS

MAX_EXPANSIONS = 10  # fixed number of expanded terms kept per descriptor


class Expansion(Record):
    __slots__ = _fields = ("words", "score")


class Clause(Record):
    __slots__ = _fields = ("token_ids", "score")

    def __init__(self, token_ids: tuple[int, ...], score: float) -> None:
        self.token_ids = token_ids
        self.score = score


def read_text(path: str, what: str, error: type[KokoError] = KokoResourceError) -> str:
    """The UTF-8 text of a file the query needs. A file that cannot be
    read or decoded raises `error` (a resource error unless given) with a
    message naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"cannot read {what} {path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


class DictionaryStore:
    def __init__(self) -> None:
        self._dicts: dict[str, set[str]] = {}

    def load(self, name: str, path: str) -> None:
        text = read_text(path, f"dictionary {name!r}")
        self._dicts[name] = {line for line in text.split("\n") if line.strip()}

    def add(self, name: str, entries: set[str]) -> None:
        self._dicts[name] = set(entries)

    def contains(self, name: str, value: str) -> bool:
        if name not in self._dicts:
            raise KokoResourceError(f"unknown dictionary {name!r}")
        return value in self._dicts[name]


class WordVectors:
    """Plain-text vectors, one ``word v1 v2 ...`` per line, unit-normalized."""

    def __init__(self, path: str):
        self.vectors: dict[str, list[float]] = {}
        dim = None
        for lineno, line in enumerate(read_text(path, "vectors file").split("\n"), start=1):
            parts = line.split()
            if len(parts) < 2:
                continue
            try:
                vec = [float(x) for x in parts[1:]]
            except ValueError:
                vec = None
            # A nan would make every similarity with the word read as 1.
            if vec is None or not all(map(math.isfinite, vec)):
                raise KokoResourceError(f"{path}:{lineno}: vector components must be finite numbers")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise KokoResourceError(
                    f"{path}:{lineno}: vector has {len(vec)} components, the first one has {dim}"
                )
            norm = math.sqrt(sum(x * x for x in vec))
            if norm > 0:
                vec = [x / norm for x in vec]
            self.vectors[parts[0]] = vec

    def neighbors(self, word: str, k: int) -> list[tuple[str, float]]:
        base = self.vectors.get(word)
        if base is None or k <= 0:
            return []
        scored = []
        for other, vec in self.vectors.items():
            if other == word:
                continue
            scored.append((other, sum(x * y for x, y in zip(base, vec))))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]

    def phrase_vector(self, words: list[str]) -> list[float] | None:
        vecs = [self.vectors[w] for w in words if w in self.vectors]
        if not vecs:
            return None
        dim = len(vecs[0])
        mean = [sum(v[i] for v in vecs) / len(vecs) for i in range(dim)]
        norm = math.sqrt(sum(x * x for x in mean))
        if norm == 0:
            return None
        return [x / norm for x in mean]


def load_expansion_table(path: str) -> dict[str, list[Expansion]]:
    """TSV rows ``descriptor <tab> expansion <tab> score``."""
    table: dict[str, list[Expansion]] = {}
    for lineno, line in enumerate(read_text(path, "expansion table").split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise KokoResourceError(
                f"{path}:{lineno}: expected 3 tab-separated columns, got {len(cols)}"
            )
        try:
            score = float(cols[2])
        except ValueError:
            raise KokoResourceError(f"{path}:{lineno}: expansion score {cols[2]!r} is not a number") from None
        if not 0.0 < score <= 1.0:
            raise KokoResourceError(f"{path}:{lineno}: expansion score must be in (0, 1]")
        table.setdefault(cols[0], []).append(
            Expansion(tuple(cols[1].split()), score)
        )
    return table


class Resources:
    def __init__(self, expansion_table: dict[str, list[Expansion]] | None = None, vectors: WordVectors | None = None,
                 topk: int = 3, dictionaries: DictionaryStore | None = None, decomposer: str = "identity",
                 clause_file: dict[int, list[Clause]] | None = None) -> None:
        self.expansion_table = expansion_table
        self.vectors = vectors
        self.topk = topk
        self.dictionaries = DictionaryStore() if dictionaries is None else dictionaries
        self.decomposer = decomposer  # identity | clauses | file
        self.clause_file = clause_file
        self._expand_cache: dict[str, list[Expansion]] = {}
        self._vector_cache: dict[str, list[float] | None] = {}
        self._decompose_cache: dict[int, list[Clause]] = {}

    # -- descriptor expansion ------------------------------------------------

    def expand(self, phrase: str) -> list[Expansion]:
        cached = self._expand_cache.get(phrase)
        if cached is None:
            cached = self._expand(phrase)
            self._expand_cache[phrase] = cached
        return cached

    def _expand(self, phrase: str) -> list[Expansion]:
        words = tuple(phrase.split())
        identity = Expansion(words, 1.0)
        if self.expansion_table is not None:
            rows = list(self.expansion_table.get(phrase, []))
            rows.sort(key=lambda e: (-e.score, e.words))
            out = [identity] + [e for e in rows if e.words != words]
            return out[: MAX_EXPANSIONS + 1]
        if self.vectors is not None:
            return self._expand_embeddings(words, identity)
        return [identity]

    def _expand_embeddings(self, words: tuple[str, ...], identity: Expansion) -> list[Expansion]:
        options: list[list[tuple[str, float]]] = []
        for w in words:
            if w.lower() in STOPWORDS or w not in self.vectors.vectors:
                options.append([(w, 1.0)])
            else:
                options.append([(w, 1.0)] + self.vectors.neighbors(w, self.topk))
        combos: list[Expansion] = []

        def walk(i: int, acc: list[str], score: float) -> None:
            if i == len(options):
                composed = tuple(acc)
                if composed != words:
                    combos.append(Expansion(composed, score))
                return
            for word, sim in options[i]:
                sim = max(0.0, min(1.0, sim))
                walk(i + 1, acc + [word], score * sim)

        walk(0, [], 1.0)
        combos = [c for c in combos if c.score > 0.0]
        combos.sort(key=lambda e: (-e.score, e.words))
        return [identity] + combos[:MAX_EXPANSIONS]

    # -- phrase similarity -----------------------------------------------------

    def similarity(self, value: str, phrase: str) -> float:
        """How close a candidate string is to a query phrase, in [0, 1]."""
        if self.vectors is not None:
            va = self.vectors.phrase_vector(value.split())
            if phrase not in self._vector_cache:  # the argument's vector, once per phrase
                self._vector_cache[phrase] = self.vectors.phrase_vector(phrase.split())
            vb = self._vector_cache[phrase]
            if va is None or vb is None:
                return 1.0 if value.lower() == phrase.lower() else 0.0
            return max(0.0, min(1.0, sum(x * y for x, y in zip(va, vb))))
        target = tuple(w.lower() for w in value.split())
        best = 1.0 if target == tuple(w.lower() for w in phrase.split()) else 0.0
        for e in self.expand(phrase):
            if tuple(w.lower() for w in e.words) == target:
                best = max(best, e.score)
        return best

    # -- dictionaries ------------------------------------------------------------

    def dict_contains(self, name: str, value: str) -> bool:
        return self.dictionaries.contains(name, value)

    # -- sentence decomposition ----------------------------------------------------

    def decompose(self, sid: int, words: Sequence[str]) -> list[Clause]:
        """The scored clauses of sentence sid, whose token texts,
        lowercased, are `words`."""
        cached = self._decompose_cache.get(sid)
        if cached is None:
            cached = self._decompose(sid, words)
            self._decompose_cache[sid] = cached
        return cached

    def _decompose(self, sid: int, words: Sequence[str]) -> list[Clause]:
        if self.decomposer == "file":
            if self.clause_file is None:
                raise KokoResourceError("decomposer 'file' needs a clause file")
            clauses = self.clause_file.get(sid)
            if clauses is None:
                return [Clause(tuple(range(len(words))), 1.0)]
            if any(not 0 <= t < len(words) for c in clauses for t in c.token_ids):
                raise KokoResourceError(
                    f"clause file: a clause of sentence {sid} names a token "
                    f"outside its {len(words)} tokens"
                )
            return clauses
        if self.decomposer == "clauses":
            return _split_clauses(words)
        return [Clause(tuple(range(len(words))), 1.0)]


_COORDINATORS = {"and", "but", "or", "nor", "so", "yet"}
_RELATIVE_PRONOUNS = {"who", "whom", "whose", "which", "that", "where", "when"}


def _split_clauses(words: Sequence[str]) -> list[Clause]:
    """The runs of tokens between the boundaries, each a clause: a
    coordinator, a semicolon, or a comma before a relative pronoun.
    `words` are lowercased."""
    n = len(words)
    cuts = [
        i for i, w in enumerate(words)
        if w in _COORDINATORS or w == ";" or (w == "," and i + 1 < n and words[i + 1] in _RELATIVE_PRONOUNS)
    ]
    clauses: list[Clause] = []
    start = 0
    for cut in cuts + [n]:
        if cut > start:
            clauses.append(Clause(tuple(range(start, cut)), 1.0))
        start = cut + 1
    return clauses or [Clause(tuple(range(n)), 1.0)]


def _clause(tokens: list, score: object) -> Clause:
    """A clause of a clause file's record: its token ids JSON integers,
    its score a finite number (JSON booleans are neither)."""
    if any(type(t) is not int for t in tokens):
        raise ValueError(f"token ids {tokens!r} are not all integers")
    if type(score) not in (int, float) or not math.isfinite(score):
        raise ValueError(f"score {score!r} is not a finite number")
    return Clause(tuple(tokens), float(score))


def load_clause_file(path: str) -> dict[int, list[Clause]]:
    """JSON Lines: {"sid": n, "clauses": [{"tokens": [...], "score": s}]},
    n a non-negative JSON integer."""
    out: dict[int, list[Clause]] = {}
    for lineno, line in enumerate(read_text(path, "clause file").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            sid = row["sid"]
            if type(sid) is not int or sid < 0:
                raise ValueError(f"sid {sid!r} is not a non-negative integer")
            out[sid] = [_clause(c["tokens"], c.get("score", 1.0)) for c in row["clauses"]]
        except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise KokoResourceError(f"{path}:{lineno}: bad clause record: {exc}") from None
    return out
