"""Evidence scoring for satisfying clauses and final result assembly.

A clause's score for a candidate value is the weighted sum of
per-condition confidences. Boolean conditions contribute 0 or 1 no matter
how often they hold; ``near`` contributes the best per-sentence
1/(1+distance); descriptor conditions sum per-sentence confidences over
the document and are clamped into [0, 1] so thresholds keep meaning
across corpora of any size. Evidence is gathered per document; results
from different documents are unioned.

Descriptor confidence per sentence follows
``max_i sum_j match(d_i, c_j)`` over expanded descriptors d_i and
decomposed clauses c_j, where a match requires the descriptor's words in
order (gaps allowed, case-insensitive) and scores k_i * l_j, damped by
1/(1+g) for the token gap g between the candidate and the matched words.

Adjacency, ``near`` and descriptors read one list per value: its
occurrences in the document, each a sentence's sid, its words
(`Corpus.words`: in a corpus opened over an index a slice of the word
column, so evidence builds no `Sentence`) and the value's start tids.
Adjacency compares the words right after or before an occurrence with the
literal's; a descriptor reads only the sentences that hold every word of
one of its expansions. The conditions that depend on the value alone are
worked out once per distinct value of a query. The engine passes a
word-index locator, so only the document's sentences holding the value's
first token are read; the oracle passes none and reads every sentence of
the document. A query with neither a satisfying nor an excluding clause
builds no evaluator and is a projection of its tuples.

Finalize takes one tuple shape from every producer (the engine's offset
join, its nested loop and the oracle): ``(sid, values)``, the values
projected in the order of `projected_names`. The join reads them from the
index; the nested loop and the oracle project their bindings through
`projector` while the sentence is in hand. So finalize reads no sentence
to build a row, and its sort and dedup keys come from the values tuple.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .corpus import Corpus, Sentence
from .normalize import ENTITY, NODE, NormalizedQuery
from .resources import Clause, Expansion, Resources
from .syntax import SatCondition, SatisfyingClause, print_condition
from .textutil import (
    compile_pattern,
    find_token_seq,
    in_order_positions,
    subsequence_positions,
    tokenize_literal,
)

if TYPE_CHECKING:  # annotations only: gsp imports this module
    from .gsp import Bound, CandidateTuple


@dataclass
class ConditionScore:
    index: int
    rendered: str
    weight: float
    m: float
    per_sentence: list[tuple[int, float]] = field(default_factory=list)

    @property
    def contribution(self) -> float:
        return self.weight * self.m


@dataclass
class EvidenceScore:
    value: str
    threshold: float
    conditions: list[ConditionScore]
    total: float
    passed: bool

    def describe(self) -> str:
        lines = [f"value {self.value!r}:"]
        for c in self.conditions:
            lines.append(
                f"  [{c.index}] ({c.rendered}) m={c.m:g} w={c.weight:g} w*m={c.contribution:g}"
            )
            for sid, conf in c.per_sentence:
                lines.append(f"      sid {sid}: {conf:g}")
        lines.append(
            f"  total {self.total:g} vs threshold {self.threshold:g}: "
            + ("pass" if self.passed else "fail")
        )
        return "\n".join(lines) + "\n"


@dataclass(slots=True)
class ResultRow:
    sid: int
    values: dict[str, str]
    scores: dict[str, EvidenceScore]
    passed: bool
    excluded_by: str | None = None

    def key(self) -> tuple:
        return (self.sid, tuple(sorted(self.values.items())), self.passed)

    def to_json(self) -> dict:
        row: dict = {"sid": self.sid, "values": self.values}
        if self.scores:
            row["scores"] = {
                var: {
                    "total": s.total,
                    "threshold": s.threshold,
                    "passed": s.passed,
                    "conditions": [
                        {"condition": c.rendered, "weight": c.weight, "m": c.m}
                        for c in s.conditions
                    ],
                }
                for var, s in self.scores.items()
            }
        return row


def conf_descriptor(expansions: list[Expansion], clauses: list[tuple[list[str], float]]) -> float:
    """Bare descriptor-vs-sentence confidence: max over expansions of the
    sum over clauses of k_i * l_j for in-order occurrences."""
    best = 0.0
    for e in expansions:
        total = 0.0
        for words, l_j in clauses:
            if subsequence_positions(words, list(e.words)) is not None:
                total += e.score * l_j
        best = max(best, total)
    return best


# A query tokenizes the same few literals and values for every row and
# document; each distinct one is worked out once.
@lru_cache(maxsize=65536)
def _tokens(text: str) -> tuple[str, ...]:
    return tuple(tokenize_literal(text))


# locate(word, doc_sids): the sids, in order, of the sentences in the
# document range doc_sids that hold the token word.
Locate = Callable[[str, range], Sequence[int]]

# A value's occurrences in one document: for each sentence holding it, in
# sid order, the sid, the sentence's words and the token ids where the
# value starts.
Occurrences = list[tuple[int, tuple[str, ...], list[int]]]

# The conditions whose confidence depends on the value alone, not on its
# document: one query works each out once per distinct (kind, argument,
# value), in the `QueryMemo` its documents' evaluators share.
_VALUE_ONLY = frozenset({"contains", "mentions", "matches", "in_dict", "similar_to"})


@dataclass
class QueryMemo:
    """What one query works out once, shared by the evaluators of its
    documents: each value-only condition's confidence by (kind, argument,
    value), each sentence's words lowercased with their set by sid, and
    each satisfying clause's conditions rendered by clause index."""

    confidences: dict[tuple[str, str, str], float] = field(default_factory=dict)
    lowered: dict[int, tuple[list[str], set[str]]] = field(default_factory=dict)
    rendered: dict[int, list[str]] = field(default_factory=dict)


class EvidenceEvaluator:
    """Scores clause conditions for candidate values within one document.

    Adjacency, ``near`` and both descriptor sides read the value's
    `Occurrences`, found once per value; no condition reads a `Sentence`,
    so over an index nothing is built. A sentence without the value's
    first token holds no occurrence, so with `locate` only the sentences
    it returns for that token are read. `engine.run_query` passes a
    locator over the word index. `koko.oracle` passes none and reads every
    sentence of `doc_sids`: it stays independent of the index, and the
    differential tests and `koko verify` check the locator against it.
    What does not depend on the document is kept in `memo`, which the
    evaluators of one query's documents share.
    """

    def __init__(
        self,
        corpus: Corpus,
        resources: Resources,
        doc_sids: Sequence[int],
        locate: Locate | None = None,
        memo: QueryMemo | None = None,
    ):
        self.corpus = corpus
        self.resources = resources
        self.doc_sids = doc_sids
        self.locate = locate
        self.memo = QueryMemo() if memo is None else memo
        self._occurrences: dict[str, Occurrences] = {}
        # Each phrase's expansions, lowercased, with the set of their words.
        self._expansions: dict[str, list[tuple[list[str], float, frozenset[str]]]] = {}
        self._score_cache: dict[tuple[int, str], EvidenceScore] = {}

    def _occurrences_of(self, value: str) -> Occurrences:
        found = self._occurrences.get(value)
        if found is None:
            found = self._occurrences[value] = []
            value_toks = _tokens(value)
            if not value_toks:
                return found
            sids = self.doc_sids if self.locate is None else self.locate(value_toks[0], self.doc_sids)
            for sid in sids:
                words = self.corpus.words(sid)
                starts = find_token_seq(words, value_toks)
                if starts:
                    found.append((sid, words, starts))
        return found

    # -- boolean conditions ----------------------------------------------

    def eval_boolean(self, cond: SatCondition, value: str) -> float:
        kind = cond.kind
        if kind == "contains":
            return 1.0 if find_token_seq(_tokens(value), _tokens(cond.arg)) else 0.0
        if kind == "mentions":
            return 1.0 if cond.arg in value else 0.0
        if kind == "matches":
            return 1.0 if compile_pattern(cond.arg).fullmatch(value) else 0.0
        if kind == "in_dict":
            return 1.0 if self.resources.dict_contains(cond.arg, value) else 0.0
        if kind == "followed_by":
            return self._adjacent(value, cond.arg, "after")
        if kind == "preceded_by":
            return self._adjacent(value, cond.arg, "before")
        raise ValueError(f"unknown condition kind {kind!r}")

    def _adjacent(self, value: str, literal: str, side: str) -> float:
        """1.0 when the literal occurs right `side` ("after" or "before") the
        value: the words next to one of its occurrences are the literal's."""
        lit = _tokens(literal)
        if not lit:
            return 0.0
        n, m = len(_tokens(value)), len(lit)
        for _, words, starts in self._occurrences_of(value):
            for v in starts:
                if (words[v + n : v + n + m] if side == "after" else words[max(0, v - m) : v]) == lit:
                    return 1.0
        return 0.0

    # -- near -------------------------------------------------------------

    def eval_near(self, value: str, literal: str) -> tuple[float, list[tuple[int, float]]]:
        """Best per-sentence 1/(1+gap) over the pairs of a value and a
        literal occurrence; gap is the tokens strictly between them, 0
        when they overlap."""
        lit = _tokens(literal)
        n, m = len(_tokens(value)), len(lit)
        per_sentence: list[tuple[int, float]] = []
        for sid, words, starts in self._occurrences_of(value):
            gaps = [max(l - v - n, v - l - m, 0) for l in find_token_seq(words, lit) for v in starts]
            if gaps:
                per_sentence.append((sid, 1.0 / (1.0 + min(gaps))))
        return max((c for _, c in per_sentence), default=0.0), per_sentence

    # -- descriptors --------------------------------------------------------

    def eval_descriptor(
        self, value: str, phrase: str, right_side: bool
    ) -> tuple[float, list[tuple[int, float]]]:
        expansions = self._expansions.get(phrase)
        if expansions is None:
            expansions = self._expansions[phrase] = []
            for e in self.resources.expand(phrase):
                lowered = [w.lower() for w in e.words]
                expansions.append((lowered, e.score, frozenset(lowered)))
        value_len = len(_tokens(value))
        per_sentence: list[tuple[int, float]] = []
        lowered_of = self.memo.lowered
        for sid, words, starts in self._occurrences_of(value):
            seen = lowered_of.get(sid)
            if seen is None:
                lowered = [w.lower() for w in words]
                seen = lowered_of[sid] = (lowered, set(lowered))
            lowered, present = seen
            # A sentence matches an expansion only when it holds all its
            # words; its clauses are not read otherwise.
            if not any(wanted <= present for _, _, wanted in expansions):
                continue
            clause_set = self.resources.decompose(sid, words)
            conf = max(
                _descriptor_conf(lowered, clause_set, expansions, occ, occ + value_len - 1, right_side)
                for occ in starts
            )
            if conf:
                per_sentence.append((sid, conf))
        return min(1.0, sum((c for _, c in per_sentence), 0.0)), per_sentence

    # -- clause scoring ----------------------------------------------------------

    def confidence(self, cond: SatCondition, value: str) -> tuple[float, list[tuple[int, float]]]:
        """The condition's confidence m for the value, and the per-sentence
        confidences it came from (empty for document-level conditions)."""
        kind = cond.kind
        if kind in _VALUE_ONLY:
            key = (kind, cond.arg, value)
            confidences = self.memo.confidences
            m = confidences.get(key)
            if m is None:
                if kind == "similar_to":
                    m = confidences[key] = self.resources.similarity(value, cond.arg)
                else:
                    m = confidences[key] = self.eval_boolean(cond, value)
            return m, []
        if kind == "near":
            return self.eval_near(value, cond.arg)
        if kind in ("desc_right", "desc_left"):
            return self.eval_descriptor(value, cond.arg, right_side=kind == "desc_right")
        return self.eval_boolean(cond, value), []

    def score(self, clause: SatisfyingClause, clause_index: int, value: str) -> EvidenceScore:
        key = (clause_index, value)
        cached = self._score_cache.get(key)
        if cached is not None:
            return cached
        rendered = self.memo.rendered.get(clause_index)
        if rendered is None:
            rendered = self.memo.rendered[clause_index] = [print_condition(wc.condition) for wc in clause.conditions]
        conditions: list[ConditionScore] = []
        total = 0.0
        for i, wc in enumerate(clause.conditions):
            m, per_sentence = self.confidence(wc.condition, value)
            total += wc.weight * m
            conditions.append(ConditionScore(
                index=i,
                rendered=rendered[i],
                weight=wc.weight,
                m=m,
                per_sentence=per_sentence,
            ))
        score = EvidenceScore(
            value=value,
            threshold=clause.threshold,
            conditions=conditions,
            total=total,
            passed=total >= clause.threshold,
        )
        self._score_cache[key] = score
        return score

    def condition_fires(self, cond: SatCondition, value: str) -> bool:
        """Excluding semantics: a condition fires when its confidence > 0."""
        return self.confidence(cond, value)[0] > 0.0


def _descriptor_conf(
    lowered: list[str],
    clause_set: list[Clause],
    expansions: list[tuple[list[str], float, frozenset[str]]],
    occ: int,
    occ_end: int,
    right_side: bool,
) -> float:
    """Best expansion's damped clause matches on one side of the value's
    occurrence occ..occ_end; `lowered` and the expansions' words are
    lowercased."""
    sides = []
    for clause in clause_set:
        if right_side:
            ids = [t for t in clause.token_ids if t > occ_end]
        else:
            ids = [t for t in clause.token_ids if t < occ]
        sides.append((ids, [lowered[t] for t in ids], clause.score))
    best = 0.0
    for words, k, _ in expansions:
        total = 0.0
        for ids, side_words, l in sides:
            if len(ids) < len(words):
                continue
            positions = in_order_positions(side_words, words)
            if positions is None:
                continue
            if right_side:
                gap = ids[positions[0]] - occ_end - 1
            else:
                gap = occ - ids[positions[-1]] - 1
            total += k * l / (1.0 + gap)
        best = max(best, total)
    return best


def apply_excluding(
    evaluator: EvidenceEvaluator, conditions: Sequence[tuple[SatCondition, str]], values: dict[str, str]
) -> str | None:
    """First excluding disjunct that fires for the tuple, or None; the
    disjuncts come with their renderings, made once per query."""
    for cond, rendered in conditions:
        target = values.get(cond.var)
        if target is None:
            continue
        if evaluator.condition_fires(cond, target):
            return rendered
    return None


# A projected tuple: (sid, values), with one value per `projected_names`
# entry, in that order. The engine's offset join, its nested loop and the
# oracle all hand finalize this one shape.
Projected = tuple[int, tuple[str, ...]]


def projected_names(n: NormalizedQuery) -> tuple[str, ...]:
    """The variables finalize reads, in the order of a projected tuple's
    values: the outputs, then the variables of satisfying and excluding
    conditions that are not outputs."""
    q = n.query
    names = dict.fromkeys(name for name, _ in q.outputs)
    names.update(dict.fromkeys(clause.var for clause in q.satisfying))
    names.update(dict.fromkeys(cond.var for cond in q.excluding))
    return tuple(names)


def value_of(sentence: Sentence, bound: Bound, kind: str) -> str:
    if kind == ENTITY and bound.rec is not None:
        return bound.rec.surface
    if kind == NODE:
        return sentence.tokens[bound.tid]
    return sentence.text(bound.start, bound.end)


def projector(n: NormalizedQuery) -> Callable[[Sentence, Sequence[CandidateTuple]], list[Projected]]:
    """project(sentence, tuples): the projected tuples of one sentence's
    candidate tuples, read while the sentence is in hand."""
    specs = tuple((name, n.var(name).kind) for name in projected_names(n))

    def project(sentence: Sentence, tuples: Sequence[CandidateTuple]) -> list[Projected]:
        sid = sentence.sid
        return [
            (sid, tuple([value_of(sentence, t.bindings[name], kind) for name, kind in specs]))
            for t in tuples
        ]

    return project


def finalize_results(
    n: NormalizedQuery,
    tuples: Sequence[Projected],
    corpus: Corpus,
    resources: Resources,
    keep_failed: bool = False,
    locate: Locate | None = None,
) -> list[ResultRow]:
    """Score satisfying clauses, apply the excluding clause and build the
    rows of projected tuples (see `projected_names`). Queries with an
    empty if clause deduplicate by value per document; everything else
    keeps bag semantics. Rows are ordered by sid, then by the output
    values in the order of their sorted names (`ResultRow.key`), and read
    no sentence: values come projected. `locate` is handed to each
    document's `EvidenceEvaluator`; a query with neither a satisfying nor
    an excluding clause makes none, and one that also keeps duplicates
    builds its rows in one pass over its sorted tuples."""
    q = n.query
    names = projected_names(n)
    index = {name: i for i, name in enumerate(names)}
    shown = names[: len(dict.fromkeys(name for name, _ in q.outputs))]
    # A row's sort and dedup key: its output values in the order of their
    # sorted names, which orders rows as `sorted(values.items())` would.
    order = sorted(range(len(shown)), key=shown.__getitem__)
    key_of = None if order == list(range(len(names))) else lambda v: tuple([v[i] for i in order])
    dedup_mode = not q.defs and not q.constraints
    if not q.satisfying and not q.excluding and not dedup_mode:
        # A projection: every tuple is a passing row, in key order.
        ordered = sorted(tuples) if key_of is None else sorted(tuples, key=lambda t: (t[0], key_of(t[1])))
        return [ResultRow(sid, dict(zip(shown, values)), {}, True) for sid, values in ordered]
    clauses = [(ci, clause, index[clause.var]) for ci, clause in enumerate(q.satisfying)]
    excluding = [(cond, print_condition(cond)) for cond in q.excluding]
    evaluator: EvidenceEvaluator | None = None
    memo = QueryMemo()
    rows: list[ResultRow] = []
    keys: list[tuple] = []
    dedup: set[tuple] = set()
    doc_index_of = corpus.doc_index_of

    def evaluator_of(sid: int) -> EvidenceEvaluator:
        # Producers emit tuples in sid order, so a document's evaluator and
        # the occurrences it holds are dropped when the next document starts.
        nonlocal evaluator
        doc_sids = corpus.doc_sids(doc_index_of(sid))
        if evaluator is None or evaluator.doc_sids != doc_sids:
            evaluator = EvidenceEvaluator(corpus, resources, doc_sids, locate, memo)
        return evaluator

    for t in tuples:
        sid, values = t
        key = values if key_of is None else key_of(values)
        if dedup_mode:
            seen = (doc_index_of(sid), key)
            if seen in dedup:
                continue
            dedup.add(seen)
        scores: dict[str, EvidenceScore] = {}
        ok = True
        excluded_by: str | None = None
        for ci, clause, i in clauses:
            score = scores[clause.var] = evaluator_of(sid).score(clause, ci, values[i])
            ok = ok and score.passed
        if ok and excluding:
            excluded_by = apply_excluding(evaluator_of(sid), excluding, dict(zip(names, values)))
            ok = excluded_by is None
        if ok or keep_failed:
            rows.append(ResultRow(sid, dict(zip(shown, values)), scores, ok, excluded_by))
            # A projected tuple whose values are its key is its own sort key.
            keys.append(t if key_of is None else (sid, key))
    return [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]
