"""Evidence scoring for satisfying and excluding clauses.

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

Each satisfying and excluding condition is compiled once per query into a
`Scorer`: its rendering, its literal's tokens, its compiled pattern and,
for a condition that depends on the value alone (`contains`, `mentions`,
`matches`, `in dict`, `similarTo`), each value's confidence once worked
out. A `QueryPlan` holds the scorers and each descriptor phrase's
expansions, lowercased once per query. A sentence's words are lowercased
once per query too, by the evaluator of its document, and the clause
decomposer reads them lowercased.

Scores stay columns until a row is returned (late materialization, as in
Abadi et al., "Materialization Strategies in a Column-Oriented DBMS",
ICDE 2007). For each (document, value) pair a clause records its
`Measures`: each condition's m and the total, added in condition order,
and per-sentence confidences for ``near`` and the descriptors only. Pass,
fail and exclusion are decided on these; `ConditionScore` and
`EvidenceScore` objects are built (`EvidenceEvaluator.score`) only for
the rows `koko.aggregate.finalize_results` returns.

Adjacency, ``near`` and descriptors read one list per value: its
occurrences in the document, each a sentence's sid, its words
(`Corpus.words`: in a corpus opened over an index a slice of the word
column, so evidence builds no `Sentence`) and the value's start tids.
Adjacency compares the words right after or before an occurrence with the
literal's. A descriptor scores an occurrence only when some expansion has
all its words on the side it reads, after the value for ``x [[d]]`` and
before it for ``[[d]] x``; no other occurrence can score, so a sentence
without such an occurrence is neither decomposed nor matched. The engine
passes a word-index locator, so only the document's sentences holding the
value's first token are read; the oracle passes none and reads every
sentence of the document.

This module is imported by the first query with a satisfying or an
excluding clause; a query with neither does not load it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache

from .corpus import Corpus
from .record import Record
from .resources import Clause, Resources
from .syntax import SatCondition, SatisfyingClause, print_condition
from .textutil import compile_pattern, find_token_seq, in_order_positions, tokenize_literal


class ConditionScore(Record):
    __slots__ = _fields = ("index", "rendered", "weight", "m", "per_sentence")

    def __init__(self, index: int, rendered: str, weight: float, m: float,
                 per_sentence: list[tuple[int, float]]) -> None:
        self.index = index
        self.rendered = rendered
        self.weight = weight
        self.m = m
        self.per_sentence = per_sentence

    @property
    def contribution(self) -> float:
        return self.weight * self.m


class EvidenceScore(Record):
    __slots__ = _fields = ("value", "threshold", "conditions", "total", "passed")

    def __init__(self, value: str, threshold: float, conditions: list[ConditionScore], total: float,
                 passed: bool) -> None:
        self.value = value
        self.threshold = threshold
        self.conditions = conditions
        self.total = total
        self.passed = passed

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

# A condition's confidence m for a value, and the per-sentence confidences
# it came from: a list for `near` and the descriptors, None for the others.
Measure = tuple[float, list[tuple[int, float]] | None]

# A clause's measures of one value: its total, and each condition's
# `Measure` in condition order.
Measures = tuple[float, list[Measure]]

# A descriptor phrase's expansions: each one's words, lowercased, its score
# and the set of its words.
Expansions = list[tuple[tuple[str, ...], float, frozenset[str]]]

# A sentence's words lowercased, and the last position of each.
Lowered = tuple[tuple[str, ...], dict[str, int]]

# The conditions whose confidence depends on the value alone, not on its
# document: their `Scorer` works each value out once per query.
_VALUE_ONLY = frozenset({"contains", "mentions", "matches", "in_dict", "similar_to"})


class Scorer:
    """One satisfying or excluding condition, compiled once per query: its
    rendering, its literal's tokens, its compiled pattern, and the
    confidence of each value already worked out when the condition depends
    on the value alone."""

    __slots__ = ("kind", "arg", "rendered", "tokens", "pattern", "values")

    def __init__(self, cond: SatCondition):
        self.kind = cond.kind
        self.arg = cond.arg
        self.rendered = print_condition(cond)
        self.tokens = _tokens(cond.arg)
        self.pattern = compile_pattern(cond.arg) if cond.kind == "matches" else None
        self.values: dict[str, float] = {}


class ClausePlan(Record):
    """A satisfying clause compiled: its conditions' scorers with their
    weights, in condition order."""

    __slots__ = _fields = ("clause", "index", "conditions")


class QueryPlan:
    """What one query works out once, shared by the evaluators of its
    documents: a `Scorer` per distinct condition, a `ClausePlan` per
    satisfying clause by clause index and each descriptor phrase's
    expansions lowercased (`Expansions`)."""

    def __init__(self, resources: Resources):
        self.resources = resources
        self.scorers: dict[SatCondition, Scorer] = {}
        self.clauses: dict[int, ClausePlan] = {}
        self.expansions: dict[str, Expansions] = {}

    def scorer(self, cond: SatCondition) -> Scorer:
        found = self.scorers.get(cond)
        if found is None:
            found = self.scorers[cond] = Scorer(cond)
        return found

    def clause(self, clause: SatisfyingClause, index: int) -> ClausePlan:
        found = self.clauses.get(index)
        if found is None:
            conditions = tuple((self.scorer(wc.condition), wc.weight) for wc in clause.conditions)
            found = self.clauses[index] = ClausePlan(clause, index, conditions)
        return found

    def expansions_of(self, phrase: str) -> Expansions:
        found = self.expansions.get(phrase)
        if found is None:
            # An expansion without words matches no clause: it is dropped.
            found = self.expansions[phrase] = []
            for e in self.resources.expand(phrase):
                words = tuple(w.lower() for w in e.words)
                if words:
                    found.append((words, e.score, frozenset(words)))
        return found


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
    What does not depend on the document is kept in `plan`, which the
    evaluators of one query's documents share; a sentence belongs to one
    document, so its words are lowercased (`Lowered`) here, once per query.
    """

    def __init__(
        self,
        corpus: Corpus,
        resources: Resources,
        doc_sids: Sequence[int],
        locate: Locate | None = None,
        plan: QueryPlan | None = None,
    ):
        self.corpus = corpus
        self.resources = resources
        self.doc_sids = doc_sids
        self.locate = locate
        self.plan = QueryPlan(resources) if plan is None else plan
        self._occurrences: dict[str, Occurrences] = {}
        self.lowered: dict[int, Lowered] = {}
        self._measures: dict[tuple[int, str], Measures] = {}
        self._scores: dict[tuple[int, str], EvidenceScore] = {}

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

    def _lowered_of(self, sid: int, words: Sequence[str]) -> Lowered:
        found = self.lowered.get(sid)
        if found is None:
            lowered = tuple(map(str.lower, words))
            # A later position of a word overwrites an earlier one.
            found = self.lowered[sid] = (lowered, dict(zip(lowered, range(len(lowered)))))
        return found

    # -- conditions ---------------------------------------------------------

    def measure(self, scorer: Scorer, value: str) -> Measure:
        """The condition's confidence m for the value, with the
        per-sentence confidences it came from (see `Measure`)."""
        kind = scorer.kind
        if kind in _VALUE_ONLY:
            m = scorer.values.get(value)
            if m is None:
                m = scorer.values[value] = self._value_confidence(scorer, value)
            return m, None
        if kind == "followed_by" or kind == "preceded_by":
            return self._adjacent(value, scorer.tokens, kind == "followed_by"), None
        if kind == "near":
            return self.eval_near(value, scorer.arg)
        if kind == "desc_right" or kind == "desc_left":
            return self.eval_descriptor(value, scorer.arg, kind == "desc_right")
        raise ValueError(f"unknown condition kind {kind!r}")

    def _value_confidence(self, scorer: Scorer, value: str) -> float:
        kind = scorer.kind
        if kind == "contains":
            return 1.0 if find_token_seq(_tokens(value), scorer.tokens) else 0.0
        if kind == "mentions":
            return 1.0 if scorer.arg in value else 0.0
        if kind == "matches":
            return 1.0 if scorer.pattern.fullmatch(value) else 0.0
        if kind == "in_dict":
            return 1.0 if self.resources.dict_contains(scorer.arg, value) else 0.0
        return self.resources.similarity(value, scorer.arg)

    def _adjacent(self, value: str, lit: tuple[str, ...], after: bool) -> float:
        """1.0 when the literal's tokens `lit` occur right after (or
        before) the value: the words next to one of its occurrences are
        the literal's."""
        if not lit:
            return 0.0
        n, m = len(_tokens(value)), len(lit)
        for _, words, starts in self._occurrences_of(value):
            for v in starts:
                if (words[v + n : v + n + m] if after else words[max(0, v - m) : v]) == lit:
                    return 1.0
        return 0.0

    def eval_near(self, value: str, literal: str) -> tuple[float, list[tuple[int, float]]]:
        """Best per-sentence 1/(1+gap) over the pairs of a value and a
        literal occurrence; gap is the tokens strictly between them, 0
        when they overlap."""
        lit = _tokens(literal)
        n, m = len(_tokens(value)), len(lit)
        per_sentence: list[tuple[int, float]] = []
        for sid, words, starts in self._occurrences_of(value):
            found = find_token_seq(words, lit)
            if found:
                gap = min([max(l - v - n, v - l - m, 0) for l in found for v in starts])
                per_sentence.append((sid, 1.0 / (1.0 + gap)))
        return max([c for _, c in per_sentence]) if per_sentence else 0.0, per_sentence

    def eval_descriptor(
        self, value: str, phrase: str, right_side: bool
    ) -> tuple[float, list[tuple[int, float]]]:
        expansions = self.plan.expansions_of(phrase)
        value_len = len(_tokens(value))
        per_sentence: list[tuple[int, float]] = []
        for sid, words, starts in self._occurrences_of(value):
            lowered, last = self._lowered_of(sid, words)
            # Of the expansions whose words the sentence holds, how far
            # each reaches: the first position of its words' last
            # occurrences on the right, the last of their first ones on
            # the left. An expansion can match a clause on the side read
            # only when its reach lies there.
            present = last.keys()
            if right_side:
                reaches = [(min(map(last.__getitem__, e[0])), e) for e in expansions if e[2] <= present]
            else:
                reaches = [(max(map(lowered.index, e[0])), e) for e in expansions if e[2] <= present]
            if not reaches:
                continue
            clause_set = None
            conf = 0.0
            for occ in starts:
                occ_end = occ + value_len - 1
                if right_side:
                    live = [e for reach, e in reaches if reach > occ_end]
                else:
                    live = [e for reach, e in reaches if reach < occ]
                if live:
                    if clause_set is None:
                        clause_set = self.resources.decompose(sid, lowered)
                    conf = max(conf, _descriptor_conf(lowered, clause_set, live, occ, occ_end, right_side))
            if conf:
                per_sentence.append((sid, conf))
        if not per_sentence:
            return 0.0, per_sentence
        return min(1.0, sum([c for _, c in per_sentence], 0.0)), per_sentence

    # -- clause scoring ----------------------------------------------------------

    def measures(self, clause: ClausePlan, value: str) -> Measures:
        """The clause's `Measures` of the value, worked out once per
        document; the total adds w * m in condition order."""
        key = (clause.index, value)
        found = self._measures.get(key)
        if found is None:
            measured = [self.measure(scorer, value) for scorer, _ in clause.conditions]
            total = 0.0
            for (_, weight), (m, _) in zip(clause.conditions, measured):
                total += weight * m
            found = self._measures[key] = (total, measured)
        return found

    def score(self, clause: SatisfyingClause, clause_index: int, value: str) -> EvidenceScore:
        """The clause's score of the value as objects, built once per
        document from its `Measures`."""
        key = (clause_index, value)
        found = self._scores.get(key)
        if found is None:
            plan = self.plan.clause(clause, clause_index)
            total, measured = self.measures(plan, value)
            conditions = [
                ConditionScore(i, scorer.rendered, weight, m, [] if sentences is None else sentences)
                for i, ((scorer, weight), (m, sentences)) in enumerate(zip(plan.conditions, measured))
            ]
            found = self._scores[key] = EvidenceScore(
                value, clause.threshold, conditions, total, total >= clause.threshold
            )
        return found


def _descriptor_conf(
    lowered: tuple[str, ...],
    clause_set: list[Clause],
    expansions: Expansions,
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
