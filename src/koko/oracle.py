"""Index-free reference evaluator.

Ground truth for the equivalence tests: per sentence it enumerates node
bindings by walking the dependency tree top-down from the root, span
bindings by exhaustive enumeration, checks every constraint literally and
hands the surviving tuples, projected onto their values by the engine's
helper (`aggregate.projector`), to the same aggregation formulas the
engine uses. It deliberately shares no matching code with the index
pipeline or the plan executor; only the corpus model and the aggregation
stage are common. Runtime is quadratic per sentence and only fit for
desk-scale corpora (a few thousand sentences).
"""

from __future__ import annotations

from .aggregate import Projected, ResultRow, finalize_results, projector
from .corpus import Corpus, Sentence, child_lists
from .gsp import Bound, CandidateTuple
from .normalize import (
    ANY_ENTITY, COMPOSITE, ENTITY, NODE, SUBTREE, WORDSEQ, NormalizedQuery, NormVar, dedupe_hidden, normalize,
)
from .resources import Resources
from .syntax import Query, Step
from .textutil import full_match
from .vocab import PARSE_LABELS, POS_TAGS


def _step_ok(s: Sentence, tid: int, step: Step) -> bool:
    text = s.tokens[tid]
    if step.kind == "word" and text != step.label:
        return False
    if step.kind == "name":
        if step.label in PARSE_LABELS:
            if s.labels[tid] != step.label:
                return False
        elif step.label in POS_TAGS:
            if s.pos[tid] != step.label:
                return False
        else:
            return False
    for cond in step.conditions:
        value = cond.value
        if cond.key == "pos" and s.pos[tid] != value:
            return False
        if cond.key == "text" and text != value:
            return False
        if cond.key == "etype" and not any(
            e.start <= tid <= e.end and e.etype == value for e in s.entities
        ):
            return False
        if cond.key == "regex" and not full_match(value, text):
            return False
    return True


def _descendants(children: list[list[int]], tid: int) -> list[int]:
    out: list[int] = []
    stack = list(children[tid])
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(children[t])
    return out


def match_path_tokens(s: Sentence, steps: tuple[Step, ...]) -> list[int]:
    """Tokens whose root-anchored downward walk realizes every step."""
    children = child_lists(s.heads)
    frontier: list[int] | None = None  # None marks the virtual anchor
    for step in steps:
        if frontier is None:
            pool = [s.root_tid] if step.axis == "/" else list(range(len(s)))
        else:
            pool = []
            for t in frontier:
                pool.extend(children[t] if step.axis == "/" else _descendants(children, t))
        frontier = sorted({t for t in pool if _step_ok(s, t, step)})
        if not frontier:
            return []
    return frontier or []


def _subtree_span(s: Sentence, tid: int) -> tuple[int, int]:
    tids = [tid] + _descendants(child_lists(s.heads), tid)
    return min(tids), max(tids)


def _is_ancestor(s: Sentence, a: int, b: int) -> bool:
    head = s.heads[b]
    while head is not None:
        if head == a:
            return True
        head = s.heads[head]
    return False


class _SentenceOracle:
    def __init__(self, n: NormalizedQuery, s: Sentence):
        self.n = n
        self.s = s
        self.tuples: list[CandidateTuple] = []

    def run(self) -> list[CandidateTuple]:
        n, s = self.n, self.s
        enumerable: list[NormVar] = []
        candidates: dict[str, list[Bound]] = {}
        for var in n.variables.values():
            if var.kind in (SUBTREE, COMPOSITE):
                continue
            cands = self._candidates(var)
            if not cands:
                return []
            enumerable.append(var)
            candidates[var.name] = cands
        checks = self._schedule(enumerable)
        self._loop(0, enumerable, candidates, {}, checks)
        return self.tuples

    def _candidates(self, var: NormVar) -> list[Bound]:
        s = self.s
        if var.kind == NODE:
            return [Bound(t, t, t) for t in match_path_tokens(s, var.path.steps)]
        if var.kind == ENTITY:
            return [
                Bound(e.start, e.end)
                for e in s.entities
                if var.etype == ANY_ENTITY or e.etype == var.etype
            ]
        if var.kind == WORDSEQ:
            k = len(var.tokens)
            words = s.tokens
            return [
                Bound(i, i + k - 1)
                for i in range(len(words) - k + 1)
                if tuple(words[i : i + k]) == var.tokens
            ]
        # Elastic: all spans plus the empty span at every position.
        out = [Bound(i, i - 1) for i in range(len(s) + 1)]
        out.extend(
            Bound(i, j) for i in range(len(s)) for j in range(i, len(s))
        )
        return [b for b in out if self._elastic_ok(var, b)]

    def _elastic_ok(self, var: NormVar, b: Bound) -> bool:
        e = var.elastic
        length = max(0, b.end - b.start + 1)
        if e.min_tokens is not None and length < e.min_tokens:
            return False
        if e.max_tokens is not None and length > e.max_tokens:
            return False
        if e.etype is not None and not any(
            ent.start == b.start and ent.end == b.end
            and (e.etype == ANY_ENTITY or ent.etype == e.etype)
            for ent in self.s.entities
        ):
            return False
        if e.regex is not None:
            text = self.s.text(b.start, b.end) if length else ""
            if not full_match(e.regex, text):
                return False
        return True

    def _schedule(self, enumerable: list[NormVar]):
        """For each loop level: derivations and constraints ready there."""
        n = self.n
        order = [v.name for v in enumerable]
        derived = [v for v in n.variables.values() if v.kind in (SUBTREE, COMPOSITE)]
        levels: list[tuple[list[NormVar], list]] = []
        bound: set[str] = set()
        pending = list(n.constraints)
        remaining = list(derived)
        for name in order:
            bound.add(name)
            level_derived: list[NormVar] = []
            moved = True
            while moved:
                moved = False
                for var in list(remaining):
                    needs = {var.of} if var.kind == SUBTREE else set(var.atoms)
                    if needs <= bound:
                        level_derived.append(var)
                        bound.add(var.name)
                        remaining.remove(var)
                        moved = True
            ready = [c for c in pending if {c.a, c.b} <= bound]
            for c in ready:
                pending.remove(c)
            levels.append((level_derived, ready))
        return levels

    def _derive(self, var: NormVar, env: dict[str, Bound]) -> Bound:
        if var.kind == SUBTREE:
            left, right = _subtree_span(self.s, env[var.of].tid)
            return Bound(left, right)
        first = env[var.atoms[0]]
        last = env[var.atoms[-1]]
        return Bound(first.start, last.end)

    def _holds(self, kind: str, a: Bound, b: Bound) -> bool:
        if kind == "parentOf":
            return (
                a.tid is not None and b.tid is not None
                and self.s.heads[b.tid] == a.tid
            )
        if kind == "ancestorOf":
            return a.tid is not None and b.tid is not None and _is_ancestor(self.s, a.tid, b.tid)
        if kind == "leftOf":
            return a.end + 1 == b.start
        if kind == "in":
            return b.start <= a.start and a.end <= b.end and a.start <= a.end
        return (a.start, a.end) == (b.start, b.end)

    def _loop(self, i, enumerable, candidates, env, levels) -> None:
        if i == len(enumerable):
            self.tuples.append(CandidateTuple(self.s.sid, dict(env)))
            return
        var = enumerable[i]
        level_derived, checks = levels[i]
        for cand in candidates[var.name]:
            env[var.name] = cand
            ok = True
            for d in level_derived:
                env[d.name] = self._derive(d, env)
            for c in checks:
                if not self._holds(c.kind, env[c.a], env[c.b]):
                    ok = False
                    break
            if ok:
                self._loop(i + 1, enumerable, candidates, env, levels)
            for d in level_derived:
                env.pop(d.name, None)
        env.pop(var.name, None)


def oracle_tuples(n: NormalizedQuery, corpus: Corpus) -> list[Projected]:
    """Every sentence's tuples, projected as the engine's are."""
    project = projector(n)
    out: list[Projected] = []
    for s in corpus.sentences:
        out += project(s, dedupe_hidden(n, _SentenceOracle(n, s).run()))
    return out


def oracle_evaluate(
    q: Query | NormalizedQuery,
    corpus: Corpus,
    resources: Resources | None = None,
    keep_failed: bool = False,
) -> list[ResultRow]:
    n = normalize(q)
    resources = resources if resources is not None else Resources()
    tuples = oracle_tuples(n, corpus)
    return finalize_results(n, tuples, corpus, resources, keep_failed=keep_failed)
