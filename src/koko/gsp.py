"""Per-sentence plan generation and nested-loop evaluation.

For every horizontal condition the planner greedily marks expensive
variables as skipped (highest estimated cost first) as long as neither
horizontal neighbour is already skipped; elastic variables sitting at a
condition boundary are never skipped because nothing pins their far edge.
Skipped variables are later derived from the token gap between their
bound neighbours instead of being enumerated.

A plan depends on a sentence only through the cost ranking of each
condition's atoms, and a query's candidate sentences share a handful of
rankings. So plans are memoized on the ranking, and each distinct plan is
compiled once per query into a `CompiledPlan`: the op script of the
nested loop, whose ops take the sentence and the bindings so far as
arguments. Running it on a sentence only enumerates, derives and emits.

The degenerate plan is one enumeration op and no check op: a query with
one variable that the index answers exactly (`direct_binding`). Its
candidates are its tuples, so `run_direct` emits them in one pass over
the binding's candidate offsets, each value read from the index, with no
plan per sentence, no compiled loop, no `CandidateTuple` and no
`Sentence`.

An enumerated variable's candidates in a sentence are the slice of its
binding's sorted offsets that `BindingTable.bounds` finds by bisection.

Every surviving combination is validated against the real dependency
tree: each node variable's full path is re-checked by walking head links,
and all derived constraints (parentOf, ancestorOf, leftOf, in, eq) plus
elastic conditions are enforced. Index candidates are complete but not
exact, so these checks are what makes the final answer sound. The one
exception is a node variable enumerated from an exact binding (see
`dpli.DecomposedPath.exact`), whose candidates are its path's matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import Callable, NamedTuple

from .corpus import Corpus, Sentence, detokenize
from .dpli import BindingTable, VarBinding
from .indexes import IndexBundle
from .normalize import (
    ANY_ENTITY,
    COMPOSITE,
    ELASTIC,
    ENTITY,
    NODE,
    SUBTREE,
    WORDSEQ,
    NormalizedQuery,
    NormVar,
    dedupe_hidden,
)
from .syntax import Step
from .textutil import full_match
from .vocab import PL, POS, classify_label


class Bound(NamedTuple):
    """A runtime binding: inclusive span, token id for node vars, record."""

    start: int
    end: int  # end < start encodes the empty span at position start
    tid: int | None = None
    rec: object = None


@dataclass
class SkipPlan:
    per_condition: dict[int, list[str]] = field(default_factory=dict)

    @property
    def skipped(self) -> set[str]:
        out: set[str] = set()
        for names in self.per_condition.values():
            out.update(names)
        return out

    @cached_property
    def key(self) -> tuple:
        """Equal for plans that compile to the same script. Read once a
        plan is complete: it is not recomputed."""
        return tuple(
            sorted((ci, tuple(sorted(names))) for ci, names in self.per_condition.items() if names)
        )


@dataclass(slots=True)
class EvalStats:
    loop_iterations: int = 0
    tuples: int = 0
    checks: int = 0  # check ops run: paths, constraints, elastic conditions

    def add(self, other: EvalStats) -> None:
        self.loop_iterations += other.loop_iterations
        self.tuples += other.tuples
        self.checks += other.checks


@dataclass
class CandidateTuple:
    sid: int
    bindings: dict[str, Bound]


def estimate_cost(var_name: str, sid: int, table: BindingTable, sentence_len: int) -> int:
    """Bindings to iterate for one variable in one sentence.

    Elastic variables cost t(t+1)/2 spans; everything else costs its
    candidate count, with subtree aliases priced as their base variable.
    """
    var = table.bindings[var_name].var
    if var.kind == ELASTIC:
        return sentence_len * (sentence_len + 1) // 2
    if var.kind == COMPOSITE:
        return 0
    lo, hi = table.bounds(var.of if var.kind == SUBTREE else var_name, sid)
    return hi - lo


def generate_skip_plan(
    n: NormalizedQuery,
    table: BindingTable,
    sid: int,
    sentence_len: int,
    memo: dict[tuple, SkipPlan] | None = None,
) -> SkipPlan:
    """The skip plan of one sentence. It depends only on how each
    condition ranks its atoms by cost; with a `memo` dict (one per query
    and binding table) every sentence with the same rankings gets the same
    SkipPlan object."""
    rankings = []
    for cond in n.horizontal:
        atoms = cond.atoms
        if len(atoms) < 2 or len(set(atoms)) != len(atoms):
            rankings.append(())
            continue
        costs = {v: estimate_cost(v, sid, table, sentence_len) for v in atoms}
        rankings.append(tuple(sorted(atoms, key=lambda v: (-costs[v], n.var(v).def_index))))
    key = tuple(rankings)
    plan = memo.get(key) if memo is not None else None
    if plan is None:
        plan = _plan_for_rankings(n, key)
        if memo is not None:
            memo[key] = plan
    return plan


def _plan_for_rankings(n: NormalizedQuery, rankings: tuple[tuple[str, ...], ...]) -> SkipPlan:
    plan = SkipPlan()
    for ci, (cond, ranked) in enumerate(zip(n.horizontal, rankings)):
        atoms = list(cond.atoms)
        chosen: list[str] = []
        for v in ranked:
            i = atoms.index(v)
            left = atoms[i - 1] if i > 0 else None
            right = atoms[i + 1] if i + 1 < len(atoms) else None
            if n.var(v).kind == ELASTIC and (left is None or right is None):
                continue
            if (left is None or left not in chosen) and (right is None or right not in chosen):
                chosen.append(v)
        if chosen:
            plan.per_condition[ci] = chosen
    # A variable shared between conditions must stay enumerable if skipping
    # it would place two adjacent skips somewhere.
    skipped = plan.skipped
    for cond in n.horizontal:
        for a, b in zip(cond.atoms, cond.atoms[1:]):
            if a in skipped and b in skipped:
                for names in plan.per_condition.values():
                    if b in names:
                        names.remove(b)
                skipped = plan.skipped
    return plan


# ---------------------------------------------------------------------------
# The degenerate plan: one enumeration op and no check op


def direct_binding(n: NormalizedQuery, table: BindingTable) -> VarBinding | None:
    """The binding of the query's one variable when its plan is a single
    enumeration op with no check op, else None.

    That is a query with one variable, which is then its only output, no
    constraint and no horizontal condition, whose variable the index
    answers exactly: an exact node path (`VarBinding.exact`), a literal
    word sequence or an entity. Its candidates are its tuples.
    """
    if len(n.variables) != 1 or n.constraints or n.horizontal:
        return None
    (vb,) = table.bindings.values()
    var = vb.var
    if var.hidden or vb.derived_from is not None or not vb.index_bound:
        return None
    if var.kind == NODE:
        return vb if vb.exact else None
    return vb if var.kind in (WORDSEQ, ENTITY) else None


def run_direct(vb: VarBinding, bundle: IndexBundle, stats: EvalStats) -> list[tuple[int, tuple[str]]]:
    """A direct plan's tuples, projected (see `aggregate.projected_names`),
    one per candidate offset, in the order the nested loop would emit
    them, read from the index alone: a node's value is the word at its
    offset (`WordIndex.texts`), a literal's its own words detokenized,
    which every occurrence repeats, and an entity's its record's surface.
    No sentence is built. `stats` gets the nested loop's counts: one
    iteration and one tuple per candidate, no check."""
    offsets = vb.offsets
    kind = vb.var.kind
    if kind == ENTITY:
        values = map(attrgetter("surface"), vb.records)
    elif kind == WORDSEQ:
        values = repeat(detokenize(vb.var.tokens), len(offsets))
    else:
        values = map(bundle.word.texts().__getitem__, offsets)
    out = list(zip(map(bundle.tokens.sid_of.__getitem__, offsets), zip(values)))
    stats.loop_iterations += len(out)
    stats.tuples += len(out)
    return out


# ---------------------------------------------------------------------------
# Path validation against the real tree


def _token_matches_step(s: Sentence, tid: int, step: Step) -> bool:
    text = s.tokens[tid]
    if step.kind == "word":
        if text != step.label:
            return False
    elif step.kind == "name":
        side = classify_label(step.label)
        if side == PL:
            if s.labels[tid] != step.label:
                return False
        elif side == POS:
            if s.pos[tid] != step.label:
                return False
        else:
            return False
    for cond in step.conditions:
        if cond.key == "pos" and s.pos[tid] != cond.value:
            return False
        if cond.key == "text" and text != cond.value:
            return False
        if cond.key == "etype" and s.etypes[tid] != cond.value:
            return False
        if cond.key == "regex" and not full_match(cond.value, text):
            return False
    return True


def matches_path(s: Sentence, tid: int, steps: tuple[Step, ...]) -> bool:
    """True when the token's real ancestor chain realizes the path."""
    return _match_upward(s, tid, steps, len(steps) - 1)


def _match_upward(s: Sentence, tid: int, steps: tuple[Step, ...], i: int) -> bool:
    if not _token_matches_step(s, tid, steps[i]):
        return False
    axis = steps[i].axis
    if i == 0:
        if axis == "/":
            return s.heads[tid] is None
        return True
    head = s.heads[tid]
    if axis == "/":
        return head is not None and _match_upward(s, head, steps, i - 1)
    while head is not None:
        if _match_upward(s, head, steps, i - 1):
            return True
        head = s.heads[head]
    return False


def _check_elastic(var: NormVar, s: Sentence, start: int, end: int) -> bool:
    e = var.elastic
    length = max(0, end - start + 1)
    if e.min_tokens is not None and length < e.min_tokens:
        return False
    if e.max_tokens is not None and length > e.max_tokens:
        return False
    if e.etype is not None:
        if not any(
            ent.start == start and ent.end == end
            and (e.etype == ANY_ENTITY or ent.etype == e.etype)
            for ent in s.entities
        ):
            return False
    if e.regex is not None:
        text = s.text(start, end) if length else ""
        if not full_match(e.regex, text):
            return False
    return True


# ---------------------------------------------------------------------------
# Per-sentence evaluation

# An op is (variable name, fn, enumerated) or (None, check, False).
# fn(sentence, env) returns the bindings to loop the variable over: its
# candidates when it is enumerated, which depend on the sentence only, its
# alignment when it is derived. check(sentence, env) passes or rejects the
# bindings made so far.
Op = tuple[str | None, Callable[[Sentence, dict[str, Bound]], object], bool]


class CompiledPlan:
    """The nested loop of one query under one skip plan.

    Built once and run on every sentence the plan was chosen for: the op
    script, the checks and each skipped variable's neighbours depend on
    the query, its binding table and the plan only, and every op takes
    the sentence and the bindings so far as arguments. No op refers to
    the plan itself: a plan holding ops that hold it would be a cycle,
    which keeps the binding table until the garbage collector runs.
    """

    def __init__(self, n: NormalizedQuery, table: BindingTable, plan: SkipPlan):
        self.n = n
        self.table = table
        self.plan = plan
        self.neighbors = {name: self._find_neighbors(name) for name in n.variables}
        self.has_hidden = any(v.hidden for v in n.variables.values())
        self.ops: list[Op] = []
        self._build_script()

    def _find_neighbors(self, name: str) -> tuple[str | None, str | None]:
        conditions = list(self.n.horizontal)
        # A skipped variable aligns within the condition that skipped it.
        for ci, names in self.plan.per_condition.items():
            if name in names:
                conditions = [self.n.horizontal[ci]]
                break
        for cond in conditions:
            atoms = list(cond.atoms)
            if name in atoms:
                i = atoms.index(name)
                return (
                    atoms[i - 1] if i > 0 else None,
                    atoms[i + 1] if i + 1 < len(atoms) else None,
                )
        return (None, None)

    # -- candidate lists ----------------------------------------------------

    def _enumerator(self, var: NormVar) -> Callable[[Sentence, dict], list[Bound]]:
        vb = self.table.bindings[var.name]
        tids, bounds = self.table.tids, self.table.bounds
        if var.kind == NODE:
            if vb.derived_from is not None:
                return self._dominated_enumerator(vb)
            return lambda s, env: [Bound(t, t, t) for t in tids(var.name, s.sid)]
        if var.kind == ENTITY:
            records = vb.records

            def entities(s: Sentence, env: dict) -> list[Bound]:
                lo, hi = bounds(var.name, s.sid)
                return [Bound(r.start, r.end, None, r) for r in records[lo:hi]]

            return entities
        if var.kind == WORDSEQ:
            last = len(var.tokens) - 1
            return lambda s, env: [Bound(t, t + last) for t in tids(var.name, s.sid)]

        def spans(s: Sentence, env: dict) -> list[Bound]:
            assert var.kind == ELASTIC, f"{var.name} ({var.kind}) cannot be enumerated"
            # Every span of the sentence, empty gaps included.
            t = len(s)
            out = [Bound(start, start - 1) for start in range(t + 1)]
            for start in range(t):
                for end in range(start, t):
                    out.append(Bound(start, end))
            return out

        return spans

    def _dominated_enumerator(self, vb: VarBinding) -> Callable[[Sentence, dict], list[Bound]]:
        """Ancestors, at the right distance, of the dominant's candidates."""
        tail = self.n.var(vb.derived_from).path.steps[vb.prefix_len :]
        dmin = len(tail)
        bounded = all(st.axis == "/" for st in tail)
        dominant_tids = self.table.tids

        def candidates(s: Sentence, env: dict) -> list[Bound]:
            heads = s.heads
            tids: set[int] = set()
            for cur in dominant_tids(vb.derived_from, s.sid):
                dist = 0
                while True:
                    head = heads[cur]
                    if head is None:
                        break
                    cur = head
                    dist += 1
                    if dist >= dmin:
                        tids.add(cur)
                        if bounded and dist == dmin:
                            break
            return [Bound(t, t, t) for t in sorted(tids)]

        return candidates

    # -- derivations ----------------------------------------------------------

    def _deriver(self, var: NormVar) -> Callable[[Sentence, dict], list[Bound]]:
        if var.kind == SUBTREE:
            of = var.of

            def subtree(s: Sentence, env: dict) -> list[Bound]:
                tid = env[of].tid
                return [Bound(s.left[tid], s.right[tid])]

            return subtree
        if var.kind == COMPOSITE:
            first, last = var.atoms[0], var.atoms[-1]
            return lambda s, env: [Bound(env[first].start, env[last].end)]
        # Skipped variable: aligned to the gap between bound neighbours. The
        # script derives it only once every neighbour it has is bound.
        left, right = self.neighbors[var.name]
        if left is not None and right is not None:
            return lambda s, env: _materialize(var, s, env[left].end + 1, env[right].start - 1, True)
        if left is not None:
            return lambda s, env: _materialize(var, s, env[left].end + 1, None, False)
        return lambda s, env: _materialize(var, s, None, env[right].start - 1, False)

    # -- script -----------------------------------------------------------------

    def _build_script(self) -> None:
        n = self.n
        skipped = self.plan.skipped
        bound: set[str] = set()
        pending_checks = [({c.a, c.b}, _constraint_check(c.kind, c.a, c.b)) for c in n.constraints]

        def on_bound(name: str, enumerated: bool) -> None:
            bound.add(name)
            var = n.var(name)
            check = _bind_check(var)
            # Node paths are re-validated unless enumerated from an exact
            # binding; elastic conditions only need a check op when
            # enumerated (derivation checks inline).
            if var.kind == NODE:
                needed = not (enumerated and self.table.bindings[name].exact)
            else:
                needed = enumerated
            if check is not None and needed:
                self.ops.append((None, check, False))
            for entry in list(pending_checks):
                needs, fn = entry
                if needs <= bound:
                    self.ops.append((None, fn, False))
                    pending_checks.remove(entry)

        def derivable(name: str) -> bool:
            var = n.var(name)
            if var.kind == SUBTREE:
                return var.of in bound
            if var.kind == COMPOSITE:
                return all(a in bound for a in var.atoms)
            present = [x for x in self.neighbors[name] if x is not None]
            return bool(present) and all(x in bound for x in present)

        def add_loop(name: str, fn: Callable, enumerated: bool) -> None:
            self.ops.append((name, fn, enumerated))
            on_bound(name, enumerated)

        derived_kinds = {SUBTREE, COMPOSITE}
        to_enumerate = [
            v.name
            for v in n.variables.values()
            if v.kind not in derived_kinds and v.name not in skipped
        ]
        to_derive = {
            v.name
            for v in n.variables.values()
            if v.kind in derived_kinds or v.name in skipped
        }
        queue = list(to_enumerate)
        while queue or to_derive:
            moved = True
            while moved:
                moved = False
                for name in sorted(to_derive, key=lambda x: n.var(x).def_index):
                    if derivable(name):
                        to_derive.discard(name)
                        add_loop(name, self._deriver(n.var(name)), False)
                        moved = True
                        break
            if queue:
                name = queue.pop(0)
                add_loop(name, self._enumerator(n.var(name)), True)
            elif to_derive:
                # Underivable leftovers (no horizontal context): enumerate.
                name = sorted(to_derive, key=lambda x: n.var(x).def_index)[0]
                to_derive.discard(name)
                add_loop(name, self._enumerator(n.var(name)), True)

    # -- execution ----------------------------------------------------------------

    def run(self, s: Sentence, stats: EvalStats) -> list[CandidateTuple]:
        """Every binding combination of one sentence that passes the checks,
        collapsed on the visible variables."""
        ops = self.ops
        last = len(ops)
        sid = s.sid
        env: dict[str, Bound] = {}
        out: list[CandidateTuple] = []
        # An enumerated variable's candidates, built once per sentence.
        candidates: dict[int, list[Bound]] = {}

        def step(i: int) -> None:
            if i == last:
                out.append(CandidateTuple(sid, dict(env)))
                return
            name, fn, enumerated = ops[i]
            if name is None:
                stats.checks += 1
                if fn(s, env):
                    step(i + 1)
                return
            if not enumerated:
                bindings = fn(s, env)
            elif i in candidates:
                bindings = candidates[i]
            else:
                bindings = candidates[i] = fn(s, env)
            stats.loop_iterations += len(bindings)
            for b in bindings:
                env[name] = b
                step(i + 1)
            env.pop(name, None)

        step(0)
        # `step` holds itself through its closure cell. Unbinding it breaks
        # that cycle, so the sentence's bindings are freed on return, not
        # left for the garbage collector.
        del step
        stats.tuples += len(out)
        return dedupe_hidden(self.n, out) if self.has_hidden else out


def _materialize(
    var: NormVar, s: Sentence, start: int | None, end: int | None, fixed: bool
) -> list[Bound]:
    if var.kind == ELASTIC:
        if not fixed:
            return []
        if end - start < -1:
            return []
        if not _check_elastic(var, s, start, end):
            return []
        return [Bound(start, end)]
    if var.kind == NODE:
        tid = start if start is not None else end
        if fixed and end - start != 0:
            return []
        if tid is None or not 0 <= tid < len(s):
            return []
        return [Bound(tid, tid, tid)]
    if var.kind == WORDSEQ:
        k = len(var.tokens)
        if start is None:
            start = end - k + 1
        if end is None:
            end = start + k - 1
        if start < 0 or end >= len(s) or end - start + 1 != k:
            return []
        if s.tokens[start : end + 1] != var.tokens:
            return []
        return [Bound(start, end)]
    if var.kind == ENTITY:
        return [
            Bound(ent.start, ent.end, None, ent)
            for ent in s.entities
            if (var.etype == ANY_ENTITY or ent.etype == var.etype)
            and (start is None or ent.start == start)
            and (end is None or ent.end == end)
        ]
    return []


# -- checks ---------------------------------------------------------------


def _constraint_check(kind: str, a: str, b: str) -> Callable[[Sentence, dict], bool]:
    def parent_of(s: Sentence, env: dict) -> bool:
        child, parent = env[b].tid, env[a].tid
        return child is not None and parent is not None and s.heads[child] == parent

    def ancestor_of(s: Sentence, env: dict) -> bool:
        child, parent = env[b].tid, env[a].tid
        if child is None or parent is None:
            return False
        return parent in s.ancestors(child)

    def left_of(s: Sentence, env: dict) -> bool:
        return env[a].end + 1 == env[b].start

    def contained(s: Sentence, env: dict) -> bool:
        xa, xb = env[a], env[b]
        return xb.start <= xa.start and xa.end <= xb.end and xa.start <= xa.end

    def equal(s: Sentence, env: dict) -> bool:
        xa, xb = env[a], env[b]
        return (xa.start, xa.end) == (xb.start, xb.end)

    return {
        "parentOf": parent_of,
        "ancestorOf": ancestor_of,
        "leftOf": left_of,
        "in": contained,
        "eq": equal,
    }[kind]


def _bind_check(var: NormVar) -> Callable[[Sentence, dict], bool] | None:
    name = var.name
    if var.kind == NODE:
        steps = var.path.steps
        return lambda s, env: matches_path(s, env[name].tid, steps)
    if var.kind == ELASTIC:

        def check_elastic(s: Sentence, env: dict) -> bool:
            b = env[name]
            return _check_elastic(var, s, b.start, b.end)

        return check_elastic
    return None


def evaluate_sentence(
    n: NormalizedQuery,
    table: BindingTable,
    sid: int,
    plan: SkipPlan,
    corpus: Corpus,
    stats: EvalStats | None = None,
    compiled: dict[tuple, CompiledPlan] | None = None,
) -> list[CandidateTuple]:
    """The candidate tuples of one sentence under its skip plan.

    `compiled` caches compiled plans by `SkipPlan.key`; give one dict per
    query and binding table to compile each distinct plan once. Without
    it the plan is compiled for this call only.
    """
    stats = stats if stats is not None else EvalStats()
    key = plan.key
    program = compiled.get(key) if compiled is not None else None
    if program is None:
        program = CompiledPlan(n, table, plan)
        if compiled is not None:
            compiled[key] = program
    return program.run(corpus.sentence(sid), stats)
