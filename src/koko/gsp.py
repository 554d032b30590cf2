"""Offset joins, per-sentence plan generation and nested-loop evaluation.

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

A skipped gap between two bound atoms is derived from their offsets. When
every atom of a span is one the index answers exactly (an exact node path,
a literal or an entity) and every gap is a plain `^` with at most `@min`
and `@max`, nothing is left to check, and the whole query is a positional
join over the atoms' sorted offsets, like an ordered "span near" with a
slop over positional postings (Zobel & Moffat, "Inverted files for text
search engines", ACM Computing Surveys 2006). `join_plan` recognizes such
a query and `run_join` answers it: chains of candidates are extended left
to right by bisecting the next atom's offsets, and each value is read
from the index, with no plan per sentence, no compiled loop, no
`CandidateTuple` and no `Sentence`. A query with one exact variable and
nothing else is the one-atom join.

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

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import Callable, NamedTuple

from .aggregate import Projected, projected_names
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
    NormConstraint,
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
# Offset joins: plans whose every check the index answers


class _JoinAtom:
    """One index-exact atom of a join: its candidates' first and last
    global offsets, sorted by the first, and an entity's records."""

    def __init__(self, vb: VarBinding):
        self.name = vb.var.name
        self.kind = vb.var.kind
        self.starts = vb.offsets
        self.records = vb.records
        # A literal's value, which every occurrence repeats, and its tokens
        # after the first; "" and 0 for any other atom.
        self.text = detokenize(vb.var.tokens)
        self.width = max(len(vb.var.tokens) - 1, 0)

    @cached_property
    def ends(self) -> Sequence[int]:
        if self.kind == ENTITY:
            return [o + r.end - r.start for o, r in zip(self.starts, self.records)]
        if self.width:
            return [o + self.width for o in self.starts]
        return self.starts


@dataclass
class JoinPlan:
    atoms: list[_JoinAtom]  # left to right
    gaps: list[tuple[int, int | None]]  # (@min, @max) of the gap after each atom but the last
    # Each projected value: ("atom", i), ("gap", i) after atom i, or ("span", 0).
    values: list[tuple[str, int]]
    # The chain positions of the atoms in definition order, the order the
    # nested loop enumerates them in; None when it is the chain's order.
    order: tuple[int, ...] | None


def _index_exact(vb: VarBinding) -> bool:
    """The index answers the variable exactly: an exact node path, a
    literal word sequence or an entity."""
    if not vb.index_bound or vb.derived_from is not None:
        return False
    return vb.exact if vb.var.kind == NODE else vb.var.kind in (WORDSEQ, ENTITY)


def join_plan(n: NormalizedQuery, table: BindingTable) -> JoinPlan | None:
    """The query as a join of index-exact atoms over their offsets, or None
    when it needs the nested loop.

    A query joins when it has one variable, no constraint and no
    horizontal condition, and the index answers that variable exactly;
    or when its one horizontal condition alternates index-exact atoms
    (first and last included) with plain gaps (`^` with at most `@min`
    and `@max`), its constraints are exactly the condition's leftOf chain,
    and it has no hidden variable, no repeated atom and no variable but
    the condition's atoms and its composite. Its tuples are then the
    chains of atom candidates whose gaps fit their bounds, and no check
    is left to run."""
    if n.horizontal:
        if len(n.horizontal) > 1:
            return None
        (cond,) = n.horizontal
        names, composite = cond.atoms, {cond.lhs}
    else:
        names, composite = tuple(n.variables), set()
        if len(names) != 1:
            return None
    if (
        len(names) % 2 == 0
        or len(set(names)) != len(names)
        or set(n.variables) != {*names, *composite}
        or any(v.hidden for v in n.variables.values())
        or n.constraints != tuple(NormConstraint("leftOf", a, b) for a, b in zip(names, names[1:]))
    ):
        return None
    atoms = [table.bindings[name] for name in names[::2]]
    gaps = [n.var(name) for name in names[1::2]]
    if not all(map(_index_exact, atoms)) or any(
        g.kind != ELASTIC or g.elastic.regex is not None or g.elastic.etype is not None for g in gaps
    ):
        return None
    where = {name: ("atom" if i % 2 == 0 else "gap", i // 2) for i, name in enumerate(names)}
    where.update(dict.fromkeys(composite, ("span", 0)))
    order = tuple(sorted(range(len(atoms)), key=lambda i: atoms[i].var.def_index))
    return JoinPlan(
        atoms=[_JoinAtom(vb) for vb in atoms],
        gaps=[(g.elastic.min_tokens or 0, g.elastic.max_tokens) for g in gaps],
        values=[where[name] for name in projected_names(n)],
        order=None if order == tuple(range(len(atoms))) else order,
    )


def run_join(plan: JoinPlan, table: BindingTable, bundle: IndexBundle, stats: EvalStats) -> list[Projected]:
    """A join plan's tuples, projected (see `aggregate.projected_names`),
    in the order the nested loop would emit them, read from the index
    alone. Chains start at every candidate of the first atom and are
    extended left to right: the next atom's candidates in the chain's
    sentence (`BindingTable.bounds`) are bisected at the chain's end plus
    one plus the gap's `@min`, up to its `@max`. A node's value is its
    word (`WordIndex.texts`), a literal's its own words, an entity's its
    record's surface, and a gap's or the composite's its words
    detokenized. No sentence is built. `stats` counts the first atom's
    candidates plus the pairs each later atom adds as loop iterations,
    and the tuples; no check is run."""
    sid_of = bundle.tokens.sid_of
    atoms = plan.atoms
    # The chains, one column per atom: its candidate's index in each chain.
    columns: list[Sequence[int]] = [range(len(atoms[0].starts))]
    stats.loop_iterations += len(columns[0])
    for j, (least, most) in enumerate(plan.gaps):
        prev, atom = atoms[j], atoms[j + 1]
        extended: list[int] = []  # the chain each longer chain extends
        picked: list[int] = []
        for chain, i in enumerate(columns[j]):
            after = prev.ends[i] + 1
            lo, hi = table.bounds(atom.name, sid_of[after - 1])
            first = bisect_left(atom.starts, after + least, lo, hi)
            stop = hi if most is None else bisect_right(atom.starts, after + most, first, hi)
            extended += repeat(chain, stop - first)
            picked += range(first, stop)
        columns = [[column[c] for c in extended] for column in columns]
        columns.append(picked)
        stats.loop_iterations += len(picked)
    if plan.order is not None:
        keys = list(zip(*[columns[p] for p in plan.order]))
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        columns = [[column[r] for r in ranked] for column in columns]

    def read(of: Sequence, j: int) -> Iterator:
        return map(of.__getitem__, columns[j])

    head, tail = atoms[0], atoms[-1]
    values = []
    for what, j in plan.values:
        atom = atoms[j]
        if what == "atom" and atom.kind == ENTITY:
            values.append(map(attrgetter("surface"), read(atom.records, j)))
        elif what == "atom" and atom.kind == WORDSEQ:
            values.append(repeat(atom.text))
        else:  # read from the word column, inverted at its first read
            texts = bundle.word.texts()
            if what == "span":
                spans = zip(read(head.starts, 0), read(tail.ends, -1))
                values.append([detokenize(texts[a : b + 1]) for a, b in spans])
            elif what == "gap":
                spans = zip(read(atom.ends, j), read(atoms[j + 1].starts, j + 1))
                values.append([detokenize(texts[a + 1 : b]) for a, b in spans])
            else:
                values.append(map(texts.__getitem__, read(atom.starts, j)))
    out = list(zip(map(sid_of.__getitem__, read(head.starts, 0)), zip(*values)))
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
