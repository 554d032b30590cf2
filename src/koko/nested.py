"""The nested loop of a skip plan (see `koko.gsp`), compiled once per
query and plan into an op script that enumerates, derives and checks.

Index candidates are complete but not exact, so every surviving
combination is validated against the real dependency tree: each node
variable's full path is re-checked by walking head links
(`matches_path`), and all derived constraints (parentOf, ancestorOf,
leftOf, in, eq) plus elastic conditions are enforced. The one exception
is a node variable enumerated from an exact binding (see
`dpli.DecomposedPath.exact`), whose candidates are its path's matches.
`koko.gsp.evaluate_sentence` imports this module with the first plan it
compiles, so a query that an offset join answers does not load it.
"""

from __future__ import annotations

from collections.abc import Callable

from .corpus import Sentence
from .dpli import BindingTable, VarBinding
from .gsp import Bound, CandidateTuple, EvalStats, SkipPlan
from .normalize import (
    ANY_ENTITY, COMPOSITE, ELASTIC, ENTITY, NODE, SUBTREE, WORDSEQ, NormalizedQuery, NormVar, dedupe_hidden,
)
from .syntax import Step
from .textutil import full_match
from .vocab import PL, POS, classify_label


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
        if cond.key == "etype" and not any(
            e.start <= tid <= e.end and e.etype == cond.value for e in s.entities
        ):
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
                return [Bound(r.start, r.end) for r in records[lo:hi]]

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
            return lambda s, env: [Bound(*s.extent(env[of].tid))]
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
            Bound(ent.start, ent.end)
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
