"""Offset joins, per-sentence plan generation and the entry to nested-loop
evaluation.

For every horizontal condition the planner greedily marks expensive
variables as skipped (highest estimated cost first) as long as neither
horizontal neighbour is already skipped; elastic variables sitting at a
condition boundary are never skipped because nothing pins their far edge.
Skipped variables are later derived from the token gap between their
bound neighbours instead of being enumerated.

A plan depends on a sentence only through the cost ranking of each
condition's atoms, and a query's candidate sentences share a handful of
rankings. So plans are memoized on the ranking, and each distinct plan is
compiled once per query into a `koko.nested.CompiledPlan`: the op script
of the nested loop, whose ops take the sentence and the bindings so far
as arguments. Running it on a sentence only enumerates, derives, checks
and emits.

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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .aggregate import Projected, projected_names
from .corpus import Corpus, detokenize
from .dpli import BindingTable, VarBinding
from .indexes import IndexBundle
from .normalize import COMPOSITE, ELASTIC, ENTITY, NODE, SUBTREE, WORDSEQ, NormalizedQuery, NormConstraint
from .record import Record

if TYPE_CHECKING:  # annotations only: nested imports this module
    from .nested import CompiledPlan


class Bound(NamedTuple):
    """A runtime binding: inclusive span, token id for node vars."""

    start: int
    end: int  # end < start encodes the empty span at position start
    tid: int | None = None


class SkipPlan:
    def __init__(self) -> None:
        # The variables skipped in each horizontal condition, by its index.
        self.per_condition: dict[int, list[str]] = {}

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


class EvalStats(Record):
    __slots__ = _fields = ("loop_iterations", "tuples", "checks")

    def __init__(self, loop_iterations: int = 0, tuples: int = 0, checks: int = 0) -> None:
        self.loop_iterations = loop_iterations
        self.tuples = tuples
        self.checks = checks  # check ops run: paths, constraints, elastic conditions

    def add(self, other: EvalStats) -> None:
        self.loop_iterations += other.loop_iterations
        self.tuples += other.tuples
        self.checks += other.checks


class CandidateTuple(Record):
    __slots__ = _fields = ("sid", "bindings")

    def __init__(self, sid: int, bindings: dict[str, Bound]) -> None:
        self.sid = sid
        self.bindings = bindings


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


class JoinPlan(Record):
    """The atoms of a join, left to right, the (@min, @max) of the gap
    after each atom but the last, each projected value as ("atom", i),
    ("gap", i) after atom i or ("span", 0), and the chain positions of the
    atoms in definition order, the order the nested loop enumerates them
    in (None when it is the chain's order)."""

    __slots__ = _fields = ("atoms", "gaps", "values", "order")


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
    word, read from the word column, a literal's its own words, and an entity's,
    a gap's or the composite's its words detokenized. No sentence is
    built. `stats` counts the first atom's candidates plus the pairs each
    later atom adds as loop iterations, and the tuples; no check is run."""
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

    values = []
    for what, j in plan.values:
        atom = atoms[j]
        if what == "atom" and atom.kind == WORDSEQ:
            values.append(repeat(atom.text))
        else:  # read from the word column at the row's offsets
            words = bundle.word.postings
            if what == "gap":
                spans = zip(read(atom.ends, j), read(atoms[j + 1].starts, j + 1))
                values.append([detokenize(words.keys_at(a + 1, b)) for a, b in spans])
            elif what == "span" or atom.kind == ENTITY:
                # The composite runs from the first atom to the last.
                first, last = (0, -1) if what == "span" else (j, j)
                spans = zip(read(atoms[first].starts, first), read(atoms[last].ends, last))
                values.append([detokenize(words.keys_at(a, b + 1)) for a, b in spans])
            else:
                values.append(words.keys_of(read(atom.starts, j)))
    out = list(zip(map(sid_of.__getitem__, read(atoms[0].starts, 0)), zip(*values)))
    stats.tuples += len(out)
    return out


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
        from .nested import CompiledPlan

        program = CompiledPlan(n, table, plan)
        if compiled is not None:
            compiled[key] = program
    return program.run(corpus.sentence(sid), stats)
