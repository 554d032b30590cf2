"""Dominant-path selection, path decomposition and posting-list joins.

Each dominant path is decomposed into a parse-label pattern, a POS
pattern and a word pattern sharing one axis skeleton; non-matching
positions become ``*``. The three legs are fetched from their indices and
joined back on token identity (PL with POS) and on ancestor containment
with a depth gap (word chains), yielding a candidate set that is complete
but possibly over-approximate; the validation stage makes it exact. A
path that one hierarchy lookup answers whole (`DecomposedPath.exact`)
yields exactly its matches, and its binding skips validation.

Every index-bound variable's candidates have one shape, `VarBinding.offsets`:
the sorted global offset of each candidate's first token (a node's token,
a literal's first word, an entity record's first token), with an entity's
records alongside, one per offset. A literal's candidates come from a
positional phrase intersection, and a sentence's candidates are the
offsets inside the sentence's token range (`BindingTable.bounds`).

Depth bookkeeping: step i of a pattern can bind tokens no shallower than
i edges below the virtual root anchor (token depth i-1 at least, exactly
that when no ``//`` appears up to i), and two concrete words k steps apart
must differ in depth by at least k.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import sub

from .corpus import EntitySpan
from .errors import KokoDecomposeError
from .indexes import IndexBundle, TokenTable
from .normalize import ANY_ENTITY, ENTITY, NODE, WORDSEQ, NormalizedQuery, NormVar
from .syntax import PathExpr
from .vocab import PL, POS, classify_label


@dataclass
class DecomposedPath:
    source: PathExpr
    pl_steps: list[tuple[str, str]]
    pos_steps: list[tuple[str, str]]
    word_steps: list[tuple[str, str]]
    word_positions: list[int]  # step indices carrying a concrete word
    min_depth: list[int]  # per step, minimal token depth
    exact_depth: list[bool]  # per step, True when the depth is forced

    @property
    def has_pl(self) -> bool:
        return any(label != "*" for _, label in self.pl_steps)

    @property
    def has_pos(self) -> bool:
        return any(label != "*" for _, label in self.pos_steps)

    @property
    def exact(self) -> bool:
        """True when one hierarchy lookup answers the whole path: every
        step is a parse label or ``*``, or every step a POS tag or ``*``,
        with no word and no condition. Merged nodes collapse identical
        root paths, so each token of a matched node has the path."""
        if self.word_positions or any(step.conditions for step in self.source.steps):
            return False
        return not (self.has_pl and self.has_pos)

    @property
    def last_is_word(self) -> bool:
        return bool(self.word_positions) and self.word_positions[-1] == len(self.word_steps) - 1

    def render(self, which: str) -> str:
        steps = {"pl": self.pl_steps, "pos": self.pos_steps, "word": self.word_steps}[which]
        out = []
        for i, (axis, label) in enumerate(steps):
            if which == "word" and i in self.word_positions:
                label = f'"{label}"'
            out.append(axis + label)
        return "".join(out)


def decompose(path: PathExpr) -> DecomposedPath:
    if path.base is not None:
        raise KokoDecomposeError("only ROOT-anchored paths can be decomposed")
    pl_steps: list[tuple[str, str]] = []
    pos_steps: list[tuple[str, str]] = []
    word_steps: list[tuple[str, str]] = []
    word_positions: list[int] = []
    min_depth: list[int] = []
    exact_depth: list[bool] = []
    for i, step in enumerate(path.steps):
        pl_label = pos_label = word_label = "*"
        if step.kind == "word":
            word_label = step.label
        elif step.kind == "name":
            side = classify_label(step.label)
            if side == PL:
                pl_label = step.label
            elif side == POS:
                pos_label = step.label
            else:
                raise KokoDecomposeError(
                    f"label {step.label!r} is neither a known parse label nor a POS tag"
                )
        for cond in step.conditions:
            if cond.key == "text":
                word_label = cond.value
            elif cond.key == "pos":
                if pos_label != "*" and pos_label != cond.value:
                    raise KokoDecomposeError(
                        f"conflicting POS constraints {pos_label!r} and {cond.value!r} on one step"
                    )
                pos_label = cond.value
        pl_steps.append((step.axis, pl_label))
        pos_steps.append((step.axis, pos_label))
        word_steps.append((step.axis, word_label))
        if word_label != "*":
            word_positions.append(i)
        if i == 0:
            min_depth.append(0)
            exact_depth.append(step.axis == "/")
        else:
            min_depth.append(min_depth[-1] + 1)
            exact_depth.append(exact_depth[-1] and step.axis == "/")
    return DecomposedPath(
        source=path,
        pl_steps=pl_steps,
        pos_steps=pos_steps,
        word_steps=word_steps,
        word_positions=word_positions,
        min_depth=min_depth,
        exact_depth=exact_depth,
    )


# ---------------------------------------------------------------------------
# Dominance


def _signature(path: PathExpr) -> tuple:
    return tuple(
        (s.axis, s.kind, s.label, frozenset((c.key, c.value) for c in s.conditions))
        for s in path.steps
    )


def dominant_paths(n: NormalizedQuery) -> dict[str, tuple[str, int]]:
    """Map every node variable to (dominant variable, own prefix length).

    A variable is dominated when another variable's path extends its own
    (condition-annotated prefix test). Only extensions that arose from
    relative definitions are followed: those are exactly the cases where
    a parentOf/ancestorOf constraint ties the pair together, so ancestors
    of the dominant's candidates are guaranteed to cover the dominated
    variable's true bindings. Coincidentally prefix-equal but unrelated
    paths stay independent dominants.
    """
    node_names = {v.name for v in n.node_vars()}
    sigs = {v.name: _signature(v.path) for v in n.node_vars()}
    extenders: dict[str, list[str]] = {name: [] for name in node_names}
    for c in n.constraints:
        if c.kind in ("parentOf", "ancestorOf") and c.a in node_names and c.b in node_names:
            if sigs[c.b][: len(sigs[c.a])] == sigs[c.a]:
                extenders[c.a].append(c.b)

    def sink(name: str) -> str:
        # A loop, not recursion: a recursive closure holds itself through
        # its cell, a cycle only the garbage collector frees.
        while extenders[name]:
            name = min(extenders[name], key=lambda x: n.var(x).def_index)
        return name

    return {name: (sink(name), len(sigs[name])) for name in node_names}


# ---------------------------------------------------------------------------
# Joins


def _filter_depth(offsets, depth, min_depth: int, exact: bool) -> list[int]:
    if exact:
        return [o for o in offsets if depth[o] == min_depth]
    return [o for o in offsets if depth[o] >= min_depth]


def _contained(inner, outer, tokens: TokenTable, gap: int) -> list[int]:
    """The offsets of `inner` whose token some `outer` token of the same
    sentence contains, by extent, at least `gap` levels further up."""
    sid_of, left, right, depth = tokens.sid_of, tokens.left, tokens.right, tokens.depth
    by_sid: dict[int, list[int]] = {}
    for o in outer:
        by_sid.setdefault(sid_of[o], []).append(o)
    return [
        i for i in inner
        if any(
            left[o] <= left[i] and right[o] >= right[i] and depth[i] >= depth[o] + gap
            for o in by_sid.get(sid_of[i], ())
        )
    ]


def join_word_path(bundle: IndexBundle, dp: DecomposedPath) -> list[int] | None:
    """Chained containment join over the concrete words of the word path.

    Returns the offsets of the last concrete word, or None when the path
    has no words at all (a universal leg). A later word survives when some
    earlier-word token in the same sentence contains its extent and sits
    at least as many levels up as there are steps between the two words.
    """
    if not dp.word_positions:
        return None
    t = bundle.tokens
    current: list[int] | None = None
    for pos in dp.word_positions:
        word = bundle.word.lookup(dp.word_steps[pos][1])
        leg = _filter_depth(word, t.depth, dp.min_depth[pos], dp.exact_depth[pos])
        current = leg if current is None else _contained(leg, current, t, pos - prev_pos)
        if not current:
            return []
        prev_pos = pos
    return current


def _intersect_tokens(a, b) -> list[int]:
    keys = set(a)
    return [o for o in b if o in keys]


def join_all(
    p1: list[int] | None,
    p2: list[int] | None,
    q: list[int] | None,
    dp: DecomposedPath,
    tokens: TokenTable,
) -> list[int]:
    """Combine the three legs into candidates for the path's last step, in
    offset order: every leg is sorted, and each join keeps one's order.
    Unless the path ends in a word, p1 or p2 is given."""
    if p1 is None:
        p = p2
    elif p2 is None:
        p = p1
    else:
        p = _intersect_tokens(p1, p2)
    if q is None:
        return p
    if p is None:
        return q
    if dp.last_is_word:
        return _intersect_tokens(q, p)
    # The last concrete word must be an ancestor of the candidate token,
    # at least as many levels up as the steps separating them.
    return _contained(p, q, tokens, len(dp.word_steps) - 1 - dp.word_positions[-1])


# ---------------------------------------------------------------------------
# Candidate bindings


@dataclass
class VarBinding:
    var: NormVar
    # The global offset of each candidate's first token, sorted: a node's
    # token, a literal's first word, an entity record's first token.
    offsets: Sequence[int] = field(default_factory=list)
    records: list[EntitySpan] | None = None  # an entity variable's, one per offset
    index_bound: bool = False
    exact: bool = False  # the candidates need no path validation
    derived_from: str | None = None  # dominant variable for dominated node vars
    prefix_len: int = 0


@dataclass
class DominantInfo:
    var: str
    decomposed: DecomposedPath
    p1_size: int | None
    p2_size: int | None
    q_size: int | None
    result_size: int


@dataclass
class BindingTable:
    bindings: dict[str, VarBinding]
    candidate_sids: list[int]
    dominance: dict[str, tuple[str, int]]
    starts: array  # candidates are token offsets, starts[sid] + tid
    info: list[DominantInfo] = field(default_factory=list)

    def bounds(self, var: str, sid: int) -> tuple[int, int]:
        """(lo, hi): a variable's candidates in sentence sid are its
        ``offsets[lo:hi]`` (and ``records[lo:hi]``), found by bisection."""
        offsets = self.bindings[var].offsets
        lo = bisect_left(offsets, self.starts[sid])
        return lo, bisect_left(offsets, self.starts[sid + 1], lo)

    def tids(self, var: str, sid: int) -> list[int]:
        """The token ids of a variable's candidates' first tokens in one
        sentence."""
        lo, hi = self.bounds(var, sid)
        return list(map(sub, self.bindings[var].offsets[lo:hi], repeat(self.starts[sid])))

    def describe(self) -> str:
        lines = ["dominant paths:"]
        for d in self.info:
            lines.append(f"  {d.var}:")
            lines.append(f"    pl   {d.decomposed.render('pl')}"
                         + (f"  |P1| = {d.p1_size}" if d.p1_size is not None else "  (skipped)"))
            lines.append(f"    pos  {d.decomposed.render('pos')}"
                         + (f"  |P2| = {d.p2_size}" if d.p2_size is not None else "  (skipped)"))
            lines.append(f"    word {d.decomposed.render('word')}"
                         + (f"  |Q| = {d.q_size}" if d.q_size is not None else "  (skipped)"))
            lines.append(f"    candidates = {d.result_size}"
                         + ("  (exact, not validated)" if d.decomposed.exact else ""))
        lines.append(f"candidate sentences: {len(self.candidate_sids)}")
        return "\n".join(lines) + "\n"


def candidate_bindings(n: NormalizedQuery, bundle: IndexBundle) -> BindingTable:
    bindings: dict[str, VarBinding] = {}
    dominance = dominant_paths(n)
    info: list[DominantInfo] = []
    starts = bundle.tokens.starts

    for var in n.variables.values():
        if var.kind == ENTITY:
            records = bundle.entity.lookup(None if var.etype == ANY_ENTITY else var.etype)
            offsets = [starts[r.sid] + r.start for r in records]
            bindings[var.name] = VarBinding(var=var, offsets=offsets, records=records, index_bound=True)
        elif var.kind == NODE:
            dom, plen = dominance[var.name]
            if dom == var.name:
                bindings[var.name] = _bind_dominant(n.var(dom), bundle, info)
            else:
                bindings[var.name] = VarBinding(
                    var=var, index_bound=True, derived_from=dom, prefix_len=plen
                )
        elif var.kind == WORDSEQ:
            offsets = _word_seq_starts(bundle, var.tokens)
            bindings[var.name] = VarBinding(var=var, offsets=offsets, index_bound=True)
        else:
            bindings[var.name] = VarBinding(var=var)

    # Dominated variables share their dominant's candidates for cost
    # purposes; candidate derivation happens per sentence at plan time.
    for name, vb in bindings.items():
        if vb.derived_from is not None:
            vb.offsets = bindings[vb.derived_from].offsets

    # A tuple binds every variable in one sentence, so only sentences in
    # every index-bound variable's postings can hold one; `extract
    # x:Entity … if ()` reads its candidates off the entity index.
    sid_of = bundle.tokens.sid_of
    sid_sets = [
        set(map(sid_of.__getitem__, vb.offsets))
        for vb in bindings.values()
        if vb.index_bound and vb.derived_from is None
    ]
    if sid_sets:
        candidate_sids = sorted(set.intersection(*sid_sets))
    else:
        candidate_sids = list(range(bundle.sentence_count))
    return BindingTable(
        bindings=bindings,
        candidate_sids=candidate_sids,
        dominance=dominance,
        starts=starts,
        info=info,
    )


def _bind_dominant(var: NormVar, bundle: IndexBundle, info: list[DominantInfo]) -> VarBinding:
    dp = decompose(var.path)
    p1 = bundle.pl.lookup(dp.pl_steps) if dp.has_pl else None
    p2 = bundle.pos.lookup(dp.pos_steps) if dp.has_pos else None
    q = join_word_path(bundle, dp)
    if p1 is None and p2 is None and not dp.last_is_word:
        # Only wildcards after the last word, if any: the skeleton still
        # constrains the last step; resolve it through the PL hierarchy.
        p1 = bundle.pl.lookup(dp.pl_steps)
    offsets = join_all(p1, p2, q, dp, bundle.tokens)
    info.append(DominantInfo(
        var=var.name,
        decomposed=dp,
        p1_size=None if p1 is None else len(p1),
        p2_size=None if p2 is None else len(p2),
        q_size=None if q is None else len(q),
        result_size=len(offsets),
    ))
    return VarBinding(var=var, offsets=offsets, index_bound=True, exact=dp.exact)


def _word_seq_starts(bundle: IndexBundle, tokens: tuple[str, ...]) -> list[int]:
    """The sorted offsets where a literal token sequence occurs, by its
    first token: the offsets of word k, minus k, intersected over every k
    (a positional phrase intersection), then cut to the occurrences that
    end in the sentence they start in."""
    if not tokens:
        return []
    found = set(bundle.word.lookup(tokens[0]))
    for k, token in enumerate(tokens[1:], 1):
        found.intersection_update(map(sub, bundle.word.lookup(token), repeat(k)))
    starts, sid_of, last = bundle.tokens.starts, bundle.tokens.sid_of, len(tokens) - 1
    return sorted(o for o in found if o + last < starts[sid_of[o] + 1])
