"""Dominant-path selection, path decomposition and posting-list joins.

Each dominant path is decomposed into a parse-label pattern, a POS
pattern and a word pattern sharing one axis skeleton; non-matching
positions become ``*``. The three legs are fetched from their indices and
joined back on token identity (PL with POS) and on ancestry with a depth
gap (word chains), a walk up the token table's head column (`_contained`;
the index stores no subtree extent), yielding a candidate set that is
complete but possibly over-approximate; the validation stage makes it
exact. A path that one hierarchy lookup answers whole
(`DecomposedPath.exact`) yields exactly its matches, and its binding
skips validation.

Every index-bound variable's candidates have one shape, `VarBinding.offsets`:
the sorted global offset of each candidate's first token (a node's token,
a literal's first word, an entity record's first token), with an entity's
records alongside, one per offset. A literal's candidates come from a
positional phrase intersection, and a sentence's candidates are the
offsets inside the sentence's token range (`BindingTable.bounds`).

The index-bound variables are bound as a chain of semi-joins, most
selective first (Demaine, López-Ortiz & Munro, "Adaptive set
intersections, unions, and differences", SODA 2000). A variable's
candidate count is estimated from the index alone, as its cheapest leg's
posting count: a PL or POS leg's matched nodes' lists, a word's list, an
entity type's records (`_Link`). The cheapest variable is bound in full;
every later variable is looked for only inside the sentences left so far
(`indexes.Sentences`): each of its legs' postings filtered by sid when
they are fewer than those sentences' tokens, else those tokens scanned
through a forward column (`PostingLists.read`). The candidate sentences
are the last variable's. A variable's legs are read cheapest first, and
an empty leg or variable ends the chain: nothing after it is looked up.

Depth bookkeeping: step i of a pattern can bind tokens no shallower than
i edges below the virtual root anchor (token depth i-1 at least, exactly
that when no ``//`` appears up to i), and two concrete words k steps apart
must differ in depth by at least k.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter, itemgetter, sub

from .corpus import EntitySpan
from .errors import KokoInputError
from .indexes import NO_HEAD, IndexBundle, Sentences, TokenTable
from .normalize import ANY_ENTITY, ENTITY, NODE, WORDSEQ, NormalizedQuery, NormVar
from .record import Record
from .syntax import PathExpr
from .vocab import PL, classify_label


class DecomposedPath(Record):
    # Each step's (axis, label) in the PL, POS and word skeletons ("*" where
    # the step has none), and the indices of the steps carrying a word.
    __slots__ = _fields = ("source", "pl_steps", "pos_steps", "word_steps", "word_positions")

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
    """The skeletons of a ROOT-anchored path. The parser has checked that
    every label is known and that a step's POS tags agree."""
    pl_steps: list[tuple[str, str]] = []
    pos_steps: list[tuple[str, str]] = []
    word_steps: list[tuple[str, str]] = []
    word_positions: list[int] = []
    for i, step in enumerate(path.steps):
        pl_label = pos_label = word_label = "*"
        if step.kind == "word":
            word_label = step.label
        elif step.kind == "name":
            if classify_label(step.label) == PL:
                pl_label = step.label
            else:
                pos_label = step.label
        for cond in step.conditions:
            if cond.key == "text":
                word_label = cond.value
            elif cond.key == "pos":
                pos_label = cond.value
        pl_steps.append((step.axis, pl_label))
        pos_steps.append((step.axis, pos_label))
        word_steps.append((step.axis, word_label))
        if word_label != "*":
            word_positions.append(i)
    return DecomposedPath(
        source=path,
        pl_steps=pl_steps,
        pos_steps=pos_steps,
        word_steps=word_steps,
        word_positions=word_positions,
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
    """The offsets of `inner` with an ancestor among `outer` at least `gap`
    levels further up: a walk up the head column from each one in a
    sentence holding an `outer` token, one step per level of its depth,
    which must end at a root. A head outside the sentence, a root met
    early or none at the end raises KokoInputError, so a head cycle ends."""
    starts, sid_of, lengths, heads, depth = tokens.starts, tokens.sid_of, tokens.lengths, tokens.heads, tokens.depth
    outer = set(outer)
    sids = set(map(sid_of.__getitem__, outer))
    kept = []
    for i in inner:
        sid, o = sid_of[i], i
        if sid not in sids:
            continue
        for k in range(depth[i], -1, -1):  # o lies k levels deep by the PL lists
            head = heads[o]
            if head >= lengths[sid] if k else head != NO_HEAD:
                what = "no head" if head == NO_HEAD else f"head {head}"
                raise KokoInputError(f"{tokens.where}: token ({sid},{o - starts[sid]}) has {what} but depth {k}")
            if depth[i] - k >= gap and o in outer:
                kept.append(i)
                break
            o = starts[sid] + head
    return kept


def join_word_path(
    bundle: IndexBundle, dp: DecomposedPath, within: Sentences | None = None
) -> Sequence[int] | None:
    """Chained containment join over the concrete words of the word path,
    inside the sentences of `within` (every sentence when None).

    Returns the offsets of the last concrete word, or None when the path
    has no words at all (a universal leg). A later word survives when some
    earlier-word token is its ancestor, at least as many levels up as
    there are steps between the two words.
    """
    if not dp.word_positions:
        return None
    t = bundle.tokens
    current: list[int] | None = None
    for pos in dp.word_positions:
        word = bundle.word.read(dp.word_steps[pos][1], within)
        # Step `pos` lies `pos` levels below the root, exactly that deep
        # when no step up to it is `//`.
        exact = all(axis == "/" for axis, _ in dp.word_steps[: pos + 1])
        leg = _filter_depth(word, t.depth, pos, exact)
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


class VarBinding(Record):
    """A variable's candidates. `offsets` holds the global offset of each
    candidate's first token, sorted: a node's token, a literal's first
    word, an entity record's first token; `records` an entity variable's
    records, one per offset. `exact` candidates need no path validation;
    a dominated node variable names its dominant in `derived_from`."""

    __slots__ = _fields = ("var", "offsets", "records", "index_bound", "exact", "derived_from", "prefix_len")
    _defaults = {"offsets": (), "records": None, "index_bound": False, "exact": False, "derived_from": None,
                 "prefix_len": 0}


class DominantInfo(Record):
    """A dominant path's lookup: the postings each leg read inside the
    sentences it was looked for in (None for a leg the path does not have
    or that was not read), and the candidates the legs' join left."""

    __slots__ = _fields = ("var", "decomposed", "p1_size", "p2_size", "q_size", "result_size")


class ChainLink(Record):
    """One index-bound variable of the chain, in binding order: its
    candidates estimated from the index alone, the sentences it was looked
    for in (None: all) and its candidates."""

    __slots__ = _fields = ("var", "estimate", "within", "candidates")


class BindingTable:
    def __init__(self, bindings: dict[str, VarBinding], candidate_sids: list[int],
                 dominance: dict[str, tuple[str, int]], starts: array, info: list[DominantInfo],
                 chain: list[ChainLink]) -> None:
        self.bindings = bindings
        self.candidate_sids = candidate_sids
        self.dominance = dominance
        self.starts = starts  # candidates are token offsets, starts[sid] + tid
        self.info = info
        self.chain = chain
        self._last: dict[str, tuple[int, int, int]] = {}

    def bounds(self, var: str, sid: int) -> tuple[int, int]:
        """(lo, hi): a variable's candidates in sentence sid are its
        ``offsets[lo:hi]`` (and ``records[lo:hi]``), found by bisection.
        The skip plan's costs and the nested loop ask for the same
        sentence in turn, so each variable keeps its last (sid, lo, hi)."""
        last = self._last.get(var)
        if last is None or last[0] != sid:
            offsets = self.bindings[var].offsets
            lo = bisect_left(offsets, self.starts[sid])
            last = self._last[var] = (sid, lo, bisect_left(offsets, self.starts[sid + 1], lo))
        return last[1], last[2]

    def tids(self, var: str, sid: int) -> list[int]:
        """The token ids of a variable's candidates' first tokens in one
        sentence."""
        lo, hi = self.bounds(var, sid)
        return list(map(sub, self.bindings[var].offsets[lo:hi], repeat(self.starts[sid])))

    def describe(self) -> str:
        lines = []
        if self.chain:
            lines.append("chain, by estimated candidates:")
            for link in self.chain:
                if link.within is None:
                    where = "seeded the candidates"
                elif link.within:
                    where = f"looked for in {link.within} sentences"
                else:
                    where = "not looked for: no sentence left"
                lines.append(f"  {link.var}  estimate {link.estimate}  {where}  candidates {link.candidates}")
        lines.append("dominant paths:")
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


class _Link:
    """An index-bound variable before it is bound: its legs, each with its
    posting count read from the index alone (``ptr``, nothing
    materialized), cheapest first, and its estimated candidate count, its
    cheapest leg's. A dominant path's legs are its PL and POS node sets
    and its word chain (`join_word_path`), a literal's its words, an
    entity's its records."""

    def __init__(self, var: NormVar, bundle: IndexBundle) -> None:
        self.var = var
        self.records: list[EntitySpan] = []
        self.dp: DecomposedPath | None = None
        self.legs: list[tuple[int, str, set[int] | None]] = []
        if var.kind == ENTITY:
            self.records = bundle.entity.lookup(None if var.etype == ANY_ENTITY else var.etype)
            self.estimate = len(self.records)
            return
        words = bundle.word
        if var.kind == WORDSEQ:
            self.estimate = min(map(words.count, var.tokens), default=0)
            return
        dp = self.dp = decompose(var.path)
        if dp.has_pl or not (dp.has_pos or dp.last_is_word):
            # With only wildcards after the last word, if any, the skeleton
            # still constrains the last step: the PL hierarchy resolves it.
            nodes = bundle.pl.match_nodes(dp.pl_steps)
            self.legs.append((bundle.pl.postings.size(nodes), "pl", nodes))
        if dp.has_pos:
            nodes = bundle.pos.match_nodes(dp.pos_steps)
            self.legs.append((bundle.pos.postings.size(nodes), "pos", nodes))
        if dp.word_positions:
            self.legs.append((min(words.count(dp.word_steps[i][1]) for i in dp.word_positions), "q", None))
        self.legs.sort(key=itemgetter(0))
        self.estimate = self.legs[0][0]

    def bind(self, bundle: IndexBundle, within: Sentences | None, info: list[DominantInfo]) -> VarBinding:
        """The variable's candidates inside the sentences of `within`
        (every sentence when None)."""
        var = self.var
        if var.kind == ENTITY:
            records = self.records
            if within is not None:
                sids = within.sids
                records = [r for r in records if r.sid in sids]
            starts = bundle.tokens.starts
            offsets = [starts[r.sid] + r.start for r in records]
            return VarBinding(var=var, offsets=offsets, records=records, index_bound=True)
        if var.kind == WORDSEQ:
            return VarBinding(var=var, offsets=_word_seq_starts(bundle, var.tokens, within), index_bound=True)
        return _bind_dominant(self, bundle, within, info)


def candidate_bindings(n: NormalizedQuery, bundle: IndexBundle) -> BindingTable:
    """Every variable's candidates, and the sentences that can hold a
    tuple: those holding a candidate of every index-bound variable. The
    index-bound variables are bound as a chain, in order of estimated
    candidates (`_Link`): the first in full, every later one only inside
    the sentences the ones before it left. An empty variable ends the
    chain; the variables after it are not looked for."""
    dominance = dominant_paths(n)
    bindings: dict[str, VarBinding] = {}
    links: list[_Link] = []
    for var in n.variables.values():
        if var.kind == NODE and dominance[var.name][0] != var.name:
            dom, plen = dominance[var.name]
            bindings[var.name] = VarBinding(var=var, index_bound=True, derived_from=dom, prefix_len=plen)
        elif var.kind in (ENTITY, NODE, WORDSEQ):
            links.append(_Link(var, bundle))
        else:
            bindings[var.name] = VarBinding(var=var)
    links.sort(key=attrgetter("estimate"))

    info: list[DominantInfo] = []
    chain: list[ChainLink] = []
    within: Sentences | None = None
    sid_of = bundle.tokens.sid_of
    for i, link in enumerate(links):
        if i:  # the sentences of the candidates so far, which are sorted
            within = Sentences(bundle.tokens, map(sid_of.__getitem__, vb.offsets))
        if within is None or within.sids:
            vb = link.bind(bundle, within, info)
        else:
            vb = VarBinding(
                var=link.var, records=[] if link.var.kind == ENTITY else None, index_bound=True,
                exact=link.dp is not None and link.dp.exact,
            )
        bindings[link.var.name] = vb
        chain.append(ChainLink(
            link.var.name, link.estimate, None if within is None else len(within.sids), len(vb.offsets)
        ))

    # Dominated variables share their dominant's candidates for cost
    # purposes; candidate derivation happens per sentence at plan time.
    for dominated in bindings.values():
        if dominated.derived_from is not None:
            dominated.offsets = bindings[dominated.derived_from].offsets
    # The last variable's sentences are the candidates (`extract x:Entity
    # … if ()` reads them off the entity index); a query with no
    # index-bound variable considers every sentence.
    if links:
        candidate_sids = list(dict.fromkeys(map(sid_of.__getitem__, vb.offsets)))
    else:
        candidate_sids = list(range(bundle.sentence_count))
    return BindingTable(
        bindings={name: bindings[name] for name in n.variables},
        candidate_sids=candidate_sids,
        dominance=dominance,
        starts=bundle.tokens.starts,
        info=info,
        chain=chain,
    )


def _bind_dominant(
    link: _Link, bundle: IndexBundle, within: Sentences | None, info: list[DominantInfo]
) -> VarBinding:
    """A dominant path's candidates: its legs read cheapest first, inside
    the sentences of `within`, then joined; an empty leg ends the path."""
    dp = link.dp
    read: dict[str, Sequence[int] | None] = {"pl": None, "pos": None, "q": None}
    offsets: Sequence[int] = []
    for size, kind, nodes in link.legs:
        if kind == "q":
            found = join_word_path(bundle, dp, within)
        else:
            found = (bundle.pl if kind == "pl" else bundle.pos).read(nodes, size, within)
        read[kind] = found
        if not found:
            break
    else:
        offsets = join_all(read["pl"], read["pos"], read["q"], dp, bundle.tokens)
    info.append(DominantInfo(
        var=link.var.name,
        decomposed=dp,
        p1_size=None if read["pl"] is None else len(read["pl"]),
        p2_size=None if read["pos"] is None else len(read["pos"]),
        q_size=None if read["q"] is None else len(read["q"]),
        result_size=len(offsets),
    ))
    return VarBinding(var=link.var, offsets=offsets, index_bound=True, exact=dp.exact)


def _word_seq_starts(
    bundle: IndexBundle, tokens: tuple[str, ...], within: Sentences | None = None
) -> Sequence[int]:
    """The sorted offsets where a literal token sequence occurs, by its
    first token, inside the sentences of `within` (every sentence when
    None). A one-word literal's are its postings. Otherwise the offsets of
    word k, minus k, are intersected over every k (a positional phrase
    intersection), then cut to the occurrences that end in the sentence
    they start in."""
    if not tokens:
        return []
    if len(tokens) == 1:
        return bundle.word.read(tokens[0], within)
    found = set(bundle.word.read(tokens[0], within))
    for k, token in enumerate(tokens[1:], 1):
        if not found:
            break
        found.intersection_update(map(sub, bundle.word.read(token, within), repeat(k)))
    starts, sid_of, last = bundle.tokens.starts, bundle.tokens.sid_of, len(tokens) - 1
    return sorted(o for o in found if o + last < starts[sid_of[o] + 1])
