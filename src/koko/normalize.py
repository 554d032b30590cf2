"""Query normalization: absolute paths, explicit constraints, synthesized
span variables.

After normalization every variable is one of: a node variable with a
ROOT-anchored path, an entity variable, an elastic variable, a literal
word-sequence variable, a subtree alias, or a composite built by a
horizontal condition. Relative path definitions contribute a parentOf
constraint (single child step) or an ancestorOf constraint (anything
deeper), and every horizontal condition contributes a leftOf chain over
its atoms. leftOf means x.end + 1 = y.start; elastic variables may bind
the empty gap between their neighbours. The parser has checked that every
name resolves to a variable of the kind its use needs.
"""

from __future__ import annotations

from .record import Frozen, Record
from .syntax import (
    ElasticAtom, PathAtom, PathExpr, Query, SpanAtom, SubtreeAtom, TokensAtom, VarAtom, print_atom, print_path,
)
from .textutil import tokenize_literal

NODE = "node"
ENTITY = "entity"
ELASTIC = "elastic"
WORDSEQ = "words"
SUBTREE = "subtree"
COMPOSITE = "composite"

# The universal entity type: an output typed Entity accepts spans of every
# entity type, while any other type name selects that type exactly.
ANY_ENTITY = "Entity"

_ATOM_KINDS = {PathAtom: NODE, SubtreeAtom: SUBTREE, TokensAtom: WORDSEQ, ElasticAtom: ELASTIC}


def definition_kind(atoms: tuple[SpanAtom, ...] | list[SpanAtom]) -> str:
    """The kind of the variable that `atoms` define: a lone atom's own (a
    node variable is one path), else a composite of its atoms."""
    return _ATOM_KINDS.get(type(atoms[0]), COMPOSITE) if len(atoms) == 1 else COMPOSITE


class NormVar(Frozen):
    """A variable of one kind, with the field of its kind: a node's `path`,
    an entity's `etype`, an elastic's atom, a word sequence's `tokens`, a
    subtree's base (`of`) or a composite's member `atoms`. `hidden`
    marks the path intermediates synthesized for multi-step relative
    definitions, which never affect output tuple multiplicity."""

    __slots__ = _fields = (
        "name", "kind", "def_index", "synthesized", "hidden", "path", "etype", "elastic", "tokens", "of", "atoms",
    )
    _defaults = {
        "synthesized": False, "hidden": False, "path": None, "etype": None, "elastic": None,
        "tokens": (), "of": None, "atoms": (),
    }

    def describe(self) -> str:
        if self.kind == NODE:
            return f"node {print_path(self.path)}"
        if self.kind == ENTITY:
            return f"entity {self.etype}"
        if self.kind == ELASTIC:
            return "elastic " + print_atom(self.elastic)
        if self.kind == WORDSEQ:
            return "words " + " ".join(self.tokens)
        if self.kind == SUBTREE:
            return f"subtree({self.of})"
        return "composite " + " + ".join(self.atoms)


class NormConstraint(Frozen):
    __slots__ = _fields = ("kind", "a", "b")  # kind: parentOf | ancestorOf | leftOf | in | eq

    def describe(self) -> str:
        if self.kind in ("in", "eq"):
            return f"({self.a}) {self.kind} ({self.b})"
        return f"({self.a} {self.kind} {self.b})"


class HorizontalCondition(Frozen):
    __slots__ = _fields = ("lhs", "atoms")


class NormalizedQuery(Record):
    __slots__ = _fields = ("query", "variables", "horizontal", "constraints")

    def node_vars(self) -> list[NormVar]:
        return [v for v in self.variables.values() if v.kind == NODE]

    def var(self, name: str) -> NormVar:
        return self.variables[name]

    def describe(self) -> str:
        lines = ["variables:"]
        for v in self.variables.values():
            lines.append(f"  {v.name}: {v.describe()}")
        lines.append("constraints:")
        if not self.constraints:
            lines.append("  (none)")
        for c in self.constraints:
            lines.append(f"  {c.describe()}")
        lines.append("horizontal:")
        if not self.horizontal:
            lines.append("  (none)")
        for h in self.horizontal:
            lines.append(f"  {h.lhs} = " + " + ".join(h.atoms))
        return "\n".join(lines) + "\n"


class _Normalizer:
    def __init__(self, q: Query):
        self.q = q
        self.variables: dict[str, NormVar] = {}
        self.constraints: list[NormConstraint] = []
        self.horizontal: list[HorizontalCondition] = []
        self.synth_count = 0
        self.step_count = 0

    def run(self) -> NormalizedQuery:
        q = self.q
        for name, typ in q.outputs:
            if typ != "Str":
                self._add(NormVar(name=name, kind=ENTITY, def_index=len(self.variables), etype=typ))
        for d in q.defs:
            self._definition(d.name, d.atoms)
        for c in q.constraints:
            self.constraints.append(NormConstraint(c.op, self._operand(c.left), c.right))
        return NormalizedQuery(
            query=q,
            variables=self.variables,
            horizontal=tuple(self.horizontal),
            constraints=tuple(self.constraints),
        )

    def _add(self, var: NormVar) -> NormVar:
        self.variables[var.name] = var
        return var

    def _synth_name(self) -> str:
        self.synth_count += 1
        return f"__v{self.synth_count}"

    def _synth_step_name(self) -> str:
        self.step_count += 1
        return f"__s{self.step_count}"

    def _definition(self, name: str, atoms: tuple[SpanAtom, ...]) -> None:
        if definition_kind(atoms) != COMPOSITE:
            self._atom_def(name, atoms[0], synthesized=False)
            return
        member_names = [self._atom_var(a) for a in atoms]
        self._add(NormVar(
            name=name, kind=COMPOSITE, def_index=len(self.variables),
            atoms=tuple(member_names),
        ))
        self.horizontal.append(HorizontalCondition(lhs=name, atoms=tuple(member_names)))
        for left, right in zip(member_names, member_names[1:]):
            self.constraints.append(NormConstraint("leftOf", left, right))

    def _operand(self, atoms: tuple[SpanAtom, ...]) -> str:
        """Variable naming the left side of an in/eq constraint."""
        if len(atoms) == 1 and isinstance(atoms[0], VarAtom):
            return atoms[0].name
        name = self._synth_name()
        self._definition(name, atoms)
        self.variables[name] = self.variables[name].replace(synthesized=True)
        return name

    def _atom_var(self, atom: SpanAtom) -> str:
        if isinstance(atom, VarAtom):
            return atom.name
        name = self._synth_name()
        self._atom_def(name, atom, synthesized=True)
        return name

    def _atom_def(self, name: str, atom: SpanAtom, synthesized: bool) -> None:
        """Define `name` as the variable of one non-variable atom."""
        if isinstance(atom, PathAtom):
            self._node_var(name, atom.path, synthesized)
        elif isinstance(atom, SubtreeAtom):
            self._subtree_var(name, atom.var, synthesized)
        elif isinstance(atom, TokensAtom):
            self._add(NormVar(
                name=name, kind=WORDSEQ, def_index=len(self.variables), synthesized=synthesized,
                tokens=tuple(tokenize_literal(atom.text)),
            ))
        else:
            self._add(NormVar(
                name=name, kind=ELASTIC, def_index=len(self.variables), synthesized=synthesized,
                elastic=atom,
            ))

    def _node_var(self, name: str, path: PathExpr, synthesized: bool) -> None:
        if path.base is None:
            self._add(NormVar(
                name=name, kind=NODE, def_index=len(self.variables),
                synthesized=synthesized, path=path,
            ))
            return
        # Each relative step becomes its own variable chained by a
        # parentOf/ancestorOf constraint, keeping the base-to-variable
        # distance semantics exact; intermediates stay hidden.
        prefix = self.variables[path.base].path.steps
        current = path.base
        for i, step in enumerate(path.steps):
            last = i == len(path.steps) - 1
            var_name = name if last else self._synth_step_name()
            self._add(NormVar(
                name=var_name, kind=NODE, def_index=len(self.variables),
                synthesized=synthesized or not last, hidden=not last,
                path=PathExpr(base=None, steps=prefix + path.steps[: i + 1]),
            ))
            relation = "parentOf" if step.axis == "/" else "ancestorOf"
            self.constraints.append(NormConstraint(relation, current, var_name))
            current = var_name

    def _subtree_var(self, name: str, of: str, synthesized: bool) -> None:
        self._add(NormVar(
            name=name, kind=SUBTREE, def_index=len(self.variables),
            synthesized=synthesized, of=of,
        ))


def normalize(q: Query | NormalizedQuery) -> NormalizedQuery:
    """Rewrite a parsed query into normalized form; idempotent."""
    if isinstance(q, NormalizedQuery):
        return q
    return _Normalizer(q).run()


def dedupe_hidden(n: NormalizedQuery, tuples: list) -> list:
    """Collapse tuples identical on every visible variable.

    Hidden path intermediates may have several realizations per visible
    binding; output multiplicity counts visible bindings only.
    """
    if not any(v.hidden for v in n.variables.values()):
        return tuples
    visible = [name for name, v in n.variables.items() if not v.hidden]
    seen: set = set()
    out = []
    for t in tuples:
        key = tuple(
            (name, t.bindings[name].start, t.bindings[name].end, t.bindings[name].tid)
            for name in visible
        )
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out

