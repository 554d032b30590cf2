"""Abstract syntax for queries plus the canonical pretty-printer.

The printer's output re-parses to an AST equal to its input; tests lean on
that round-trip, so every construct here has exactly one canonical
rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class NodeCondition:
    key: str  # regex | pos | etype | text
    value: str


@dataclass(frozen=True)
class Step:
    axis: str  # "/" (child) or "//" (descendant)
    label: str
    kind: str  # name | word | wild
    conditions: tuple[NodeCondition, ...] = ()


@dataclass(frozen=True)
class PathExpr:
    base: str | None  # None means anchored at ROOT
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class PathAtom:
    path: PathExpr


@dataclass(frozen=True)
class VarAtom:
    name: str


@dataclass(frozen=True)
class SubtreeAtom:
    var: str


@dataclass(frozen=True)
class TokensAtom:
    text: str


@dataclass(frozen=True)
class ElasticAtom:
    regex: str | None = None
    min_tokens: int | None = None
    max_tokens: int | None = None
    etype: str | None = None


SpanAtom = Union[PathAtom, VarAtom, SubtreeAtom, TokensAtom, ElasticAtom]


@dataclass(frozen=True)
class VarDef:
    name: str
    atoms: tuple[SpanAtom, ...]


@dataclass(frozen=True)
class Constraint:
    op: str  # in | eq
    left: tuple[SpanAtom, ...]
    right: str  # variable name


@dataclass(frozen=True)
class SatCondition:
    kind: str  # contains | mentions | matches | in_dict | followed_by |
    # preceded_by | near | similar_to | desc_right | desc_left
    var: str
    arg: str


@dataclass(frozen=True)
class WeightedCondition:
    condition: SatCondition
    weight: float


@dataclass(frozen=True)
class SatisfyingClause:
    var: str
    conditions: tuple[WeightedCondition, ...]
    threshold: float


@dataclass(frozen=True)
class Query:
    outputs: tuple[tuple[str, str], ...]  # (variable, type); type is Str or an entity type
    source: str  # verbatim source token, e.g. "input.txt" (quoted) or wiki.article
    defs: tuple[VarDef, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    satisfying: tuple[SatisfyingClause, ...] = ()
    excluding: tuple[SatCondition, ...] = ()


def format_number(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_conditions(conditions: tuple[NodeCondition, ...]) -> str:
    if not conditions:
        return ""
    parts = []
    for c in conditions:
        if c.key in ("min", "max"):
            parts.append(f"@{c.key}={c.value}")
        else:
            parts.append(f"@{c.key}={quote(c.value)}")
    return "[" + ", ".join(parts) + "]"


def print_path(path: PathExpr) -> str:
    out = [path.base] if path.base else []
    for step in path.steps:
        if step.kind == "word":
            label = quote(step.label)
        elif step.kind == "wild":
            label = "*"
        else:
            label = step.label
        out.append(step.axis + label + _print_conditions(step.conditions))
    return "".join(out)


def print_atom(atom: SpanAtom) -> str:
    if isinstance(atom, PathAtom):
        return print_path(atom.path)
    if isinstance(atom, VarAtom):
        return atom.name
    if isinstance(atom, SubtreeAtom):
        return f"({atom.var}.subtree)"
    if isinstance(atom, TokensAtom):
        return quote(atom.text)
    conds: list[NodeCondition] = []
    if atom.etype is not None:
        conds.append(NodeCondition("etype", atom.etype))
    if atom.regex is not None:
        conds.append(NodeCondition("regex", atom.regex))
    if atom.min_tokens is not None:
        conds.append(NodeCondition("min", str(atom.min_tokens)))
    if atom.max_tokens is not None:
        conds.append(NodeCondition("max", str(atom.max_tokens)))
    return "^" + _print_conditions(tuple(conds))


def print_atoms(atoms: tuple[SpanAtom, ...]) -> str:
    return " + ".join(print_atom(a) for a in atoms)


def print_condition(cond: SatCondition) -> str:
    if cond.kind == "contains":
        return f"str({cond.var}) contains {quote(cond.arg)}"
    if cond.kind == "mentions":
        return f"str({cond.var}) mentions {quote(cond.arg)}"
    if cond.kind == "matches":
        return f"str({cond.var}) matches {quote(cond.arg)}"
    if cond.kind == "in_dict":
        return f"str({cond.var}) in dict({quote(cond.arg)})"
    if cond.kind == "followed_by":
        return f"{cond.var} {quote(cond.arg)}"
    if cond.kind == "preceded_by":
        return f"{quote(cond.arg)} {cond.var}"
    if cond.kind == "near":
        return f"{cond.var} near {quote(cond.arg)}"
    if cond.kind == "similar_to":
        return f"{cond.var} similarTo {quote(cond.arg)}"
    if cond.kind == "desc_right":
        return f"{cond.var} [[{quote(cond.arg)}]]"
    if cond.kind == "desc_left":
        return f"[[{quote(cond.arg)}]] {cond.var}"
    raise ValueError(f"unknown condition kind {cond.kind!r}")


def pretty_print(q: Query) -> str:
    lines: list[str] = []
    outs = ", ".join(f"{name}:{typ}" for name, typ in q.outputs)
    lines.append(f"extract {outs} from {q.source} if (")
    if q.defs:
        lines.append("/ROOT:{")
        for i, d in enumerate(q.defs):
            comma = "," if i < len(q.defs) - 1 else ""
            lines.append(f"    {d.name} = {print_atoms(d.atoms)}{comma}")
        lines.append("}")
    for c in q.constraints:
        lines.append(f"({print_atoms(c.left)}) {c.op} ({c.right})")
    lines.append(")")
    for clause in q.satisfying:
        lines.append(f"satisfying {clause.var}")
        for i, wc in enumerate(clause.conditions):
            tail = " or" if i < len(clause.conditions) - 1 else ""
            lines.append(
                f"    ({print_condition(wc.condition)} {{{format_number(wc.weight)}}}){tail}"
            )
        lines.append(f"with threshold {format_number(clause.threshold)}")
    if q.excluding:
        lines.append("excluding")
        for i, cond in enumerate(q.excluding):
            tail = " or" if i < len(q.excluding) - 1 else ""
            lines.append(f"    ({print_condition(cond)}){tail}")
    return "\n".join(lines) + "\n"
