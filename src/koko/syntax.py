"""Abstract syntax for queries, and the renderings of paths, atoms and
conditions that `explain` and evidence print.

Every node is a `Frozen` record: immutable and hashable, and equal to
another only when of the same type with equal fields, so a parsed query
compares and hashes by value (`QueryPlan` keys its scorers by
`SatCondition`).
"""

from __future__ import annotations

from .record import Frozen


class NodeCondition(Frozen):
    __slots__ = _fields = ("key", "value")  # key: regex | pos | etype | text


class Step(Frozen):
    # axis: "/" (child) or "//" (descendant); kind: name | word | wild
    __slots__ = _fields = ("axis", "label", "kind", "conditions")
    _defaults = {"conditions": ()}


class PathExpr(Frozen):
    __slots__ = _fields = ("base", "steps")  # base None means anchored at ROOT


class PathAtom(Frozen):
    __slots__ = _fields = ("path",)


class VarAtom(Frozen):
    __slots__ = _fields = ("name",)


class SubtreeAtom(Frozen):
    __slots__ = _fields = ("var",)


class TokensAtom(Frozen):
    __slots__ = _fields = ("text",)


class ElasticAtom(Frozen):
    __slots__ = _fields = ("regex", "min_tokens", "max_tokens", "etype")
    _defaults = dict.fromkeys(_fields)


SpanAtom = PathAtom | VarAtom | SubtreeAtom | TokensAtom | ElasticAtom


class VarDef(Frozen):
    __slots__ = _fields = ("name", "atoms")


class Constraint(Frozen):
    # op: in | eq; left: atoms; right: a variable name
    __slots__ = _fields = ("op", "left", "right")


class SatCondition(Frozen):
    # kind: contains | mentions | matches | in_dict | followed_by |
    # preceded_by | near | similar_to | desc_right | desc_left
    __slots__ = _fields = ("kind", "var", "arg")


class WeightedCondition(Frozen):
    __slots__ = _fields = ("condition", "weight")


class SatisfyingClause(Frozen):
    __slots__ = _fields = ("var", "conditions", "threshold")


class Query(Frozen):
    # outputs: (variable, type) pairs, a type Str or an entity type;
    # source: the verbatim source token, e.g. "input.txt" (quoted) or
    # wiki.article.
    __slots__ = _fields = ("outputs", "source", "defs", "constraints", "satisfying", "excluding")
    _defaults = {"defs": (), "constraints": (), "satisfying": (), "excluding": ()}


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
