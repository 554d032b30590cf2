"""The canonical printer of a parsed query, for the parser's round-trip
tests: `parse_query(pretty_print(q)) == q` for every query q, since each
construct has exactly one canonical rendering."""

from __future__ import annotations

from koko.syntax import Query, SpanAtom, print_atom, print_condition


def format_number(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return f"{x:g}"


def print_atoms(atoms: tuple[SpanAtom, ...]) -> str:
    return " + ".join(print_atom(a) for a in atoms)


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
