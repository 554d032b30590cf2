"""Regular-expression tokenizer and recursive-descent parser for query text.

The accepted surface covers node and span definitions inside a
``/ROOT:{...}`` block, ``in``/``eq`` constraints, weighted satisfying
clauses with a threshold, and an excluding clause. ``~`` is an alias for
``similarTo`` and node conditions are accepted with or without the
leading ``@`` (canonical form has it).

The parser alone decides whether a query is valid: it checks each rule at
the token at fault, whose line and column every diagnostic carries. A
name resolves against the entity outputs and the definitions so far, or,
in a constraint, which may precede its definitions, against all of them
when the ``if`` body ends. ``__`` starts only the names normalize makes up.
"""

from __future__ import annotations

import math
import re

from .errors import KokoQueryError, KokoSyntaxError
from .normalize import ENTITY, NODE, definition_kind
from .record import Record
from .syntax import (
    Constraint, ElasticAtom, NodeCondition, PathAtom, PathExpr, Query, SatCondition, SatisfyingClause, SpanAtom,
    Step, SubtreeAtom, TokensAtom, VarAtom, VarDef, WeightedCondition, quote,
)
from .textutil import compile_pattern
from .vocab import POS, classify_label

KEYWORDS = {
    "extract", "from", "if", "satisfying", "with", "threshold", "excluding",
    "in", "eq", "or", "near", "str", "dict", "subtree", "contains",
    "mentions", "matches",
}

_NODE_CONDITION_KEYS = {"regex", "pos", "etype", "text"}
_ELASTIC_CONDITION_KEYS = {"regex", "etype", "min", "max"}


class Tok(Record):
    __slots__ = _fields = ("kind", "value", "line", "col")  # kind: ident | string | number | op | eof

    def __init__(self, kind: str, value: str, line: int, col: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


# How an error names a token it found without text.
_EMPTY_TOKEN = {"eof": "end of input", "string": "empty string literal"}

# The message for a constraint's reference, by role, to a Str output that has no definition.
_UNDEFINED_OUTPUT = {
    "var": "constraint references unknown variable {!r}", "right": "constraint references unknown variable {!r}",
    "member": "unknown variable {!r} in span composition", "base": "path base {!r} cannot be resolved",
    "subtree": "subtree base {!r} must be a defined node variable",
}


# One alternative per token class, tried in order: the two-character
# operators before the one-character ones, and `bad` last, so that every
# position of the text matches and `finditer` walks it end to end.
_TOKEN = re.compile(
    r"""(?P<blank>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[^\W\d]\w*)
      | (?P<op>//|\[\[|\]\]|[(){}\[\]:,=+^/*@~.<>])
      | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r'\\(["\\])')


def _lex(text: str) -> list[Tok]:
    """The tokens of `text`, then an eof token. A string's value is its
    text between the quotes with `\\"` and `\\\\` unescaped; every other
    token's value is its source text. A comment takes no columns."""
    toks: list[Tok] = []
    line, line_start, end = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        # `\w` also holds digits that are not decimal, such as '²': no
        # identifier starts with one.
        if kind == "bad" or kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            message = "unterminated string literal" if value == '"' else f"unexpected character {value[0]!r}"
            raise KokoSyntaxError(message, line, col)
        if kind == "string":
            toks.append(Tok(kind, _ESCAPE.sub(r"\1", value[1:-1]), line, col))
        elif kind != "blank" and kind != "comment":
            toks.append(Tok(kind, value, line, col))
        if kind != "comment":
            end = m.end()
        if "\n" in value:
            line += value.count("\n")
            line_start = m.start() + value.rindex("\n") + 1
    toks.append(Tok("eof", "", line, end - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        # The kind of each entity output and definition so far; each Str output's name.
        self.kinds: dict[str, str] = {}
        self.str_outputs: dict[str, Tok] = {}
        # The references to variables of the span expression being parsed and
        # of the constraints so far, each a token and its role: "var", "member"
        # (of a composition), "right" (of a constraint), "base" or "subtree".
        self.refs: list[tuple[Tok, str]] = []
        self.deferred: list[tuple[Tok, str]] = []

    # -- token plumbing ---------------------------------------------------

    def peek(self, offset: int = 0) -> Tok:
        return self.toks[min(self.pos + offset, len(self.toks) - 1)]

    def next(self) -> Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Tok | None = None) -> KokoSyntaxError:
        tok = tok or self.peek()
        return KokoSyntaxError(message, tok.line, tok.col)

    def expect_op(self, value: str) -> Tok:
        tok = self.next()
        if tok.kind != "op" or tok.value != value:
            raise self.error(f"expected {value!r}, found {tok.value or _EMPTY_TOKEN[tok.kind]!r}", tok)
        return tok

    def expect_kw(self, word: str) -> Tok:
        tok = self.next()
        if tok.kind != "ident" or tok.value != word:
            raise self.error(f"expected keyword {word!r}, found {tok.value or _EMPTY_TOKEN[tok.kind]!r}", tok)
        return tok

    def expect_ident(self, what: str = "identifier") -> Tok:
        tok = self.next()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.value or _EMPTY_TOKEN[tok.kind]!r}", tok)
        if tok.value in KEYWORDS or tok.value.lower() == "similarto":
            raise self.error(f"{tok.value!r} is a reserved word", tok)
        return tok

    def expect_new_name(self, what: str) -> Tok:
        """The name token of an output or a definition."""
        tok = self.expect_ident(what)
        if tok.value.startswith("__"):
            raise self.error(f"{what} {tok.value!r} starts with '__', which is reserved", tok)
        return tok

    def expect_string(self, what: str = "string literal") -> Tok:
        tok = self.next()
        if tok.kind != "string":
            raise self.error(f"expected {what}", tok)
        return tok

    def expect_number(self, what: str = "number") -> int | float:
        """The next token's value: an exact int when its fraction is absent
        or zero, else a float. A value that a float cannot hold finitely is
        an error."""
        tok = self.next()
        if tok.kind != "number":
            raise self.error(f"expected {what}", tok)
        number = float(tok.value)
        if number == math.inf:
            raise self.error(f"{what} is too large", tok)
        whole, _, fraction = tok.value.partition(".")
        if any(map(int, fraction)):
            return number
        # A finite integer has at most 309 digits after its leading zeros,
        # and int() refuses a text of more than 4300 digits.
        return int(whole[-309:])

    def at_op(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value == value

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value == word

    # -- names ------------------------------------------------------------

    def resolve(self, tok: Tok, role: str, target: str | None) -> None:
        """Check the reference `tok` to a variable, in `role`, from the
        definition of `target` or, when `target` is None, from a
        constraint once every definition is in the table."""
        name = tok.value
        kind = self.kinds.get(name)
        if kind is None:
            if target is None and name in self.str_outputs:
                raise self.error(_UNDEFINED_OUTPUT[role].format(name), tok)
            if role == "right":
                raise self.error(f"constraint references undeclared variable {name!r}", tok)
            where = f" (in definition of {target!r})" if target else ""
            raise self.error(f"variable {name!r} is used before it is defined{where}", tok)
        if role == "base" and kind != NODE:
            raise self.error(f"path base {name!r} must be a node variable, it is {kind}", tok)
        if role == "subtree" and kind != NODE:
            raise self.error(f"subtree base {name!r} must be a defined node variable", tok)

    def expect_declared(self, what: str, where: str) -> Tok:
        """A variable that the `where` of a satisfying or excluding clause
        reads: an output, or a definition of the if body, which has ended."""
        tok = self.expect_ident(what)
        if tok.value not in self.kinds and tok.value not in self.str_outputs:
            raise self.error(f"{where} references undeclared variable {tok.value!r}", tok)
        return tok

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> Query:
        self.expect_kw("extract")
        outputs = self._outputs()
        self.expect_kw("from")
        source = self._source()
        self.expect_kw("if")
        self.expect_op("(")
        defs, constraints = self._if_body()
        self.expect_op(")")
        satisfying: list[SatisfyingClause] = []
        while self.at_kw("satisfying"):
            satisfying.append(self._satisfying(satisfying))
        excluding: tuple[SatCondition, ...] = ()
        if self.at_kw("excluding"):
            self.next()
            excluding = tuple(c for c, _ in self._condition_disjunction("excluding condition"))
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.value or _EMPTY_TOKEN[tok.kind]!r}", tok)
        for name, tok in self.str_outputs.items():
            if name not in self.kinds:
                raise self.error(f"output variable {name!r} of type Str has no definition", tok)
        return Query(tuple(outputs), source, tuple(defs), tuple(constraints), tuple(satisfying), excluding)

    def _outputs(self) -> list[tuple[str, str]]:
        outs = [self._one_output()]
        while self.at_op(","):
            self.next()
            outs.append(self._one_output())
        return outs

    def _one_output(self) -> tuple[str, str]:
        name = self.expect_new_name("output variable")
        if name.value in self.kinds or name.value in self.str_outputs:
            raise self.error(f"duplicate output variable {name.value!r}", name)
        self.expect_op(":")
        typ = self.next()
        if typ.kind != "ident":
            raise self.error("expected output type", typ)
        if typ.value == "Str":
            self.str_outputs[name.value] = name
        else:
            self.kinds[name.value] = ENTITY
        return name.value, typ.value

    def _source(self) -> str:
        tok = self.peek()
        if tok.kind == "string":
            self.next()
            return quote(tok.value)
        if tok.kind == "op" and tok.value == "<":
            self.next()
            name = self.next()
            if name.kind != "ident":
                raise self.error("expected placeholder name after '<'", name)
            self.expect_op(">")
            return f"<{name.value}>"
        if tok.kind == "ident":
            parts = [self.next().value]
            while self.at_op(".") and self.peek(1).kind == "ident":
                self.next()
                parts.append(self.next().value)
            return ".".join(parts)
        raise self.error("expected corpus reference after 'from'", tok)

    def _if_body(self) -> tuple[list[VarDef], list[Constraint]]:
        defs: list[VarDef] = []
        constraints: list[Constraint] = []
        while True:
            if self.at_op("/") and self.peek(1).kind == "ident" and self.peek(1).value == "ROOT":
                self.next()
                self.next()
                self.expect_op(":")
                self.expect_op("{")
                defs.extend(self._definitions())
                self.expect_op("}")
            elif self.at_op("("):
                constraints.append(self._constraint())
            else:
                break
        for tok, role in self.deferred:
            self.resolve(tok, role, None)
        return defs, constraints

    def _definitions(self) -> list[VarDef]:
        defs: list[VarDef] = []
        if self.at_op("}"):
            return defs
        while True:
            name = self.expect_new_name("variable name")
            kind = self.kinds.get(name.value)
            if kind == ENTITY:
                message = "is bound by the entity index and cannot also be defined"
                raise self.error(f"entity-typed output {name.value!r} {message}", name)
            if kind is not None:
                raise self.error(f"variable {name.value!r} defined twice", name)
            self.expect_op("=")
            atoms = self._span_expr()
            for tok, role in self.refs:
                self.resolve(tok, role, name.value)
            self.refs.clear()
            self.kinds[name.value] = definition_kind(atoms)
            defs.append(VarDef(name=name.value, atoms=tuple(atoms)))
            if self.at_op(","):
                self.next()
                continue
            break
        return defs

    def _constraint(self) -> Constraint:
        self.expect_op("(")
        left = self._span_expr()
        self.expect_op(")")
        op_tok = self.next()
        if op_tok.kind != "ident" or op_tok.value not in ("in", "eq"):
            raise self.error("expected 'in' or 'eq' between constraint operands", op_tok)
        self.expect_op("(")
        right = self._span_expr()
        self.expect_op(")")
        if len(right) != 1 or not isinstance(right[0], VarAtom):
            raise self.error(f"right side of '{op_tok.value}' must be a single variable", op_tok)
        *refs, (right_tok, _) = self.refs
        self.refs.clear()
        if len(left) > 1:
            refs = [(tok, "member" if role == "var" else role) for tok, role in refs]
        self.deferred += refs
        self.deferred.append((right_tok, "right"))
        return Constraint(op=op_tok.value, left=tuple(left), right=right[0].name)

    def _span_expr(self) -> list[SpanAtom]:
        atoms = self._atom()
        while self.at_op("+"):
            self.next()
            atoms.extend(self._atom())
        return atoms

    def _atom(self) -> list[SpanAtom]:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.next()
            inner = self._span_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "op" and tok.value == "^":
            self.next()
            return [self._elastic()]
        if tok.kind == "string":
            self.next()
            if not tok.value.split():
                raise self.error("string literal must contain at least one word", tok)
            return [TokensAtom(tok.value)]
        if tok.kind == "op" and tok.value in ("/", "//"):
            return [PathAtom(self._path(base=None))]
        if tok.kind == "ident":
            self.expect_ident()
            if self.at_op(".") and self.peek(1).kind == "ident" and self.peek(1).value == "subtree":
                self.next()
                self.next()
                self.refs.append((tok, "subtree"))
                return [SubtreeAtom(tok.value)]
            if self.at_op("/") or self.at_op("//"):
                self.refs.append((tok, "base"))
                return [PathAtom(self._path(base=tok.value))]
            self.refs.append((tok, "var"))
            return [VarAtom(tok.value)]
        raise self.error(f"expected a span atom, found {tok.value or _EMPTY_TOKEN[tok.kind]!r}", tok)

    def _path(self, base: str | None) -> PathExpr:
        steps: list[Step] = []
        while self.at_op("/") or self.at_op("//"):
            axis = self.next().value
            label_tok = self.next()
            if label_tok.kind == "string":
                kind, label = "word", label_tok.value
            elif label_tok.kind == "op" and label_tok.value == "*":
                kind, label = "wild", "*"
            elif label_tok.kind == "ident":
                kind, label = "name", label_tok.value
                side = classify_label(label)
                if side is None:
                    raise self.error(f"label {label!r} is neither a known parse label nor a POS tag", label_tok)
            else:
                raise self.error("expected a label, quoted token or '*' after axis", label_tok)
            conditions: tuple[NodeCondition, ...] = ()
            if self.at_op("["):
                pos = label if kind == "name" and side == POS else None
                conditions = tuple(self._conditions(_NODE_CONDITION_KEYS, pos))
            if kind == "word" and any(c.key == "text" for c in conditions):
                raise self.error("a quoted token step cannot also carry a @text condition", label_tok)
            steps.append(Step(axis=axis, label=label, kind=kind, conditions=conditions))
        return PathExpr(base=base, steps=tuple(steps))

    def _conditions(self, allowed: set[str], pos: str | None = None) -> list[NodeCondition]:
        """A bracketed condition list. `pos` is the POS tag that the
        step's label names, which every @pos condition must agree with."""
        self.expect_op("[")
        out: list[NodeCondition] = []
        while True:
            if self.at_op("@"):
                self.next()
            key_tok = self.next()
            if key_tok.kind != "ident" or key_tok.value not in allowed:
                expected = ", ".join(sorted(allowed))
                raise self.error(f"unknown condition key {key_tok.value!r}; expected one of {expected}", key_tok)
            self.expect_op("=")
            if key_tok.value in ("min", "max"):
                num = self.expect_number("token count")
                if type(num) is not int:
                    raise self.error(f"@{key_tok.value} must be a non-negative integer", key_tok)
                out.append(NodeCondition(key_tok.value, str(num)))
            else:
                val = self.expect_string(f"value for @{key_tok.value}")
                if key_tok.value == "regex":
                    self._regex(val)
                elif key_tok.value == "pos":
                    if pos is not None and pos != val.value:
                        raise self.error(f"conflicting POS constraints {pos!r} and {val.value!r} on one step", val)
                    pos = val.value
                out.append(NodeCondition(key_tok.value, val.value))
            if self.at_op(","):
                self.next()
                continue
            self.expect_op("]")
            break
        return out

    def _elastic(self) -> ElasticAtom:
        if not self.at_op("["):
            return ElasticAtom()
        start = self.peek()
        conds = {c.key: c.value for c in self._conditions(_ELASTIC_CONDITION_KEYS)}
        low, high = (int(conds[key]) if key in conds else None for key in ("min", "max"))
        if low is not None and high is not None and low > high:
            raise self.error("@min cannot exceed @max on an elastic span", start)
        return ElasticAtom(regex=conds.get("regex"), min_tokens=low, max_tokens=high, etype=conds.get("etype"))

    def _regex(self, tok: Tok) -> None:
        try:
            compile_pattern(tok.value)
        except KokoQueryError as exc:
            raise self.error(str(exc), tok) from None

    def _satisfying(self, before: list[SatisfyingClause]) -> SatisfyingClause:
        self.expect_kw("satisfying")
        var = self.expect_declared("variable name after 'satisfying'", "satisfying clause")
        if any(clause.var == var.value for clause in before):
            raise self.error(f"variable {var.value!r} has more than one satisfying clause", var)
        conditions = self._condition_disjunction("condition")
        if not self.at_kw("with"):
            raise self.error("satisfying clause requires 'with threshold <number>'")
        self.next()
        self.expect_kw("threshold")
        threshold = float(self.expect_number("threshold"))
        return SatisfyingClause(var.value, tuple(WeightedCondition(c, w) for c, w in conditions), threshold)

    def _condition_disjunction(self, where: str) -> list[tuple[SatCondition, float]]:
        """The conditions of a satisfying clause, `where` "condition", or of
        the excluding clause, "excluding condition", which take no weights."""
        out = [self._one_condition(where)]
        while self.at_kw("or"):
            self.next()
            out.append(self._one_condition(where))
        return out

    def _one_condition(self, where: str) -> tuple[SatCondition, float]:
        self.expect_op("(")
        cond = self._condition_body(where)
        weight = 1.0
        if self.at_op("{"):
            open_tok = self.next()
            if where == "excluding condition":
                raise self.error("excluding conditions take no weight", open_tok)
            weight = float(self.expect_number("weight"))
            self.expect_op("}")
            if not 0.0 <= weight <= 1.0:
                raise self.error("weight must lie in [0, 1]", open_tok)
        self.expect_op(")")
        return cond, weight

    def _condition_body(self, where: str) -> SatCondition:
        tok = self.peek()
        if tok.kind == "string":
            self.next()
            var = self.expect_declared("variable after literal", where)
            return SatCondition("preceded_by", var.value, tok.value)
        if tok.kind == "op" and tok.value == "[[":
            phrase = self._descriptor_phrase()
            var = self.expect_declared("variable after descriptor", where)
            return SatCondition("desc_left", var.value, phrase)
        if tok.kind != "ident":
            raise self.error("expected a condition", tok)
        if tok.value == "str":
            self.next()
            self.expect_op("(")
            var = self.expect_declared("variable inside str(...)", where).value
            self.expect_op(")")
        else:
            var = self.expect_declared("variable", where).value
        op = self.peek()
        # `x similarTo "p"`, `x ~ "p"` and both with `str(x)` are one condition.
        if op.kind == "op" and op.value == "~" or op.kind == "ident" and op.value.lower() == "similarto":
            self.next()
            phrase = self.expect_string("phrase after '~'" if op.value == "~" else "phrase after similarTo")
            return SatCondition("similar_to", var, phrase.value)
        return self._str_condition(var) if tok.value == "str" else self._var_condition(var)

    def _str_condition(self, var: str) -> SatCondition:
        op = self.next()
        if op.kind != "ident":
            raise self.error("expected condition operator after str(...)", op)
        if op.value in ("contains", "mentions", "matches"):
            lit = self.expect_string(f"literal after {op.value}")
            if op.value == "matches":
                self._regex(lit)
            return SatCondition(op.value, var, lit.value)
        if op.value == "in":
            self.expect_kw("dict")
            self.expect_op("(")
            name = self.expect_string("dictionary name")
            self.expect_op(")")
            return SatCondition("in_dict", var, name.value)
        raise self.error(f"unknown string condition {op.value!r}", op)

    def _var_condition(self, var: str) -> SatCondition:
        tok = self.peek()
        if tok.kind == "ident" and tok.value == "near":
            self.next()
            lit = self.expect_string("literal after near")
            return SatCondition("near", var, lit.value)
        if tok.kind == "string":
            self.next()
            return SatCondition("followed_by", var, tok.value)
        if tok.kind == "op" and tok.value == "[[":
            phrase = self._descriptor_phrase()
            return SatCondition("desc_right", var, phrase)
        raise self.error("expected a condition operator after variable", tok)

    def _descriptor_phrase(self) -> str:
        self.expect_op("[[")
        phrase = self.expect_string("descriptor phrase")
        if not phrase.value.split():
            raise self.error("descriptor phrase must contain at least one word", phrase)
        self.expect_op("]]")
        return phrase.value


def parse_query(text: str) -> Query:
    return _Parser(text).parse_query()
