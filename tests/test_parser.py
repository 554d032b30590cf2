from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koko.dpli import candidate_bindings
from koko.errors import KokoQueryError, KokoSyntaxError
from koko.normalize import normalize
from koko.parser import _lex, parse_query
from koko.syntax import (
    Constraint,
    ElasticAtom,
    NodeCondition,
    PathAtom,
    PathExpr,
    Query,
    SatCondition,
    SatisfyingClause,
    Step,
    SubtreeAtom,
    TokensAtom,
    VarAtom,
    VarDef,
    WeightedCondition,
)

from .conftest import QUERY_FIXTURES, fixture_query_text
from .pretty import pretty_print


@pytest.mark.parametrize("name", QUERY_FIXTURES)
def test_fixture_queries_parse_and_round_trip(name):
    q = parse_query(fixture_query_text(name))
    assert parse_query(pretty_print(q)) == q


def test_ex21_shape():
    q = parse_query(fixture_query_text("ex21"))
    assert q.outputs == (("e", "Entity"), ("d", "Str"))
    assert [d.name for d in q.defs] == ["a", "b", "c", "d"]
    a, b, c, d = q.defs
    assert isinstance(a.atoms[0], PathAtom) and a.atoms[0].path.base is None
    assert b.atoms[0].path.base == "a"
    assert c.atoms[0].path.steps[0].kind == "word"
    assert isinstance(d.atoms[0], SubtreeAtom) and d.atoms[0].var == "b"
    assert len(q.constraints) == 1
    con = q.constraints[0]
    assert con.op == "in" and con.left == (VarAtom("b"),) and con.right == "e"


def test_ex23_shape():
    q = parse_query(fixture_query_text("ex23"))
    assert not q.defs and not q.constraints
    clause = q.satisfying[0]
    assert clause.var == "x" and clause.threshold == 0.8
    kinds = [wc.condition.kind for wc in clause.conditions]
    assert kinds == ["contains", "contains", "followed_by", "desc_right", "desc_right"]
    assert [wc.weight for wc in clause.conditions] == [1.0, 1.0, 1.0, 0.5, 0.5]
    assert q.excluding == (SatCondition("matches", "x", "[Ll]a Marzocco"),)


def test_fig9_condition_counts():
    q = parse_query(fixture_query_text("fig9_cafes"))
    assert len(q.satisfying[0].conditions) == 17
    assert len(q.excluding) == 18
    assert sum(1 for c in q.excluding if c.kind == "in_dict") == 1
    assert q.source == "<InputFile>"


def test_similar_to_spellings():
    base = 'extract a:GPE from "x" if () satisfying a ({}) with threshold 0'
    variants = [
        'a similarTo "city" {1.0}',
        'a SimilarTo "city" {1.0}',
        'a ~ "city" {1.0}',
        'str(a) ~ "city" {1.0}',
        'str(a) similarTo "city" {1.0}',
    ]
    parsed = [parse_query(base.format(v)) for v in variants]
    conds = {q.satisfying[0].conditions[0].condition for q in parsed}
    assert conds == {SatCondition("similar_to", "a", "city")}


def test_elastic_conditions_round_trip():
    q = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@min=1, @max=3] + "b" })'
    )
    elastic = q.defs[0].atoms[1]
    assert elastic == ElasticAtom(min_tokens=1, max_tokens=3)
    assert parse_query(pretty_print(q)) == q


def test_entity_typed_elastic():
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = //verb + ^[@etype="Entity"] })')
    assert q.defs[0].atoms[1] == ElasticAtom(etype="Entity")


def test_conditions_accept_missing_at_prefix():
    q1 = parse_query('extract v:Str from "x" if (/ROOT:{ v = //*[etype="Person"] })')
    q2 = parse_query('extract v:Str from "x" if (/ROOT:{ v = //*[@etype="Person"] })')
    assert q1 == q2


def test_comment_lines_ignored():
    q = parse_query('# heading\nextract v:Str from "x" if (/ROOT:{ v = //verb })\n# tail\n')
    assert q.defs[0].name == "v"


@pytest.mark.parametrize(
    "text, message",
    [
        ('extract v:Str from "x" if (/ROOT:{ v = //verb )', "expected"),
        ('extract v:Str from "x" if () satisfying w (str(w) contains "a" {1}) with threshold 0',
         "undeclared"),
        ('extract v:Str from "x" if (/ROOT:{ v = //verb }) satisfying v (str(v) contains "a" {2})'
         ' with threshold 0', "weight"),
        ('extract v:Str from "x" if (/ROOT:{ v = //verb }) satisfying v (str(v) contains "a" {1})',
         "threshold"),
        ('extract v:Str from "x" if (/ROOT:{ v = w/dobj })', "before it is defined"),
        ('extract v:Str from "x" if (/ROOT:{ v = //verb, v = //noun })', "defined twice"),
        ('extract v:Str from "x" if (/ROOT:{ v = //"ate"[@text="ate"] })', "@text"),
        ('extract v:Str from "x" if $()', "unexpected character"),
        ('extract e:Entity from "x" if (/ROOT:{ e = //verb })', "entity-typed output"),
        ('extract v:Str from "x" if (/ROOT:{ v = ^[@min=3, @max=1] })', "@min cannot exceed"),
        ('extract v:Str from "x" if () excluding (str(v) contains "a" {1})', "no weight"),
        # Digits that are not decimal start no number.
        ('extract v:Str from "x" if (/ROOT:{ v = ^[@max=²] })', r"unexpected character '²' \(line 1, column 47\)"),
        ('extract v:Str from "x" if (/ROOT:{ v = ^[@max=①] })', r"unexpected character '①' \(line 1, column 47\)"),
        # A token without text is named by its kind.
        ('extract v:Str from "x" if "" ()', r"expected '\(', found 'empty string literal' \(line 1, column 27\)"),
        ('extract v:Str "" from "x" if ()', r"expected keyword 'from', found 'empty string literal' \(line 1, column 15\)"),
        ('extract v:Str from "x" if (/ROOT:{ "" = //verb })', r"expected variable name, found 'empty string literal'"),
        ('extract v:Str from "x" if (/ROOT:{ v = //verb }) ""',
         r"unexpected trailing input 'empty string literal' \(line 1, column 50\)"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(KokoSyntaxError, match=message):
        parse_query(text)


# One query per rule that the parser checks, each refused at the token at
# fault: (query, message, line, column).
_RULES = {
    "duplicate-output": (
        'extract v:Str,\n        v:Str\nfrom "x" if (/ROOT:{ v = //verb })',
        "duplicate output variable 'v'", 2, 9,
    ),
    "defined-twice": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = //verb,\n    v = //noun\n})',
        "variable 'v' defined twice", 4, 5,
    ),
    "entity-output-defined": (
        'extract e:Entity from "x" if (\n/ROOT:{\n    a = //verb,\n    e = a/dobj\n})',
        "entity-typed output 'e' is bound by the entity index and cannot also be defined", 4, 5,
    ),
    "use-before-definition-variable": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = //verb + ^ + w,\n    w = //noun\n})',
        "variable 'w' is used before it is defined (in definition of 'v')", 3, 22,
    ),
    "use-before-definition-subtree": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = (w.subtree),\n    w = //noun\n})',
        "variable 'w' is used before it is defined (in definition of 'v')", 3, 10,
    ),
    "use-before-definition-path-base": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = w/dobj,\n    w = //verb\n})',
        "variable 'w' is used before it is defined (in definition of 'v')", 3, 9,
    ),
    "undeclared-in-constraint": (
        'extract e:Entity from "x" if (\n/ROOT:{ v = //verb }\n(w) in (e)\n)',
        "variable 'w' is used before it is defined", 3, 2,
    ),
    "undeclared-in-constraint-right": (
        'extract e:Entity from "x" if (\n(e) in (w)\n/ROOT:{ v = //verb }\n)',
        "constraint references undeclared variable 'w'", 2, 9,
    ),
    "undeclared-in-satisfying-clause": (
        'extract v:Str from "x" if (/ROOT:{ v = //verb })\nsatisfying w\n    (str(v) contains "a" {1})\nwith threshold 0.5',
        "satisfying clause references undeclared variable 'w'", 2, 12,
    ),
    "undeclared-in-condition": (
        'extract v:Str from "x" if (/ROOT:{ v = //verb })\nsatisfying v\n    (str(v) contains "a" {1}) or\n'
        '    (w near "b" {1})\nwith threshold 0.5',
        "condition references undeclared variable 'w'", 4, 6,
    ),
    "undeclared-in-excluding-clause": (
        'extract v:Str from "x" if (/ROOT:{ v = //verb })\nexcluding\n    (str(v) contains "a") or\n'
        '    (str(w) matches "b")',
        "excluding condition references undeclared variable 'w'", 4, 10,
    ),
    "two-satisfying-clauses": (
        'extract v:Str from "x" if (/ROOT:{ v = //verb })\nsatisfying v (str(v) contains "a" {1}) with threshold 0.5\n'
        'satisfying v (str(v) contains "b" {1}) with threshold 0.5',
        "variable 'v' has more than one satisfying clause", 3, 12,
    ),
    "str-output-without-definition": (
        'extract e:Entity,\n        v:Str\nfrom "x" if ()\nsatisfying v (str(v) contains "a" {1}) with threshold 0.5',
        "output variable 'v' of type Str has no definition", 2, 9,
    ),
    "str-output-without-definition-in-constraint": (
        'extract e:Entity, v:Str from "x" if (\n/ROOT:{ a = //verb }\n(v) in (e)\n)',
        "constraint references unknown variable 'v'", 3, 2,
    ),
    "path-base-not-a-node": (
        'extract v:Str from "x" if (\n/ROOT:{\n    a = "ate" + ^,\n    v = a//dobj\n})',
        "path base 'a' must be a node variable, it is composite", 4, 9,
    ),
    "subtree-base-not-a-node": (
        'extract e:Entity, v:Str from "x" if (\n/ROOT:{\n    v = (e.subtree)\n})',
        "subtree base 'e' must be a defined node variable", 3, 10,
    ),
    "unknown-label": (
        'extract v:Str from "x" if (\n/ROOT:{\n    a = //verb,\n    v = a/dobj/blorp\n})',
        "label 'blorp' is neither a known parse label nor a POS tag", 4, 16,
    ),
    "conflicting-pos": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = //verb[@etype="Person",\n               @pos="noun"]\n})',
        "conflicting POS constraints 'verb' and 'noun' on one step", 4, 21,
    ),
    "reserved-output-name": (
        'extract v:Str,\n        __v1:Str\nfrom "x" if (/ROOT:{ v = //verb })',
        "output variable '__v1' starts with '__', which is reserved", 2, 9,
    ),
    # A string literal atom matches a sequence of words, so it needs one.
    "empty-literal": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = ""\n})',
        "string literal must contain at least one word", 3, 9,
    ),
    "empty-literal-in-span": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = "ate" + ""\n})',
        "string literal must contain at least one word", 3, 17,
    ),
    "blank-literal": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = "  "\n})',
        "string literal must contain at least one word", 3, 9,
    ),
    "reserved-definition-name": (
        'extract v:Str from "x" if (\n/ROOT:{\n    v = //verb,\n    __s1 = //nsubj\n})',
        "variable name '__s1' starts with '__', which is reserved", 4, 5,
    ),
}


@pytest.mark.parametrize("text, message, line, col", _RULES.values(), ids=_RULES.keys())
def test_each_rule_is_checked_at_the_token_at_fault(text, message, line, col):
    with pytest.raises(KokoSyntaxError) as info:
        parse_query(text)
    assert str(info.value) == f"{message} (line {line}, column {col})"
    assert (info.value.line, info.value.col) == (line, col)


def test_syntax_errors_carry_position():
    try:
        parse_query('extract v:Str from "x" if (/ROOT:{ v = //verb )')
    except KokoSyntaxError as exc:
        assert exc.line >= 1 and exc.col >= 1
    else:
        pytest.fail("expected a syntax error")


def test_regex_dialect_rejected_constructs():
    with pytest.raises(KokoQueryError, match="dialect"):
        parse_query(
            'extract v:Str from "x" if () satisfying v (str(v) matches "(?=x)") with threshold 0'
        )


def test_multiple_satisfying_clauses_one_per_variable():
    text = (
        'extract a:Entity, b:Entity from "x" if ()\n'
        'satisfying a (str(a) contains "q" {1}) with threshold 0.5\n'
        'satisfying b (str(b) contains "r" {1}) with threshold 0.5\n'
    )
    q = parse_query(text)
    assert [c.var for c in q.satisfying] == ["a", "b"]
    dup = text + 'satisfying a (str(a) contains "z" {1}) with threshold 0.1\n'
    with pytest.raises(KokoSyntaxError, match="more than one satisfying"):
        parse_query(dup)


def test_unquoted_and_placeholder_sources_round_trip():
    for src in ("wiki.article", "<InputFile>", '"input.txt"'):
        q = parse_query(f"extract v:Str from {src} if (/ROOT:{{ v = //verb }})")
        assert q.source == src
        assert parse_query(pretty_print(q)) == q


# Generator-based round-trip: random but well-formed queries survive
# parse -> print -> parse unchanged, including string escaping.

_labels = st.sampled_from(["nsubj", "dobj", "amod", "det", "prep"])
_postags = st.sampled_from(["verb", "noun", "adj"])
_words = st.sampled_from(["ate", "cream", "a b", 'say "hi"', "back\\slash", "café"])
_etypes = st.sampled_from(["Entity", "Person", "GPE"])


@st.composite
def _step(draw):
    axis = draw(st.sampled_from(["/", "//"]))
    kind = draw(st.sampled_from(["name", "pos", "word", "wild"]))
    conds = []
    if kind == "name":
        label, k = draw(_labels), "name"
    elif kind == "pos":
        label, k = draw(_postags), "name"
    elif kind == "word":
        label, k = draw(_words), "word"
    else:
        label, k = "*", "wild"
        if draw(st.booleans()):
            conds.append(NodeCondition("pos", draw(_postags)))
    if k != "word" and draw(st.booleans()):
        conds.append(NodeCondition("etype", draw(_etypes)))
    return Step(axis=axis, label=label, kind=k, conditions=tuple(conds))


@st.composite
def _query(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=3))
    defs = []
    for i in range(n_nodes):
        steps = tuple(draw(st.lists(_step(), min_size=1, max_size=3)))
        defs.append(VarDef(name=f"n{i}", atoms=(PathAtom(PathExpr(None, steps)),)))
    atoms = [VarAtom("n0")]
    if draw(st.booleans()):
        atoms += [ElasticAtom(min_tokens=draw(st.integers(0, 2))), TokensAtom(draw(_words))]
    defs.append(VarDef(name="spanv", atoms=tuple(atoms)))
    if draw(st.booleans()):
        defs.append(VarDef(name="rel", atoms=(PathAtom(PathExpr("n0", (draw(_step()),))),)))
    outputs = [("spanv", "Str")]
    constraints = []
    if draw(st.booleans()):
        outputs.append(("ent", draw(_etypes)))
        constraints.append(Constraint("in", (VarAtom(f"n{n_nodes - 1}"),), "ent"))
    satisfying = []
    if draw(st.booleans()):
        cond = SatCondition(
            draw(st.sampled_from(["contains", "mentions", "near", "similar_to", "desc_right"])),
            "spanv",
            draw(_words),
        )
        satisfying.append(SatisfyingClause(
            var="spanv",
            conditions=(WeightedCondition(cond, draw(st.sampled_from([0.25, 0.5, 1.0]))),),
            threshold=draw(st.sampled_from([0.0, 0.5, 1.0])),
        ))
    excluding = ()
    if draw(st.booleans()):
        excluding = (SatCondition("contains", "spanv", draw(_words)),)
    return Query(
        outputs=tuple(outputs),
        source='"input.txt"',
        defs=tuple(defs),
        constraints=tuple(constraints),
        satisfying=tuple(satisfying),
        excluding=excluding,
    )


@given(_query())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(q):
    assert parse_query(pretty_print(q)) == q


@given(q=_query())
@settings(max_examples=40, deadline=None)
def test_a_parsed_query_normalizes_and_binds(ex31_bundle, q):
    candidate_bindings(normalize(parse_query(pretty_print(q))), ex31_bundle)


@given(_query(), st.data())
@settings(max_examples=80, deadline=None)
def test_a_query_broken_at_one_token_is_refused_at_that_token(q, data):
    """Renames one reference to a variable to a name that is not defined,
    or one label to an unknown one, in the printed query. A reference is
    a variable's name anywhere but before the `=` or `:` that defines it;
    a label is a name after an axis."""
    text = pretty_print(q)
    toks = _lex(text)
    names = {name for name, _ in q.outputs} | {d.name for d in q.defs}
    refs = [t for t, after in zip(toks, toks[1:]) if t.value in names and after.value not in ("=", ":")]
    labels = [t for t, before in zip(toks[1:], toks) if t.kind == "ident" and before.value in ("/", "//")]
    labels = [t for t in labels if t.value != "ROOT"]
    tok = data.draw(st.sampled_from(refs + labels))
    if tok in refs:
        new, message = data.draw(st.sampled_from(["nowhere", "__v1"])), "undeclared|before it is defined"
    else:
        new, message = "blorp", "neither a known parse label nor a POS tag"
    lines = text.split("\n")
    line = lines[tok.line - 1]
    lines[tok.line - 1] = line[: tok.col - 1] + new + line[tok.col - 1 + len(tok.value) :]
    with pytest.raises(KokoSyntaxError) as info:
        parse_query("\n".join(lines))
    assert re.search(message, str(info.value))
    assert (info.value.line, info.value.col) == (tok.line, tok.col)


def test_nodes_of_different_types_with_equal_fields_differ():
    # A named tuple of either type would equal the other and hash alike.
    nodes = [VarAtom("x"), SubtreeAtom("x"), TokensAtom("x")]
    assert all(a != b for i, a in enumerate(nodes) for b in nodes[i + 1 :])
    assert VarAtom("x") != ("x",)
    keyed = {node: i for i, node in enumerate(nodes)}
    assert len(keyed) == 3 and keyed[SubtreeAtom("x")] == 1


def test_sat_condition_is_hashable_and_equal_to_its_reparse():
    q = parse_query(fixture_query_text("ex23"))
    again = parse_query(pretty_print(q))
    for wc, wc_again in zip(q.satisfying[0].conditions, again.satisfying[0].conditions):
        cond = wc.condition
        assert cond == wc_again.condition and cond is not wc_again.condition
        assert hash(cond) == hash(wc_again.condition)
        assert {cond: 1}[wc_again.condition] == 1
    assert hash(q) == hash(again)


def test_nodes_are_immutable_records():
    cond = SatCondition("contains", "x", "ice")
    assert cond == SatCondition(kind="contains", var="x", arg="ice")
    assert repr(cond) == "SatCondition(kind='contains', var='x', arg='ice')"
    with pytest.raises(AttributeError):
        cond.arg = "cream"
    assert Step("/", "nsubj", "name") == Step("/", "nsubj", "name", ())
    with pytest.raises(TypeError):
        SatCondition("contains", "x")
    with pytest.raises(TypeError):
        SatCondition("contains", "x", "ice", kind="near")


_ELASTIC = 'extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@max=%s] })'


def test_a_number_a_float_cannot_hold_is_a_syntax_error():
    nines = "9" * 400
    with pytest.raises(KokoSyntaxError, match=r"token count is too large \(line 1, column 53\)"):
        parse_query(_ELASTIC % nines)
    text = 'extract v:Str from "x" if (/ROOT:{ v = //verb }) satisfying v (str(v) contains "a" {1}) with threshold '
    with pytest.raises(KokoSyntaxError, match=r"threshold is too large \(line 1, column 104\)"):
        parse_query(text + nines)
    # Leading zeros do not make a value too large.
    assert parse_query(_ELASTIC % ("0" * 5000 + "7")).defs[0].atoms[1].max_tokens == 7


def test_elastic_bounds_are_read_exactly():
    q = parse_query(_ELASTIC % "12345678901234567890")
    assert q.defs[0].atoms[1].max_tokens == 12345678901234567890
    assert parse_query(pretty_print(q)) == q
    assert parse_query(_ELASTIC % "3.0").defs[0].atoms[1].max_tokens == 3
    assert parse_query(_ELASTIC % "12345678901234567890.00").defs[0].atoms[1].max_tokens == 12345678901234567890
    with pytest.raises(KokoSyntaxError, match="@max must be a non-negative integer"):
        parse_query(_ELASTIC % "3.5")
    with pytest.raises(KokoSyntaxError, match="@max must be a non-negative integer"):
        parse_query(_ELASTIC % "12345678901234567890.5")


def test_weights_and_thresholds_stay_floats():
    clause = parse_query(
        'extract v:Str from "x" if (/ROOT:{ v = //verb }) satisfying v (str(v) contains "a" {1}) with threshold 1'
    ).satisfying[0]
    assert type(clause.conditions[0].weight) is float and type(clause.threshold) is float


def test_positions_count_a_newline_after_a_backslash_in_a_string():
    text = 'extract v:Str from "x" if (/ROOT:{ v = "a\\\nb" })\n  $\n'
    with pytest.raises(KokoSyntaxError, match=r"unexpected character '\$' \(line 3, column 3\)"):
        parse_query(text)
    assert parse_query(text[: text.index("$")]).defs[0].atoms[0] == TokensAtom("a\\\nb")


def test_an_error_at_the_end_after_a_comment_is_placed_before_the_comment():
    with pytest.raises(KokoSyntaxError, match=r"found 'end of input' \(line 2, column 7\)"):
        parse_query('extract v:Str from "x" if (\n/ROOT # open')


_DEEP = "(" * 1000 + "a" + ")" * 1000


@pytest.mark.parametrize("regex", ["a{99999999999}", _DEEP], ids=["huge-repeat", "deep-nesting"])
@pytest.mark.parametrize(
    "text",
    [
        'extract v:Str from "x" if (/ROOT:{ v = //nsubj[@regex="%s"] })',
        'extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@regex="%s"] })',
        'extract v:Str from "x" if (/ROOT:{ v = //verb }) satisfying v (str(v) matches "%s" {1}) with threshold 0',
    ],
    ids=["node", "elastic", "matches"],
)
def test_regexes_beyond_the_compiler_limits_are_query_errors(text, regex):
    with pytest.raises(KokoQueryError, match="invalid regex"):
        parse_query(text % regex)
