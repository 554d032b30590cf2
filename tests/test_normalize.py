from __future__ import annotations

import pytest

from koko.errors import KokoSyntaxError
from koko.normalize import normalize
from koko.parser import parse_query
from koko.syntax import print_path

from .conftest import load_fixture_query


def test_ex21_absolute_paths_and_constraints():
    n = normalize(load_fixture_query("ex21"))
    assert print_path(n.var("a").path) == "//verb"
    assert print_path(n.var("b").path) == "//verb/dobj"
    assert print_path(n.var("c").path) == '//verb/dobj//"delicious"'
    assert n.var("d").kind == "subtree" and n.var("d").of == "b"
    assert n.var("e").kind == "entity" and n.var("e").etype == "Entity"
    assert [(c.kind, c.a, c.b) for c in n.constraints] == [
        ("parentOf", "a", "b"),
        ("ancestorOf", "b", "c"),
        ("in", "b", "e"),
    ]


def test_ex41_six_constraints_and_elastic_synthesis():
    n = normalize(load_fixture_query("ex41"))
    assert [(c.kind, c.a, c.b) for c in n.constraints] == [
        ("parentOf", "b", "c"),
        ("ancestorOf", "c", "d"),
        ("leftOf", "a", "__v1"),
        ("leftOf", "__v1", "b"),
        ("leftOf", "b", "__v2"),
        ("leftOf", "__v2", "c"),
    ]
    assert n.var("__v1").kind == "elastic" and n.var("__v1").synthesized
    assert n.horizontal[0].lhs == "e"
    assert n.horizontal[0].atoms == ("a", "__v1", "b", "__v2", "c")


def test_absolute_only_query_is_fixpoint():
    q = parse_query('extract v:Str from "x" if (/ROOT:{ v = /root/nsubj })')
    n = normalize(q)
    assert list(n.variables) == ["v"]
    assert not n.constraints and not n.horizontal
    assert print_path(n.var("v").path) == "/root/nsubj"


def test_multi_step_relative_definition_chains_intermediates():
    q = parse_query('extract b:Str from "x" if (/ROOT:{ a = //verb, b = a/dobj/det })')
    n = normalize(q)
    assert print_path(n.var("b").path) == "//verb/dobj/det"
    assert n.var("__s1").hidden
    assert print_path(n.var("__s1").path) == "//verb/dobj"
    assert [(c.kind, c.a, c.b) for c in n.constraints] == [
        ("parentOf", "a", "__s1"),
        ("parentOf", "__s1", "b"),
    ]


def test_empty_extract_yields_no_constraints():
    n = normalize(load_fixture_query("ex23"))
    assert list(n.constraints) == []
    assert list(n.variables) == ["x"]


def test_idempotence():
    n = normalize(load_fixture_query("ex41"))
    assert normalize(n) is n


# The parser refuses these queries, so that normalize takes every parsed
# query as valid.


def test_undefined_str_output_rejected():
    with pytest.raises(KokoSyntaxError, match=r"no definition \(line 1, column 9\)"):
        parse_query('extract v:Str from "x" if ()')


def test_subtree_of_non_node_rejected():
    with pytest.raises(KokoSyntaxError, match=r"node variable \(line 1, column 52\)"):
        parse_query('extract v:Str from "x" if (/ROOT:{ a = "lit", v = (a.subtree) })')


def test_path_base_must_be_node():
    with pytest.raises(KokoSyntaxError, match=r"must be a node variable, it is elastic \(line 1, column 47\)"):
        parse_query('extract v:Str from "x" if (/ROOT:{ a = ^, v = a/dobj })')


def test_describe_layout_stays_stable():
    n = normalize(load_fixture_query("ex21"))
    assert n.describe() == (
        "variables:\n"
        "  e: entity Entity\n"
        "  a: node //verb\n"
        "  b: node //verb/dobj\n"
        '  c: node //verb/dobj//"delicious"\n'
        "  d: subtree(b)\n"
        "constraints:\n"
        "  (a parentOf b)\n"
        "  (b ancestorOf c)\n"
        "  (b) in (e)\n"
        "horizontal:\n"
        "  (none)\n"
    )


def test_eq_constraint_with_composition_synthesizes_variable():
    q = parse_query(
        'extract x:Str from "x" if (/ROOT:{ x = //verb, y = //noun }\n("a" + ^ + y) eq (x))'
    )
    n = normalize(q)
    eqs = [c for c in n.constraints if c.kind == "eq"]
    assert len(eqs) == 1
    lhs = n.var(eqs[0].a)
    assert lhs.kind == "composite" and lhs.synthesized


def test_semantic_preservation_under_normalization(ex31_corpus):
    from koko.oracle import oracle_evaluate

    q = load_fixture_query("ex21")
    direct = oracle_evaluate(q, ex31_corpus)
    renormalized = oracle_evaluate(normalize(q), ex31_corpus)
    assert [r.key() for r in direct] == [r.key() for r in renormalized]
