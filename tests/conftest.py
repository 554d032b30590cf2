from __future__ import annotations

import os

import pytest

from koko.corpus import Corpus, load_corpus
from koko.evidence import _descriptor_conf
from koko.indexes import build_indexes, open_corpus
from koko.parser import parse_query
from koko.resources import Clause

DATA = os.path.join(os.path.dirname(__file__), "data")

QUERY_FIXTURES = [
    "ex21", "ex22_q1", "ex22_q2", "ex23", "ex41",
    "s63_chocolate", "s63_title", "s63_dateofbirth",
    "fig9_cafes", "fig10_facilities", "fig11_teams",
]


def data_path(*parts: str) -> str:
    return os.path.join(DATA, *parts)


def postings(bundle, offsets) -> list[tuple[int, int, int, int, int]]:
    """(sid, tid, left, right, depth) of each token offset, the paper's
    index entries: sid, tid and depth read from the bundle's token table,
    the subtree extent from the sentence built from the bundle's heads (the
    index stores no extent)."""
    t, corpus = bundle.tokens, open_corpus(bundle)
    out = []
    for o in offsets:
        sid = t.sid_of[o]
        tid, s = o - t.starts[sid], corpus.sentence(sid)
        out.append((sid, tid, *s.extent(tid), t.depth[o]))
    return out


def path_offsets(index, steps) -> list[int]:
    """The sorted token offsets of the nodes of a PL or POS index whose root
    path matches `steps`, (axis, label) pairs with label possibly `*`: `/`
    consumes one edge, `//` one or more, both from the super-root."""
    nodes = index.match_nodes(steps)
    return list(index.read(nodes, index.postings.size(nodes)))


def descriptor_conf(expansions, words: list[str]) -> float:
    """The confidence of a descriptor's expansions on the right of a value
    at the first of `words`, all one clause of weight 1, as evidence works
    it out (`koko.evidence._descriptor_conf`): the best expansion's score
    when its words follow the value in order, gaps allowed, and 0 when
    none do. A match starting right after the value is not damped."""
    lowered = tuple(w.lower() for w in words)
    matched = []
    for e in expansions:
        phrase = tuple(w.lower() for w in e.words)
        matched.append((phrase, e.score, frozenset(phrase)))
    return _descriptor_conf(lowered, [Clause(tuple(range(len(words))), 1.0)], matched, 0, 0, True)


def load_fixture_query(name: str):
    with open(data_path("queries", f"{name}.koko"), "r", encoding="utf-8") as f:
        return parse_query(f.read())


def fixture_query_text(name: str) -> str:
    with open(data_path("queries", f"{name}.koko"), "r", encoding="utf-8") as f:
        return f.read()


@pytest.fixture(scope="session")
def ex31_docs():
    return load_corpus(data_path("corpus", "ex31.tsv"))


@pytest.fixture(scope="session")
def ex31_corpus(ex31_docs):
    return Corpus(ex31_docs)


@pytest.fixture(scope="session")
def ex31_bundle(ex31_docs):
    return build_indexes(ex31_docs)


@pytest.fixture(scope="session")
def figure1_docs():
    # The first of the two worked-example sentences, as its own corpus.
    docs = load_corpus(data_path("corpus", "ex31.tsv"))
    docs[0].sentences = docs[0].sentences[:1]
    return docs


@pytest.fixture(scope="session")
def figure1_corpus(figure1_docs):
    return Corpus(figure1_docs)


@pytest.fixture(scope="session")
def figure1_bundle(figure1_docs):
    return build_indexes(figure1_docs)
