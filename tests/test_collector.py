"""What a loaded corpus and a query leave for the garbage collector.

A parsed sentence holds its columns as tuples of strs, ints and None,
which CPython stops tracking at their first collection, and evaluating a
query leaves no reference cycle behind. So neither the corpus nor the
queries give the collector work that grows with the number of sentences.
"""

from __future__ import annotations

import gc

from koko.bench import synthesize_corpus
from koko.corpus import Corpus, parse_corpus, serialize_corpus
from koko.engine import run_query
from koko.indexes import build_indexes
from koko.parser import parse_query

from .test_engine_cli import LAZY_QUERIES

# Tracked objects that loading, wrapping and indexing add per sentence:
# the `Sentence` itself, and for the sentences with an entity mention the
# `EntitySpan` and the tuple that holds it. With a per-token list in each
# sentence it was about 22. The hierarchies are columns and one dict each,
# whose (parent, label) keys the collector stops tracking.
TRACKED_PER_SENTENCE = 3


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_loaded_corpus_adds_few_tracked_objects():
    n = 1000
    text = serialize_corpus(synthesize_corpus(4, n, entity_rate=0.5))
    before = _tracked()
    docs = parse_corpus(text)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    added = _tracked() - before
    # More hierarchy nodes than sentences: a tracked object per node would
    # not fit.
    assert len(corpus) == n and bundle.pl.node_count + bundle.pos.node_count > n
    assert added <= TRACKED_PER_SENTENCE * n, added


def _garbage(text: str, n: int) -> tuple[int, int]:
    """Candidate sentences of the query over a synthetic corpus of n
    sentences, and the unreachable objects the query run left behind."""
    docs = synthesize_corpus(4, n, entity_rate=0.5)
    corpus, bundle = Corpus(docs), build_indexes(docs)
    query = parse_query(text)
    gc.collect()
    gc.disable()
    try:
        candidates = len(run_query(query, corpus, bundle).candidate_sids)
        return candidates, gc.collect()
    finally:
        gc.enable()


def test_query_leaves_no_garbage_per_candidate_sentence():
    for name, text in LAZY_QUERIES.items():
        few, garbage_few = _garbage(text, 150)
        many, garbage_many = _garbage(text, 750)
        assert many >= few + 200, name
        # A reference cycle per evaluated sentence left about 20 objects
        # per candidate sentence here.
        assert garbage_many <= garbage_few + 20, (name, few, garbage_few, many, garbage_many)
