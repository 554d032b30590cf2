"""End-to-end query pipeline: normalize, index lookup, per-sentence
evaluation, evidence aggregation.

A query that the index answers without validation (one exact variable,
or a span whose atoms the index answers exactly, separated by plain
gaps, see `gsp.join_plan`) is answered from the index alone: a join over
its atoms' sorted offsets reads each value from the index (`gsp.run_join`),
with no skip plan, no compiled loop, no candidate tuple and no sentence
built.

Every other query's candidate sentences are evaluated in one loop, in
sentence order. The loop plans each sentence (plans are memoized on their
cost ranking, see `koko.gsp`), runs the plan's compiled nested loop, which
is compiled once per distinct plan, and projects the sentence's tuples
onto the values aggregation reads (`aggregate.projector`) while the
sentence is in hand. Both paths hand aggregation the same shape, (sid,
values), so aggregation reads no sentence to build a row. Evidence finds
each value's occurrences in its document once, through the word index
(`WordIndex.sentences_with`), and reads only the words (`Corpus.words`)
of the sentences holding its first token: it builds no sentence, and the
nested loop is the only stage that builds a `Sentence`. `evaluate` stops
before aggregation, for readers of the counts and plans alone.
"""

from __future__ import annotations

import time

from .aggregate import Projected, finalize_results, projector
from .corpus import Corpus
from .dpli import BindingTable, candidate_bindings
from .gsp import EvalStats, SkipPlan, evaluate_sentence, generate_skip_plan, join_plan, run_join
from .indexes import IndexBundle
from .normalize import NormalizedQuery, normalize
from .record import Record
from .resources import Resources
from .syntax import Query


class QueryRun(Record):
    """A query's evaluation: its rows (filled in by `run_query`), projected
    tuples, counts, binding table and normalized query, and the seconds
    its index lookup and evaluation took. `joined` names the atoms an
    offset join answered from their postings, left to right, and is empty
    when the nested loop ran; `plans` counts the candidate sentences the
    nested loop ran under each skip plan, by `SkipPlan.key`, in first-use
    order."""

    __slots__ = _fields = (
        "rows", "tuples", "stats", "table", "normalized", "lookup_seconds", "eval_seconds", "joined", "plans",
    )

    @property
    def candidate_sids(self) -> list[int]:
        return self.table.candidate_sids

    @property
    def answer_sids(self) -> set[int]:
        return {r.sid for r in self.rows if r.passed}


def evaluate(
    q: Query | NormalizedQuery, corpus: Corpus, bundle: IndexBundle, use_gsp: bool = True
) -> QueryRun:
    """The query's tuples and counts, and no row. `use_gsp=False` evaluates
    every sentence without skips (pure nested loops), also when an offset
    join would answer the query."""
    n = normalize(q)
    t0 = time.perf_counter()
    table = candidate_bindings(n, bundle)
    t1 = time.perf_counter()
    stats = EvalStats()
    plans: dict[tuple, int] = {}
    join = join_plan(n, table) if use_gsp else None
    if join is not None:
        tuples = run_join(join, table, bundle, stats)
    else:
        tuples = _nested_loops(n, table, corpus, stats, plans, use_gsp)
    t2 = time.perf_counter()
    return QueryRun(
        rows=[], tuples=tuples, stats=stats, table=table, normalized=n,
        lookup_seconds=t1 - t0, eval_seconds=t2 - t1,
        joined=() if join is None else tuple(atom.name for atom in join.atoms), plans=plans,
    )


def run_query(
    q: Query | NormalizedQuery,
    corpus: Corpus,
    bundle: IndexBundle,
    resources: Resources | None = None,
    use_gsp: bool = True,
    keep_failed: bool = False,
    jobs: int = 1,
) -> QueryRun:
    """Answer a query over the corpus through its index bundle: `evaluate`
    it, then aggregate its tuples into rows.

    `use_gsp=False` forces the nested loop without skips, for the queries
    an offset join would answer too. `keep_failed=True` also returns rows that
    failed their satisfying clause or were excluded. `jobs` must be 1:
    evaluation is CPU-bound pure Python, and a thread pool over it ran 2.7
    times slower under the GIL, so it was removed. Other values raise
    ValueError rather than being ignored.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: sentences are evaluated in one thread; only jobs=1 is supported")
    run = evaluate(q, corpus, bundle, use_gsp)
    run.rows = finalize_results(
        run.normalized, run.tuples, corpus, resources if resources is not None else Resources(),
        keep_failed=keep_failed, locate=bundle.word.sentences_with,
    )
    return run


def _nested_loops(
    n: NormalizedQuery, table: BindingTable, corpus: Corpus, stats: EvalStats, used: dict, use_gsp: bool
) -> list[Projected]:
    """Every candidate sentence's tuples under its skip plan, projected.
    `used` counts the sentences run under each plan, by `SkipPlan.key`."""
    memo: dict = {}
    compiled: dict = {}
    no_skips = SkipPlan()
    lengths = corpus.sentence_lengths
    project = projector(n)
    tuples: list[Projected] = []
    for sid in table.candidate_sids:
        plan = generate_skip_plan(n, table, sid, lengths[sid], memo) if use_gsp else no_skips
        used[plan.key] = used.get(plan.key, 0) + 1
        # The stats argument holds this sentence's counts only, so that
        # whoever observes the call sees them.
        sentence_stats = EvalStats()
        found = evaluate_sentence(n, table, sid, plan, corpus, sentence_stats, compiled)
        stats.add(sentence_stats)
        if found:
            tuples += project(corpus.sentence(sid), found)
    return tuples
