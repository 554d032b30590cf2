"""End-to-end query pipeline: normalize, index lookup, per-sentence
evaluation, evidence aggregation.

Per-sentence evaluation is independent across sentences; with ``jobs > 1``
it runs on a thread pool and results are merged in sentence order, so the
output is identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .aggregate import ResultRow, finalize_results
from .corpus import Corpus
from .dpli import BindingTable, candidate_bindings
from .gsp import CandidateTuple, EvalStats, SkipPlan, evaluate_sentence, generate_skip_plan
from .indexes import IndexBundle
from .normalize import NormalizedQuery, normalize
from .resources import Resources
from .syntax import Query


@dataclass
class QueryRun:
    rows: list[ResultRow]
    tuples: list[CandidateTuple]
    stats: EvalStats
    table: BindingTable
    normalized: NormalizedQuery
    plans: dict[int, SkipPlan] = field(default_factory=dict)
    lookup_seconds: float = 0.0
    eval_seconds: float = 0.0

    @property
    def candidate_sids(self) -> list[int]:
        return self.table.candidate_sids

    @property
    def answer_sids(self) -> set[int]:
        return {r.sid for r in self.rows if r.passed}


def run_query(
    q: Query | NormalizedQuery,
    corpus: Corpus,
    bundle: IndexBundle,
    resources: Resources | None = None,
    use_gsp: bool = True,
    keep_failed: bool = False,
    jobs: int = 1,
) -> QueryRun:
    n = normalize(q)
    resources = resources if resources is not None else Resources()
    t0 = time.perf_counter()
    table = candidate_bindings(n, bundle)
    t1 = time.perf_counter()
    stats = EvalStats()
    plans: dict[int, SkipPlan] = {}
    tuples: list[CandidateTuple] = []

    def eval_one(sid: int) -> tuple[list[CandidateTuple], SkipPlan, EvalStats]:
        local = EvalStats()
        t = corpus.sentence_lengths[sid]
        plan = generate_skip_plan(n, table, sid, t) if use_gsp else SkipPlan()
        return evaluate_sentence(n, table, sid, plan, corpus, local), plan, local

    sids = table.candidate_sids
    if jobs > 1 and len(sids) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(eval_one, sids))
    else:
        results = [eval_one(sid) for sid in sids]
    for sid, (sentence_tuples, plan, local) in zip(sids, results):
        plans[sid] = plan
        tuples.extend(sentence_tuples)
        stats.loop_iterations += local.loop_iterations
        stats.tuples += local.tuples
        stats.sentences += local.sentences

    t2 = time.perf_counter()
    rows = finalize_results(n, tuples, corpus, resources, keep_failed=keep_failed)
    return QueryRun(
        rows=rows, tuples=tuples, stats=stats, table=table, normalized=n, plans=plans,
        lookup_seconds=t1 - t0, eval_seconds=t2 - t1,
    )
