"""Spans around koko's layer boundaries, recorded from outside the program.

Each layer's public functions are replaced at the module that calls them,
so `run_query` and `koko.cli.main` run unchanged and only their calls into
other layers are timed. A span is (name, start, end, parent, operation id);
spans stay in memory and are written out when the run ends. Counts are
taken at the same boundaries from the functions' arguments and results.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# span name -> layer. Layer self time is the sum of its spans' self times.
LAYER_OF = {
    "corpus.load_corpus": "corpus",
    "corpus.Corpus": "corpus",
    "indexes.corpus_fingerprint": "indexes",
    "indexes.build_indexes": "indexes",
    "indexes.save_bundle": "indexes",
    "indexes.load_bundle": "indexes",
    "parser.parse_query": "parser",
    "normalize.normalize": "normalize",
    "dpli.candidate_bindings": "dpli",
    "gsp.generate_skip_plan": "gsp",
    "gsp.evaluate_sentence": "gsp",
    "aggregate.finalize_results": "aggregate",
    "resources.expand": "resources",
    "resources.decompose": "resources",
    "resources.similarity": "resources",
    "engine.run_query": "engine",
    "cli.main": "cli",
}
LAYERS = ["corpus", "indexes", "parser", "normalize", "dpli", "gsp", "aggregate", "resources", "engine", "cli"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = "setup"
        # Distinct skipped-variable sets seen by the planner in the current
        # operation; the caller resets it per operation.
        self.plans: set[frozenset] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            counts[name + ".calls"] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] += value
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (span name, phase); the phase is the operation
        id up to its first '-' (setup, op, check)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            out[(name, op.split("-")[0])] += (t1 - t0) - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op}) + "\n")


def install(tracer: Tracer, koko, api) -> None:
    """Wrap every layer boundary: the functions the benchmark calls through
    `api`, the ones `koko.cli` and `koko.engine` call, and the resource
    providers. A name a module no longer has is skipped."""

    def loaded(args, docs):
        return {
            "corpus.sentences": sum(len(d.sentences) for d in docs),
            "corpus.tokens": sum(len(s.tokens) for d in docs for s in d.sentences),
        }

    def looked_up(args, table):
        return {
            "dpli.candidate_sentences": len(table.candidate_sids),
            "dpli.p1_postings": sum(i.p1_size or 0 for i in table.info),
            "dpli.p2_postings": sum(i.p2_size or 0 for i in table.info),
            "dpli.q_postings": sum(i.q_size or 0 for i in table.info),
        }

    def planned(args, plan):
        tracer.plans.add(frozenset(plan.skipped))
        return {}

    def evaluated(args, tuples):
        stats = args[5] if len(args) > 5 else None
        if stats is None:
            return {}
        return {"gsp.loop_iterations": stats.loop_iterations, "gsp.tuples": stats.tuples}

    def finalized(args, rows):
        return {
            "aggregate.tuples_in": len(args[1]),
            "aggregate.rows_out": len(rows),
            "aggregate.answer_sentences": len({r.sid for r in rows if r.passed}),
        }

    boundaries = [
        ("load_corpus", "corpus.load_corpus", loaded),
        ("Corpus", "corpus.Corpus", None),
        ("corpus_fingerprint", "indexes.corpus_fingerprint", None),
        ("build_indexes", "indexes.build_indexes", None),
        ("save_bundle", "indexes.save_bundle", None),
        ("load_bundle", "indexes.load_bundle", None),
        ("parse_query", "parser.parse_query", None),
        ("run_query", "engine.run_query", None),
    ]
    for owner in (api, koko.cli):
        for attr, name, count in boundaries:
            if hasattr(owner, attr):
                tracer.patch(owner, attr, name, count)
    for attr, name, count in [
        ("normalize", "normalize.normalize", None),
        ("candidate_bindings", "dpli.candidate_bindings", looked_up),
        ("generate_skip_plan", "gsp.generate_skip_plan", planned),
        ("evaluate_sentence", "gsp.evaluate_sentence", evaluated),
        ("finalize_results", "aggregate.finalize_results", finalized),
    ]:
        if hasattr(koko.engine, attr):
            tracer.patch(koko.engine, attr, name, count)
    for attr in ("expand", "decompose", "similarity"):
        tracer.patch(koko.resources.Resources, attr, "resources." + attr)
