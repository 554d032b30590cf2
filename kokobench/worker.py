"""The process that does koko's work for one benchmark run.

run.py starts it as `python3 worker.py JOB RESULT` with `PYTHONPATH` set
to the checkout's `src`, so it imports the koko under test and nothing
else. It reads the job (JSON), runs the set-ups and the timed loop, the
traced loop when asked, the index round-trip check and the oracle, and
writes the result (JSON). Its own peak RSS is the workload's
`peak_rss_mb`, so nothing else runs in this process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from types import SimpleNamespace

import spans as tracing

# Per-query counts compared across passes; they must repeat exactly.
DETERMINISTIC = (
    "dpli.candidate_sentences", "dpli.p1_postings", "dpli.p2_postings", "dpli.q_postings",
    "gsp.evaluate_sentence.calls", "gsp.loop_iterations", "gsp.tuples", "gsp.distinct_plans",
    "aggregate.tuples_in", "aggregate.rows_out", "aggregate.answer_sentences",
    "resources.expand.calls", "resources.decompose.calls", "resources.similarity.calls",
)


def row_digest(rows: list) -> str:
    """SHA-256 of the sorted (sid, sorted values) keys of the result rows."""
    keys = sorted([sid, sorted(values.items())] for sid, values in rows)
    return hashlib.sha256(json.dumps(keys, ensure_ascii=False).encode("utf-8")).hexdigest()


def jsonl_digest(text: str) -> str:
    rows = []
    for line in text.splitlines():
        if line.strip():
            row = json.loads(line)
            rows.append((row["sid"], row["values"]))
    return row_digest(rows)


def import_koko(src: str):
    import koko
    import koko.cli
    import koko.engine
    import koko.oracle
    import koko.resources

    where = os.path.realpath(os.path.dirname(koko.__file__))
    if where != os.path.realpath(os.path.join(src, "koko")):
        raise SystemExit(f"koko imported from {where}, not from {src}")
    api = SimpleNamespace(
        load_corpus=koko.corpus.load_corpus,
        Corpus=koko.corpus.Corpus,
        corpus_fingerprint=koko.indexes.corpus_fingerprint,
        build_indexes=koko.indexes.build_indexes,
        save_bundle=koko.indexes.save_bundle,
        load_bundle=koko.indexes.load_bundle,
        parse_query=koko.parser.parse_query,
        run_query=koko.engine.run_query,
    )
    return koko, api


class ResourceFiles:
    """Builds a fresh koko `Resources` per query from files loaded once, as
    a `koko query` process would with the same flags."""

    def __init__(self, koko, files: dict):
        self.koko = koko
        self.table = koko.resources.load_expansion_table(files["expansions"]) if files else None
        self.vectors = koko.resources.WordVectors(files["vectors"]) if files else None
        self.store = koko.resources.DictionaryStore()
        if files:
            self.store.load("Known", files["dict"])

    def fresh(self, expansion: str | None):
        res = self.koko.resources.Resources(dictionaries=self.store)
        if expansion is not None:
            res.decomposer = "clauses"
            res.expansion_table = self.table
            # With both, the table expands descriptors and the vectors
            # score similarTo.
            res.vectors = self.vectors if expansion == "both" else None
        return res


def layer_report(tracer: tracing.Tracer, units: dict[str, int]) -> dict:
    """Self seconds per span name and phase, divided by the number of units
    (operations, set-ups or checks) of the phase, plus the operations'
    total self time."""
    per_name: dict[str, dict[str, float]] = {}
    op_total = 0.0
    for (name, phase), seconds in tracer.self_times().items():
        per_name.setdefault(name, {})[phase] = seconds / max(1, units.get(phase, 1))
        if phase == "op":
            op_total += seconds
    return {"per_name": per_name, "op_self_total_s": op_total}


def timed_loop(order, seconds, run_one, finish):
    """Closed loop with one client: run operations in `order`, cycling, in
    whole passes until `seconds` have passed. Each `run_one` is timed;
    `finish` turns its outcome into what is kept. Returns [query index,
    seconds, kept] per op and the loop's wall time."""
    ops = []
    start = time.perf_counter()
    k = 0
    while True:
        qi = order[k % len(order)]
        t0 = time.perf_counter()
        outcome = run_one(qi)
        dt = time.perf_counter() - t0
        ops.append([qi, dt, finish(outcome)])
        k += 1
        wall = time.perf_counter() - start
        if wall >= seconds and k % len(order) == 0:
            return ops, wall


def rows_digest(outcome) -> str:
    """Digest of the passed rows of a `run_query` result, or the error text."""
    if isinstance(outcome, str):
        return outcome
    return row_digest([(r.sid, r.values) for r in outcome if r.passed])


def set_up(api, tsv: str):
    docs = api.load_corpus(tsv)
    return docs, api.Corpus(docs), api.build_indexes(docs)


def warm(job: dict, koko, api) -> dict:
    errors: list[str] = []
    resources = ResourceFiles(koko, job["resources"])
    queries = job["queries"]
    corpus = bundle = None

    def run_one(qi):
        q = queries[qi]
        try:
            query = api.parse_query(q["text"])
            return api.run_query(query, corpus, bundle, resources=resources.fresh(q["expansion"]), jobs=1).rows
        except Exception as exc:  # a failed operation is counted, not fatal
            return f"error: {type(exc).__name__}: {exc}"

    # Each set-up is followed by its share of the timed passes, so that the
    # passes sample the machine's speed across the whole run, not one
    # stretch of it.
    setup_s: list[float] = []
    ops: list = []
    loop_s = 0.0
    order = job["order"]
    for i in range(job["setups"]):
        docs = corpus = bundle = None
        t0 = time.perf_counter()
        docs, corpus, bundle = set_up(api, job["tsv"])
        setup_s.append(time.perf_counter() - t0)
        # Untimed: every stretch starts from the same state of the garbage
        # collector, whatever the set-up left behind. Its full collections
        # then come after the same amount of allocation in every stretch;
        # rotating the order moves them onto other queries, so that a
        # query's fastest run is not always one that paid for them.
        gc.collect()
        shift = i * len(order) // job["setups"]
        stretch, wall = timed_loop(order[shift:] + order[:shift], job["seconds"] / job["setups"], run_one, rows_digest)
        ops += stretch
        loop_s += wall
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "loop_s": loop_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer, koko, api)
        try:
            docs = corpus = bundle = None
            docs, corpus, bundle = set_up(api, job["tsv"])
            gc.collect()
            result["traced"] = traced_loop(tracer, job, run_one, rows_digest)
        finally:
            tracer.restore()

    # Round trip of the index through save_bundle/load_bundle: it must load
    # back equal. Untimed; it also gives the index size.
    index_dir = os.path.join(job["dir"], "index-check")
    shutil.rmtree(index_dir, ignore_errors=True)
    if tracer is not None:
        tracing.install(tracer, koko, api)
        tracer.op = "check"
    try:
        api.save_bundle(bundle, index_dir)
        if api.load_bundle(index_dir, expected_fingerprint=api.corpus_fingerprint(docs)) != bundle:
            errors.append("the index saved by save_bundle loads back different")
    finally:
        if tracer is not None:
            tracer.restore()
    result["index_bytes"] = dir_bytes(index_dir)
    shutil.rmtree(index_dir, ignore_errors=True)

    if tracer is not None:
        result["layers"] = layer_report(tracer, {"setup": 1, "check": 1, "op": len(result["traced"]["ops"])})
        result["counts"] = {k: tracer.counts[k] for k in ("corpus.sentences", "corpus.tokens")}
        tracer.dump(os.path.join(job["dir"], "spans.jsonl"))
    if job["oracle"]:
        result["oracle"] = oracle_digests(koko, corpus, queries, resources)
    result["errors"] = errors
    return result


def traced_loop(tracer: tracing.Tracer, job: dict, run_one, finish) -> dict:
    """The timed loop again, with spans on. Per-query counts come from the
    first pass and must repeat exactly in later passes."""
    per_query: dict[int, dict] = {}
    drift: list[str] = []

    def counted(qi):
        tracer.op = f"op-{qi}"
        tracer.plans = set()
        before = {k: tracer.counts[k] for k in DETERMINISTIC}
        outcome = run_one(qi)
        counts = {k: tracer.counts[k] - before[k] for k in DETERMINISTIC}
        counts["gsp.distinct_plans"] = len(tracer.plans)
        if per_query.setdefault(qi, counts) != counts:
            drift.append(f"query {qi}: counts {counts} after {per_query[qi]}")
        return outcome

    ops, loop_s = timed_loop(job["order"], job["seconds"], counted, finish)
    totals = {k: sum(c[k] for c in per_query.values()) for k in DETERMINISTIC}
    return {
        "ops": ops,
        "loop_s": loop_s,
        "counts_per_op": {k: v / len(per_query) for k, v in totals.items()},
        "effectiveness": (
            totals["aggregate.answer_sentences"] / totals["dpli.candidate_sentences"]
            if totals["dpli.candidate_sentences"] else 1.0
        ),
        "pass_ratio": (
            totals["aggregate.rows_out"] / totals["aggregate.tuples_in"]
            if totals["aggregate.tuples_in"] else 1.0
        ),
        "drift": drift,
    }


def oracle_digests(koko, corpus, queries, resources: ResourceFiles) -> list[str]:
    out = []
    for q in queries:
        query = koko.parser.parse_query(q["text"])
        out.append(rows_digest(koko.oracle.oracle_evaluate(query, corpus, resources=resources.fresh(q["expansion"]))))
    return out


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def cli(job: dict, koko, api) -> dict:
    """Oracle digests for the cli mix and, when traced, `koko.cli.main` run
    in this process: an untraced loop, then `koko index` and a loop with
    spans on."""
    result: dict = {"errors": []}
    if job["oracle"]:
        docs = api.load_corpus(job["tsv"])
        result["oracle"] = oracle_digests(koko, api.Corpus(docs), job["queries"], ResourceFiles(koko, job["resources"]))
        del docs
    if not job["trace"]:
        return result
    entry = koko.cli.main

    def run_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = entry(argv)
        return out.getvalue() if code == 0 else f"error: exit {code}"

    def finish(outcome):
        return outcome if outcome.startswith("error") else jsonl_digest(outcome)

    result["untraced"], result["untraced_s"] = timed_loop(
        job["order"], job["seconds"], lambda qi: run_main(job["argv"][qi]), finish)
    tracer = tracing.Tracer()
    tracing.install(tracer, koko, api)
    entry = tracer.wrap("cli.main", koko.cli.main)
    try:
        shutil.rmtree(job["index"], ignore_errors=True)
        if run_main(["index", "--corpus", job["tsv"], "--out", job["index"]]).startswith("error"):
            result["errors"].append("in-process koko index failed")
        result["traced"] = traced_loop(tracer, job, lambda qi: run_main(job["argv"][qi]), finish)
    finally:
        tracer.restore()
    result["layers"] = layer_report(tracer, {"setup": 1, "op": len(result["traced"]["ops"])})
    loads = max(1, tracer.counts["corpus.load_corpus.calls"])
    result["counts"] = {k: tracer.counts[k] / loads for k in ("corpus.sentences", "corpus.tokens")}
    tracer.dump(os.path.join(job["dir"], "spans.jsonl"))
    return result


def main() -> None:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as f:
        job = json.load(f)
    koko, api = import_koko(job["src"])
    result = (cli if job["workload"] == "cli" else warm)(job, koko, api)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
