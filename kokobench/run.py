"""koko's benchmark: one command, four workloads, outputs checked against
koko's oracle.

    python3 kokobench/run.py --workload cli|span|tree|evidence|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It generates the seeded inputs
(gen.py), drives koko only through its CLI and public functions, checks
every operation's rows against `koko.oracle`, and prints one line per
metric followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones in BENCHMARK.json; with --trace 1 the per-layer
ones, from a second loop with spans around each layer (spans.py).

All koko work happens in child processes started from this one, one at a
time: `koko index`/`koko query` subprocesses for cli, worker.py for the
rest. Working files go under .bench_build/kokobench/ and are removed at
the end, except each run's spans.jsonl. See README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from worker import jsonl_digest  # noqa: E402

WORKLOADS = ["cli", "span", "tree", "evidence"]
SENTENCES = 20000
# Set-ups per run; setup_s is their median. Each set-up is followed by its
# share of the timed passes, at least one, so that the passes sample the
# machine's speed across the run. A traced run reports no setup_s, so it
# sets up once.
SETUPS = 2
CHILD_TIMEOUT_S = 170
PINNED = os.path.join(HERE, "pinned.json")

# Per-layer times: metric, span names whose self times add up to it.
LAYER_TIMES = [
    ("corpus.load_s", ["corpus.load_corpus", "corpus.Corpus"]),
    ("indexes.fingerprint_s", ["indexes.corpus_fingerprint"]),
    ("indexes.load_s", ["indexes.load_bundle"]),
    ("indexes.build_s", ["indexes.build_indexes"]),
    ("indexes.save_s", ["indexes.save_bundle"]),
    ("parser.parse_s", ["parser.parse_query"]),
    ("normalize.s", ["normalize.normalize"]),
    ("dpli.lookup_s", ["dpli.candidate_bindings"]),
    ("gsp.plan_s", ["gsp.generate_skip_plan"]),
    ("gsp.eval_s", ["gsp.evaluate_sentence"]),
    ("aggregate.finalize_s", ["aggregate.finalize_results"]),
    ("engine.self_s", ["engine.run_query"]),
    # Reported, but not in BENCHMARK.json: they read exactly 0 on the
    # workloads that never reach the layer.
    ("resources.expand_s", ["resources.expand"]),
    ("resources.decompose_s", ["resources.decompose"]),
    ("resources.similarity_s", ["resources.similarity"]),
    ("cli.self_s", ["cli.main"]),
]
# Per-layer counts per operation: metric, key in the worker's counts.
LAYER_COUNTS = [
    ("dpli.candidate_sentences", "dpli.candidate_sentences"),
    ("dpli.p1_postings", "dpli.p1_postings"),
    ("dpli.p2_postings", "dpli.p2_postings"),
    ("dpli.q_postings", "dpli.q_postings"),
    ("gsp.sentences", "gsp.evaluate_sentence.calls"),
    ("gsp.loop_iterations", "gsp.loop_iterations"),
    ("gsp.tuples", "gsp.tuples"),
    ("gsp.distinct_plans", "gsp.distinct_plans"),
    ("aggregate.tuples_in", "aggregate.tuples_in"),
    ("aggregate.rows_out", "aggregate.rows_out"),
    ("resources.expand_calls", "resources.expand.calls"),
    ("resources.decompose_calls", "resources.decompose.calls"),
    ("resources.similarity_calls", "resources.similarity.calls"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, drifted
    pinned inputs, a child that crashed)."""


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # Fixed hash seed, so per-layer counts repeat exactly across runs.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, stderr_path: str) -> tuple[float, int, str, int]:
    """Run a child to completion: (seconds from spawn until its stdout
    closed, exit code, stdout, peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            out = p.stdout.read()
            dt = time.perf_counter() - t0
        finally:
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
            killer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


def run_worker(job: dict, work: str, env: dict) -> dict:
    job_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    with open(job_path, "w", encoding="utf-8") as f:
        json.dump(job, f)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path]
    with open(os.path.join(work, "worker.stderr"), "wb") as err:
        p = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        try:
            code = p.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
            raise BenchError(f"worker for {job['workload']} ran over {CHILD_TIMEOUT_S} s") from None
    if code != 0:
        with open(os.path.join(work, "worker.stderr"), encoding="utf-8", errors="replace") as f:
            tail = f.read()[-2000:]
        raise BenchError(f"worker for {job['workload']} exited {code}:\n{tail}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def expected_digests(inputs: dict, pinned: dict, seed: int, sentences: int, workload: str) -> list[str] | None:
    """The pinned oracle digests when this is the pinned seed and size;
    then the inputs must hash as pinned. None means: ask the oracle."""
    if pinned["seed"] != seed or pinned["sentences"] != sentences:
        return None
    if inputs["corpus_sha256"] != pinned["corpus_sha256"]:
        raise BenchError(f"generated corpus drifted from pinned.json for seed {seed}")
    if inputs["queries_sha256"][workload] != pinned["queries_sha256"][workload]:
        raise BenchError(f"{workload} query list drifted from pinned.json for seed {seed}")
    return pinned["oracle_digests"][workload]


def write_inputs(inputs: dict, work: str) -> dict:
    tsv = os.path.join(work, "corpus.tsv")
    with open(tsv, "w", encoding="utf-8") as f:
        f.write(inputs["tsv"])
    files = {}
    for key, name in (("expansions", "expansions.tsv"), ("vectors", "vectors.txt"), ("dict", "known.txt")):
        files[key] = os.path.join(work, name)
        with open(files[key], "w", encoding="utf-8") as f:
            f.write(inputs["files"][name])
    return {"tsv": tsv, "resources": files}


def setups(args) -> int:
    return 1 if args.trace else SETUPS


def fixed_order(n: int) -> list[int]:
    """The same interleaving of the query list for every seed."""
    order = list(range(n))
    random.Random(0).shuffle(order)
    return order


def check_ops(ops: list, expected: list[str]) -> tuple[int, list[str]]:
    wrong = [f"query {qi}: {digest[:80]}" for qi, _, digest in ops if digest != expected[qi]]
    return len(wrong), wrong


def run_warm(workload: str, inputs: dict, expected, work: str, args) -> dict:
    paths = write_inputs(inputs, work)
    queries = inputs["queries"][workload]
    job = {
        "workload": workload, "src": os.path.join(ROOT, "src"), "dir": work,
        "tsv": paths["tsv"], "resources": paths["resources"] if workload == "evidence" else None,
        "queries": queries, "order": fixed_order(len(queries)), "seconds": args.seconds,
        "trace": bool(args.trace), "oracle": expected is None, "setups": setups(args),
    }
    r = run_worker(job, work, child_env(job["src"]))
    expected = expected or r["oracle"]
    failed, notes = check_ops(r["ops"], expected)
    notes += r["errors"]
    failed += len(r["errors"])
    attempted = len(r["ops"])
    out = {
        "timed": [op[:2] for op in r["ops"]],
        "loop_s": r["loop_s"],
        "setup_s": r["setup_s"],
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        "index_bytes": r["index_bytes"],
        "corpus_bytes": len(inputs["tsv"].encode("utf-8")),
    }
    if args.trace:
        traced = r["traced"]
        f, n = check_ops(traced["ops"], expected)
        failed += f + len(traced["drift"])
        notes += n + traced["drift"]
        attempted += len(traced["ops"])
        out["trace"] = layer_metrics(r, traced, len(r["ops"]) / r["loop_s"], r["index_bytes"])
    out.update(attempted=attempted, failed=failed, notes=notes)
    return out


def run_cli(inputs: dict, expected, work: str, args) -> dict:
    paths = write_inputs(inputs, work)
    src = os.path.join(ROOT, "src")
    env = child_env(src)
    koko = [sys.executable, "-m", "koko"]
    err = os.path.join(work, "koko.stderr")

    index = os.path.join(work, "index")
    queries = inputs["queries"]["cli"]
    res = paths["resources"]
    argv = []
    for i, q in enumerate(queries):
        qpath = os.path.join(work, f"q{i}.koko")
        with open(qpath, "w", encoding="utf-8") as f:
            f.write(q["text"])
        a = ["query", "--query", qpath, "--corpus", paths["tsv"], "--index", index, "--format", "jsonl"]
        if q["expansion"] is not None:
            a += ["--decomposer", "clauses", "--dict", f"Known={res['dict']}"]
            a += ["--expansions", res["expansions"]]
        argv.append(a)

    setup_s = []
    ops = []
    peak_kb = 0
    loop_s = 0.0
    # As in the worker: each set-up is followed by its share of the timed
    # loop, in whole passes over the mix, at least one.
    for _ in range(setups(args)):
        shutil.rmtree(index, ignore_errors=True)
        dt, code, _, _ = spawn(koko + ["index", "--corpus", paths["tsv"], "--out", index], env, err)
        if code != 0:
            raise BenchError(f"koko index exited {code}")
        setup_s.append(dt)
        start = time.perf_counter()
        k = 0
        while k == 0 or k % len(queries) or time.perf_counter() - start < args.seconds / setups(args):
            qi = k % len(queries)
            dt, code, out, rss = spawn(koko + argv[qi], env, err)
            peak_kb = max(peak_kb, rss)
            if code != 0:
                digest = f"error: koko query exited {code}"
            else:
                try:
                    digest = jsonl_digest(out)
                except (ValueError, KeyError, TypeError) as exc:
                    digest = f"error: unparsable output: {exc}"
            ops.append([qi, dt, digest])
            k += 1
        loop_s += time.perf_counter() - start
    index_bytes = sum(os.path.getsize(os.path.join(index, f)) for f in os.listdir(index))

    job = {
        "workload": "cli", "src": src, "dir": work, "tsv": paths["tsv"], "index": index,
        "resources": res, "queries": queries, "argv": argv, "order": list(range(len(queries))),
        "seconds": args.seconds, "trace": bool(args.trace), "oracle": expected is None,
    }
    r = run_worker(job, work, env) if (args.trace or expected is None) else {"errors": []}
    expected = expected or r["oracle"]
    failed, notes = check_ops(ops, expected)
    failed += len(r["errors"])
    notes += r["errors"]
    attempted = len(ops)
    out = {
        "timed": [op[:2] for op in ops],
        "loop_s": loop_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "index_bytes": index_bytes,
        "corpus_bytes": len(inputs["tsv"].encode("utf-8")),
    }
    if args.trace:
        traced = r["traced"]
        for loop in (r["untraced"], traced["ops"]):
            f, n = check_ops(loop, expected)
            failed += f
            notes += n
            attempted += len(loop)
        failed += len(traced["drift"])
        notes += traced["drift"]
        out["trace"] = layer_metrics(r, traced, len(r["untraced"]) / r["untraced_s"], index_bytes)
        out["trace"]["cli.unaccounted_s"] = (
            statistics.fmean(op[1] for op in ops) - statistics.fmean(op[1] for op in traced["ops"]))
    out.update(attempted=attempted, failed=failed, notes=notes)
    return out


def layer_metrics(r: dict, traced: dict, untraced_qps: float, index_bytes: int) -> dict:
    per_name = r["layers"]["per_name"]
    out: dict[str, float] = {}
    for metric, names in LAYER_TIMES:
        total = 0.0
        for name in names:
            phases = per_name.get(name, {})
            # A layer's time per unit of the phase it serves: per operation
            # when it runs in operations, else per set-up, else per check.
            for phase in ("op", "setup", "check"):
                if phase in phases:
                    total += phases[phase]
                    break
        out[metric] = total
    counts = traced["counts_per_op"]
    out["corpus.sentences"] = r["counts"]["corpus.sentences"]
    out["corpus.tokens"] = r["counts"]["corpus.tokens"]
    out["indexes.bytes"] = index_bytes
    for metric, key in LAYER_COUNTS:
        out[metric] = counts[key]
    out["dpli.effectiveness"] = traced["effectiveness"]
    out["aggregate.pass_ratio"] = traced["pass_ratio"]
    traced_lat = [op[1] for op in traced["ops"]]
    out["trace.overhead_pct"] = 100.0 * (untraced_qps - len(traced_lat) / traced["loop_s"]) / untraced_qps
    out["trace.self_share"] = r["layers"]["op_self_total_s"] / sum(traced_lat)
    return out


def best_latencies(timed: list) -> list[float]:
    """Each query's fastest run in the timed loop, given [query index,
    seconds] per operation. Every query runs once per pass and the machine
    is shared, so the fastest of a query's runs is the one least slowed by
    other tenants."""
    best: dict[int, float] = {}
    for qi, dt in timed:
        best[qi] = min(dt, best.get(qi, dt))
    return list(best.values())


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: a mean of all the sorted
    values, weighted by how much of a Beta((n+1)/2, (n+1)/2) distribution
    falls between i/n and (i+1)/n. The query costs of a list fall in
    clusters; the sample median jumps across the gap between two of them
    when one query moves, this estimate moves by that query's weight."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = 200  # per 1/n, for the trapezoid rule
    h = 1.0 / (n * steps)
    pdf = [0.0] + [math.exp((a - 1) * math.log(i * h * (1 - i * h)) - log_norm) for i in range(1, n * steps)] + [0.0]
    cdf = [0.0]
    for i in range(n):
        chunk = pdf[i * steps:(i + 1) * steps + 1]
        cdf.append(cdf[-1] + h * (sum(chunk) - (chunk[0] + chunk[-1]) / 2))
    weights = [cdf[i + 1] - cdf[i] for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1] if len(values) > 1 else values[0]


def run_workload(workload: str, args, pinned: dict) -> dict:
    inputs = gen.make_inputs(args.seed, SENTENCES)
    expected = expected_digests(inputs, pinned, args.seed, SENTENCES, workload)
    work = os.path.join(ROOT, ".bench_build", "kokobench", f"{workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if workload == "cli":
            r = run_cli(inputs, expected, work, args)
        else:
            r = run_warm(workload, inputs, expected, work, args)
    finally:
        for name in os.listdir(work):
            if name != "spans.jsonl":
                path = os.path.join(work, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    lat_ms = [1000.0 * best for best in best_latencies(r["timed"])]
    e2e = {
        "setup_s": statistics.median(r["setup_s"]),
        "query_ms_p50": harrell_davis_median(lat_ms),
        # Operations completed per second of the timed loop's wall time.
        "qps": len(r["timed"]) / r["loop_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "index_bytes_per_corpus_byte": r["index_bytes"] / r["corpus_bytes"],
    }
    extra = {"error_rate": r["failed"] / r["attempted"], "operations": len(r["timed"])}
    if len(lat_ms) >= 100:
        extra["query_ms_p90"] = percentile(lat_ms, 90)
    return {"e2e": e2e, "extra": extra, "trace": r.get("trace"), "attempted": r["attempted"],
            "failed": r["failed"], "notes": r["notes"], "spans": os.path.join(work, "spans.jsonl"),
            "inputs": {"corpus_sha256": inputs["corpus_sha256"], "queries_sha256": inputs["queries_sha256"][workload]}}


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# Units of the figures printed but not in BENCHMARK.json; the remaining
# undeclared ones are per-layer times.
EXTRA_UNITS = {"error_rate": "ratio", "operations": "count", "query_ms_p90": "ms"}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "koko", "__init__.py")):
        print(f"error: no koko sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = declared()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        try:
            with open(PINNED, encoding="utf-8") as f:
                pinned = json.load(f)
        except OSError as exc:
            raise BenchError(f"cannot read the pinned inputs: {exc}") from None
        for w in workloads:
            r = run_workload(w, args, pinned)
            attempted += r["attempted"]
            failed += r["failed"]
            shown = dict(r["e2e"]) if not args.trace else dict(r["trace"])
            for name, value in sorted({**shown, **r["extra"]}.items()):
                unit = spec[section].get(name) or EXTRA_UNITS.get(name, "s")
                note = "" if name in spec[section] or name in r["extra"] else "  (not in BENCHMARK.json)"
                print(f"{w:9s} {name:30s} {value:14.6g} {unit}{note}")
            for name, sha in r["inputs"].items():
                print(f"{w:9s} {name:30s} {sha}")
            for line in r["notes"][:20]:
                print(f"{w:9s} error: {line}")
            if args.trace:
                print(f"{w:9s} spans written to {os.path.relpath(r['spans'], ROOT)}")
            prefix = f"{w}." if args.workload == "all" else ""
            for name in spec[section]:
                metrics[prefix + name] = {"value": shown[name], "unit": spec[section][name]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
