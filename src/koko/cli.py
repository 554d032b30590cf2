"""Command-line interface: index, query, explain, verify, bench.

Exit codes: 0 success, 1 verification mismatch, 2 malformed input
(corpus or index files), 3 query or resource errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .aggregate import ResultRow
from .corpus import Corpus, load_corpus, read_corpus_bytes
from .dpli import candidate_bindings
from .engine import evaluate, run_query
from .errors import KokoError, KokoInputError, KokoQueryError, KokoResourceError
from .indexes import (
    build_indexes, corpus_fingerprint, fingerprint_bytes, index_fingerprint, load_bundle, open_corpus, save_bundle,
)
from .normalize import normalize
from .parser import parse_query
from .resources import Resources, WordVectors, load_clause_file, load_expansion_table, read_text

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_QUERY_ERROR = 3


def _add_resource_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expansions", metavar="FILE", help="static descriptor expansion table (TSV)")
    p.add_argument("--vectors", metavar="FILE", help="plain-text word vectors file")
    p.add_argument("--topk", type=int, help="neighbours per content word for expansion")
    p.add_argument(
        "--dict", action="append", default=[], metavar="NAME=FILE",
        help="named dictionary, one entry per line (repeatable)",
    )
    p.add_argument(
        "--decomposer", metavar="KIND",
        help="sentence decomposer: identity | clauses | file:PATH (default identity)",
    )


def _read_resource_manifest(path: str) -> dict:
    """The KOKO_RESOURCES manifest: a JSON object whose file names are
    strings, ``dicts`` an object of name -> path and ``topk`` an integer
    >= 0."""
    what = f"KOKO_RESOURCES manifest {path}"
    try:
        manifest = json.loads(read_text(path, "KOKO_RESOURCES manifest"))
    except json.JSONDecodeError as exc:
        raise KokoResourceError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise KokoResourceError(f"{what}: expected a JSON object")
    for key in ("expansions", "vectors", "decomposer"):
        if not isinstance(manifest.get(key, ""), str):
            raise KokoResourceError(f"{what}: {key!r} must be a string")
    topk = manifest.get("topk", 3)
    if not isinstance(topk, int) or isinstance(topk, bool) or topk < 0:
        raise KokoResourceError(f"{what}: 'topk' must be a non-negative integer")
    dicts = manifest.get("dicts", {})
    if not isinstance(dicts, dict) or not all(isinstance(p, str) for p in dicts.values()):
        raise KokoResourceError(f"{what}: 'dicts' must map dictionary names to file paths")
    return manifest


def _load_resources(args: argparse.Namespace) -> Resources:
    env_path = os.environ.get("KOKO_RESOURCES")
    manifest = _read_resource_manifest(env_path) if env_path else {}
    res = Resources()
    expansions = getattr(args, "expansions", None) or manifest.get("expansions")
    vectors = getattr(args, "vectors", None) or manifest.get("vectors")
    if expansions and vectors:
        raise KokoQueryError("--expansions and --vectors both configure descriptor expansion; pick one")
    if expansions:
        res.expansion_table = load_expansion_table(expansions)
    if vectors:
        res.vectors = WordVectors(vectors)
    topk = getattr(args, "topk", None)
    if topk is not None and topk < 0:
        raise KokoQueryError(f"--topk must be >= 0, got {topk}")
    res.topk = topk if topk is not None else manifest.get("topk", 3)
    for name, path in manifest.get("dicts", {}).items():
        res.dictionaries.load(name, path)
    for entry in getattr(args, "dict", []):
        name, sep, path = entry.partition("=")
        if not sep:
            raise KokoQueryError(f"--dict expects NAME=FILE, got {entry!r}")
        res.dictionaries.load(name, path)
    decomposer = getattr(args, "decomposer", None) or manifest.get("decomposer", "identity")
    if decomposer.startswith("file:"):
        res.decomposer = "file"
        res.clause_file = load_clause_file(decomposer[5:])
    elif decomposer in ("identity", "clauses"):
        res.decomposer = decomposer
    else:
        raise KokoQueryError(f"unknown decomposer {decomposer!r}")
    return res


def _load_corpus_and_bundle(args: argparse.Namespace):
    """The corpus and its index. With --index both come from the index, and
    a --corpus file is only checked to be the one it was built from: by the
    hash of its bytes, or, when those differ, by the fingerprint of its parse."""
    if not args.index:
        if not args.corpus:
            raise KokoInputError("give --corpus, --index or both")
        docs = load_corpus(args.corpus)
        return Corpus(docs), build_indexes(docs)
    fingerprint = None
    if args.corpus:
        fingerprint = index_fingerprint(args.index)
        if fingerprint_bytes(read_corpus_bytes(args.corpus)) != fingerprint:
            fingerprint = corpus_fingerprint(load_corpus(args.corpus))
    bundle = load_bundle(args.index, expected_fingerprint=fingerprint)
    return open_corpus(bundle), bundle


def _read_query(path: str):
    return parse_query(read_text(path, "query file", KokoQueryError))


def cmd_index(args: argparse.Namespace) -> int:
    docs = load_corpus(args.corpus)
    bundle = build_indexes(docs)
    save_bundle(bundle, args.out)
    counts = bundle.counts()
    if counts["sentences"] == 0:
        print("warning: corpus is empty; wrote an empty index", file=sys.stderr)
    tokens = max(1, counts["tokens"])
    print(f"sentences      {counts['sentences']}")
    print(f"tokens         {counts['tokens']}")
    print(f"distinct words {counts['words']}")
    print(f"entities       {counts['entities']}")
    print(f"pl nodes       {counts['pl_nodes']}  ({1 - counts['pl_nodes'] / tokens:.1%} reduction)")
    print(f"pos nodes      {counts['pos_nodes']}  ({1 - counts['pos_nodes'] / tokens:.1%} reduction)")
    return EXIT_OK


def _emit_rows(rows: list[ResultRow], fmt: str, names: list[str]) -> None:
    """Print the rows; a TSV header names the outputs, also with no row."""
    if fmt == "tsv":
        print("\t".join(["sid"] + names))
        for r in rows:
            print("\t".join([str(r.sid)] + [r.values[n] for n in names]))
        return
    for r in rows:
        print(json.dumps(r.to_json(), ensure_ascii=False, sort_keys=True))


def cmd_query(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    resources = _load_resources(args)
    corpus, bundle = _load_corpus_and_bundle(args)
    run = run_query(
        query, corpus, bundle, resources=resources,
        use_gsp=not args.no_gsp,
    )
    _emit_rows(run.rows, args.format, list(dict.fromkeys(name for name, _ in query.outputs)))
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    resources = _load_resources(args)
    corpus, bundle = _load_corpus_and_bundle(args)
    n = normalize(query)
    if args.stage == "normalize":
        print(n.describe(), end="")
        return EXIT_OK
    if args.stage == "dpli":
        print(candidate_bindings(n, bundle).describe(), end="")
        return EXIT_OK
    if args.stage == "gsp":
        # Evaluated only: no row is built and no evidence scored.
        run = evaluate(n, corpus, bundle)
        if run.joined:
            print(
                f"join: {' + '.join(run.joined)} answered from postings; "
                f"candidate sentences: {len(run.candidate_sids)}; "
                f"loop iterations: {run.stats.loop_iterations}; "
                f"tuples: {run.stats.tuples}; checks: {run.stats.checks}"
            )
            return EXIT_OK
        for key, sentences in run.plans.items():
            print(f"skip {sorted({name for _, names in key for name in names})}: {sentences} sentences")
        print(f"loop iterations: {run.stats.loop_iterations}")
        print(f"tuples: {run.stats.tuples}")
        print(f"checks: {run.stats.checks}")
        return EXIT_OK
    if args.stage == "satisfy":
        if not args.value:
            raise KokoQueryError("--stage satisfy needs --value <candidate>")
        rows = run_query(query, corpus, bundle, resources=resources, keep_failed=True).rows
        scores = [(var, score) for r in rows for var, score in r.scores.items() if score.value == args.value]
        for var, score in scores[:1]:
            print(f"satisfying {var}:")
            print(score.describe(), end="")
        if not scores:
            print(f"no evidence recorded for value {args.value!r}")
        return EXIT_OK
    raise KokoQueryError(f"unknown explain stage {args.stage!r}")


def oracle_evaluate(*args, **kwargs) -> list[ResultRow]:
    """`koko.oracle.oracle_evaluate`, imported at its first call: only
    verify runs the oracle, and every `koko query` process would pay for
    the import."""
    from .oracle import oracle_evaluate as evaluate

    return evaluate(*args, **kwargs)


def cmd_verify(args: argparse.Namespace) -> int:
    query = _read_query(args.query)
    resources = _load_resources(args)
    corpus, bundle = _load_corpus_and_bundle(args)
    # The oracle reads its own parse of the corpus file, so with --index
    # the corpus built from the index is checked against it too.
    oracle_corpus = Corpus(load_corpus(args.corpus)) if args.index else corpus
    engine_rows = run_query(
        query, corpus, bundle, resources=resources, keep_failed=True
    ).rows
    oracle_rows = oracle_evaluate(query, oracle_corpus, resources=resources, keep_failed=True)
    # Rows are compared with their evidence scores, so a wrong score that
    # leaves pass/fail unchanged still shows.
    a = [(r.key(), json.dumps(r.to_json(), sort_keys=True)) for r in engine_rows]
    b = [(r.key(), json.dumps(r.to_json(), sort_keys=True)) for r in oracle_rows]
    if a == b:
        print(f"ok: engine and oracle agree on {len(a)} rows")
        return EXIT_OK
    sa, sb = sorted(a), sorted(b)
    for x, y in zip(sa, sb):
        if x != y:
            print(f"mismatch:\n  engine {x}\n  oracle {y}")
            break
    else:
        longer, shorter = (sa, sb) if len(sa) > len(sb) else (sb, sa)
        which = "engine" if len(sa) > len(sb) else "oracle"
        print(f"mismatch: {which} has an extra row {longer[len(shorter)]}")
    return EXIT_VERIFY_MISMATCH


def cmd_bench(args: argparse.Namespace) -> int:
    # Imported here: no other command uses it, and every `koko query`
    # process would pay for the import.
    from .bench import generate_span_suite, generate_tree_suite, run_benchmark

    if args.limit < 0:
        raise KokoQueryError(f"--limit must be >= 0, got {args.limit}")
    docs = load_corpus(args.corpus)
    corpus = Corpus(docs)
    bundle = build_indexes(docs)
    if args.suite == "tree":
        suite = generate_tree_suite(args.seed, corpus)
    elif args.suite == "span":
        suite = generate_span_suite(args.seed, corpus)
    else:
        raise KokoQueryError(f"unknown suite {args.suite!r}; expected tree or span")
    if args.limit:
        suite.queries = suite.queries[: args.limit]
    t0 = time.time()
    reports = run_benchmark(
        suite, corpus, bundle, with_oracle=not args.no_oracle
    )
    payload = {
        "suite": suite.name,
        "seed": suite.seed,
        "composition": suite.composition,
        "corpus": {"sentences": len(corpus), "tokens": corpus.token_count},
        "wall_seconds": time.time() - t0,
        "queries": [r.to_json() for r in reports],
    }
    with open(args.report, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    ok = sum(1 for r in reports if r.complete and r.final_effectiveness == 1.0)
    print(f"{len(reports)} queries; complete+exact on {ok}; report written to {args.report}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="koko", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build and persist the index bundle")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="run a query and stream results")
    p.add_argument("--query", required=True)
    p.add_argument("--corpus", help="corpus TSV; with --index, only checked against the index")
    p.add_argument("--index", help="previously built index directory, which holds the corpus")
    p.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    p.add_argument("--no-gsp", action="store_true", help="disable skip plans and offset joins over postings")
    _add_resource_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="print per-stage artifacts")
    p.add_argument("--query", required=True)
    p.add_argument("--corpus", help="corpus TSV; with --index, only checked against the index")
    p.add_argument("--index", help="previously built index directory, which holds the corpus")
    p.add_argument("--stage", required=True, choices=["normalize", "dpli", "gsp", "satisfy"])
    p.add_argument("--value", help="candidate value for --stage satisfy")
    _add_resource_flags(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("verify", help="diff engine results against the oracle")
    p.add_argument("--query", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--index")
    _add_resource_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="generate and run a benchmark suite")
    p.add_argument("--suite", required=True, choices=["tree", "span"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--limit", type=int, default=0, help="run only the first N queries")
    p.add_argument("--no-oracle", action="store_true", help="skip oracle comparison")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KokoInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except KokoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUERY_ERROR


if __name__ == "__main__":
    sys.exit(main())
