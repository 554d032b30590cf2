"""Regenerate pinned.json: for seed 1 at the benchmark's corpus size, the
SHA-256 of the generated corpus TSV and of each workload's query list, and
the digest of koko's oracle rows for every query.

    python3 kokobench/pin.py

A run on the pinned seed checks its inputs against these hashes and its
rows against these digests instead of running the oracle. Regenerate only
when the benchmark's generator changes on purpose; test_bench.py checks
that the committed file still matches the oracle.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SEED = 1


def compute(seed: int, sentences: int) -> dict:
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    koko, api = worker.import_koko(src)
    inputs = gen.make_inputs(seed, sentences)
    work = os.path.join(ROOT, ".bench_build", "kokobench", f"pin-{seed}-{sentences}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        paths = run.write_inputs(inputs, work)
        corpus = api.Corpus(api.load_corpus(paths["tsv"]))
        resources = worker.ResourceFiles(koko, paths["resources"])
        digests = {
            w: worker.oracle_digests(koko, corpus, inputs["queries"][w], resources)
            for w in run.WORKLOADS
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "seed": seed,
        "sentences": sentences,
        "corpus_sha256": inputs["corpus_sha256"],
        "queries_sha256": inputs["queries_sha256"],
        "oracle_digests": digests,
    }


def main() -> None:
    pinned = compute(SEED, run.SENTENCES)
    with open(run.PINNED, "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
