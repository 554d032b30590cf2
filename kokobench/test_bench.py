"""The benchmark's own tests, on a tiny corpus except for the pinned check.

    python3 -m pytest kokobench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = 300

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "kokobench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def tiny(monkeypatch, capsys):
    """Runs the benchmark in this process on a tiny corpus: returns its
    exit code, standard output and standard error."""
    monkeypatch.setattr(run, "SENTENCES", TINY)

    def call(*args: str) -> tuple[int, str, str]:
        code = run.main(list(args))
        out, err = capsys.readouterr()
        return code, out, err

    return call


def result(code: int, out: str, err: str) -> dict:
    assert code == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = gen.make_inputs(5, TINY), gen.make_inputs(5, TINY), gen.make_inputs(6, TINY)
    assert a == b
    assert a["corpus_sha256"] != c["corpus_sha256"]
    assert a["queries_sha256"]["span"] != c["queries_sha256"]["span"]


def test_pinned_digests_match_the_oracle():
    with open(run.PINNED, encoding="utf-8") as f:
        pinned = json.load(f)
    assert pin.compute(pinned["seed"], pinned["sentences"]) == pinned


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_prints_every_metric_with_its_unit(tiny, workload):
    code, out, err = tiny("--workload", workload, "--seed", "4", "--seconds", "0.5")
    r = result(code, out, err)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units
    lines = out.splitlines()[:-1]
    for name, unit in units.items():
        assert any(line.split()[1:2] == [name] and line.split()[-1] == unit for line in lines), name
    assert all(v["value"] > 0 for v in r["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_covers_the_layers_and_adds_up(tiny, workload):
    code, out, err = tiny("--workload", workload, "--seed", "4", "--seconds", "0.5", "--trace", "1")
    r = result(code, out, err)
    assert r["correct"], out
    assert set(r["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # Layer self times add up to the traced operations' wall time.
    assert abs(r["metrics"]["trace.self_share"]["value"] - 1.0) <= 0.10
    with open(os.path.join(ROOT, ".bench_build", "kokobench", f"{workload}-4", "spans.jsonl"), encoding="utf-8") as f:
        layers = {spans.LAYER_OF[json.loads(line)["name"]] for line in f}
    expected = set(spans.LAYERS)
    if workload != "cli":
        expected.discard("cli")
    if workload in ("span", "tree"):
        expected.discard("resources")
    assert layers == expected


def write_pinned(tmp_path, monkeypatch, seed: int, edit) -> None:
    pinned = pin.compute(seed, TINY)
    edit(pinned)
    path = os.path.join(tmp_path, "pinned.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(pinned, f)
    monkeypatch.setattr(run, "PINNED", path)


def test_a_corrupted_expected_digest_shows_as_errors(tiny, tmp_path, monkeypatch):
    def corrupt(pinned):
        pinned["oracle_digests"]["span"][0] = "0" * 64

    write_pinned(tmp_path, monkeypatch, 7, corrupt)
    code, out, err = tiny("--workload", "span", "--seed", "7", "--seconds", "0.5")
    r = result(code, out, err)
    assert not r["correct"] and r["failed"] > 0
    rate = [line.split()[2] for line in out.splitlines() if line.split()[1:2] == ["error_rate"]]
    assert float(rate[0]) > 0


def test_the_pinned_seed_fails_when_its_inputs_drift(tiny, tmp_path, monkeypatch):
    def drift(pinned):
        pinned["corpus_sha256"] = "0" * 64

    write_pinned(tmp_path, monkeypatch, 7, drift)
    code, _, err = tiny("--workload", "tree", "--seed", "7", "--seconds", "0.5")
    assert code != 0
    assert "drifted" in err


def test_fails_without_its_pinned_inputs(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "PINNED", os.path.join(tmp_path, "missing.json"))
    code, out, err = tiny("--workload", "span", "--seed", "7", "--seconds", "0.5")
    assert code != 0
    assert not out.strip() and "pinned" in err


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, os.path.join(tmp_path, "kokobench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "span", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_the_median_estimate_does_not_jump_across_a_gap():
    assert run.harrell_davis_median([7.0]) == 7.0
    assert run.harrell_davis_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    # Two clusters of query costs, the median at the edge of the gap: one
    # query crossing it moves the sample median by half the gap, the
    # estimate by less than a third of that.
    before = [10.0] * 16 + [60.0] * 14
    after = [10.0] * 15 + [60.0] * 15
    jump = run.statistics.median(after) - run.statistics.median(before)
    assert jump == 25.0
    assert run.harrell_davis_median(after) - run.harrell_davis_median(before) < jump / 3
