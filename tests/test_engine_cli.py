from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koko.cli import main
from koko.engine import run_query
from koko.parser import parse_query

from .conftest import QUERY_FIXTURES, data_path, load_fixture_query

EX31 = data_path("corpus", "ex31.tsv")
EX21 = data_path("queries", "ex21.koko")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_index_and_query(tmp_path, capsys):
    idx = str(tmp_path / "idx")
    code, out, err = run_cli(["index", "--corpus", EX31, "--out", idx], capsys)
    assert code == 0
    assert "pl nodes" in out
    assert os.path.exists(os.path.join(idx, "manifest.json"))
    code, out, err = run_cli(
        ["query", "--query", EX21, "--corpus", EX31, "--index", idx], capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0]["values"]["e"] == "chocolate ice cream"
    assert rows[0]["values"]["d"] == "a chocolate ice cream, which was delicious"


def test_public_names_are_the_documented_ones():
    import koko

    assert sorted(koko.__all__) == [
        "Corpus", "KokoError", "KokoInputError", "KokoQueryError",
        "KokoResourceError", "KokoSyntaxError", "Resources", "build_indexes", "load_bundle",
        "load_corpus", "oracle_evaluate", "parse_query", "run_query",
        "save_bundle", "serialize_corpus",
    ]
    assert all(hasattr(koko, name) for name in koko.__all__)


def test_cmd_query_builds_index_on_the_fly(capsys):
    code, out, _ = run_cli(["query", "--query", EX21, "--corpus", EX31], capsys)
    assert code == 0 and "chocolate ice cream" in out


def test_run_query_accepts_only_one_job(ex31_corpus, ex31_bundle):
    with open(EX21, encoding="utf-8") as f:
        q = parse_query(f.read())
    assert run_query(q, ex31_corpus, ex31_bundle, jobs=1).rows
    with pytest.raises(ValueError, match="jobs=4"):
        run_query(q, ex31_corpus, ex31_bundle, jobs=4)


def test_query_tsv_format(capsys):
    code, out, _ = run_cli(
        ["query", "--query", EX21, "--corpus", EX31, "--format", "tsv"], capsys
    )
    assert code == 0
    header = out.splitlines()[0].split("\t")
    assert header == ["sid", "e", "d"]


@pytest.mark.parametrize("path, rows", [("//dobj", 3), ('"zzzqqq"', 0)])
def test_query_tsv_header_names_the_outputs_without_rows(path, rows, tmp_path, capsys):
    q = tmp_path / "q.koko"
    q.write_text(f'extract v:Str, w:Str from "x" if (/ROOT:{{ v = {path}, w = v }})')
    code, out, err = run_cli(["query", "--query", str(q), "--corpus", EX31, "--format", "tsv"], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "sid\tv\tw" and len(lines) == 1 + rows


def test_explain_over_an_index_needs_no_corpus(tmp_path, capsys):
    idx = str(tmp_path / "idx")
    assert run_cli(["index", "--corpus", EX31, "--out", idx], capsys)[0] == 0
    outs = [
        run_cli(["explain", "--query", EX21, "--index", idx, "--stage", "gsp", *extra], capsys)[1]
        for extra in ([], ["--corpus", EX31])
    ]
    assert outs[0] == outs[1] and "loop iterations" in outs[0]


def test_query_needs_a_corpus_or_an_index(capsys):
    code, _, err = run_cli(["query", "--query", EX21], capsys)
    assert code == 2 and "--corpus" in err


def test_malformed_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t0\tonly\tfour\tcols\n")
    code, _, err = run_cli(["index", "--corpus", str(bad), "--out", str(tmp_path / "i")], capsys)
    assert code == 2 and "columns" in err


def test_bad_query_exits_3(tmp_path, capsys):
    q = tmp_path / "bad.koko"
    q.write_text('extract v:Str from "x" if (/ROOT:{ v = //verb )')
    code, _, err = run_cli(["query", "--query", str(q), "--corpus", EX31], capsys)
    assert code == 3 and "error" in err


def test_missing_dictionary_exits_3(tmp_path, capsys):
    q = tmp_path / "d.koko"
    q.write_text(
        'extract e:Entity from "x" if ()\n'
        'satisfying e (str(e) in dict("Nowhere") {1}) with threshold 0\n'
    )
    code, _, err = run_cli(["query", "--query", str(q), "--corpus", EX31], capsys)
    assert code == 3 and "Nowhere" in err


def test_stale_index_fingerprint_exits_2(tmp_path, capsys):
    idx = str(tmp_path / "idx")
    assert run_cli(["index", "--corpus", EX31, "--out", idx], capsys)[0] == 0
    other = tmp_path / "other.tsv"
    other.write_text("0\t0\thi\tintj\troot\t-1\tO\n")
    code, _, err = run_cli(
        ["query", "--query", EX21, "--corpus", str(other), "--index", idx], capsys
    )
    assert code == 2 and "fingerprint" in err


def test_explain_normalize_golden(capsys):
    code, out, _ = run_cli(
        ["explain", "--query", EX21, "--corpus", EX31, "--stage", "normalize"], capsys
    )
    assert code == 0
    assert out == (
        "variables:\n"
        "  e: entity Entity\n"
        "  a: node //verb\n"
        "  b: node //verb/dobj\n"
        '  c: node //verb/dobj//"delicious"\n'
        "  d: subtree(b)\n"
        "constraints:\n"
        "  (a parentOf b)\n"
        "  (b ancestorOf c)\n"
        "  (b) in (e)\n"
        "horizontal:\n"
        "  (none)\n"
    )


def test_explain_dpli_prints_patterns(capsys):
    q = data_path("queries", "ex41.koko")
    code, out, _ = run_cli(["explain", "--query", q, "--corpus", EX31, "--stage", "dpli"], capsys)
    assert code == 0
    assert "//*/dobj//*" in out
    assert "//verb/*//*" in out
    assert '//"ate"/*//"delicious"' in out


def test_explain_dpli_only_looks_up_candidates(monkeypatch, capsys):
    # Its output is the looked-up table's, and nothing is evaluated.
    import koko.engine
    from koko.corpus import Corpus, load_corpus
    from koko.indexes import build_indexes

    q = data_path("queries", "ex41.koko")
    docs = load_corpus(EX31)
    with open(q, encoding="utf-8") as f:
        expected = run_query(parse_query(f.read()), Corpus(docs), build_indexes(docs)).table.describe()
    for name in ("_nested_loops", "run_join", "finalize_results"):
        monkeypatch.setattr(koko.engine, name, lambda *a, **k: pytest.fail("explain --stage dpli evaluated"))
    code, out, _ = run_cli(["explain", "--query", q, "--corpus", EX31, "--stage", "dpli"], capsys)
    assert code == 0
    assert out == expected


def test_explain_gsp_prints_plans_and_counts(monkeypatch, capsys, ex31_corpus, ex31_bundle):
    # One line per skip plan, whose sentences add up to the candidates,
    # then the run's totals; no row is built and no evidence scored.
    import koko.engine
    from koko.evidence import EvidenceEvaluator

    runs = {name: run_query(load_fixture_query(name), ex31_corpus, ex31_bundle) for name in QUERY_FIXTURES}
    monkeypatch.setattr(koko.engine, "finalize_results", lambda *a, **k: pytest.fail("finalized"))
    monkeypatch.setattr(EvidenceEvaluator, "score", lambda *a, **k: pytest.fail("scored evidence"))
    nested = 0
    for name, run in runs.items():
        q = data_path("queries", f"{name}.koko")
        code, out, _ = run_cli(["explain", "--query", q, "--corpus", EX31, "--stage", "gsp"], capsys)
        assert code == 0, name
        if run.joined:
            assert out.startswith("join:") and out.count("\n") == 1, name
            continue
        nested += bool(run.candidate_sids)
        *plans, iterations, tuples, checks = out.splitlines()
        assert len(plans) == len(run.plans), name
        assert sum(int(line.rsplit(": ", 1)[1].split()[0]) for line in plans) == len(run.candidate_sids), name
        assert all(line.startswith("skip [") and line.endswith(" sentences") for line in plans), name
        assert iterations == f"loop iterations: {run.stats.loop_iterations}", name
        assert tuples == f"tuples: {run.stats.tuples}", name
        assert checks == f"checks: {run.stats.checks}", name
    assert nested


@pytest.mark.parametrize("loaded", [False, True])
def test_evaluate_is_run_query_without_rows(tmp_path, loaded, ex31_corpus, ex31_bundle):
    from koko.engine import evaluate
    from koko.indexes import load_bundle, open_corpus, save_bundle

    corpus, bundle = ex31_corpus, ex31_bundle
    if loaded:
        save_bundle(bundle, str(tmp_path / "idx"))
        bundle = load_bundle(str(tmp_path / "idx"))
        corpus = open_corpus(bundle)
    for name in QUERY_FIXTURES:
        q = load_fixture_query(name)
        run, evaluated = run_query(q, corpus, bundle), evaluate(q, corpus, bundle)
        assert evaluated.rows == [], name
        assert evaluated.tuples == run.tuples and evaluated.stats == run.stats, name
        assert evaluated.candidate_sids == run.candidate_sids and evaluated.joined == run.joined, name
        assert evaluated.plans == run.plans, name


def test_explain_gsp_prints_one_line_for_a_direct_plan(tmp_path, capsys):
    q = tmp_path / "d.koko"
    q.write_text('extract v:Str from "x" if (/ROOT:{ v = //dobj })\n')
    code, out, _ = run_cli(["explain", "--query", str(q), "--corpus", EX31, "--stage", "gsp"], capsys)
    assert code == 0
    assert out == (
        "join: v answered from postings; candidate sentences: 2; "
        "loop iterations: 3; tuples: 3; checks: 0\n"
    )


def test_explain_satisfy_prints_evidence(tmp_path, capsys):
    q = tmp_path / "s.koko"
    q.write_text(
        'extract e:Entity from "x" if ()\n'
        'satisfying e (str(e) contains "cheesecake" {1}) with threshold 0.5\n'
    )
    code, out, _ = run_cli(
        ["explain", "--query", str(q), "--corpus", EX31, "--stage", "satisfy",
         "--value", "cheesecake"],
        capsys,
    )
    assert code == 0
    assert "total 1" in out and "pass" in out


def test_verify_ok(capsys):
    code, out, _ = run_cli(["verify", "--query", EX21, "--corpus", EX31], capsys)
    assert code == 0 and "agree" in out


def test_verify_all_fixture_queries(capsys):
    from .conftest import QUERY_FIXTURES

    for name in QUERY_FIXTURES:
        if name == "fig9_cafes":
            continue  # needs the Location dictionary, exercised below
        q = data_path("queries", f"{name}.koko")
        code, out, _ = run_cli(["verify", "--query", q, "--corpus", EX31], capsys)
        assert code == 0, name


def test_verify_fig9_with_dictionary(tmp_path, capsys):
    loc = tmp_path / "loc.txt"
    loc.write_text("Portland\n")
    q = data_path("queries", "fig9_cafes.koko")
    code, out, _ = run_cli(
        ["verify", "--query", q, "--corpus", EX31, "--dict", f"Location={loc}"], capsys
    )
    assert code == 0


def test_bench_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["bench", "--suite", "span", "--seed", "5", "--corpus", EX31,
         "--report", str(report), "--limit", "6"],
        capsys,
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["suite"] == "span" and len(payload["queries"]) == 6
    for row in payload["queries"]:
        assert row["complete"] is True


def test_resources_manifest_env(tmp_path, capsys, monkeypatch):
    loc = tmp_path / "loc.txt"
    loc.write_text("cheesecake\n")
    manifest = tmp_path / "resources.json"
    manifest.write_text(json.dumps({"dicts": {"Food": str(loc)}}))
    monkeypatch.setenv("KOKO_RESOURCES", str(manifest))
    q = tmp_path / "d.koko"
    q.write_text(
        'extract e:Entity from "x" if ()\n'
        'satisfying e (str(e) in dict("Food") {1}) with threshold 0.5\n'
    )
    code, out, _ = run_cli(["query", "--query", str(q), "--corpus", EX31], capsys)
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["values"]["e"] for r in rows] == ["cheesecake"]


def test_file_decomposer_flag(tmp_path, capsys):
    clauses = tmp_path / "clauses.jsonl"
    lines = [
        json.dumps({"sid": sid, "clauses": [{"tokens": list(range(3)), "score": 1.0}]})
        for sid in range(2)
    ]
    clauses.write_text("\n".join(lines) + "\n")
    q = tmp_path / "d.koko"
    q.write_text(
        'extract e:Entity from "x" if ()\n'
        'satisfying e (e [["that she"]] {1}) with threshold 0.5\n'
    )
    code, out, _ = run_cli(
        ["query", "--query", str(q), "--corpus", EX31,
         "--decomposer", f"file:{clauses}"],
        capsys,
    )
    # Clause files restrict evidence to tokens 0..2, which never follow an
    # entity mention, so nothing passes.
    assert code == 0 and out.strip() == ""


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "koko", "query", "--query", EX21, "--corpus", EX31],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "chocolate ice cream" in proc.stdout


def test_a_query_process_loads_neither_the_oracle_nor_the_bench():
    # Only verify runs the oracle and only bench the suites: a fresh query
    # process imports neither, nor the dataclass machinery.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from koko.cli import main\n"
        f"code = main(['query', '--query', {EX21!r}, '--corpus', {EX31!r}])\n"
        "print(sorted(set(sys.modules) - before), code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    loaded, code = proc.stdout.strip().splitlines()[-1].rsplit(" ", 1)
    assert code == "0" and "koko.cli" in loaded and "koko.engine" in loaded
    for module in ("koko.oracle", "koko.bench", "dataclasses", "inspect"):
        assert repr(module) not in loaded, module


def test_oracle_evaluate_loads_at_first_use():
    import koko
    import koko.oracle
    from koko import oracle_evaluate

    assert oracle_evaluate is koko.oracle.oracle_evaluate
    with pytest.raises(AttributeError, match="no_such_name"):
        koko.no_such_name


def test_keep_failed_rows_expose_pass_fail(ex31_corpus, ex31_bundle):
    q = parse_query(
        'extract e:Entity from "x" if ()\n'
        'satisfying e (str(e) contains "cheesecake" {1}) with threshold 0.5\n'
    )
    rows = run_query(q, ex31_corpus, ex31_bundle, keep_failed=True).rows
    flags = {r.values["e"]: r.passed for r in rows}
    assert flags == {
        "cheesecake": True,
        "chocolate ice cream": False,
        "grocery store": False,
    }


def test_manifest_decomposer_honored_when_flag_absent(tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "resources.json"
    manifest.write_text(json.dumps({"decomposer": "clauses"}))
    monkeypatch.setenv("KOKO_RESOURCES", str(manifest))
    from koko.cli import _load_resources, build_parser

    args = build_parser().parse_args(["query", "--query", EX21, "--corpus", EX31])
    res = _load_resources(args)
    assert res.decomposer == "clauses"
    args = build_parser().parse_args(
        ["query", "--query", EX21, "--corpus", EX31, "--decomposer", "identity"]
    )
    assert _load_resources(args).decomposer == "identity"


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    import koko.cli as cli_mod

    monkeypatch.setattr(cli_mod, "oracle_evaluate", lambda *a, **kw: [])
    code, out, _ = run_cli(["verify", "--query", EX21, "--corpus", EX31], capsys)
    assert code == 1 and "mismatch" in out


def test_index_empty_corpus_warns(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, out, err = run_cli(
        ["index", "--corpus", str(empty), "--out", str(tmp_path / "idx")], capsys
    )
    assert code == 0 and "empty" in err


def test_no_gsp_flag_gives_identical_rows(capsys):
    _, with_gsp, _ = run_cli(["query", "--query", EX21, "--corpus", EX31], capsys)
    _, without, _ = run_cli(["query", "--query", EX21, "--corpus", EX31, "--no-gsp"], capsys)
    assert with_gsp == without


def test_missing_files_map_to_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(
        ["index", "--corpus", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "i")], capsys
    )
    assert code == 2 and "cannot read corpus" in err
    code, _, err = run_cli(
        ["query", "--query", EX21, "--corpus", EX31,
         "--dict", f"Location={tmp_path / 'nope.txt'}"],
        capsys,
    )
    assert code == 3 and "dictionary" in err
    code, _, err = run_cli(
        ["query", "--query", EX21, "--corpus", EX31, "--vectors", str(tmp_path / "no.vec")],
        capsys,
    )
    assert code == 3 and "vectors" in err


# Each case: the bad file's content and the flags (or manifest) that load it.
MALFORMED_RESOURCES = {
    "expansion score": (b"d\te\tmuch\n", lambda p: ["--expansions", p]),
    "vector component": (b"w 1.0 x\n", lambda p: ["--vectors", p]),
    "vector nan": (b"w 1.0 0.0\nv nan 1.0\n", lambda p: ["--vectors", p]),
    "vector dimension": (b"w 1.0 0.0\nv 1.0 0.0 1.0\n", lambda p: ["--vectors", p]),
    "clause list": (b'{"sid": 0, "clauses": 5}\n', lambda p: ["--decomposer", f"file:{p}"]),
    "dict encoding": (b"caf\xe9\n", lambda p: ["--dict", f"Food={p}"]),
    "query encoding": (b'extract v:Str from "x" if (/ROOT:{ v = "\xff" })', lambda p: ["--query", p]),
    "manifest list": (b'["dicts"]', "KOKO_RESOURCES"),
    "manifest dicts": (b'{"dicts": ["a.txt"]}', "KOKO_RESOURCES"),
    "manifest topk": (b'{"topk": "3"}', "KOKO_RESOURCES"),
    "manifest negative topk": (b'{"topk": -1}', "KOKO_RESOURCES"),
}


def _assert_exits_3(args: list[str], env: dict, named: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "koko", *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and named in proc.stderr


@pytest.mark.parametrize("case", sorted(MALFORMED_RESOURCES))
def test_malformed_resource_files_exit_3(case, tmp_path):
    content, use = MALFORMED_RESOURCES[case]
    bad = tmp_path / "bad-file"
    bad.write_bytes(content)
    env = dict(os.environ)
    args = ["query", "--corpus", EX31]
    if use == "KOKO_RESOURCES":
        env["KOKO_RESOURCES"] = str(bad)
    else:
        args += use(str(bad))
    if "--query" not in args:
        args += ["--query", EX21]
    _assert_exits_3(args, env, str(bad))


# Each case: a command with an out-of-range flag value, given the path of
# a report it must not write, and the flag its error names.
BAD_FLAG_VALUES = {
    "bench limit": (
        lambda report: ["bench", "--suite", "span", "--corpus", EX31,
                        "--report", report, "--limit", "-1"],
        "--limit",
    ),
    "query topk": (lambda report: ["query", "--query", EX21, "--corpus", EX31, "--topk", "-1"], "--topk"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLAG_VALUES))
def test_bad_flag_values_exit_3(case, tmp_path):
    args, flag = BAD_FLAG_VALUES[case]
    report = tmp_path / "report.json"
    _assert_exits_3(args(str(report)), dict(os.environ), flag)
    assert not report.exists()


# --- koko query --index: the corpus built from the index, with a --corpus
# file checked by its hash (canonical) or by its parse (any other), or with
# none ---

LAZY_QUERIES = {
    "tree": 'extract v:Str from "t" if (/ROOT:{ v = //verb/nsubj })',
    "span": 'extract v:Str from "t" if (/ROOT:{ v = "baka" + ^ + //dobj })',
    # Every condition that scans the document: near, adjacency on both
    # sides and both descriptor sides.
    "evidence": (
        'extract x:Entity from "t" if ()\n'
        "satisfying x\n"
        '    (str(x) contains "baka" {1}) or\n'
        '    (x near "bali" {0.5}) or\n'
        '    (x "baka" {0.2}) or\n'
        '    ("bali" x {0.2}) or\n'
        '    (x [["bana"]] {0.2}) or\n'
        '    ([["baka bali"]] x {0.2})\n'
        "with threshold 0.4\n"
    ),
}


def _write_corpus_pair(tmp_path):
    """The same synthetic corpus twice: canonical, and with a comment line,
    whose bytes hash to another fingerprint than its parse."""
    from koko.bench import synthesize_corpus
    from koko.corpus import serialize_corpus

    text = serialize_corpus(synthesize_corpus(4, 120, entity_rate=0.5))
    canonical = tmp_path / "canonical.tsv"
    canonical.write_text(text, encoding="utf-8")
    commented = tmp_path / "commented.tsv"
    commented.write_text("# a comment\n" + text, encoding="utf-8")
    return str(canonical), str(commented)


@pytest.mark.parametrize("ch", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_token_holding_a_unicode_line_break(ch, tmp_path, capsys):
    # str.splitlines() breaks lines at these characters too; the TSV
    # format ends lines at "\n" only.
    from koko.corpus import AnnotatedDocument, Sentence, parse_corpus, serialize_corpus

    token = f"ice{ch}cream"
    sentence = Sentence(
        0, ["I", "ate", token], ["pron", "verb", "noun"], ["nsubj", "root", "dobj"],
        [1, None, 1], (),
    )
    text = serialize_corpus([AnnotatedDocument("d0", [sentence])])
    assert parse_corpus(text)[0].sentences[0] == sentence
    corpus = tmp_path / "c.tsv"
    corpus.write_bytes(text.encode("utf-8"))
    q = tmp_path / "q.koko"
    q.write_text('extract v:Str from "t" if (/ROOT:{ v = /root/dobj })')
    idx = str(tmp_path / "idx")
    assert run_cli(["index", "--corpus", str(corpus), "--out", idx], capsys)[0] == 0
    outs = []
    for extra in ([], ["--index", idx]):
        code, out, err = run_cli(["query", "--query", str(q), "--corpus", str(corpus)] + extra, capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert [json.loads(line)["values"]["v"] for line in outs[0].split("\n") if line] == [token]


def test_index_queries_with_and_without_corpus_agree_with_oracle(tmp_path, capsys):
    from koko.corpus import Corpus, load_corpus
    from koko.oracle import oracle_evaluate

    canonical, commented = _write_corpus_pair(tmp_path)
    idx = str(tmp_path / "idx")
    assert run_cli(["index", "--corpus", canonical, "--out", idx], capsys)[0] == 0
    corpus = Corpus(load_corpus(canonical))
    for name, text in LAZY_QUERIES.items():
        q = tmp_path / f"{name}.koko"
        q.write_text(text)
        outs = []
        for extra in (["--corpus", canonical], ["--corpus", commented], []):
            code, out, err = run_cli(["query", "--query", str(q), "--index", idx, *extra], capsys)
            assert code == 0, err
            outs.append(out)
        expected = "".join(
            json.dumps(r.to_json(), ensure_ascii=False, sort_keys=True) + "\n"
            for r in oracle_evaluate(parse_query(text), corpus)
        )
        assert expected, name
        assert outs == [expected] * 3, name


def test_lazy_path_parses_only_candidate_sentences(tmp_path, monkeypatch):
    # Sentences of the corpus opened over an index are built on first read.
    import koko.indexes
    from koko.corpus import Corpus
    from koko.indexes import load_bundle, open_corpus

    canonical, _ = _write_corpus_pair(tmp_path)
    idx = str(tmp_path / "idx")
    assert main(["index", "--corpus", canonical, "--out", idx]) == 0
    parsed = []
    build = koko.indexes.Sentence
    monkeypatch.setattr(koko.indexes, "Sentence", lambda *columns: parsed.append(1) or build(*columns))
    # The tree query's mixed label/POS path takes the nested loop; the span
    # query joins its atoms' offsets and builds no sentence.
    for name in ("tree", "span"):
        parsed.clear()
        bundle = load_bundle(idx)
        corpus = open_corpus(bundle)
        run = run_query(parse_query(LAZY_QUERIES[name]), corpus, bundle)
        assert run.rows, name
        assert len(run.candidate_sids) < len(corpus), name
        if name == "span":
            assert run.joined and parsed == []
        else:
            assert 0 < len(parsed) <= len(run.candidate_sids), name

    # The evidence query's candidates are the entity index's sentences, and
    # its evidence reads only the words of the sentences of a mention's
    # document that hold the mention's first token: it builds no sentence
    # and inflates neither the PL nor the POS column.
    parsed.clear()
    bundle = load_bundle(idx)
    corpus = open_corpus(bundle)
    inflated = []
    inflate = koko.indexes.PostingLists._inflate
    monkeypatch.setattr(koko.indexes.PostingLists, "_inflate", lambda lists: inflated.append(lists) or inflate(lists))
    read = []
    monkeypatch.setattr(corpus, "words", lambda sid: read.append(sid) or Corpus.words(corpus, sid))
    run = run_query(parse_query(LAZY_QUERIES["evidence"]), corpus, bundle)
    assert run.rows
    mentions = bundle.entity.lookup()
    assert run.candidate_sids == sorted({e.sid for e in mentions})
    holding, starts = set(), bundle.tokens.starts
    for e in mentions:
        first = bundle.word.words(starts[e.sid] + e.start, starts[e.sid] + e.start + 1)[0]
        doc = corpus.doc_sids(corpus.doc_index_of(e.sid))
        holding |= {bundle.tokens.sid_of[o] for o in bundle.word.lookup(first)} & set(doc)
    assert parsed == []
    assert inflated == [bundle.word.postings]
    assert 0 < len(set(read)) <= len(holding) < len(corpus)
    assert len(run.candidate_sids) < len(corpus)


def test_verify_evidence_query_on_documents(tmp_path, capsys):
    canonical, _ = _write_corpus_pair(tmp_path)
    idx = str(tmp_path / "idx")
    assert run_cli(["index", "--corpus", canonical, "--out", idx], capsys)[0] == 0
    q = tmp_path / "evidence.koko"
    q.write_text(LAZY_QUERIES["evidence"])
    for extra in ([], ["--index", idx]):
        code, out, err = run_cli(
            ["verify", "--query", str(q), "--corpus", canonical, *extra], capsys
        )
        assert code == 0, err
        assert "agree" in out and int(out.split("agree on ")[1].split()[0]) > 0


def test_stale_canonical_corpus_exits_2(tmp_path, capsys):
    from koko.bench import synthesize_corpus
    from koko.corpus import serialize_corpus

    first = tmp_path / "first.tsv"
    first.write_text(serialize_corpus(synthesize_corpus(1, 30)), encoding="utf-8")
    idx = str(tmp_path / "idx")
    assert run_cli(["index", "--corpus", str(first), "--out", idx], capsys)[0] == 0
    second = tmp_path / "second.tsv"
    second.write_text(serialize_corpus(synthesize_corpus(2, 30)), encoding="utf-8")
    code, _, err = run_cli(
        ["query", "--query", EX21, "--corpus", str(second), "--index", idx], capsys
    )
    assert code == 2 and "fingerprint" in err


def test_non_utf8_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"0\t0\th\xffi\tintj\troot\t-1\tO\n")
    code, _, err = run_cli(["query", "--query", EX21, "--corpus", str(bad)], capsys)
    assert code == 2 and "UTF-8" in err
    idx = str(tmp_path / "idx")
    assert run_cli(["index", "--corpus", EX31, "--out", idx], capsys)[0] == 0
    code, _, err = run_cli(
        ["query", "--query", EX21, "--corpus", str(bad), "--index", idx], capsys
    )
    assert code == 2 and "UTF-8" in err


with open(EX31, encoding="utf-8") as _f:
    EX31_LINES = _f.read().split("\n")


@st.composite
def _broken_corpus(draw) -> bytes:
    """ex31.tsv with one defect that makes it invalid: a dropped or
    duplicated column, a bad head, a bad IOB tag, a head cycle, or bytes
    that are not UTF-8."""
    lines = list(EX31_LINES)
    rows = [i for i, line in enumerate(lines) if "\t" in line]
    i = draw(st.sampled_from(rows))
    # The token rows of i's sentence.
    sentence = [j for j in rows if lines[j].split("\t")[0] == lines[i].split("\t")[0]]
    cols = lines[i].split("\t")
    kind = draw(st.sampled_from(["drop", "duplicate", "head", "iob", "cycle", "utf8"]))
    if kind == "drop":
        del cols[draw(st.integers(0, 6))]
    elif kind == "duplicate":
        k = draw(st.integers(0, 6))
        cols.insert(k, cols[k])
    elif kind == "head":
        bad = [cols[1], str(len(sentence) + draw(st.integers(0, 3))), "-2", "x", ""]
        if cols[5] != "-1":
            bad.append("-1")  # a second root
        cols[5] = draw(st.sampled_from(bad))
    elif kind == "iob":
        cols[6] = draw(st.sampled_from(["", "B", "B-", "I-", "Person", "X-Person", "b-Person", "I-Zzz"]))
    elif kind == "cycle":
        a, b = draw(
            st.lists(
                st.sampled_from([j for j in sentence if lines[j].split("\t")[5] != "-1"]),
                min_size=2, max_size=2, unique=True,
            )
        )
        ca, cb = lines[a].split("\t"), lines[b].split("\t")
        ca[5], cb[5] = cb[1], ca[1]
        lines[a], lines[b] = "\t".join(ca), "\t".join(cb)
    if kind != "cycle":
        lines[i] = "\t".join(cols)
    data = "\n".join(lines).encode("utf-8")
    if kind == "utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80"])) + data[at:]
    return data


@given(_broken_corpus())
@settings(max_examples=60, deadline=None)
def test_malformed_corpus_fuzz_exits_2(data):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.tsv")
        with open(path, "wb") as f:
            f.write(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["query", "--query", EX21, "--corpus", path])
    assert code == 2
    assert err.getvalue().startswith("error: ") and len(err.getvalue().strip()) > len("error:")


_DEEP_REGEX = "(" * 1000 + "a" + ")" * 1000


@pytest.mark.parametrize(
    "text, message",
    [
        ('extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@max=²] })', "unexpected character '²' (line 1, column 53)"),
        ('extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@max=' + "9" * 400 + "] })",
         "token count is too large (line 1, column 53)"),
        ('extract v:Str from "x" if (/ROOT:{ v = "a\\\nb" })\n$', "unexpected character '$' (line 3, column 1)"),
        ('extract v:Str from "x" if (/ROOT:{ v = //nsubj[@regex="a{99999999999}"] })', "invalid regex"),
        ('extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@regex="%s"] })' % _DEEP_REGEX, "invalid regex"),
        ('extract v:Str from "x" if (/ROOT:{ v = //verb }) satisfying v (str(v) matches "%s" {1}) '
         "with threshold 0" % _DEEP_REGEX, "invalid regex"),
    ],
    ids=["superscript-digit", "400-digits", "backslash-newline", "huge-repeat", "deep-elastic", "deep-matches"],
)
def test_malformed_query_reproductions_exit_3(tmp_path, capsys, text, message):
    q = tmp_path / "q.koko"
    q.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["query", "--query", str(q), "--corpus", EX31], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        # A user variable named like one that normalization makes up would
        # replace it: the spans would start at the subject, not at "ate".
        ('extract v:Str, __v1:Str from "x" if (/ROOT:{ v = "ate" + ^ + //punct, __v1 = //nsubj })',
         "output variable '__v1' starts with '__', which is reserved (line 1, column 16)"),
        # ... and 3 rows would become none.
        ('extract v:Str from "x" if (/ROOT:{ a = //verb, v = a/dobj/det, __s1 = //nsubj })',
         "variable name '__s1' starts with '__', which is reserved (line 1, column 64)"),
        # Once refused only when the engine decomposed the path.
        ('extract v:Str from "x" if (/ROOT:{ v = //foo })',
         "label 'foo' is neither a known parse label nor a POS tag (line 1, column 42)"),
        ('extract v:Str from "x" if (/ROOT:{ v = //verb[@pos="noun"] })',
         "conflicting POS constraints 'verb' and 'noun' on one step (line 1, column 52)"),
    ],
    ids=["reserved-output", "reserved-definition", "unknown-label", "conflicting-pos"],
)
@pytest.mark.parametrize(
    "command", [["query"], ["explain", "--stage", "normalize"], ["verify"]], ids=["query", "explain", "verify"]
)
def test_every_command_refuses_an_invalid_query_at_its_token(tmp_path, capsys, command, text, message):
    q = tmp_path / "q.koko"
    q.write_text(text, encoding="utf-8")
    code, out, err = run_cli([*command, "--query", str(q), "--corpus", EX31], capsys)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


with open(EX21, encoding="utf-8") as _f:
    EX21_TEXT = _f.read()

_NUMBERS = ["3", "3.0", "²", "①", "1²", "9" * 400, "9" * 400 + ".5", str(2**53 + 1), "12345678901234567890"]
_REGEXES = ["a+", "a{99999999999}", _DEEP_REGEX, "(" * 200 + "a", "[", "a{2,1}"]
_TEMPLATES = [
    EX21_TEXT,
    'extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@min=0, @max=N] })\n',
    'extract v:Str from "x" if (/ROOT:{ v = //verb[@regex="R"] })\n',
    'extract v:Str from "x" if (/ROOT:{ v = "a" + ^[@regex="R"] })\n',
    'extract v:Str from "x" if (/ROOT:{ v = //verb })\nsatisfying v (str(v) matches "R" {1}) with threshold N\n',
]


@st.composite
def _broken_query(draw) -> str:
    """A query with numbers beyond what a float holds exactly or at all,
    digits that are not decimal, regexes beyond the compiler's limits, and
    perhaps one more such piece, a backslash-newline or a stray quote
    inserted anywhere."""
    text = draw(st.sampled_from(_TEMPLATES))
    number = draw(st.sampled_from(_NUMBERS) | st.integers(2**53, 2**80).map(str))
    text = text.replace("N", number).replace('"R"', '"%s"' % draw(st.sampled_from(_REGEXES)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        extra = draw(st.sampled_from(["²", "①", "9" * 400, "\\\n", '"', '"a\\\nb"', "@max=" + number]))
        text = text[:at] + extra + text[at:]
    return text


@given(_broken_query())
@settings(max_examples=60, deadline=None)
def test_malformed_query_fuzz_exits_0_or_3(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "q.koko")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["query", "--query", path, "--corpus", EX31])
    assert code in (0, 3)
    if code == 3:
        assert err.getvalue().startswith("error: ") and len(err.getvalue().strip()) > len("error:")
