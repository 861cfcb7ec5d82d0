"""Self-tests of the benchmark: seeded inputs, generated kinds, expected
answers, tracing and a tiny end-to-end run.

    python -m pytest -q bench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from itertools import islice

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload, seed, count=3):
    """Request list and documents of the first blocks, as bytes."""
    blocks = list(islice(workloads.blocks(workload, seed), count))
    docs = sorted({doc for block in blocks for _, _, doc in block if doc})
    return json.dumps([blocks, [workloads.table_document(
        *workloads.make_table(*workloads.parse_doc_key(d))) for d in docs]]
    ).encode()


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_seed_fixes_requests_and_documents(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def _doc_keys(n, indices=(0, 1)):
    return [workloads.table_doc_key(k, r, n, i) for k in workloads.KINDS
            for r in workloads.REGIMES for i in indices]


@pytest.mark.parametrize("doc_key", _doc_keys(8) + _doc_keys(16, (0,)))
def test_generated_tables_have_their_kind(doc_key):
    kind, regime, n, _ = workloads.parse_doc_key(doc_key)
    entries, theta = workloads.make_table(kind, regime, n, 0)
    assert all(entries[i][i] == 0 and entries[i][j] == entries[j][i]
               for i in range(n) for j in range(n))
    facts = oracles.TableFacts(entries)
    assert facts.identity
    if kind in ("metric", "ultrametric"):
        assert facts.triangle_violation is None
    if kind == "ultrametric":
        assert facts.ultra_violation is None
    if kind == "b-metric":
        assert facts.s_min_theta[0] <= 2
    if kind == "extended":
        assert oracles.extended_violation(entries, theta) is None
        assert min(min(row) for row in theta) >= 1
    denominators = {v.denominator for row in entries for v in row}
    if regime == "small":
        # at most a /8 coordinate or entry times a /8 factor
        assert all(64 % d == 0 for d in denominators)
    else:
        assert max(denominators) > 10 ** 6


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_expected_answers_cover_the_pool(workload):
    expected = workloads.load_expected(workload)
    keys = [key for key, _, _ in workloads.POOLS[workload]()]
    assert sorted(keys) == sorted(expected)
    for rc, digest in expected.values():
        assert rc in (0, 1, 2) and len(digest) == 64


def test_oracles_reject_a_wrong_answer():
    key, argv, doc = workloads.table_requests_for("metric", "small", 8,
                                                  0)["verify"]
    facts, _ = oracles.doc_facts(doc)
    s_min = facts.s_min_theta[0]
    out = {"classification": {
        "metric": {"status": "holds"}, "ultrametric": {"status": "holds"},
        "weak-ultrametric": {"status": "holds",
                             "constants": {"C_min": "1"}},
        "b-metric": {"status": "holds",
                     "constants": {"s_min": str(s_min + 1)}},
        "extended-b-metric": {"status": "holds",
                              "constants": {"theta_max": str(s_min)}}}}
    problems = oracles.check(key, argv, 0, out)
    assert any("s_min" in p for p in problems)


def test_tracer_attributes_a_table_request(tmp_path):
    cli = harness.import_cli()
    original = cli.main
    key, argv, doc = workloads.table_requests_for("b-metric", "small", 8,
                                                  0)["verify"]
    path = workloads.write_document(str(tmp_path), doc)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc, stdout, _, _ = harness.execute(cli.main,
                                           harness.resolve(argv, path))
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert [rc, harness.digest(stdout)] == workloads.load_expected(
        "tables")[key]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["axioms.calls"] == 1 and metrics["axioms.busy_s"] > 0
    assert metrics["classify.calls"] == 0 and metrics["model.load_s"] > 0


def test_calibration_samples_while_a_request_runs():
    cli = harness.import_cli()
    handler = signal.getsignal(signal.SIGALRM)
    calibration = harness.Calibration()
    rc, _, cpu, _ = harness.execute(cli.main, ["fn", "classify", "sqrt(x)"],
                                    calibration)
    inside = calibration.units
    calibration.top_up()
    assert rc == 0 and cpu > 0 and inside >= 1
    assert calibration.units >= harness.MIN_UNITS and calibration.scale() > 0
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "functions", "--seed", "0",
         "--seconds", "0.01", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_smoke_run_is_correct(trace, section):
    done = _run(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0
    assert json.loads(record_line)["run_record"]["failed_share"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == _declared(section)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
