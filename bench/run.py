"""gmetrix benchmark: replay seeded request lists through ``gmetrix.cli.main``.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

One client, closed loop, in this process: each request is an argv handed to
``cli.main`` with stdout captured, checked against expected/<workload>.json.
A run replays one block of requests. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record.

With ``--trace 0`` the metrics are the end-to-end ones. The block runs in
passes until ``--seconds`` of request CPU time, at least MIN_PASSES, each
request calibrated (harness.py). A request's latency is the median over
passes of its time in reference seconds. With ``--trace 1`` the metrics are
the per-layer ones: one pass in which each request runs plainly and then
again under the span tracer, then the layer microbenchmarks. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import harness
import micro
import spans
import workloads

MIN_PASSES = 2
# import probes before each pass, each between this many calibration units
SETUP_PER_PASS = 2
SETUP_UNITS = 40
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.process_time(); import gmetrix.cli; "
                 "print(time.process_time() - t)")
FAILURES_SHOWN = 5


def import_seconds() -> float:
    """CPU seconds a fresh interpreter takes to ``import gmetrix.cli``."""
    done = subprocess.run(
        [sys.executable, "-E", "-s", "-c", _IMPORT_PROBE, harness.SRC],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    return float(done.stdout)


def scaled_import_seconds() -> float:
    """import_seconds in reference seconds, calibrated just before and
    after."""
    calibration = harness.Calibration()
    calibration.top_up(SETUP_UNITS)
    seconds = import_seconds()
    calibration.top_up(2 * SETUP_UNITS)
    return seconds * calibration.scale()


class Pass:
    """Outcome of replaying a block once. A calibrated pass also keeps each
    request's time in reference seconds."""

    def __init__(self, calibrated: bool) -> None:
        self.calibrated = calibrated
        self.scaled: list = []
        self.units = 0
        self.latencies: list = []
        self.ok: list = []
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run(self, main, key, argv, expected) -> None:
        calibration = harness.Calibration() if self.calibrated else None
        rc, stdout, cpu, wall = harness.execute(main, argv, calibration)
        if calibration:
            calibration.top_up()
            self.scaled.append(cpu * calibration.scale())
            self.units += calibration.units
        ok = [rc, harness.digest(stdout)] == expected.get(key)
        self.latencies.append(cpu)
        self.ok.append(ok)
        self.cpu += cpu
        self.wall += wall
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append({"request": key, "exit": rc})


def replay(block, expected, doc_dir, tracer=None):
    """Run a block once, checking each answer.

    Returns [plain pass], calibrated. With a tracer, each request also runs
    a second time right after, under the tracer, so both runs see the same
    load from the rest of the machine; then it returns [plain pass, traced
    pass], neither calibrated.
    """
    plain = Pass(calibrated=tracer is None)
    traced = Pass(calibrated=False)
    cli = harness.import_cli()
    paths = {doc: workloads.write_document(doc_dir, doc)
             for _, _, doc in block if doc}
    for key, argv, doc in block:
        argv = harness.resolve(argv, paths.get(doc))
        plain.run(cli.main, key, argv, expected)
        if tracer is None:
            continue
        tracer.request = traced.attempted
        tracer.install()
        try:
            traced.run(cli.main, key, argv, expected)
        finally:
            tracer.uninstall()
    return [plain] if tracer is None else [plain, traced]


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    git = os.path.join(harness.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
    except OSError:
        return "unknown"
    return head


def metric(value, unit):
    return {"value": value, "unit": unit}


def plain_passes(block, expected, doc_dir, seconds):
    """Passes over the block until ``seconds`` of request CPU time, at least
    MIN_PASSES, and the median fresh-interpreter import time sampled before
    each pass."""
    import_seconds()  # writes the bytecode caches; not counted
    setup, passes = [], []
    while (len(passes) < MIN_PASSES
           or sum(p.cpu for p in passes) < seconds):
        setup += [scaled_import_seconds() for _ in range(SETUP_PER_PASS)]
        passes += replay(block, expected, doc_dir)
    return passes, statistics.median(setup)


def scaled_latencies(passes) -> list:
    """Per request, the median over passes of its reference seconds."""
    return [statistics.median(times)
            for times in zip(*(p.scaled for p in passes))]


def p90(values) -> float:
    # inclusive: a run has few samples, and the default method would
    # extrapolate past the largest
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, setup: float) -> dict:
    latencies = scaled_latencies(passes)
    correct = sum(all(oks) for oks in zip(*(p.ok for p in passes)))
    return {
        "setup_s": metric(setup, "s"),
        "verdicts_per_s": metric(correct / sum(latencies), "1/s"),
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "latency_p90_s": metric(p90(latencies), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_UNITS = {
    "axioms.busy_s": "s", "axioms.calls": "count",
    "axioms.classify_s.n16": "s", "axioms.classify_s.n48": "s",
    "axioms.verify_metric_s.n48": "s",
    "model.load_s": "s", "model.dumps_s": "s",
    "model.random_space_s": "s", "model.random_space_calls": "count",
    "dsl.parse_us": "us", "dsl.exact_us": "us",
    **{f"dsl.eval_ns.{name}": "ns" for name, _ in workloads.CATALOG},
    "triplets.sample_s_per_1e5": "s", "triplets.constant_us": "us",
    "classify.busy_s": "s", "classify.calls": "count",
    "classify.profile_s.grid2000": "s", "classify.profile_s.grid10000": "s",
    "preservation.self_s": "s", "preservation.pushforward_s": "s",
    "preservation.triplets_scanned": "count",
    "preservation.scan_share": "ratio",
    "region.busy_s": "s", "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}


def per_layer(plain: Pass, traced: Pass, tracer, micro_metrics) -> dict:
    values = spans.layer_metrics(tracer.spans)
    values.update(micro_metrics)
    values["trace.overhead_share"] = traced.cpu / plain.cpu - 1.0
    return {name: metric(values[name], unit)
            for name, unit in LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_cli()
        expected = workloads.load_expected(args.workload)
    except (ImportError, OSError) as err:
        print(f"cannot set up the benchmark: {err}", file=sys.stderr)
        return 1

    doc_dir = os.path.join(harness.WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(doc_dir, exist_ok=True)
    try:
        block = next(workloads.blocks(args.workload, args.seed))
        if args.trace:
            tracer = spans.Tracer()
            runs = replay(block, expected, doc_dir, tracer)
            import gmetrix
            metrics = per_layer(*runs, tracer, micro.run(gmetrix))
            tracer.write(os.path.join(
                harness.WORK_DIR,
                f"spans-{args.workload}-seed{args.seed}.jsonl"))
            plain = runs[0]
        else:
            runs, setup = plain_passes(block, expected, doc_dir,
                                       args.seconds)
            metrics = end_to_end(runs, setup)
            plain = runs[0]
    finally:
        shutil.rmtree(doc_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    latencies = plain.latencies if args.trace else scaled_latencies(runs)
    top = p90(latencies)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_sha": git_sha(),
        "clients": 1, "loop": "closed",
        "passes": len(runs),
        "requests_per_pass": plain.attempted,
        "calibration_units": sum(r.units for r in runs),
        "reference_scale_per_pass": [sum(r.scaled) / r.cpu for r in runs
                                     if r.calibrated],
        "request_cpu_seconds": sum(r.cpu for r in runs),
        "request_wall_seconds": sum(r.wall for r in runs),
        "latency_samples": len(latencies),
        "samples_above_p90": sum(1 for x in latencies if x > top),
        "setup_samples": 0 if args.trace else len(runs) * SETUP_PER_PASS,
        "failed_share": failed / attempted,
        "failures": [f for r in runs for f in r.failures][:FAILURES_SHOWN],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
