"""Runs one CLI request in-process and captures what a shell would see, and
times a fixed unit of reference work to calibrate the clock.

Requests are timed in process CPU seconds (``time.process_time``). The
requests are single-threaded and wait for nothing but a small file in the
page cache, so on an unshared core their CPU time is their wall time. On a
shared virtual machine the wall clock also counts time the hypervisor gives
to other tenants, which came to a third of the run at times while this
benchmark was tuned. Wall seconds are kept for the run record.

CPU time is not steady either on such a machine: other tenants' load slows
the core itself, by up to 2x, and the slowdown changes within a second. So
a calibrated request runs ``calibration_unit`` every SAMPLE_INTERVAL_S of
wall time while it runs, from a SIGALRM handler, and a short request runs
more units right after it. The request's CPU seconds, less the units' own,
are scaled by REFERENCE_UNIT_S / (mean CPU seconds of its units): they are
seconds as a core that runs the unit in REFERENCE_UNIT_S would take. Units
run only before or after a long request track its load poorly, because the
load changes while it runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# CPU seconds of one calibration unit on a quiet core of a 2.0 GHz Intel
# Xeon with Python 3.11; any constant works, this one keeps the scaled times
# close to that machine's seconds
REFERENCE_UNIT_S = 0.0005
SAMPLE_INTERVAL_S = 0.01
# units behind each scale at least: a short request gets the rest right
# after it ends
MIN_UNITS = 8


def import_cli():
    """gmetrix.cli from this checkout's sources; ImportError if absent."""
    if not os.path.isdir(os.path.join(SRC, "gmetrix")):
        raise ImportError(f"no gmetrix sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from gmetrix import cli
    return cli


def resolve(argv, doc_path):
    return [doc_path if a == "{doc}" else a for a in argv]


def execute(main, argv, calibration=None):
    """(exit code, stdout text, CPU seconds, wall seconds) of main(argv);
    stderr is discarded. An exception out of main is reported as exit code
    None. With a Calibration, it samples while main runs, and the CPU
    seconds leave out those of the units.
    """
    out = io.StringIO()
    sampling = (calibration.sampling() if calibration
                else contextlib.nullcontext())
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), sampling:
            rc = main(argv)
    except Exception:  # a crash is a failed request, never a crashed run
        rc = None
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    if calibration:
        cpu -= calibration.seconds
    return rc, out.getvalue(), cpu, wall


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_stdout(text: str):
    return json.loads(text) if text.strip() else None


def _calibration_inputs():
    # the benchmark's own generators and oracles, never gmetrix, so the
    # unit's work stays the same whatever changes in the program; a
    # brute-force b-constant over Fractions and float triplet constants,
    # the two kinds of arithmetic the workloads do
    import oracles
    import workloads
    entries, _ = workloads.make_table("b-metric", "small", 4, 0)
    triplets = [(math.sqrt(x), math.log1p(x), math.sqrt(x) + math.log1p(x))
                for x in range(50)]
    return oracles, entries, triplets


_CALIBRATION = []


def calibration_unit() -> float:
    """CPU seconds of one fixed unit of interpreter-bound reference work."""
    if not _CALIBRATION:
        _CALIBRATION.extend(_calibration_inputs())
    oracles, entries, triplets = _CALIBRATION
    start = time.process_time()
    oracles.b_constant_and_theta(entries)
    for a, b, c in triplets:
        oracles.triplet_constant(a, b, c)
    return time.process_time() - start


class Calibration:
    """Calibration units run during and right after one timed stretch."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def _unit(self, *_signal) -> None:
        self.seconds += calibration_unit()
        self.units += 1

    @contextlib.contextmanager
    def sampling(self):
        """Run a unit every SAMPLE_INTERVAL_S of wall time while active."""
        previous = signal.signal(signal.SIGALRM, self._unit)
        # a wall-clock timer: a CPU-time one (ITIMER_PROF) makes the kernel
        # update the process CPU clock only once per tick while it is armed
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def top_up(self, units: int = MIN_UNITS) -> None:
        """Run units now until there are ``units`` in all."""
        while self.units < units:
            self._unit()

    def scale(self) -> float:
        """Factor from CPU seconds to reference seconds."""
        return REFERENCE_UNIT_S * self.units / self.seconds
