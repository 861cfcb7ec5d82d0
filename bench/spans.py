"""Span tracing for the traced pass.

The tracer replaces the public functions of each gmetrix module with
wrappers that record a span per call: name, layer, start, end, parent span
and request id. Every name bound to the same function (the defining module,
``cli``, ``preservation``, the package) gets the same wrapper, so calls are
caught whichever import path they take. Times are process CPU seconds, as
in harness.py. Spans stay in memory until the run writes them out.
``eval_fn`` and ``triplet_constant`` are left alone: a request calls them
some 3 x 10^5 times, and the microbenchmarks time them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (layer, module, public functions wrapped in it)
TRACED = (
    ("cli", "gmetrix.cli", ("main",)),
    ("model", "gmetrix.model", ("load_space", "canonical_dumps",
                                "random_space")),
    ("axioms", "gmetrix.axioms", ("check_identity", "check_triangle",
                                  "check_ultra", "optimal_weak_ultra_constant",
                                  "optimal_b_constant", "minimal_theta",
                                  "check_extended_b", "classify_space",
                                  "verify_as")),
    ("preservation", "gmetrix.preservation", ("membership",
                                              "counterexample_search",
                                              "preserve_check", "pushforward",
                                              "theorem_suite")),
    ("classify", "gmetrix.classify", ("classify_fn",)),
    ("region", "gmetrix.region", ("region_check",)),
    ("dsl", "gmetrix.dsl", ("parse_fn",)),
)

NAME, LAYER, START, END, PARENT, REQUEST, SCANNED = range(7)


def _membership_scanned(result, args, kwargs) -> int:
    return int(result.constants.get("triplet_samples_used", 0))


def _search_scanned(result, args, kwargs) -> int:
    # no witness: the scan ran its whole budget, which both callers (cli and
    # theorem_suite) pass as the third argument
    return (result.samples_used if result is not None
            else args[2].triplet_samples)


# triplets scanned per call, read off the returned report
_SCAN_COUNTERS = {"membership": _membership_scanned,
                  "counterexample_search": _search_scanned}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.request = None
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = _SCAN_COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, layer, time.process_time(), None,
                    stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.process_time()
                stack.pop()
            if counter is not None:
                span[SCANNED] = counter(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gmetrix" or name.startswith("gmetrix.")]
        for layer, module_name, names in TRACED:
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(
                    ("name", "layer", "start", "end", "parent", "request",
                     "scanned"), span))) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer busy and self times and counts from a finished span list."""
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += duration[i]

    def outermost(i):
        parent = spans[i][PARENT]
        return parent < 0 or spans[parent][LAYER] != spans[i][LAYER]

    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        self_time[s[LAYER]] += duration[i] - child_time[i]
        if outermost(i):
            total[s[LAYER]] += duration[i]
            calls[s[LAYER]] += 1
        total["fn:" + s[NAME]] += duration[i]
        calls["fn:" + s[NAME]] += 1

    scans = [s for s in spans if s[NAME] in _SCAN_COUNTERS]
    return {
        "axioms.busy_s": total["axioms"],
        "axioms.calls": calls["axioms"],
        "model.load_s": total["fn:load_space"],
        "model.dumps_s": total["fn:canonical_dumps"],
        "model.random_space_s": total["fn:random_space"],
        "model.random_space_calls": calls["fn:random_space"],
        "classify.busy_s": total["classify"],
        "classify.calls": calls["classify"],
        "preservation.self_s": self_time["preservation"],
        "preservation.pushforward_s": total["fn:pushforward"],
        "preservation.triplets_scanned": sum(s[SCANNED] for s in scans),
        "preservation.scan_share": (sum(1 for s in scans if s[SCANNED] > 0)
                                    / len(scans) if scans else 0.0),
        "region.busy_s": total["region"],
        "cli.self_s": self_time["cli"],
    }
