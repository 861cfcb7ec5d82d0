"""Layer microbenchmarks: public gmetrix functions timed on their own.

Inputs are fixed and seeded, built before the clock starts, and every
timed loop consumes its results, so only the layer's own work is timed.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import islice

import workloads

EXACT_EXPRS = ("x", "min(x, 1)")


def _timed(fn, repeats: int) -> float:
    """Median CPU seconds of fn() over repeats runs (see harness.py)."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return statistics.median(times)


def _table(g, kind: str, regime: str, n: int):
    entries, _theta = workloads.make_table(kind, regime, n, 0)
    return g.new_distance_table([f"p{i}" for i in range(n)], entries)


def mixed_triplets(g, seed: int, scale: float):
    """The membership scan's sample stream, from the public samplers: the
    grid sweep, then random and boundary triplets in turn."""
    yield from g.sample_triplets(g.GridStrategy(step=scale / 20.0, max=scale))
    randoms = g.sample_triplets(g.RandomStrategy(seed=seed, count=10 ** 9,
                                                 scale=scale))
    boundary = g.sample_triplets(g.BoundaryStrategy(seed=seed + 1,
                                                    count=10 ** 9,
                                                    scale=scale / 2.0))
    for r, b in zip(randoms, boundary):
        yield r
        yield b


def run(g) -> dict:
    """Every microbenchmark metric, keyed by its benchmark name."""
    out = {}
    b16 = _table(g, "b-metric", "small", 16)
    b48 = _table(g, "b-metric", "small", 48)
    m48 = _table(g, "metric", "small", 48)
    out["axioms.classify_s.n16"] = _timed(lambda: g.classify_space(b16), 5)
    out["axioms.classify_s.n48"] = _timed(lambda: g.classify_space(b48), 1)
    out["axioms.verify_metric_s.n48"] = _timed(
        lambda: g.verify_as(m48, g.ClassTag.METRIC), 1)

    sources = [source for _, source in workloads.FUNCTIONS]
    rounds = 20
    seconds = _timed(lambda: [g.parse_fn(s) for _ in range(rounds)
                              for s in sources], 3)
    out["dsl.parse_us"] = seconds / (rounds * len(sources)) * 1e6

    values = [v for row in workloads.make_table("plain", "large", 32, 0)[0]
              for v in row]
    exact = [g.parse_fn(s).ast for s in EXACT_EXPRS]
    seconds = _timed(lambda: [g.eval_exact(ast, v) for ast in exact
                              for v in values], 3)
    out["dsl.exact_us"] = seconds / (len(exact) * len(values)) * 1e6

    rng = random.Random("bench-micro-xs")
    xs = [rng.uniform(0.0, 40.0) for _ in range(20_000)]
    for name, source in g.FUNCTION_CATALOG:
        f = g.parse_fn(source)
        seconds = _timed(lambda: [g.eval_fn(f, x) for x in xs], 3)
        out[f"dsl.eval_ns.{name}"] = seconds / len(xs) * 1e9

    out["triplets.sample_s_per_1e5"] = _timed(
        lambda: sum(1 for _ in islice(mixed_triplets(g, 0, 40.0), 100_000)), 3)
    triplets = list(islice(mixed_triplets(g, 0, 40.0), 20_000))
    seconds = _timed(lambda: [g.triplet_constant(t) for t in triplets], 3)
    out["triplets.constant_us"] = seconds / len(triplets) * 1e6

    sqrt = g.parse_fn("sqrt(x)")
    for points in (2000, 10_000):
        grid = g.GridSpec(x_max=20.0, n_points=points, seed=1)
        out[f"classify.profile_s.grid{points}"] = _timed(
            lambda: g.classify_fn(sqrt, grid), 3)
    return out
