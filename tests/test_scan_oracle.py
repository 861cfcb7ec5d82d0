"""The image-triplet scan behind membership and search, against brute force.

The scan's sample stream is rebuilt from the public samplers, each image is
computed with plain Python math, and each relaxation constant comes from
`oracles.brute_triplet_constant` over the exact rationals of the float
images, so none of the scan's own sampling glue or constant formula is
trusted.
"""

import math
from fractions import Fraction
from itertools import islice

import pytest

from gmetrix import (
    Budget,
    BoundaryStrategy,
    ClassTag,
    GridSpec,
    GridStrategy,
    RandomStrategy,
    counterexample_search,
    membership,
    parse_fn,
    sample_triplets,
)
from gmetrix.errors import OutOfCodomain

from oracles import brute_triplet_constant

# 6,000 samples run past the 4,580 grid triplets into the random and
# boundary phases
BUDGET = Budget(triplet_samples=6000,
                grid=GridSpec(x_max=20.0, n_points=1200, seed=0), seed=3)

PYTHON_FNS = {
    "x^2": lambda x: x ** 2.0,
    "sqrt(x)": math.sqrt,
    "ceil(x)": lambda x: float(math.ceil(x)),
    "exp(x) - 1": lambda x: math.exp(x) - 1.0,
    # vanishes on a window that holds no grid value, so the first infinite
    # constant comes from a random triplet and pins the stream's order
    "piece(x <= 38.1 ? x : piece(x < 39.9 ? 0 : x))":
        lambda x: x if x <= 38.1 else (0.0 if x < 39.9 else x),
    # negative past 30: an infinite constant (sample 37) comes before the
    # first failing entry (sample 41), both in the first batch of triplets
    "piece(x < 25 ? x : piece(x < 30 ? 0 : x - 100))":
        lambda x: x if x < 25 else (0.0 if x < 30 else x - 100.0),
    # the same with the windows swapped: the failing entry comes first
    "piece(x < 25 ? x : piece(x < 27 ? x - 100 : 0))":
        lambda x: x if x < 25 else (x - 100.0 if x < 27 else 0.0),
}


def scan_stream(seed, scale):
    """Grid sweep from scale/20 to scale, then random and boundary triplets
    in turn."""
    for t in sample_triplets(GridStrategy(step=scale / 20.0, max=scale)):
        yield t.as_tuple()
    randoms = sample_triplets(RandomStrategy(seed=seed, count=10 ** 9,
                                             scale=scale))
    boundary = sample_triplets(BoundaryStrategy(seed=seed + 1, count=10 ** 9,
                                                scale=scale / 2.0))
    for r, b in zip(randoms, boundary):
        yield r.as_tuple()
        yield b.as_tuple()


def oracle_scan(source, budget):
    """(samples used, sup of the finite constants, [(triplet, images,
    constant)]); the scan stops at the first infinite constant."""
    f = PYTHON_FNS[source]
    seen, sup = [], Fraction(1)
    for t in islice(scan_stream(budget.seed, budget.effective_scale()),
                    budget.triplet_samples):
        images = tuple(f(v) for v in t)
        constant = brute_triplet_constant(*map(Fraction, images))
        seen.append((t, images, constant))
        if constant is None:
            break
        sup = max(sup, constant)
    return len(seen), sup, seen


def rel_close(observed, expected):
    return math.isclose(observed, expected, rel_tol=1e-12, abs_tol=0.0)


def test_stream_passes_the_grid():
    used, _, seen = oracle_scan("x^2", BUDGET)
    grid_values = {2.0 * k for k in range(1, 21)}  # step 40/20, exact
    on_grid = [all(v in grid_values for v in t) for t, _, _ in seen]
    assert used == BUDGET.triplet_samples
    assert on_grid.index(False) == 4580


@pytest.mark.parametrize("source", ["x^2", "sqrt(x)", "ceil(x)"])
def test_membership_scan_matches_oracle(source):
    report = membership(parse_fn(source), ClassTag.MB, BUDGET)
    used, sup, _ = oracle_scan(source, BUDGET)
    assert report.constants["triplet_samples_used"] == used
    assert rel_close(report.constants["s_star_triplet"], float(sup))


def test_square_scan_constant_is_nontrivial():
    # the boundary triplets (2b, b, b) map to (4b^2, b^2, b^2): constant 2
    _, sup, _ = oracle_scan("x^2", BUDGET)
    assert Fraction(19, 10) < sup <= 2


def test_search_witness_matches_oracle():
    source = "exp(x) - 1"
    witness = counterexample_search(parse_fn(source), ClassTag.MB, BUDGET)
    used, sup, seen = oracle_scan(source, BUDGET)
    assert witness is not None
    assert witness.samples_used == used
    by_triplet = {t: (images, constant) for t, images, constant in seen}
    assert witness.triplet in by_triplet
    images, constant = by_triplet[witness.triplet]
    assert all(rel_close(got, want)
               for got, want in zip(witness.images, images))
    assert rel_close(witness.constant, float(constant))
    assert rel_close(witness.constant, float(sup))


def test_search_stops_at_the_first_infinite_constant():
    source = "piece(x <= 38.1 ? x : piece(x < 39.9 ? 0 : x))"
    witness = counterexample_search(parse_fn(source), ClassTag.MB, BUDGET)
    used, _, seen = oracle_scan(source, BUDGET)
    triplet, images, constant = seen[-1]
    assert constant is None and 4580 < used < BUDGET.triplet_samples
    assert witness.samples_used == used
    assert witness.triplet == triplet and witness.images == images
    assert witness.constant == math.inf


@pytest.mark.parametrize("source", [
    "piece(x < 25 ? x : piece(x < 30 ? 0 : x - 100))",
    "piece(x < 25 ? x : piece(x < 27 ? x - 100 : 0))",
])
def test_search_stops_at_whichever_comes_first(source):
    # the scan evaluates its entries in batches; as one at a time, the first
    # infinite constant ends it, and the first failing entry raises
    f = PYTHON_FNS[source]
    stream = islice(scan_stream(BUDGET.seed, BUDGET.effective_scale()),
                    BUDGET.triplet_samples)
    for used, t in enumerate(stream, 1):
        images = tuple(f(v) for v in t)
        failing = [v for v, image in zip(t, images) if image < 0]
        if failing:
            with pytest.raises(OutOfCodomain) as excinfo:
                counterexample_search(parse_fn(source), ClassTag.B, BUDGET)
            assert excinfo.value.x == failing[0]
            return
        if brute_triplet_constant(*map(Fraction, images)) is None:
            witness = counterexample_search(parse_fn(source), ClassTag.B,
                                            BUDGET)
            assert witness.samples_used == used and witness.triplet == t
            return
    pytest.fail("the stream has no infinite constant and no failing entry")
