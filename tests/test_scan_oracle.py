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
from gmetrix.classify import diverged
from gmetrix.errors import OutOfCodomain
from gmetrix.preservation import _scan_image_triplets
from gmetrix.triplets import _constant

from oracles import brute_triplet_constant

STEP_SOURCE = "piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : 4))"

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
    STEP_SOURCE: lambda x: 0.0 if x <= 0 else (1.0 if x <= 1 else 4.0),
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
    # the scan evaluates each entry only when it reaches it, so the first
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


def oracle_bookkeeping(source, budget):
    """(samples used, sup, sup_top, sup_below, best) rebuilt from the oracle
    stream: a sample is top when an entry lies above half the scale, and
    best is the first sample whose constant is strictly above every one
    before it."""
    used, _, seen = oracle_scan(source, budget)
    split = budget.effective_scale() / 2
    sup = sup_top = sup_below = Fraction(0)
    best = None
    for t, images, constant in seen:
        assert constant is not None
        if constant > sup:
            sup, best = constant, (t, images)
        if max(t) > split:
            sup_top = max(sup_top, constant)
        else:
            sup_below = max(sup_below, constant)
    return used, sup, sup_top, sup_below, best


@pytest.mark.parametrize("source", ["exp(x) - 1", "x^2", STEP_SOURCE])
def test_scan_bookkeeping_matches_oracle(source):
    # the grid phase holds samples whose largest entry is exactly half the
    # scale; they count below the top octave
    scan = _scan_image_triplets(parse_fn(source), BUDGET)
    used, sup, sup_top, sup_below, best = oracle_bookkeeping(source, BUDGET)
    assert scan.samples_used == used == BUDGET.triplet_samples
    assert scan.infinite is None
    assert rel_close(scan.sup, float(sup))
    assert rel_close(scan.sup_top, float(sup_top))
    assert rel_close(scan.sup_below, float(sup_below))
    assert scan.best == best
    assert scan.diverged is diverged(float(sup), float(sup_top),
                                     float(sup_below))
    assert scan.diverged is (source == "exp(x) - 1")


NEGATIVE_ZERO_AT_0 = "piece(x <= 0 ? -x : x)"  # -x at 0 is -0.0, in range


@pytest.mark.parametrize("source,sample", [
    ("x", (1.0, 0.0, 0.0)),  # the other two sum to zero: infinite
    ("x", (0.0, 0.0, 1.0)),  # ... at the last entry
    ("x", (0.0, 0.0, 0.0)),  # all zero: the floor 1
    ("x", (0.0, 1.0, 1.0)),  # a zero entry beside positive ones
    ("x", (0.0, 1.0, 3.0)),
    ("x", (1.0, 1.0, 1.0)),  # three tied ratios
    ("x", (2.0, 1.0, 1.0)),  # a ratio tied with the floor
    ("x", (1.0, 2.0, 3.0)),  # ties at the floor and below it
    (NEGATIVE_ZERO_AT_0, (0.0, 1.0, 1.0)),
    (NEGATIVE_ZERO_AT_0, (0.0, 0.0, 2.0)),  # -0.0 + -0.0 is zero
    (NEGATIVE_ZERO_AT_0, (2.0, 0.0, 0.0)),
])
def test_emitted_constant_is_the_triplet_formula(source, sample):
    f = parse_fn(source)
    split = 1.5
    used, sup, sup_top, sup_below, best, infinite = f.scanner([sample], split)
    images = tuple(f(v) for v in sample)
    constant = _constant(*images)
    assert used == 1
    if constant == math.inf:
        # repr tells -0.0 from 0.0
        assert repr(infinite) == repr((sample, images))
        assert (best, sup, sup_top, sup_below) == (None, 0.0, 0.0, 0.0)
    else:
        assert infinite is None
        assert repr(best) == repr((sample, images))
        assert sup == constant
        top = max(sample) > split
        assert (sup_top, sup_below) == ((constant, 0.0) if top
                                        else (0.0, constant))
