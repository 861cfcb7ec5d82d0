"""Triplet predicates, the optimal per-triplet constant, and plane realization."""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from gmetrix import (
    BoundaryStrategy,
    GridStrategy,
    RandomStrategy,
    Triplet,
    is_s_triplet,
    is_theta_triplet,
    is_triangle_triplet,
    realize_in_plane,
    sample_triplets,
    triplet_constant,
)
from gmetrix.errors import (
    InvalidS,
    InvalidTheta,
    NonPositiveEntry,
    NotATriplet,
    PreconditionViolated,
)
from gmetrix.triplets import sample_tuples


def test_triplet_rejects_bad_entries():
    with pytest.raises(PreconditionViolated):
        Triplet(1, -1, 1)
    with pytest.raises(PreconditionViolated):
        Triplet(math.inf, 1, 1)
    with pytest.raises(PreconditionViolated):
        Triplet(math.nan, 1, 1)


def test_triplet_mode():
    assert Triplet(1, Fraction(1, 2), 2).mode == "exact"
    assert Triplet(1, 0.5, 2).mode == "float"


def test_triangle_predicate():
    assert is_triangle_triplet(Triplet(3, 4, 5))
    assert is_triangle_triplet(Triplet(2, 1, 1))  # degenerate boundary counts
    assert not is_triangle_triplet(Triplet(3, 1, 1))
    assert is_triangle_triplet(Triplet(0, 0, 0))


def test_s_predicate():
    assert not is_s_triplet(Triplet(3, 1, 1), 1)
    assert is_s_triplet(Triplet(3, 1, 1), Fraction(3, 2))
    with pytest.raises(InvalidS):
        is_s_triplet(Triplet(1, 1, 1), Fraction(1, 2))


def test_theta_predicate_is_entrywise():
    t = Triplet(3, 1, 1)
    # only the first entry needs relaxing
    assert is_theta_triplet(t, Fraction(3, 2), 1, 1)
    assert not is_theta_triplet(t, 1, 5, 5)
    with pytest.raises(InvalidTheta):
        is_theta_triplet(t, 1, 1, 0)


def test_triplet_constant_values():
    assert triplet_constant(Triplet(3, 4, 5)) == 1
    assert triplet_constant(Triplet(3, 1, 1)) == Fraction(3, 2)
    assert triplet_constant(Triplet(1, 0, 0)) == math.inf
    assert triplet_constant(Triplet(0, 0, 0)) == 1


def test_triplet_constant_mode_follows_entries():
    exact = triplet_constant(Triplet(3, 1, 1))
    assert isinstance(exact, Fraction)
    approx = triplet_constant(Triplet(3.0, 1.0, 1.0))
    assert isinstance(approx, float)
    assert approx == pytest.approx(1.5)


positive_fraction = st.fractions(min_value=Fraction(1, 8),
                                 max_value=Fraction(32),
                                 max_denominator=64)


@given(positive_fraction, positive_fraction, positive_fraction)
def test_triplet_constant_is_tight(a, b, c):
    t = Triplet(a, b, c)
    k = triplet_constant(t)
    assert isinstance(k, Fraction)
    assert is_s_triplet(t, k)
    if k > 1:
        # any strictly smaller admissible factor must fail somewhere
        shrunk = 1 + (k - 1) * Fraction(999, 1000)
        assert not is_s_triplet(t, shrunk)


@given(positive_fraction, positive_fraction, positive_fraction)
def test_scalar_and_entrywise_bounds_agree_when_constant(a, b, c):
    t = Triplet(a, b, c)
    for s in (Fraction(1), Fraction(3, 2), Fraction(4)):
        assert is_s_triplet(t, s) == is_theta_triplet(t, s, s, s)


def test_realize_right_triangle():
    u, v, w = realize_in_plane(Triplet(3, 4, 5))
    assert u.as_tuple() == (0.0, 0.0)
    assert v.as_tuple() == (3.0, 0.0)
    assert w.as_tuple() == (0.0, 4.0)


def test_realize_degenerate_collinear():
    u, v, w = realize_in_plane(Triplet(2, 1, 1))
    assert w.as_tuple() == (1.0, 0.0)
    assert u.distance_to(v) == 2.0


def test_realize_rejections():
    with pytest.raises(NonPositiveEntry):
        realize_in_plane(Triplet(0, 1, 1))
    with pytest.raises(NotATriplet):
        realize_in_plane(Triplet(3, 1, 1))


def rel_err(observed: float, expected: float) -> float:
    return abs(observed - expected) / max(1.0, abs(expected))


@pytest.mark.parametrize("strategy", [
    RandomStrategy(seed=7, count=300),
    RandomStrategy(seed=7, count=300, scale=1e300),  # squares overflow
    BoundaryStrategy(seed=7, count=200),
    GridStrategy(step=Fraction(1, 2), max=Fraction(4)),
])
def test_realize_round_trip(strategy):
    for t in sample_triplets(strategy):
        u, v, w = realize_in_plane(t)
        a, b, c = (float(x) for x in t.as_tuple())
        assert rel_err(u.distance_to(v), a) <= 1e-9
        assert rel_err(u.distance_to(w), b) <= 1e-9
        assert rel_err(v.distance_to(w), c) <= 1e-9
        assert w.y >= 0.0


def test_grid_strategy_enumerates_exactly():
    got = {t.as_tuple() for t in sample_triplets(GridStrategy(step=1, max=3))}
    # 27 combinations over {1,2,3} minus the three orderings of (1,1,3)
    assert len(got) == 24
    assert (1, 2, 3) in got  # boundary case a = b + c stays in
    assert (3, 1, 1) not in got
    assert all(isinstance(x, int) for t in got for x in t)


def test_grid_strategy_float_step_count():
    got = list(sample_triplets(GridStrategy(step=0.5, max=2.0)))
    values = {t.a for t in got} | {t.b for t in got} | {t.c for t in got}
    assert values == {0.5, 1.0, 1.5, 2.0}


def test_random_strategy_is_deterministic_and_restartable():
    s = RandomStrategy(seed=11, count=50)
    first = [t.as_tuple() for t in sample_triplets(s)]
    second = [t.as_tuple() for t in sample_triplets(s)]
    other = [t.as_tuple() for t in sample_triplets(RandomStrategy(seed=12, count=50))]
    assert first == second
    assert first != other
    assert len(first) == 50
    assert all(is_triangle_triplet(Triplet(*t)) for t in first)


def test_boundary_strategy_hits_the_edge_exactly():
    for t in sample_triplets(BoundaryStrategy(seed=3, count=100)):
        assert t.a == t.b + t.c  # exact float equality by construction
        assert triplet_constant(t) >= 1.0


def test_strategy_validation():
    with pytest.raises(PreconditionViolated):
        GridStrategy(step=0, max=1)
    with pytest.raises(PreconditionViolated):
        RandomStrategy(seed=0, count=-1)
    with pytest.raises(PreconditionViolated):
        BoundaryStrategy(seed=0, count=1, scale=0.0)
    with pytest.raises(PreconditionViolated):
        list(sample_triplets("not a strategy"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_strategies_reject_non_finite_fields(bad):
    # each fails in its own validator, not later inside the sampler
    for make in (lambda: GridStrategy(step=bad, max=1.0),
                 lambda: GridStrategy(step=0.5, max=bad),
                 lambda: GridStrategy(step=bad, max=bad),
                 lambda: RandomStrategy(seed=0, count=1, scale=bad),
                 lambda: BoundaryStrategy(seed=0, count=1, scale=bad)):
        with pytest.raises(PreconditionViolated, match="< inf"):
            make()


def uniform_random_triplets(seed, scale):
    """The random sampler as written with random.Random.uniform."""
    rng = random.Random(f"triplet-random|{seed}")
    while True:
        b = rng.uniform(0.0, scale)
        c = rng.uniform(0.0, scale)
        a = rng.uniform(abs(b - c), b + c)
        if min(a, b, c) > 0.0 and a <= b + c and b <= a + c and c <= a + b:
            yield (a, b, c)


def uniform_boundary_triplets(seed, scale):
    """The boundary sampler as written with random.Random.uniform."""
    rng = random.Random(f"triplet-boundary|{seed}")
    while True:
        b = rng.uniform(0.0, scale)
        c = rng.uniform(0.0, scale)
        if b > 0.0 and c > 0.0:
            yield (b + c, b, c)


@pytest.mark.parametrize("strategy,reference", [
    (RandomStrategy(seed=3, count=50_000, scale=40.0), uniform_random_triplets),
    (BoundaryStrategy(seed=4, count=50_000, scale=20.0),
     uniform_boundary_triplets),
])
def test_samplers_draw_as_uniform_does(strategy, reference):
    # the samplers write out CPython's uniform formula; a change to it in the
    # interpreter shows up here as a different stream
    got = list(sample_tuples(strategy))
    assert len(got) == 50_000
    assert got == list(islice(reference(strategy.seed, strategy.scale),
                              50_000))
