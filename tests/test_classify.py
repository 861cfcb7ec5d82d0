"""Grid profiles: amenability, monotonicity, subadditivity, divergence."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from gmetrix import (
    GridSpec,
    Witness,
    canonical_dumps,
    classify_fn,
    parse_fn,
    sample_pairs,
    sample_points,
    verify_plateau,
)
from gmetrix import classify, eval_fn
from gmetrix.errors import (
    DomainError,
    EvalError,
    OutOfCodomain,
    ParseError,
    PreconditionViolated,
)
from oracles import reference_eval
from test_dsl import _expressions, _outcome

GRID_10 = GridSpec(x_max=10.0, n_points=2000, seed=1)
GRID_20 = GridSpec(x_max=20.0, n_points=2000, seed=1)


def test_grid_spec_validation():
    with pytest.raises(PreconditionViolated):
        GridSpec(x_max=0.0)
    with pytest.raises(PreconditionViolated):
        GridSpec(x_max=float("inf"))
    with pytest.raises(PreconditionViolated):
        GridSpec(n_points=1)
    # pair sums reach 2 * x_max, which must stay finite
    with pytest.raises(PreconditionViolated, match="overflows when doubled"):
        GridSpec(x_max=1e308)
    assert GridSpec(x_max=8e307).x_max == 8e307
    assert GridSpec.MAX_POINTS == 1_000_000
    for n_points in (GridSpec.MAX_POINTS + 1, 10 ** 12):
        with pytest.raises(PreconditionViolated, match="exceeds the cap"):
            GridSpec(n_points=n_points)


def test_sample_points_contract():
    pts = sample_points(GRID_10)
    assert pts == sorted(pts)
    assert pts[0] == 0.0
    assert pts[-1] == 10.0
    assert 1.0 in pts
    assert pts == sample_points(GRID_10)  # deterministic
    assert pts != sample_points(GridSpec(x_max=10.0, n_points=2000, seed=2))


def test_grid_seeds_past_the_int_str_limit_still_draw():
    seed = 10 ** 5000  # str(seed) raises at the default digit limit
    grid = GridSpec(x_max=10.0, n_points=50, seed=seed)
    points = sample_points(grid)
    assert points == sample_points(grid)
    assert points != sample_points(GridSpec(x_max=10.0, n_points=50,
                                            seed=seed + 1))
    pairs = list(sample_pairs(grid, points))
    assert pairs == list(sample_pairs(grid, points))
    assert len(pairs) == len(points) - 1 + 50


def _choice_pairs(grid):
    """The pair schedule drawn with rng.choice, as the sampler's written-out
    index draws must reproduce it."""
    positive = [p for p in sample_points(grid) if p > 0.0]
    rng = random.Random(f"classify-pairs|{grid.seed}")
    return [(a, a) for a in positive] + [
        (rng.choice(positive), rng.choice(positive))
        for _ in range(grid.n_points)]


# x_max 1.0 with 2 and 3 points has 32 and 33 positive points: on a power of
# two, and just past one, where about half of the draws are redrawn
@pytest.mark.parametrize("x_max, n_points", [
    (1.0, 2), (1.0, 3), (20.0, 2), (20.0, 3), (20.0, 600), (20.0, 1200),
    (20.0, 2000), (20.0, 10_000)])
def test_sample_pairs_draws_as_choice_does(x_max, n_points):
    for seed in (0, 1, 7):
        grid = GridSpec(x_max=x_max, n_points=n_points, seed=seed)
        assert list(sample_pairs(grid, sample_points(grid))) \
            == _choice_pairs(grid)


def test_square_profile():
    profile = classify_fn(parse_fn("x^2"), GRID_10)
    assert profile.amenable.holds
    assert profile.increasing.holds
    assert profile.subadditive.fails
    # the worst defect shows up on a doubled argument
    witness = profile.subadditive.witness
    assert witness.data["a"] == witness.data["b"]
    # ratio f(a+b)/(f(a)+f(b)) = (a+b)^2/(a^2+b^2) tops out at 2
    assert profile.quasi_subadditive.status.value == "inconclusive"
    assert 1.98 <= profile.s_star_estimate <= 2.02
    assert profile.limit_at_zero == 0.0


def test_sqrt_profile_is_subadditive_with_unit_estimate():
    profile = classify_fn(parse_fn("sqrt(x)"), GRID_10)
    assert profile.amenable.holds
    assert profile.increasing.holds
    assert profile.subadditive.holds
    assert profile.s_star_estimate == 1.0  # the floor binds exactly
    assert profile.limit_at_zero == 0.0


def test_clamp_profile():
    profile = classify_fn(parse_fn("min(x, 1)"), GRID_10)
    assert profile.amenable.holds
    assert profile.increasing.holds
    assert profile.subadditive.holds
    assert profile.s_star_estimate == 1.0
    assert profile.limit_at_zero == 0.0


def test_ceiling_profile_has_positive_limit():
    profile = classify_fn(parse_fn("ceil(x)"), GRID_10)
    assert profile.amenable.holds
    assert profile.increasing.holds
    assert profile.subadditive.holds
    assert profile.limit_at_zero == 1.0


def test_zero_function_fails_amenability_at_one():
    profile = classify_fn(parse_fn("0"), GRID_10)
    assert profile.amenable.fails
    assert profile.amenable.witness.data["x"] == 1.0


def test_amenability_witness_is_the_first_zero_probed():
    # with f(0) = 0 the canonical probe 1.0 is read first, so it is the
    # witness even when f vanishes below it too
    profile = classify_fn(parse_fn("piece(x <= 2 ? 0 : x)"), GRID_10)
    assert profile.amenable.witness.data["x"] == 1.0
    # a grid that stops below 1.0 has no such probe: the smallest zero wins
    grid = GridSpec(x_max=0.75, n_points=100, seed=1)
    profile = classify_fn(parse_fn("piece(x < 0.5 ? 0 : x)"), grid)
    assert profile.amenable.witness.data["x"] == sample_points(grid)[1]


def test_nonzero_origin_fails_amenability_at_zero():
    profile = classify_fn(parse_fn("max(x, 1)"), GRID_10)
    assert profile.amenable.fails
    assert profile.amenable.witness.data["x"] == 0.0
    assert profile.limit_at_zero == 1.0


def test_first_evaluation_error_follows_the_screens_order():
    # 0, then the probe 1.0 while f(0) = 0, then the rest ascending, then
    # the pair sums in schedule order
    grid = GridSpec(x_max=10.0, n_points=100, seed=1)
    after_1 = sample_points(grid)[sample_points(grid).index(1.0) + 1]
    cases = [("piece(x < 0.5 ? x : 1/(x - 1))", DomainError, 1.0),
             ("piece(x < 0.5 ? 1 : 1/(x - 1))", OutOfCodomain,
              min(p for p in sample_points(grid) if p >= 0.5)),
             ("piece(x <= 1 ? x : x - 100)", OutOfCodomain, after_1),
             ("piece(x <= 10 ? x : x - 100)", OutOfCodomain,
              next(a + b for a, b in sample_pairs(grid, sample_points(grid))
                   if a + b > 10.0))]
    for source, error, x in cases:
        with pytest.raises(error) as excinfo:
            classify_fn(parse_fn(source), grid)
        assert excinfo.value.x == x, source


def test_decreasing_stretch_is_caught():
    profile = classify_fn(parse_fn("abs(x - 3)"), GRID_10)
    assert profile.increasing.fails
    data = profile.increasing.witness.data
    assert data["x_left"] < data["x_right"]


def test_exponential_growth_diverges():
    profile = classify_fn(parse_fn("exp(x) - 1"), GRID_20)
    quasi = profile.quasi_subadditive
    assert quasi.fails
    assert quasi.witness.data["ratio"] > 1e3
    assert quasi.constants["s_star_estimate"] > 1e6
    # the witness re-evaluates to the recorded violation
    f = parse_fn("exp(x) - 1")
    a, b = quasi.witness.data["a"], quasi.witness.data["b"]
    assert f(a + b) / (f(a) + f(b)) == quasi.witness.data["ratio"]


@pytest.mark.parametrize("sup, sup_top, sup_below, expected", [
    (1e6, 1e6, 0.0, False),                     # at the threshold, not above
    (math.nextafter(1e6, math.inf), 1e6, 0.0, True),
    (2e7, 2e7, 2e6, True),                      # exactly 10x growth
    (2e7, math.nextafter(2e7, 0.0), 2e6, False),
    (2e6, 2e6, 0.0, True),                      # nothing below the top octave
    (5e6, 1e6, 5e6, False),                     # the sup sits below the top
])
def test_divergence_rule_boundaries(sup, sup_top, sup_below, expected):
    assert classify.diverged(sup, sup_top, sup_below) is expected


ORACLE_GRID = GridSpec(x_max=20.0, n_points=600, seed=1)
# plain-math twins of the profiled expressions, with the expected
# (subadditive fails, quasi-subadditive fails); the step function ties 16
# pairs at both maxima, so only a first-arg-max rule names the oracle's pair;
# the linear one has rounding defects above REL_TOL but below
# REL_TOL * f(a + b), so only the relative tolerance keeps it subadditive
ORACLE_FNS = {
    "1000000000 * x": (lambda x: 1e9 * x, False, False),
    "x^2": (lambda x: x ** 2.0, True, False),
    "sqrt(x)": (math.sqrt, False, False),
    "exp(x) - 1": (lambda x: math.exp(x) - 1.0, True, True),
    "piece(x <= 20 ? ceil(x) : 1000000000000)": (
        lambda x: float(math.ceil(x)) if x <= 20.0 else 1e12, True, True),
}


def _pair_oracle(fn, grid):
    """Both subadditivity views over the public pair schedule, each maximum
    with the first pair that reaches it."""
    max_defect, defect_pair, violates = -math.inf, None, False
    sup, ratio_pair, sup_top, sup_below = 0.0, None, 0.0, 0.0
    for a, b in sample_pairs(grid, sample_points(grid)):
        fa, fb, fab = fn(a), fn(b), fn(a + b)
        defect = fab - fa - fb
        if defect > max_defect:
            max_defect, defect_pair = defect, (a, b)
        violates = violates or defect > 1e-9 * max(1.0, abs(fab))
        if fa + fb > 0.0:
            ratio = fab / (fa + fb)
            if ratio > sup:
                sup, ratio_pair = ratio, (a, b)
            if a + b > grid.x_max:
                sup_top = max(sup_top, ratio)
            else:
                sup_below = max(sup_below, ratio)
    return (max_defect, defect_pair, violates,
            sup, ratio_pair, sup_top, sup_below)


@pytest.mark.parametrize("source", sorted(ORACLE_FNS))
def test_profile_matches_pair_oracle(source):
    fn, sub_fails, quasi_fails = ORACLE_FNS[source]
    (max_defect, defect_pair, violates,
     sup, ratio_pair, sup_top, sup_below) = _pair_oracle(fn, ORACLE_GRID)
    assert violates is sub_fails
    assert (sup > 1e6 and (sup_below <= 0.0
                           or sup_top >= 10.0 * sup_below)) is quasi_fails

    profile = classify_fn(parse_fn(source), ORACLE_GRID)
    sub, quasi = profile.subadditive, profile.quasi_subadditive
    assert sub.fails is sub_fails
    assert sub.constants == {"max_defect": max_defect}
    if sub_fails:
        data = sub.witness.data
        assert (data["a"], data["b"]) == defect_pair
        assert data["defect"] == max_defect
    assert quasi.fails is quasi_fails
    if quasi_fails:
        assert quasi.constants == {"s_star_estimate": sup,
                                   "sup_top_octave": sup_top,
                                   "sup_below": sup_below}
        data = quasi.witness.data
        assert (data["a"], data["b"]) == ratio_pair
        assert data["ratio"] == sup
    else:
        assert quasi.constants == {"s_star_estimate": max(1.0, sup)}


PAIR_GRID = GridSpec(x_max=2.5, n_points=30, seed=2)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_expressions(), st.builds(
    lambda points, sums: f"piece(x <= 2.5 ? {points} : {sums})",
    _expressions(), _expressions())))
def test_emitted_pair_loop_matches_pair_oracle(source):
    # the emitted loop's eight outputs, or the error of the first failing
    # sum, against the oracle over the reference interpreter; the piece
    # form evaluates its second branch only at sums above x_max, so many
    # of its loops fail part-way
    try:
        f = parse_fn(source)
    except ParseError:  # more piece branches than the cap
        assume(False)
    points = sample_points(PAIR_GRID)
    try:
        value_at = {p: reference_eval(f.ast, p) for p in points}
    except EvalError:  # the profile stops before its pair loop
        assume(False)
    pairs = list(sample_pairs(PAIR_GRID, points))

    def reference(x):
        return reference_eval(f.ast, x)

    def oracle():
        (max_defect, defect_pair, violates,
         sup, ratio_pair, sup_top, sup_below) = _pair_oracle(reference,
                                                             PAIR_GRID)
        return (len(pairs), max_defect, defect_pair, violates, sup, sup_top,
                sup_below, ratio_pair)

    def emitted():
        (count, max_defect, defect_at, violates, sup, sup_top, sup_below,
         ratio_at) = f.pairer(iter(pairs), value_at, PAIR_GRID.x_max,
                              classify.REL_TOL)
        for at in (defect_at, ratio_at):
            if at is not None:
                a, b, fa, fb, fab = at
                assert (fa, fb, fab) == (value_at[a], value_at[b],
                                         reference(a + b))
        return (count, max_defect, defect_at and defect_at[:2], violates,
                sup, sup_top, sup_below, ratio_at and ratio_at[:2])

    assert _outcome(emitted) == _outcome(oracle)


def test_pair_loop_failing_part_way_raises_as_eval_fn_does():
    # every point of [0, 20] evaluates, so the profile fails in its pair
    # loop, at the first sum above 20 in schedule order
    grid = GridSpec(x_max=20.0, n_points=200, seed=1)
    f = parse_fn("sqrt(20 - x)")
    pairs = list(sample_pairs(grid, sample_points(grid)))
    first = next(i for i, (a, b) in enumerate(pairs) if a + b > 20.0)
    assert 0 < first < len(pairs) - 1
    x = sum(pairs[first])
    with pytest.raises(EvalError) as expected:
        eval_fn(f, x)
    with pytest.raises(EvalError) as excinfo:
        classify_fn(f, grid)
    assert type(excinfo.value) is type(expected.value) is DomainError
    assert (str(excinfo.value), excinfo.value.x) \
        == (str(expected.value), x)


def test_profile_builds_only_the_witnesses_it_reports(monkeypatch):
    built = []

    def counting_witness(**fields):
        built.append(fields)
        return Witness(**fields)

    monkeypatch.setattr(classify, "Witness", counting_witness)
    profile = classify_fn(parse_fn("exp(x) - 1"), GRID_20)
    # amenability and monotonicity hold; both subadditivity views fail
    assert profile.subadditive.fails and profile.quasi_subadditive.fails
    assert len(built) == 2


def test_profile_json_is_byte_stable():
    first = classify_fn(parse_fn("x / (1 + x)"), GRID_10)
    second = classify_fn(parse_fn("x / (1 + x)"), GRID_10)
    assert canonical_dumps(first.to_json()) == canonical_dumps(second.to_json())


def test_verify_plateau():
    assert verify_plateau(parse_fn("ceil(x)"), 1.0) == (1.0, 1.0)
    assert verify_plateau(parse_fn("piece(x <= 3 ? 2 : x)"), 3.0) == (2.0, 3.0)
    # constant on [1, b] only is not a plateau; (0, b] is the whole claim
    assert verify_plateau(parse_fn("min(x, 1)"), 3.0) is None
    assert verify_plateau(parse_fn("x^2"), 1.0) is None
    # the first mismatch, f(0.5) = 0.5, ends the check before the sqrt of a
    # negative value at x = 0.125 further down the tail is evaluated
    assert verify_plateau(
        parse_fn("piece(x <= 0.5 ? sqrt(x - 0.25) : 1)"), 1.0) is None
    # a plateau at level zero is rejected: the level must be positive
    assert verify_plateau(parse_fn("piece(x <= 1 ? 0 : 1)"), 1.0) is None
    with pytest.raises(PreconditionViolated):
        verify_plateau(parse_fn("ceil(x)"), 0.0)


def test_classify_attaches_requested_plateau():
    profile = classify_fn(parse_fn("ceil(x)"), GRID_10, plateau_b=1.0)
    assert profile.plateau == (1.0, 1.0)
    assert classify_fn(parse_fn("x^2"), GRID_10, plateau_b=1.0).plateau is None
