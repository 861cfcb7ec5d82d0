"""Grid-based behavioral profile of a nonnegative function expression.

Verdicts on this float path are evidence-level: Holds means "no violation on
the sampled grid" (the note says so), while Fails is definitive because it
carries a concrete witness that re-evaluates to the same violation.

The numeric policy is fixed here: `REL_TOL` for float comparisons, and
`diverged` for when a running sup of ratios counts as divergence. The pair
ratios of `classify_fn` and the image-triplet constants of the membership
scan both go through `diverged`, so the two screens cannot drift apart.

The subadditivity pair loop runs in the expression's generated
`pairs(schedule, value_at, split, tol)` (see dsl), which reads the lazy
`sample_pairs` stream and returns its maxima and their first pairs; the
verdicts and witnesses are built here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional

from .dsl import RealFn
from .errors import PreconditionViolated, exact_text
from .model import Verdict, Witness, encode_value, fails, holds, inconclusive

#: Relative tolerance used by float-side comparisons (monotonicity, defects,
#: plateaus, region bounds). Exact rational paths never use it.
REL_TOL = 1e-9

#: A running sup counts as divergence only above this threshold, and only if
#: it grew by `OCTAVE_GROWTH` from everything below the top scale octave.
DIVERGENCE_THRESHOLD = 1e6
OCTAVE_GROWTH = 10.0


def diverged(sup: float, sup_top: float, sup_below: float) -> bool:
    """Does a running sup count as divergence, given its maxima over the top
    scale octave and over everything below it? Large-but-bounded functions
    plateau across octaves and never fire."""
    return (sup > DIVERGENCE_THRESHOLD
            and (sup_below <= 0.0 or sup_top >= OCTAVE_GROWTH * sup_below))


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan: uniform grid on [0, x_max], a geometric tail toward 0,
    and seeded random fill-ins."""

    x_max: float = 20.0
    n_points: int = 2000
    seed: int = 1

    #: Most grid points: the sample set holds them all as floats, and the
    #: pair scans evaluate as many pairs again.
    MAX_POINTS: ClassVar[int] = 1_000_000

    def __post_init__(self) -> None:
        if not (self.x_max > 0 and math.isfinite(self.x_max)):
            raise PreconditionViolated("x_max must be positive and finite")
        if math.isinf(2.0 * self.x_max):  # pair sums reach 2 * x_max
            raise PreconditionViolated(
                f"x_max {self.x_max!r} overflows when doubled")
        if self.n_points < 2:
            raise PreconditionViolated("n_points must be at least 2")
        if self.n_points > self.MAX_POINTS:
            raise PreconditionViolated(
                f"n_points {self.n_points} exceeds the cap of "
                f"{self.MAX_POINTS}")

    def to_json(self):
        return {"x_max": self.x_max, "n_points": self.n_points,
                "seed": self.seed}


DEFAULT_GRID = GridSpec()

_GEO_FLOOR = 1e-9  # geometric tail stops here; below it float noise dominates


def sample_points(grid: GridSpec) -> list[float]:
    """Deterministic sorted sample set for a grid spec (includes 0.0)."""
    rng = random.Random(f"classify-points|{exact_text(grid.seed)}")
    pts = {0.0, grid.x_max}
    step = grid.x_max / (grid.n_points - 1)
    for i in range(grid.n_points):
        pts.add(i * step)
    pts.update(_geometric_tail(grid.x_max, _GEO_FLOOR))
    for _ in range(min(1000, grid.n_points)):
        pts.add(rng.uniform(0.0, grid.x_max))
    if grid.x_max >= 1.0:
        pts.add(1.0)
    return sorted(pts)


def sample_pairs(grid: GridSpec, points: list[float]
                 ) -> Iterator[tuple[float, float]]:
    """Pair schedule for the subadditivity scans: every diagonal pair (a, a)
    in ascending order, then n_points seeded random pairs. Sums reach
    2 * x_max, which is what lets the divergence heuristic see growth."""
    positive = [p for p in points if p > 0.0]
    for a in positive:
        yield (a, a)
    # two rng.choice(positive) per pair, with CPython's
    # _randbelow_with_getrandbits written out: k bits, redrawn until below n
    bits = random.Random(
        f"classify-pairs|{exact_text(grid.seed)}").getrandbits
    n = len(positive)
    k = n.bit_length()
    for _ in range(grid.n_points):
        i = bits(k)
        while i >= n:
            i = bits(k)
        j = bits(k)
        while j >= n:
            j = bits(k)
        yield (positive[i], positive[j])


@dataclass(frozen=True)
class FnProfile:
    """Classification record for one function expression on one grid."""

    source: str
    grid: GridSpec
    amenable: Verdict
    increasing: Verdict
    subadditive: Verdict
    quasi_subadditive: Verdict
    limit_at_zero: Optional[float]
    plateau: Optional[tuple[float, float]]  # (value a, edge b), if verified

    @property
    def s_star_estimate(self) -> float:
        return float(self.quasi_subadditive.constants["s_star_estimate"])

    def to_json(self):
        return {
            "source": self.source,
            "grid": self.grid.to_json(),
            "amenable": self.amenable.to_json(),
            "increasing": self.increasing.to_json(),
            "subadditive": self.subadditive.to_json(),
            "quasi_subadditive": self.quasi_subadditive.to_json(),
            "limit_at_zero": self.limit_at_zero,
            "plateau": encode_value(self.plateau),
        }


def _geometric_tail(top: float, floor: float) -> list[float]:
    """top, top/2, top/4, ... down to floor (descending), and never past
    the last positive float: a floor that underflowed to 0 ends there."""
    out = []
    x = top
    while x >= floor and x > 0.0:
        out.append(x)
        x /= 2.0
    return out


def verify_plateau(f: RealFn, b: float) -> Optional[tuple[float, float]]:
    """(a, b) if f equals a = f(b) on all geometric samples in (0, b].

    The edge b always comes from the caller; it is never inferred from data.
    """
    if not (b > 0 and math.isfinite(b)):
        raise PreconditionViolated("plateau edge b must be positive and finite")
    values = f.runner(_geometric_tail(float(b), b * 2.0 ** -30))
    a = next(values)  # the tail starts at b
    # lazy: the first mismatch ends the check before later points are met
    for value in values:
        if abs(value - a) > REL_TOL * max(1.0, abs(a)):
            return None
    if a <= 0.0:
        return None
    return (a, b)


def _point_values(f: RealFn, points: list[float]) -> dict[float, float]:
    """f at every sample point, evaluated in the order the screens read
    them (0, then the canonical probe 1.0 unless f(0) already refutes
    amenability, then the rest ascending), so the first error names the
    same x."""
    order = points[:1]
    values = list(f.runner(order))
    rest = points[1:]
    if values[0] == 0.0 and 1.0 in rest:
        rest.remove(1.0)
        rest.insert(0, 1.0)
    values += f.runner(rest)
    return dict(zip(order + rest, values))


def zero_witness(x: float, **data) -> Witness:
    """The amenability refutation f(x) = 0 at a positive x; data (such as
    the image triplet that met it) is recorded after x."""
    return Witness(description=f"f({x!r}) = 0 although x > 0",
                   lhs=0.0, rhs=0.0, data={"x": x, **data})


def _amenability(value_at: dict[float, float]) -> Verdict:
    f0 = value_at[0.0]
    if f0 != 0.0:
        return fails(Witness(
            description=f"f(0) = {f0!r} but amenability needs f(0) = 0",
            lhs=f0, rhs=0.0, data={"x": 0.0}))
    # the first zero in evaluation order, so the canonical probe 1.0 wins
    zero_at = next((x for x, value in value_at.items()
                    if x > 0.0 and value == 0.0), None)
    if zero_at is not None:
        return fails(zero_witness(zero_at))
    return holds(note=f"grid-verified on {len(value_at) - 1} positive samples")


def _monotonicity(points: list[float], value_at: dict[float, float]) -> Verdict:
    previous_x = points[0]
    previous = value_at[previous_x]
    for x in points[1:]:
        value = value_at[x]
        if value < previous - REL_TOL * max(1.0, abs(previous)):
            return fails(Witness(
                description=(f"f({previous_x!r}) = {previous!r} > "
                             f"{value!r} = f({x!r}) with {previous_x!r} < {x!r}"),
                lhs=previous, rhs=value,
                data={"x_left": previous_x, "x_right": x}))
        previous_x, previous = x, value
    return holds(note=f"nondecreasing across {len(points)} sorted samples")


def _limit_at_zero(value_at: dict[float, float],
                   x_max: float) -> Optional[float]:
    """Estimate lim f at 0+ from the geometric tail, whose points the sample
    set holds: both halve down from x_max, and this one stops no lower.

    Values shrinking by a factor <= 0.75 per halving for the last probes give
    0.0; values stable within 1e-6 relative give the smallest-x value; mixed
    behavior gives None.
    """
    tail = _geometric_tail(x_max, max(_GEO_FLOOR, x_max * 2.0 ** -30))
    if len(tail) < 4:
        return None
    values = [value_at[x] for x in reversed(tail[-4:])]  # four smallest
    vanishing = all(abs(values[i]) <= 0.75 * abs(values[i + 1]) + 1e-300
                    for i in range(len(values) - 1))
    if vanishing:
        return 0.0
    stable = all(abs(values[i] - values[i + 1])
                 <= 1e-6 * max(1.0, abs(values[i]), abs(values[i + 1]))
                 for i in range(len(values) - 1))
    if stable:
        return values[0]
    return None


def classify_fn(f: RealFn, grid: GridSpec = DEFAULT_GRID,
                plateau_b: Optional[float] = None) -> FnProfile:
    """Profile f on the grid: amenability, monotonicity, subadditivity, and
    the quasi-subadditivity estimate with the shared divergence rule.

    Evaluation errors (domain, codomain, overflow) propagate with the
    offending x. Deterministic for fixed (f, grid): reports serialize to
    byte-identical JSON across runs.
    """
    points = sample_points(grid)
    value_at = _point_values(f, points)
    amenable = _amenability(value_at)
    increasing = _monotonicity(points, value_at)

    # one pass over the pair schedule feeds both subadditivity views; a
    # witness is built only for a failing verdict
    (pair_count, max_defect, defect_at, defect_violates, sup_ratio, sup_top,
     sup_below, ratio_at) = f.pairer(sample_pairs(grid, points), value_at,
                                     grid.x_max, REL_TOL)

    if defect_violates:
        a, b, fa, fb, fab = defect_at
        witness = Witness(
            description=(f"f({a!r} + {b!r}) = {fab!r} > "
                         f"{fa + fb!r} = f({a!r}) + f({b!r})"),
            lhs=fab, rhs=fa + fb,
            data={"a": a, "b": b, "f_a": fa, "f_b": fb, "f_sum": fab,
                  "defect": max_defect})
        subadditive = fails(witness, {"max_defect": max_defect})
    else:
        subadditive = holds({"max_defect": max_defect},
                            note=f"no defect above tolerance on {pair_count} pairs")

    s_star = max(1.0, sup_ratio)
    if diverged(sup_ratio, sup_top, sup_below):
        a, b, fa, fb, fab = ratio_at
        witness = Witness(
            description=(f"f({a!r} + {b!r}) / (f({a!r}) + f({b!r})) "
                         f"= {sup_ratio!r}"),
            lhs=fab, rhs=fa + fb,
            data={"a": a, "b": b, "f_a": fa, "f_b": fb,
                  "f_sum": fab, "ratio": sup_ratio})
        quasi = fails(witness, {"s_star_estimate": s_star,
                                "sup_top_octave": sup_top,
                                "sup_below": sup_below})
    else:
        quasi = inconclusive(
            note=(f"largest ratio {s_star!r} on {pair_count} pairs; "
                  "no divergence across scale octaves"),
            constants={"s_star_estimate": s_star})

    return FnProfile(
        source=f.source,
        grid=grid,
        amenable=amenable,
        increasing=increasing,
        subadditive=subadditive,
        quasi_subadditive=quasi,
        limit_at_zero=_limit_at_zero(value_at, grid.x_max),
        plateau=None if plateau_b is None else verify_plateau(f, plateau_b),
    )
