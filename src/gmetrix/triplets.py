"""Triangle triplets, their relaxed variants, planar realization, samplers.

A triplet (a, b, c) is three candidate side lengths. The relaxed membership
predicates mirror the axiom checks entrywise: plain triangle conditions, one
scalar bound s, or one bound per component. The seeded samplers are
unbounded generators over (seed, scale), whose scale the strategies check
once, at construction; `sample_tuples` cuts a strategy's stream to its
`count`, and `sample_triplets` yields the same samples as validated
`Triplet`s. The membership scan reads `mixed_tuples`, the grid sweep and
then both seeded samplers in turn, and cuts it to its budget. `_constant`
is the relaxation-constant formula of `triplet_constant`; the generated
scan of `dsl` writes the same comparisons out inline, and tests hold the
two equal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from numbers import Rational
from typing import Iterator, Union

from .errors import (
    InvalidS,
    InvalidTheta,
    NonPositiveEntry,
    NotATriplet,
    PreconditionViolated,
    exact_repr,
    exact_text,
)

Length = Union[int, float, Fraction]


@dataclass(frozen=True)
class Triplet:
    a: Length
    b: Length
    c: Length

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise PreconditionViolated(f"{name} = {value!r} is not finite")
            if value < 0:
                raise PreconditionViolated(
                    f"{name} = {exact_repr(value)} is negative")

    @property
    def mode(self) -> str:
        """"exact" when all entries are rationals, "float" otherwise."""
        exact = all(isinstance(v, Rational)
                    for v in (self.a, self.b, self.c))
        return "exact" if exact else "float"

    def as_tuple(self) -> tuple[Length, Length, Length]:
        return (self.a, self.b, self.c)


def is_triangle_triplet(t: Triplet) -> bool:
    """Each entry at most the sum of the other two."""
    a, b, c = t.as_tuple()
    return a <= b + c and b <= a + c and c <= a + b


def is_s_triplet(t: Triplet, s: Length) -> bool:
    """Each entry at most s times the sum of the other two."""
    if s < 1:
        raise InvalidS(f"s = {exact_repr(s)} is below 1")
    a, b, c = t.as_tuple()
    return a <= s * (b + c) and b <= s * (a + c) and c <= s * (a + b)


def is_theta_triplet(t: Triplet, bound_a: Length, bound_b: Length,
                     bound_c: Length) -> bool:
    """Entrywise bounds: each entry gets its own relaxation factor."""
    for bound in (bound_a, bound_b, bound_c):
        if bound < 1:
            raise InvalidTheta(f"bound {exact_repr(bound)} is below 1")
    a, b, c = t.as_tuple()
    return (a <= bound_a * (b + c)
            and b <= bound_b * (a + c)
            and c <= bound_c * (a + b))


def _constant(a, b, c, one=1.0):
    """Smallest s >= one with each entry at most s times the sum of the
    other two, or +inf; exact for rationals with an exact `one`."""
    best = one
    for num, rest in ((a, b + c), (b, a + c), (c, a + b)):
        if rest == 0:
            if num > 0:
                return math.inf
        elif num / rest > best:
            best = num / rest
    return best


def triplet_constant(t: Triplet):
    """Smallest s >= 1 making (a, b, c) an s-triplet; +inf if none exists.

    Exact-mode triplets give an exact rational (so the minimality property
    `not is_s_triplet(t, s - eps)` is testable); float-mode gives a float.
    """
    if t.mode == "exact":
        return _constant(*map(Fraction, t.as_tuple()), one=Fraction(1))
    return _constant(*map(float, t.as_tuple()))


@dataclass(frozen=True)
class PlanarPoint:
    x: float
    y: float

    def distance_to(self, other: "PlanarPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def realize_in_plane(t: Triplet) -> tuple[PlanarPoint, PlanarPoint, PlanarPoint]:
    """Three plane points realizing the side lengths (a, b, c).

    Places u at the origin, v at (a, 0), and w in the closed upper half plane
    with |u - w| = b and |v - w| = c. Requires strictly positive entries that
    satisfy the triangle conditions; degenerate (collinear) triplets land on
    the x-axis. Squares are taken of the sides divided by a power of two
    near the largest one (exact scaling), so huge sides cannot overflow.
    """
    a, b, c = (float(v) for v in t.as_tuple())
    if min(a, b, c) <= 0:
        raise NonPositiveEntry(f"side lengths must be positive, got {(a, b, c)}")
    if not is_triangle_triplet(Triplet(a, b, c)):
        raise NotATriplet(f"{(a, b, c)} violates the triangle conditions")
    exponent = math.frexp(max(a, b, c))[1]
    sa, sb, sc = (math.ldexp(v, -exponent) for v in (a, b, c))
    # sa is 0 only for an a below the float range beside the largest side;
    # the triangle check then forces b == c, and w sits over a / 2, i.e. 0
    wx = (sa * sa + sb * sb - sc * sc) / (2 * sa) if sa else 0.0
    wy_sq = sb * sb - wx * wx
    wy = math.sqrt(wy_sq) if wy_sq > 0 else 0.0  # clamp float fuzz at collinear
    return (PlanarPoint(0.0, 0.0), PlanarPoint(a, 0.0),
            PlanarPoint(math.ldexp(wx, exponent), math.ldexp(wy, exponent)))


# --- samplers -------------------------------------------------------------------

@dataclass(frozen=True)
class GridStrategy:
    """All triplets over {step, 2*step, ..., max} passing the triangle check."""

    step: Length
    max: Length

    def __post_init__(self) -> None:
        if not 0 < self.step <= self.max < math.inf:  # NaN fails too
            raise PreconditionViolated("need 0 < step <= max < inf")


@dataclass(frozen=True)
class _SeededStrategy:
    """`count` triplets from seed `seed`, entries at most `scale`; the
    largest sum of two entries, 2 * scale, must be a finite float."""

    seed: int
    count: int
    scale: float = 10.0

    def __post_init__(self) -> None:
        if not (isinstance(self.count, int) and self.count >= 0
                and 0 < 2 * self.scale < math.inf):  # NaN fails too
            raise PreconditionViolated(
                "need an int count >= 0 and 0 < 2 * scale < inf")


class RandomStrategy(_SeededStrategy):
    """Seeded random triplets with entries in (0, scale]."""


class BoundaryStrategy(_SeededStrategy):
    """Seeded degenerate triplets with a = b + c exactly (as floats)."""


Strategy = Union[GridStrategy, RandomStrategy, BoundaryStrategy]
Sample = tuple[Length, Length, Length]


def _grid_triplets(strategy: GridStrategy) -> Iterator[Sample]:
    step, top = strategy.step, strategy.max
    count = int(top / step)  # exact for the int/Fraction case
    if isinstance(step, float) or isinstance(top, float):
        count = int(float(top) / float(step) + 1e-9)
    values = [step * k for k in range(1, count + 1)]
    for a in values:
        for b in values:
            for c in values:
                if a <= b + c and b <= a + c and c <= a + b:
                    yield (a, b, c)


# The samplers draw as random.Random.uniform(lo, hi) does, with its formula
# lo + (hi - lo) * random() written out; from lo = 0.0 that is scale * draw(),
# bit for bit, since 0.0 + y is y for every y >= 0. They never stop; the
# strategies' check that 2 * scale is finite keeps every sum b + c finite.

def _random_triplets(seed: int, scale: float) -> Iterator[Sample]:
    draw = random.Random(f"triplet-random|{exact_text(seed)}").random
    while True:
        b = scale * draw()
        c = scale * draw()
        lo = abs(b - c)
        a = lo + (b + c - lo) * draw()
        # positive entries, and a rounded a may not overshoot by an ulp
        if (a > 0.0 and b > 0.0 and c > 0.0
                and a <= b + c and b <= a + c and c <= a + b):
            yield (a, b, c)


def _boundary_triplets(seed: int, scale: float) -> Iterator[Sample]:
    draw = random.Random(f"triplet-boundary|{exact_text(seed)}").random
    while True:
        b = scale * draw()
        c = scale * draw()
        if b > 0.0 and c > 0.0:
            yield (b + c, b, c)


def mixed_tuples(seed: int, scale: float) -> Iterator[Sample]:
    """The membership scan's unbounded stream: the grid sweep with step
    scale / 20, then random triplets (entries up to scale) alternating with
    boundary ones from seed + 1 (entries up to scale / 2). The caller checks
    the scale as `Budget` does: 2 * scale finite, scale / 20 positive."""
    return chain(_grid_triplets(GridStrategy(step=scale / 20.0, max=scale)),
                 chain.from_iterable(zip(
                     _random_triplets(seed, scale),
                     _boundary_triplets(seed + 1, scale / 2.0))))


def sample_tuples(strategy: Strategy) -> Iterator[Sample]:
    """The stream of `sample_triplets` as plain (a, b, c) tuples."""
    if isinstance(strategy, GridStrategy):
        return _grid_triplets(strategy)
    if isinstance(strategy, RandomStrategy):
        stream = _random_triplets
    elif isinstance(strategy, BoundaryStrategy):
        stream = _boundary_triplets
    else:
        raise PreconditionViolated(f"unknown sampling strategy {strategy!r}")
    return islice(stream(strategy.seed, strategy.scale), strategy.count)


def sample_triplets(strategy: Strategy) -> Iterator[Triplet]:
    """Deterministic triplet stream; every emitted triplet passes the triangle
    check and has strictly positive entries (so it is always realizable)."""
    return (Triplet(*t) for t in sample_tuples(strategy))
