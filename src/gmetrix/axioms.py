"""Exact axiom checks and optimal relaxation constants for distance tables.

One kernel answers every question: with the entries scaled to ints by the
lcm of their denominators, it computes row by row, for each pair (i, j), the
min-plus bound min_k (d_ik + d_kj) or the min-max bound min_k max(d_ik, d_kj).
The triangle and ultrametric checks fail at the first pair in row-major order
above its bound (the extended check scales the bound by theta(i, j)), and stop
at that row. The optimal constants and minimal theta are ratios of distances
to bounds, compared as integer cross-products; a Fraction is built only for a
reported value.

Witness contract: a failing verdict names the lexicographically smallest
violating triple (i, j, k). Its k comes from re-scanning the failing pair in
the original Fractions, so lhs and rhs are the two exact sides of the
violated inequality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Iterator, Optional

from .errors import (
    IdentityFails,
    PointSetMismatch,
    UnsupportedKind,
    exact_text,
)
from .model import (
    ClassTag,
    DistanceTable,
    ThetaTable,
    Verdict,
    Witness,
    fails,
    holds,
)

_COMBINE = {"sum": add, "max": max}


def _scaled(table: DistanceTable) -> tuple[int, list[list[int]]]:
    """(L, rows) with rows[i][j] = L * d_ij, L the lcm of the denominators."""
    e = table.entries
    scale = math.lcm(*{v.denominator for row in e for v in row})
    return scale, [[v.numerator * (scale // v.denominator) for v in row]
                   for row in e]


def _bounds(rows: list[list[int]], combine: str) -> Iterator[list[int]]:
    """The kernel: row i of min over k of combine(d_ik, d_kj), for every j."""
    through = _COMBINE[combine]
    for row_i in rows:
        yield [min(map(through, row_i, row_j)) for row_j in rows]


def _verdict(table: DistanceTable, rows: list[list[int]],
             bound_rows: Iterable[list[int]], combine: str,
             theta: Optional[ThetaTable] = None) -> Verdict:
    """Fails at the first pair in row-major order with d_ij above
    theta_ij * bound_ij; the witness re-scans that pair for its first k."""
    ts = [[1] * table.n] * table.n if theta is None else theta.entries
    found = next(((i, j) for i, bounds in enumerate(bound_rows)
                  for j, bound in enumerate(bounds)
                  if rows[i][j] * ts[i][j].denominator
                  > ts[i][j].numerator * bound), None)
    if found is None:
        return holds()
    i, j = found
    t = ts[i][j]
    e = table.entries
    through = _COMBINE[combine]
    k = next(k for k in range(table.n)
             if e[i][j] > t * through(e[i][k], e[k][j]))
    lhs, rhs = e[i][j], t * through(e[i][k], e[k][j])
    x, y, z = table.points[i], table.points[j], table.points[k]
    if theta is None:
        shape = f"{combine}(d({x},{z}), d({z},{y}))"
        data = {"i": i, "j": j, "k": k, "combine": combine}
    else:
        shape = f"theta({x},{y}) * (d({x},{z}) + d({z},{y}))"
        data = {"i": i, "j": j, "k": k, "theta": t}
    return fails(Witness(description=(f"d({x},{y}) = {exact_text(lhs)} > "
                                      f"{exact_text(rhs)} = {shape}"),
                         points=(x, y, z), lhs=lhs, rhs=rhs, data=data))


def _max_ratio(rows: list[list[int]],
               bound_rows: Iterable[list[int]]) -> Fraction:
    """max(1, max over pairs of d_ij / bound_ij); bounds are positive off the
    diagonal once the identity axiom holds, and 0 / 0 on it never wins."""
    num, den = 1, 1
    for row, bounds in zip(rows, bound_rows):
        for d, bound in zip(row, bounds):
            if d * den > num * bound:
                num, den = d, bound
    return Fraction(num, den)


def check_identity(table: DistanceTable) -> Verdict:
    """d(x, y) = 0 exactly when x = y.

    Zero diagonal is a construction invariant, so only off-diagonal zeros can
    violate this.
    """
    n = table.n
    for i in range(n):
        for j in range(i + 1, n):
            if table.entries[i][j] == 0:
                x, y = table.points[i], table.points[j]
                return fails(Witness(
                    description=f"d({x},{y}) = 0 although {x} != {y}",
                    points=(x, y),
                    lhs=Fraction(0),
                    rhs=Fraction(0),
                    data={"i": i, "j": j},
                ))
    return holds()


def check_triangle(table: DistanceTable) -> Verdict:
    """d(x, y) <= d(x, z) + d(z, y) for every ordered triple."""
    _, rows = _scaled(table)
    return _verdict(table, rows, _bounds(rows, "sum"), "sum")


def check_ultra(table: DistanceTable) -> Verdict:
    """d(x, y) <= max(d(x, z), d(z, y)) for every ordered triple."""
    _, rows = _scaled(table)
    return _verdict(table, rows, _bounds(rows, "max"), "max")


def _require_identity(table: DistanceTable) -> None:
    verdict = check_identity(table)
    if not verdict.holds:
        raise IdentityFails(verdict.witness.description)


def optimal_weak_ultra_constant(table: DistanceTable) -> Fraction:
    """Smallest C >= 1 with d(x, y) <= C * max(d(x, z), d(z, y)) throughout.

    Finite for every table passing the identity check (the z in {x, y} cases
    force the maximum to be at least 1, and no denominator can vanish).
    """
    _require_identity(table)
    _, rows = _scaled(table)
    return _max_ratio(rows, _bounds(rows, "max"))


def optimal_b_constant(table: DistanceTable) -> Fraction:
    """Smallest s >= 1 with d(x, y) <= s * (d(x, z) + d(z, y)) throughout."""
    _require_identity(table)
    _, rows = _scaled(table)
    return _max_ratio(rows, _bounds(rows, "sum"))


def minimal_theta(table: DistanceTable) -> ThetaTable:
    """Entrywise smallest bound table certifying the relaxed triangle axiom.

    theta(x, y) = max(1, max over z of d(x, y) / (d(x, z) + d(z, y))); the
    diagonal is set to 1. Any table that dominates this one entrywise passes
    ``check_extended_b`` and none below it does.
    """
    _require_identity(table)
    _, rows = _scaled(table)
    one = Fraction(1)
    return ThetaTable(table.points, tuple(
        tuple(Fraction(d, bound) if d > bound else one
              for d, bound in zip(row, bounds))
        for row, bounds in zip(rows, _bounds(rows, "sum"))))


def check_extended_b(table: DistanceTable, theta: ThetaTable) -> Verdict:
    """Identity plus d(x, y) <= theta(x, y) * (d(x, z) + d(z, y)) throughout."""
    if theta.points != table.points:
        raise PointSetMismatch(
            "theta table is defined over different points than the distances")
    ident = check_identity(table)
    if not ident.holds:
        return ident
    _, rows = _scaled(table)
    return _verdict(table, rows, _bounds(rows, "sum"), "sum", theta)


def metric_closure(rows: list[list[int]]) -> list[list[int]]:
    """Shortest-path closure of a table of ints: the largest table below it
    satisfying the triangle axiom, by min-plus squaring until nothing
    changes."""
    while True:
        closed = list(_bounds(rows, "sum"))
        if closed == rows:
            return rows
        rows = closed


def classify_space(table: DistanceTable) -> Dict[ClassTag, Verdict]:
    """Verdict per space kind, with optimal constants attached where they exist.

    Every finite table passing the identity check admits finite relaxation
    constants, so the three relaxed kinds hold automatically with their
    optimal constants reported; the metric and ultrametric rows depend on the
    actual triangle checks. The largest minimal theta entry is the optimal
    b-constant, so both rows report the same number.
    """
    ident = check_identity(table)
    if ident.fails:
        return {tag: ident for tag in ClassTag if tag.is_space}
    _, rows = _scaled(table)
    plus = list(_bounds(rows, "sum"))
    maxed = list(_bounds(rows, "max"))
    s_min = _max_ratio(rows, plus)
    return {
        ClassTag.METRIC: _verdict(table, rows, plus, "sum"),
        ClassTag.ULTRAMETRIC: _verdict(table, rows, maxed, "max"),
        ClassTag.WEAK_ULTRAMETRIC: holds({"C_min": _max_ratio(rows, maxed)}),
        ClassTag.B_METRIC: holds({"s_min": s_min}),
        ClassTag.EXTENDED_B_METRIC: holds({"theta_max": s_min}),
    }


def verify_as(table: DistanceTable, kind: ClassTag,
              theta: ThetaTable | None = None) -> Verdict:
    """Targeted check of a single space kind.

    A caller-provided bound table is honored for the extended kind (and may
    fail); without one the minimal table is implied, so the extended verdict
    holds whenever the identity axiom does. Only what the kind needs is
    computed.
    """
    if not (isinstance(kind, ClassTag) and kind.is_space):
        raise UnsupportedKind(f"{kind!r} is not a space kind")
    if kind is ClassTag.EXTENDED_B_METRIC and theta is not None:
        return check_extended_b(table, theta)
    ident = check_identity(table)
    if ident.fails:
        return ident
    if kind is ClassTag.METRIC:
        return check_triangle(table)
    if kind is ClassTag.ULTRAMETRIC:
        return check_ultra(table)
    if kind is ClassTag.WEAK_ULTRAMETRIC:
        return holds({"C_min": optimal_weak_ultra_constant(table)})
    # the largest minimal theta entry is the optimal b-constant
    key = "s_min" if kind is ClassTag.B_METRIC else "theta_max"
    return holds({key: optimal_b_constant(table)})
