"""Exact axiom checks and optimal relaxation constants for distance tables.

One kernel answers every question: on the table's integer form (entries
times the lcm of their denominators, kept by the table), it computes, for
each pair (i, j), the min-plus bound min_k (d_ik + d_kj) or the min-max bound
min_k max(d_ik, d_kj), and yields the bounds row by row. Both bounds are
symmetric on a symmetric table. The min-plus rows are computed as they are
asked for, each only from its diagonal on, the rest copied from the earlier
rows. The min-max bound is computed whole before its first row yields: the
smallest t at which {k : d_ik <= t} and {k : d_kj <= t} meet, found by
adding the entries to one bitset per row in ascending order
(``_min_max``). Each space kind answers by one rule in ``_KINDS``, in
``classify_space`` and ``verify_as`` alike. Metric (min-plus) and
ultrametric (min-max) are checked: they fail at the first pair in row-major
order above its bound, and stop reading rows there (the extended check of a
given theta scales the bound by theta's own integer form). On a table
passing the identity check the relaxed kinds hold with their optimal
constant, the largest ratio of a distance to its bound: ``C_min`` (min-max),
``s_min`` and ``theta_max`` (min-plus; equal, as the largest minimal theta
entry is the optimal b-constant). Ratios, minimal theta among them, are
compared as integer cross-products; a Fraction is built only when reported.
Every bound is at most its distance (take k = i: d_ii = 0), so a pair whose
bound equals its distance has ratio 1 and never sets a constant.

Witness contract: a failing verdict names the lexicographically smallest
violating triple (i, j, k). Its k comes from re-scanning the failing pair in
the original Fractions, so lhs and rhs are the two exact sides of the
violated inequality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence

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

# kind -> (combine, None if checked against its bound, else the key of the
# optimal constant it holds with), in ClassTag order
_KINDS = {
    ClassTag.METRIC: ("sum", None),
    ClassTag.ULTRAMETRIC: ("max", None),
    ClassTag.WEAK_ULTRAMETRIC: ("max", "C_min"),
    ClassTag.B_METRIC: ("sum", "s_min"),
    ClassTag.EXTENDED_B_METRIC: ("sum", "theta_max"),
}


def _bounds(rows: Sequence[Sequence[int]],
            combine: str) -> Iterator[list[int]]:
    """The kernel: row i of min over k of combine(d_ik, d_kj), for every j,
    on symmetric rows with a zero diagonal."""
    if combine == "max":
        yield from _min_max(rows)
        return
    n, earlier = len(rows), []
    for i, row_i in enumerate(rows):
        bounds = [earlier[j][i] for j in range(i)]
        bounds += [min(map(add, row_i, rows[j])) for j in range(i, n)]
        earlier.append(bounds)
        yield bounds


def _min_max(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """All min-max bounds at once. The entries above the diagonal enter in
    ascending order into one bitset per row: mask[i] holds i and every k of
    an entry (i, k) that has entered, done[i] every j whose bound (i, j) is
    set. The bound of (i, j) is the value of the entry that first puts some
    k in both mask[i] and mask[j], and that entry is (i, k) or (j, k). So
    when (i, k) enters, every j in mask[k] not done for i gets its value, at
    (i, j) and (j, i) alike, and the same with i and k swapped. Entries of
    equal value need no grouping, as any of them gives the same bound."""
    n = len(rows)
    bounds = [[0] * n for _ in range(n)]
    mask = [1 << i for i in range(n)]
    done = mask[:]
    for t, i0, k0 in sorted((row[k], i, k) for i, row in enumerate(rows)
                            for k in range(i + 1, n)):
        mask[i0] |= 1 << k0
        mask[k0] |= 1 << i0
        for i, k in ((i0, k0), (k0, i0)):
            new = mask[k] & ~done[i]
            done[i] |= new
            row_i, bit_i = bounds[i], 1 << i
            while new:
                low = new & -new
                new ^= low
                j = low.bit_length() - 1
                row_i[j] = bounds[j][i] = t
                done[j] |= bit_i
    return bounds


def _verdict(table: DistanceTable, bound_rows: Iterable[list[int]],
             combine: str, theta: Optional[ThetaTable] = None) -> Verdict:
    """Fails at the first pair in row-major order with d_ij above
    theta_ij * bound_ij; the witness re-scans that pair for its first k."""
    rows = table.rows
    scale, ts = ((1, [[1] * table.n] * table.n) if theta is None
                 else (theta.scale, theta.rows))
    found = next(((i, j) for i, bounds in enumerate(bound_rows)
                  for j, bound in enumerate(bounds)
                  if rows[i][j] * scale > ts[i][j] * bound), None)
    if found is None:
        return holds()
    i, j = found
    t = 1 if theta is None else theta.entries[i][j]
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


def _max_ratio(rows: Sequence[Sequence[int]],
               bound_rows: Iterable[list[int]]) -> Fraction:
    """max(1, max over pairs of d_ij / bound_ij), read above the diagonal
    only, so the rows and bounds must be symmetric. Bounds are positive off
    the diagonal once the identity axiom holds; a bound equal to its
    distance gives ratio 1, which never wins, so its cross-product is
    skipped."""
    num, den = 1, 1
    for i, (row, bounds) in enumerate(zip(rows, bound_rows), 1):
        for d, bound in zip(row[i:], bounds[i:]):
            if d != bound and d * den > num * bound:
                num, den = d, bound
    return Fraction(num, den)


def _answer(table: DistanceTable, kind: ClassTag,
            bounds: Callable[[str], Iterable[list[int]]],
            ratio: Callable[[str], Fraction]) -> Verdict:
    """kind's verdict on a table passing the identity check: bounds(combine)
    gives the kernel's rows (a check stops at its first failing row) and
    ratio(combine) their max-ratio."""
    combine, key = _KINDS[kind]
    if key is None:
        return _verdict(table, bounds(combine), combine)
    return holds({key: ratio(combine)})


def check_identity(table: DistanceTable) -> Verdict:
    """d(x, y) = 0 exactly when x = y.

    Zero diagonal is a construction invariant, so only off-diagonal zeros can
    violate this.
    """
    n = table.n
    for i in range(n):
        for j in range(i + 1, n):
            if not table.rows[i][j]:
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
    return _verdict(table, _bounds(table.rows, "sum"), "sum")


def check_ultra(table: DistanceTable) -> Verdict:
    """d(x, y) <= max(d(x, z), d(z, y)) for every ordered triple."""
    return _verdict(table, _bounds(table.rows, "max"), "max")


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
    return _max_ratio(table.rows, _bounds(table.rows, "max"))


def optimal_b_constant(table: DistanceTable) -> Fraction:
    """Smallest s >= 1 with d(x, y) <= s * (d(x, z) + d(z, y)) throughout."""
    _require_identity(table)
    return _max_ratio(table.rows, _bounds(table.rows, "sum"))


def minimal_theta(table: DistanceTable) -> ThetaTable:
    """Entrywise smallest bound table certifying the relaxed triangle axiom.

    theta(x, y) = max(1, max over z of d(x, y) / (d(x, z) + d(z, y))); the
    diagonal is set to 1. Any table that dominates this one entrywise passes
    ``check_extended_b`` and none below it does.
    """
    _require_identity(table)
    one = Fraction(1)
    return ThetaTable(table.points, tuple(
        tuple(Fraction(d, bound) if d > bound else one
              for d, bound in zip(row, bounds))
        for row, bounds in zip(table.rows, _bounds(table.rows, "sum"))))


def check_extended_b(table: DistanceTable, theta: ThetaTable) -> Verdict:
    """Identity plus d(x, y) <= theta(x, y) * (d(x, z) + d(z, y)) throughout."""
    if theta.points != table.points:
        raise PointSetMismatch(
            "theta table is defined over different points than the distances")
    ident = check_identity(table)
    if not ident.holds:
        return ident
    return _verdict(table, _bounds(table.rows, "sum"), "sum", theta)


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
    """Verdict per space kind, in ``ClassTag`` order; each kernel and each
    max-ratio is computed once."""
    ident = check_identity(table)
    if ident.fails:
        return {kind: ident for kind in _KINDS}
    kernels = {c: list(_bounds(table.rows, c)) for c in _COMBINE}
    ratios = {c: _max_ratio(table.rows, kernels[c]) for c in _COMBINE}
    return {kind: _answer(table, kind, kernels.get, ratios.get)
            for kind in _KINDS}


def verify_as(table: DistanceTable, kind: ClassTag,
              theta: ThetaTable | None = None) -> Verdict:
    """Targeted check of a single space kind, by the rule ``classify_space``
    uses for it.

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
    return _answer(table, kind, partial(_bounds, table.rows),
                   lambda c: _max_ratio(table.rows, _bounds(table.rows, c)))
