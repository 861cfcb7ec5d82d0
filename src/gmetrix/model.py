"""Core data model: finite distance tables, verdicts, tags, seeded generators.

Distances are exact rationals (`fractions.Fraction`), so axiom verdicts and
optimal relaxation constants are exact. Floating point enters the library only
where user-supplied function expressions are evaluated.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    AsymmetricEntry,
    InvalidEntry,
    InvalidTheta,
    NegativeEntry,
    NonzeroDiagonal,
    PreconditionViolated,
    ShapeMismatch,
    SpaceFormatError,
    UnsupportedKind,
    exact_text,
)

RationalLike = Union[int, str, Fraction]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or numeric string to an exact Fraction.

    Strings are those `Fraction` reads: "p/q", "1.5", "2e3" and the like. A
    decimal exponent may have at most ``sys.get_int_max_str_digits()`` as
    its size, the limit that plain digits already obey, since "1e999999999"
    would build a power of ten with a billion digits. Floats are rejected on
    purpose: exactness at the core is a contract, and a caller holding a
    float must convert deliberately.
    """
    if isinstance(value, bool):
        raise InvalidEntry(f"not an exact rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if ("e" in value or "E" in value) and not _exponent_fits(value):
            raise InvalidEntry(
                f"exponent of {value!r} exceeds the int digit limit "
                f"{sys.get_int_max_str_digits()}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidEntry(f"not an exact rational: {value!r}") from None
    raise InvalidEntry(f"not an exact rational: {value!r}")


def _exponent_fits(text: str) -> bool:
    limit = sys.get_int_max_str_digits()
    exponent = text.replace("E", "e").rpartition("e")[2]
    try:
        return not limit or abs(int(exponent)) <= limit
    except ValueError:  # no exponent, or one past the limit: Fraction rejects
        return True


def rational_to_json(value: Fraction) -> Union[int, str]:
    """Encode a rational as an int when integral, else a "p/q" string. An
    integer with more digits than sys.get_int_max_str_digits(), which the
    JSON encoder cannot write as a number, is a string of its digits."""
    value = Fraction(value)
    if value.denominator != 1:
        return exact_text(value)
    try:
        str(value.numerator)
    except ValueError:  # past the digit limit
        return exact_text(value)
    return value.numerator


def encode_value(value):
    """Recursively encode values for JSON: rationals exact, floats as-is."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return rational_to_json(value)
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"cannot encode {value!r}")


def canonical_dumps(obj) -> str:
    """Deterministic strict JSON text: sorted keys, two-space indent, newline
    at end; a NaN or infinite float raises ValueError."""
    return json.dumps(encode_value(obj), sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False) + "\n"


class ClassTag(Enum):
    """Closed vocabulary of space kinds and function classes."""

    METRIC = "metric"
    ULTRAMETRIC = "ultrametric"
    WEAK_ULTRAMETRIC = "weak-ultrametric"
    B_METRIC = "b-metric"
    EXTENDED_B_METRIC = "extended-b-metric"
    # function classes: what kind of space the function must map to what kind
    M = "M"    # metric -> metric
    U = "U"    # ultrametric -> ultrametric
    DU = "DU"  # ultrametric -> weak ultrametric
    B = "B"    # b-metric -> b-metric
    MB = "MB"  # metric -> b-metric
    BM = "BM"  # b-metric -> metric
    EB = "EB"  # extended b-metric -> extended b-metric

    @property
    def is_space(self) -> bool:
        return self in _SPACE_TAGS

    @property
    def is_function_class(self) -> bool:
        return not self.is_space

    @classmethod
    def parse(cls, text: str) -> "ClassTag":
        wanted = text.strip().lower()
        for tag in cls:
            if tag.value.lower() == wanted:
                return tag
        raise UnsupportedKind(f"unknown class tag {text!r}")


_SPACE_TAGS = frozenset({
    ClassTag.METRIC,
    ClassTag.ULTRAMETRIC,
    ClassTag.WEAK_ULTRAMETRIC,
    ClassTag.B_METRIC,
    ClassTag.EXTENDED_B_METRIC,
})


class Status(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample: the violated inequality with both sides.

    ``data`` holds whatever structured references are needed to re-evaluate
    the inequality (point labels, sample arguments, function values).
    """

    description: str
    points: tuple[str, ...] = ()
    lhs: object = None
    rhs: object = None
    data: Mapping[str, object] = field(default_factory=dict)

    def to_json(self):
        out = {"description": self.description, "points": list(self.points)}
        if self.lhs is not None:
            out["lhs"] = encode_value(self.lhs)
        if self.rhs is not None:
            out["rhs"] = encode_value(self.rhs)
        if self.data:
            out["data"] = encode_value(self.data)
        return out


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check.

    Holds is exact on rational paths and grid-verified on float paths (the
    note says which); Fails always carries a witness; Inconclusive always
    carries a note describing the evidence and budget.
    """

    status: Status
    witness: Optional[Witness] = None
    constants: Mapping[str, object] = field(default_factory=dict)
    note: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status is Status.FAILS and self.witness is None:
            raise PreconditionViolated("a failing verdict requires a witness")
        if self.status is Status.INCONCLUSIVE and not self.note:
            raise PreconditionViolated("an inconclusive verdict requires a note")

    @property
    def holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def fails(self) -> bool:
        return self.status is Status.FAILS

    def to_json(self):
        out = {"status": self.status.value}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.constants:
            out["constants"] = encode_value(self.constants)
        if self.note:
            out["note"] = self.note
        return out


def holds(constants: Optional[Mapping[str, object]] = None,
          note: Optional[str] = None) -> Verdict:
    return Verdict(Status.HOLDS, constants=dict(constants or {}), note=note)


def fails(witness: Witness,
          constants: Optional[Mapping[str, object]] = None) -> Verdict:
    return Verdict(Status.FAILS, witness=witness, constants=dict(constants or {}))


def inconclusive(note: str,
                 constants: Optional[Mapping[str, object]] = None) -> Verdict:
    return Verdict(Status.INCONCLUSIVE, constants=dict(constants or {}),
                   note=note)


def _validate_square(points: Sequence[str], entries) -> None:
    n = len(points)
    if n < 1:
        raise ShapeMismatch("at least one point is required")
    if len(set(points)) != n:
        raise ShapeMismatch("point labels must be unique")
    if len(entries) != n:
        raise ShapeMismatch(f"{n} points but {len(entries)} rows")
    for i, row in enumerate(entries):
        if len(row) != n:
            raise ShapeMismatch(f"row {i} has {len(row)} entries, expected {n}")


@dataclass(frozen=True)
class _RationalTable:
    """The one validation of both table kinds, raising in this order: shape;
    each entry in row-major order a Fraction of at least `_FLOOR`, else
    `_below_floor(i, j, value)`; a zero diagonal if `_ZERO_DIAGONAL`;
    symmetry. `_LABEL` names an entry in the messages."""

    points: tuple[str, ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        entries = self.entries
        _validate_square(self.points, entries)
        label, floor = self._LABEL, self._FLOOR
        for i, row in enumerate(entries):
            for j, value in enumerate(row):
                if not isinstance(value, Fraction):
                    raise InvalidEntry(
                        f"{label}[{i}][{j}] = {value!r} is not a Fraction")
                if value < floor:
                    raise self._below_floor(i, j, value)
        if self._ZERO_DIAGONAL:
            for i, row in enumerate(entries):
                if row[i] != 0:
                    raise NonzeroDiagonal(i, row[i])
        for i, row in enumerate(entries):
            for j in range(i + 1, len(row)):
                if row[j] != entries[j][i]:
                    raise AsymmetricEntry(i, j, row[j], entries[j][i])

    @property
    def n(self) -> int:
        return len(self.points)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]


@dataclass(frozen=True)
class DistanceTable(_RationalTable):
    """A finite symmetric table of exact nonnegative distances, zero diagonal.

    The constructor enforces shape, nonnegativity, zero diagonal, and symmetry;
    what it deliberately does not enforce is the identity axiom (off-diagonal
    zeros are representable so the identity check has something to reject).
    """

    _LABEL, _FLOOR, _ZERO_DIAGONAL = "entries", 0, True
    _below_floor = NegativeEntry

    def to_json(self):
        return {
            "points": list(self.points),
            "entries": [[rational_to_json(v) for v in row]
                        for row in self.entries],
        }


@dataclass(frozen=True)
class ThetaTable(_RationalTable):
    """Symmetric table of pointwise relaxation bounds, every entry >= 1."""

    _LABEL, _FLOOR, _ZERO_DIAGONAL = "theta", 1, False

    @staticmethod
    def _below_floor(i: int, j: int, value: Fraction) -> InvalidTheta:
        return InvalidTheta(
            f"theta[{i}][{j}] = {exact_text(value)} is below 1")

    def max_entry(self) -> Fraction:
        return max(v for row in self.entries for v in row)

    def to_json(self):
        return [[rational_to_json(v) for v in row] for row in self.entries]


def _build_table(kind: type, points: Sequence[str],
                 entries: Sequence[Sequence[RationalLike]]):
    # shape first, so a short row is reported before a bad entry in it
    pts = tuple(str(p) for p in points)
    _validate_square(pts, entries)
    return kind(pts, tuple(tuple(as_rational(v) for v in row)
                           for row in entries))


def new_distance_table(points: Sequence[str],
                       entries: Sequence[Sequence[RationalLike]]) -> DistanceTable:
    """Validate and build a :class:`DistanceTable` from plain sequences."""
    return _build_table(DistanceTable, points, entries)


def new_theta_table(points: Sequence[str],
                    entries: Sequence[Sequence[RationalLike]]) -> ThetaTable:
    """Validate and build a :class:`ThetaTable` from plain sequences."""
    return _build_table(ThetaTable, points, entries)


def constant_theta(points: Sequence[str], value: RationalLike) -> ThetaTable:
    """The constant bound table used to compare against plain b-relaxation."""
    s = as_rational(value)
    n = len(points)
    return new_theta_table(points, [[s] * n for _ in range(n)])


# --- JSON space documents -----------------------------------------------------

#: Most points a space document may name: its table holds n^2 Fractions,
#: and the axiom checks take time of order n^3.
MAX_SPACE_POINTS = 500


def space_to_json(table: DistanceTable,
                  theta: Optional[ThetaTable] = None) -> dict:
    doc = table.to_json()
    if theta is not None:
        if theta.points != table.points:
            raise SpaceFormatError("theta is defined over different points")
        doc["theta"] = theta.to_json()
    return doc


def space_from_json(doc) -> tuple[DistanceTable, Optional[ThetaTable]]:
    """Parse the documented schema; bit-exact inverse of :func:`space_to_json`."""
    if not isinstance(doc, Mapping):
        raise SpaceFormatError("space document must be a JSON object")
    try:
        points = doc["points"]
        entries = doc["entries"]
    except KeyError as missing:
        raise SpaceFormatError(f"missing key {missing}") from None
    if (not isinstance(points, list)
            or not all(isinstance(p, str) for p in points)):
        raise SpaceFormatError('"points" must be a list of strings')
    if len(points) > MAX_SPACE_POINTS:
        raise SpaceFormatError(f"{len(points)} points exceed the cap of "
                               f"{MAX_SPACE_POINTS}")
    table = _document_table(new_distance_table, points, entries, "entries")
    raw = doc.get("theta")
    theta = (None if raw is None
             else _document_table(new_theta_table, points, raw, "theta"))
    return table, theta


def _document_table(build, points: list, rows, key: str):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SpaceFormatError(f'"{key}" must be a list of rows')
    # every constructor complaint about a loaded document is a document
    # problem, not an internal one
    try:
        return build(points, rows)
    except (ShapeMismatch, InvalidEntry, NegativeEntry, NonzeroDiagonal,
            AsymmetricEntry, InvalidTheta) as err:
        raise SpaceFormatError(str(err)) from None


def load_space(path) -> tuple[DistanceTable, Optional[ThetaTable]]:
    """Read a space document. A file that does not decode (malformed JSON,
    bytes that are not UTF-8, an integer past the interpreter's digit limit,
    nesting past its recursion limit) raises SpaceFormatError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as err:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise SpaceFormatError(f"invalid JSON: {err}") from None
    return space_from_json(doc)


def dump_space(path, table: DistanceTable,
               theta: Optional[ThetaTable] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(space_to_json(table, theta)))


# --- seeded generators ----------------------------------------------------------

def _default_points(n: int) -> tuple[str, ...]:
    return tuple(f"p{i}" for i in range(n))


def _random_ultrametric(rng: random.Random, n: int) -> list[list[Fraction]]:
    # hierarchical merge tree: the distance between two points is the height at
    # which their clusters join, heights strictly increasing up the tree
    entries = [[Fraction(0)] * n for _ in range(n)]
    clusters = [[i] for i in range(n)]
    height = Fraction(0)
    while len(clusters) > 1:
        height += Fraction(rng.randint(1, 16), 8)
        a, b = rng.sample(range(len(clusters)), 2)
        if a > b:
            a, b = b, a
        for u in clusters[a]:
            for v in clusters[b]:
                entries[u][v] = height
                entries[v][u] = height
        clusters[a].extend(clusters[b])
        del clusters[b]
    return entries


def _random_metric(rng: random.Random, n: int) -> list[list[Fraction]]:
    # random positive symmetric weights in quarters, in [1, 8], then their
    # shortest-path closure
    from .axioms import metric_closure

    quarters = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            quarters[i][j] = quarters[j][i] = rng.randint(4, 32)
    return [[Fraction(v, 4) for v in row] for row in metric_closure(quarters)]


def _perturb(rng: random.Random, rows: list[list[Fraction]],
             max_eighths: int) -> list[list[Fraction]]:
    # multiply each unordered pair by 1 + k/8 for a random k in 0..max_eighths
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            factor = 1 + Fraction(rng.randint(0, max_eighths), 8)
            rows[i][j] = rows[j][i] = rows[i][j] * factor
    return rows


def random_space(kind: ClassTag, n: int, seed: int
                 ) -> tuple[DistanceTable, Optional[ThetaTable]]:
    """Deterministic random space of the requested kind.

    Pure function of (kind, n, seed). Ultrametrics come from a random merge
    tree, metrics from a shortest-path closure, b-metrics and weak
    ultrametrics from bounded multiplicative perturbation (factors in [1, 2])
    of the former two, extended spaces from per-pair scaling of a metric with
    the minimal pointwise bound table attached.
    """
    if not isinstance(kind, ClassTag) or not kind.is_space:
        raise UnsupportedKind(f"{kind!r} is not a space kind")
    if n < 2:
        raise PreconditionViolated("random spaces need n >= 2")
    rng = random.Random(f"{kind.value}|{n}|{seed}")
    if kind is ClassTag.ULTRAMETRIC:
        rows = _random_ultrametric(rng, n)
    elif kind is ClassTag.METRIC:
        rows = _random_metric(rng, n)
    elif kind is ClassTag.WEAK_ULTRAMETRIC:
        rows = _perturb(rng, _random_ultrametric(rng, n), 8)
    elif kind is ClassTag.B_METRIC:
        rows = _perturb(rng, _random_metric(rng, n), 8)
    else:  # extended: scale a metric per pair by factors in [1, 4]
        rows = _perturb(rng, _random_metric(rng, n), 24)
    table = DistanceTable(_default_points(n), tuple(map(tuple, rows)))
    if kind is not ClassTag.EXTENDED_B_METRIC:
        return table, None
    from .axioms import minimal_theta

    return table, minimal_theta(table)
