"""Exception vocabulary shared across the package.

Every error raised on purpose derives from :class:`GmetrixError` so callers
(and the CLI) can separate domain failures from genuine bugs.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def exact_text(value) -> str:
    """str(value), also for an int or Fraction with more digits than
    sys.get_int_max_str_digits(), where str raises: such an int is written
    in chunks below the limit, which stays as it is."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return exact_text(value.numerator)
        return f"{exact_text(value.numerator)}/{exact_text(value.denominator)}"
    try:
        return str(value)
    except ValueError:  # an int past the digit limit
        k = sys.get_int_max_str_digits() - 1
        high, low = divmod(abs(value), 10 ** k)
        sign = "-" if value < 0 else ""
        return f"{sign}{exact_text(high)}{str(low).zfill(k)}"


def exact_repr(value) -> str:
    """repr(value) for a message, but an int or Fraction is written by
    exact_text, so that one past the int digit limit can be shown."""
    if isinstance(value, (int, Fraction)):
        return exact_text(value)
    return repr(value)


class GmetrixError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionViolated(GmetrixError):
    """An operation was called outside its documented domain."""


# --- table construction -----------------------------------------------------

class ShapeMismatch(GmetrixError):
    """Entry matrix does not match the point list (or labels are unusable)."""


class InvalidEntry(GmetrixError):
    """A table entry is not an exact rational (floats are rejected)."""


class NegativeEntry(GmetrixError):
    def __init__(self, i: int, j: int, value) -> None:
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entries[{i}][{j}] = {exact_text(value)} is negative")


class NonzeroDiagonal(GmetrixError):
    def __init__(self, i: int, value) -> None:
        self.i, self.value = i, value
        super().__init__(
            f"entries[{i}][{i}] = {exact_text(value)}, diagonal must be 0")


class AsymmetricEntry(GmetrixError):
    def __init__(self, i: int, j: int, left, right) -> None:
        self.i, self.j = i, j
        self.left, self.right = left, right
        super().__init__(f"entries[{i}][{j}] = {exact_text(left)} != "
                         f"{exact_text(right)} = entries[{j}][{i}]")


class PointSetMismatch(GmetrixError):
    """Distance table and bound table are defined over different points."""


class SpaceFormatError(GmetrixError):
    """A space JSON document does not follow the documented schema."""


# --- generation and classification ------------------------------------------

class UnsupportedKind(GmetrixError):
    """The tag does not name a space kind this operation can produce."""


class UnsupportedClass(GmetrixError):
    """The tag does not name a function class this operation can decide."""


class IdentityFails(GmetrixError):
    """Optimal constants are undefined when the identity axiom fails."""


# --- triplets ----------------------------------------------------------------

class InvalidS(GmetrixError):
    """Relaxation constant below 1."""


class InvalidTheta(GmetrixError):
    """A pointwise bound below 1."""


class NotATriplet(GmetrixError):
    """The three lengths violate the triangle triplet conditions."""


class NonPositiveEntry(GmetrixError):
    """Planar realization needs strictly positive side lengths."""


# --- expression language ------------------------------------------------------

class ParseError(GmetrixError):
    """Syntax error in a function expression, with 1-based position info."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()) -> None:
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{hint}")


class UnknownIdentifier(ParseError):
    def __init__(self, name: str, line: int, column: int) -> None:
        self.name = name
        super().__init__(f"unknown identifier {name!r}", line, column,
                         expected=("x", "a function name", "piece"))


class EvalError(GmetrixError):
    """Base class for evaluation failures; carries the offending argument."""

    def __init__(self, x, detail: str) -> None:
        self.x = x
        self.detail = detail
        super().__init__(f"{detail} (at x = {exact_repr(x)})")


class DomainError(EvalError):
    """A subexpression was evaluated outside its mathematical domain."""


class OutOfCodomain(EvalError):
    """The expression produced a negative value; the codomain is [0, inf)."""

    def __init__(self, x, value) -> None:
        self.value = value
        super().__init__(x, f"value {exact_repr(value)} is negative")


class NonFinite(EvalError):
    """The expression produced an overflow, infinity, or NaN."""


# --- preservation / region ----------------------------------------------------

class SourceClassViolated(GmetrixError):
    """The input space does not satisfy the source axioms for the target."""


class PlateauNotVerified(GmetrixError):
    """The function is not constant on (0, b] (or not amenable) as required."""


class OutOfRange(GmetrixError):
    """An interval index lies outside [1, n_max]."""
