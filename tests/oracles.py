"""Independent brute-force oracles for the test suite.

Everything here is coded directly from the definitions over plain lists of
Fractions, on purpose ignoring the package's own implementations, so that a
shared bug would have to be written twice to go unnoticed. The expression
interpreter reads the parser's tree and raises the package's error types,
but never goes through its generated evaluator; its exact twin walks the
same tree in Fractions.
"""

from fractions import Fraction
from itertools import permutations
import math
import random

from gmetrix.dsl import Bin, Call, Lit, Neg, Piece, Var
from gmetrix.errors import DomainError, NonFinite, OutOfCodomain


def ordered_triples(n):
    """All (i, j, k) with i != j; k unrestricted (degenerate cases included)."""
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(n):
                yield i, j, k


def brute_weak_ultra_constant(entries):
    best = Fraction(1)
    for i, j, k in ordered_triples(len(entries)):
        denom = max(entries[i][k], entries[k][j])
        candidate = Fraction(entries[i][j], 1) / denom
        if candidate > best:
            best = candidate
    return best


def brute_b_constant(entries):
    best = Fraction(1)
    for i, j, k in ordered_triples(len(entries)):
        candidate = Fraction(entries[i][j], 1) / (entries[i][k] + entries[k][j])
        if candidate > best:
            best = candidate
    return best


def brute_minimal_theta(entries):
    """Per-pair max(1, ratio) matrix, diagonal pinned at 1."""
    n = len(entries)
    theta = [[Fraction(1)] * n for _ in range(n)]
    for i, j, k in ordered_triples(n):
        candidate = Fraction(entries[i][j], 1) / (entries[i][k] + entries[k][j])
        if candidate > theta[i][j]:
            theta[i][j] = candidate
    return theta


def brute_first_violation(entries, combine, theta=None):
    """Lexicographically first (i, j, k, lhs, rhs) over all ordered triples
    with d(i, j) > theta(i, j) * combine(d(i, k), d(k, j)), or None.

    combine is "sum" or "max"; a missing theta means all ones.
    """
    n = len(entries)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if combine == "sum":
                    rhs = entries[i][k] + entries[k][j]
                else:
                    rhs = max(entries[i][k], entries[k][j])
                if theta is not None:
                    rhs = theta[i][j] * rhs
                if entries[i][j] > rhs:
                    return i, j, k, entries[i][j], rhs
    return None


def brute_bounds(rows, combine):
    """For every pair (i, j), the min over all k of d_ik + d_kj ("sum") or
    of max(d_ik, d_kj) ("max"), as a list of rows."""
    n = len(rows)
    bounds = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if combine == "sum":
                    value = rows[i][k] + rows[k][j]
                else:
                    value = max(rows[i][k], rows[k][j])
                if bounds[i][j] is None or value < bounds[i][j]:
                    bounds[i][j] = value
    return bounds


def brute_is_metric(entries):
    n = len(entries)
    for i in range(n):
        if entries[i][i] != 0:
            return False
        for j in range(n):
            if i != j and entries[i][j] <= 0:
                return False
    for i, j, k in permutations(range(n), 3):
        if entries[i][j] > entries[i][k] + entries[k][j]:
            return False
    return True


def brute_is_ultra(entries):
    if not brute_is_metric(entries):
        return False
    n = len(entries)
    for i, j, k in permutations(range(n), 3):
        if entries[i][j] > max(entries[i][k], entries[k][j]):
            return False
    return True


def brute_shortest_paths(entries):
    """Floyd-Warshall: the shortest-path distance between every two points."""
    n = len(entries)
    dist = [list(row) for row in entries]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return dist


def brute_triplet_constant(a, b, c):
    """Smallest s >= 1 making (a, b, c) an s-relaxed triangle triplet."""
    best = Fraction(1)
    for num, rest in ((a, b + c), (b, a + c), (c, a + b)):
        if rest == 0:
            if num > 0:
                return None  # no finite constant exists
            continue
        candidate = Fraction(num, 1) / rest
        if candidate > best:
            best = candidate
    return best


def random_positive_table(n, seed, den=4, hi=16):
    """Symmetric zero-diagonal table with entries in [1/den, hi/den].

    Off-diagonal entries are strictly positive, so the identity axiom always
    passes; no other axiom is imposed.
    """
    rng = random.Random(f"oracle-table|{n}|{seed}")
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = Fraction(rng.randint(1, hi), den)
            entries[i][j] = value
            entries[j][i] = value
    return entries


def primes_from(start, count):
    """The first `count` primes at or above `start`, by trial division."""
    found = []
    candidate = start
    while len(found) < count:
        if all(candidate % d for d in range(2, math.isqrt(candidate) + 1)):
            found.append(candidate)
        candidate += 1
    return found


def random_prime_table(n, seed):
    """Symmetric zero-diagonal table in (0, 10] whose entries have distinct
    prime denominators near 10^6, so their common denominator is huge."""
    rng = random.Random(f"oracle-prime-table|{n}|{seed}")
    primes = iter(rng.sample(primes_from(10 ** 6, 4 * n * n), n * n))
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = next(primes)
            value = Fraction(rng.randint(1, 10 * p), p)
            entries[i][j] = value
            entries[j][i] = value
    return entries


def reference_eval(ast, x):
    """f(x) for a parsed tree by a plain recursive walk in floats, with the
    language's rules: x in [0, inf); a sqrt of a negative value, log1p at or
    below -1, division by zero or a negative base under "^" is a domain
    error; overflow, a NaN reaching floor, ceil, min, max or "^", and a
    non-finite result are non-finite; a negative result is out of the
    codomain."""
    if not 0.0 <= x < math.inf:
        raise DomainError(x, "argument outside [0, inf)")
    try:
        value = _walk(ast, x)
    except OverflowError:
        raise NonFinite(x, "overflow during evaluation") from None
    except ValueError:  # math.floor or math.ceil of a NaN
        raise NonFinite(x, "NaN during evaluation") from None
    if math.isnan(value) or math.isinf(value):
        raise NonFinite(x, f"non-finite value {value!r}")
    if value < 0.0:
        raise OutOfCodomain(x, value)
    return value


def _walk(node, x):
    if isinstance(node, Lit):
        return float(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_walk(node.operand, x)
    if isinstance(node, Piece):
        threshold = float(node.threshold)
        taken = x < threshold if node.op == "<" else x <= threshold
        return _walk(node.then if taken else node.other, x)
    if isinstance(node, Bin) and node.op == "/":
        right = _walk(node.right, x)  # a zero denominator stops first
        if right == 0.0:
            raise DomainError(x, "division by zero")
        return _walk(node.left, x) / right
    if isinstance(node, Bin):
        left, right = _walk(node.left, x), _walk(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if left < 0.0:
            raise DomainError(x, f"negative base {left!r} under '^'")
        if left == 0.0 and right < 0.0:
            raise DomainError(x, "zero base with negative exponent")
        if math.isnan(left) or math.isnan(right):  # pow(1, NaN) would be 1
            raise NonFinite(x, "NaN during evaluation")
        return math.pow(left, right)
    assert isinstance(node, Call), node
    values = [_walk(arg, x) for arg in node.args]
    if node.name in ("min", "max"):
        if any(math.isnan(v) for v in values):
            raise NonFinite(x, "NaN during evaluation")
        best = values[0]
        for v in values[1:]:
            if (v < best) if node.name == "min" else (v > best):
                best = v
        return best
    value = values[0]
    if node.name == "sqrt":
        if value < 0.0:
            raise DomainError(x, f"sqrt of negative value {value!r}")
        return math.sqrt(value)
    if node.name == "log1p":
        if value <= -1.0:
            raise DomainError(x, f"log1p at {value!r} (needs > -1)")
        return math.log1p(value)
    if node.name == "exp":
        return math.exp(value)
    if node.name == "abs":
        return math.fabs(value)
    if node.name == "floor":
        return float(math.floor(value))
    assert node.name == "ceil", node
    return float(math.ceil(value))


def is_rational_tree(ast):
    """True when no sqrt, exp, log1p or "^" occurs in the tree, so that a
    rational argument has a rational value."""
    if isinstance(ast, (Lit, Var)):
        return True
    if isinstance(ast, Neg):
        return is_rational_tree(ast.operand)
    if isinstance(ast, Piece):
        return is_rational_tree(ast.then) and is_rational_tree(ast.other)
    if isinstance(ast, Bin):
        return (ast.op != "^" and is_rational_tree(ast.left)
                and is_rational_tree(ast.right))
    return (ast.name not in ("sqrt", "exp", "log1p")
            and all(is_rational_tree(arg) for arg in ast.args))


def reference_exact(ast, x):
    """f(x) for a rational tree at a Fraction x by a plain recursive walk in
    Fractions: the exact twin of reference_eval. x must be nonnegative; a
    division by zero is a domain error, a negative result is out of the
    codomain, and nothing is ever non-finite."""
    if x < 0:
        raise DomainError(x, "argument outside [0, inf)")
    value = _walk_exact(ast, x)
    if value < 0:
        raise OutOfCodomain(x, value)
    return value


def _walk_exact(node, x):
    if isinstance(node, Lit):
        return Fraction(node.value)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_walk_exact(node.operand, x)
    if isinstance(node, Piece):
        taken = x < node.threshold if node.op == "<" else x <= node.threshold
        return _walk_exact(node.then if taken else node.other, x)
    if isinstance(node, Bin) and node.op == "/":
        right = _walk_exact(node.right, x)  # a zero denominator stops first
        if right == 0:
            raise DomainError(x, "division by zero")
        return _walk_exact(node.left, x) / right
    if isinstance(node, Bin):
        left, right = _walk_exact(node.left, x), _walk_exact(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        assert node.op == "*", node
        return left * right
    assert isinstance(node, Call), node
    values = [_walk_exact(arg, x) for arg in node.args]
    if node.name == "min":
        return min(values)
    if node.name == "max":
        return max(values)
    value = values[0]
    if node.name == "abs":
        return -value if value < 0 else value
    if node.name == "floor":
        return Fraction(math.floor(value))
    assert node.name == "ceil", node
    return Fraction(math.ceil(value))
