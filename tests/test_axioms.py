"""Axiom checks and optimal relaxation constants against brute-force oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest

from gmetrix import (
    ClassTag,
    canonical_dumps,
    check_extended_b,
    check_identity,
    check_triangle,
    check_ultra,
    classify_space,
    constant_theta,
    minimal_theta,
    new_distance_table,
    new_theta_table,
    optimal_b_constant,
    optimal_weak_ultra_constant,
    random_space,
    verify_as,
)
from gmetrix import axioms
from gmetrix.axioms import metric_closure
from gmetrix.errors import IdentityFails, PointSetMismatch, UnsupportedKind

from oracles import (
    brute_b_constant,
    brute_bounds,
    brute_first_violation,
    brute_minimal_theta,
    brute_shortest_paths,
    brute_weak_ultra_constant,
    ordered_triples,
    primes_from,
    random_positive_table,
    random_prime_table,
)


def table_from(entries):
    names = [f"p{i}" for i in range(len(entries))]
    return new_distance_table(names, entries)


def test_right_triangle_constants():
    table = table_from([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    assert optimal_weak_ultra_constant(table) == Fraction(5, 4)
    assert optimal_b_constant(table) == Fraction(1)
    assert check_triangle(table).holds
    assert check_ultra(table).fails


def test_equilateral_is_ultra():
    table = table_from([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    assert check_ultra(table).holds
    assert optimal_weak_ultra_constant(table) == 1
    assert optimal_b_constant(table) == 1


def test_degenerate_pair_constants_floor_at_one():
    table = table_from([[0, 5], [5, 0]])
    assert optimal_b_constant(table) == 1
    assert optimal_weak_ultra_constant(table) == 1


def test_triangle_violator_needs_relaxation():
    # d(x,z)=10 exceeds 1+2, so s must stretch to 10/3
    table = table_from([[0, 1, 10], [1, 0, 2], [10, 2, 0]])
    assert check_triangle(table).fails
    assert optimal_b_constant(table) == Fraction(10, 3)
    assert optimal_weak_ultra_constant(table) == Fraction(10, 2)


def test_identity_failure_witness():
    table = table_from([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    verdict = check_identity(table)
    assert verdict.fails
    assert verdict.witness.points == ("p0", "p1")


def test_constants_refuse_pseudo_tables():
    table = table_from([[0, 0], [0, 0]])
    with pytest.raises(IdentityFails):
        optimal_b_constant(table)
    with pytest.raises(IdentityFails):
        optimal_weak_ultra_constant(table)
    with pytest.raises(IdentityFails):
        minimal_theta(table)


def test_ultra_witness_is_lexicographically_first():
    # several violations exist; the reported triple is the first in scan
    # order, presented as (endpoint, endpoint, through point)
    table = table_from([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    verdict = check_ultra(table)
    assert verdict.fails
    assert verdict.witness.points == ("p0", "p2", "p1")
    assert verdict.witness.data == {"i": 0, "j": 2, "k": 1, "combine": "max"}
    assert verdict.witness.lhs == 5
    assert verdict.witness.rhs == 1


def all_positive_tables(n, values):
    """Every symmetric zero-diagonal table over the value set (exhaustive)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for combo in product(values, repeat=len(pairs)):
        entries = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in zip(pairs, combo):
            entries[i][j] = entries[j][i] = Fraction(v)
        yield entries


def test_constants_match_oracle_exhaustively_n3():
    values = [Fraction(1), Fraction(2), Fraction(7, 2)]
    for entries in all_positive_tables(3, values):
        table = table_from(entries)
        assert optimal_b_constant(table) == brute_b_constant(entries)
        assert (optimal_weak_ultra_constant(table)
                == brute_weak_ultra_constant(entries))
        theta = minimal_theta(table)
        expected = brute_minimal_theta(entries)
        for i in range(3):
            for j in range(3):
                assert theta.entry(i, j) == expected[i][j]


@pytest.mark.parametrize("n", [4, 5])
def test_constants_match_oracle_sampled(n):
    for seed in range(40):
        entries = random_positive_table(n, seed)
        table = table_from(entries)
        assert optimal_b_constant(table) == brute_b_constant(entries)
        assert (optimal_weak_ultra_constant(table)
                == brute_weak_ultra_constant(entries))
        theta = minimal_theta(table)
        expected = brute_minimal_theta(entries)
        for i in range(n):
            for j in range(n):
                assert theta.entry(i, j) == expected[i][j]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_constants_match_oracle_prime_denominators(n):
    for seed in range(6):
        entries = random_prime_table(n, seed)
        table = table_from(entries)
        assert optimal_b_constant(table) == brute_b_constant(entries)
        assert (optimal_weak_ultra_constant(table)
                == brute_weak_ultra_constant(entries))
        theta = minimal_theta(table)
        assert [list(row) for row in theta.entries] == brute_minimal_theta(entries)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_witnesses_name_the_first_violation(n):
    failures = 0
    for seed in range(6):
        entries = random_prime_table(n, seed)
        table = table_from(entries)
        # halfway between 1 and the minimal bound: too small wherever the
        # minimal bound exceeds 1
        shrunk = [[(1 + t) / 2 for t in row]
                  for row in brute_minimal_theta(entries)]
        cases = (
            (check_triangle(table), brute_first_violation(entries, "sum")),
            (check_ultra(table), brute_first_violation(entries, "max")),
            (check_extended_b(table, new_theta_table(table.points, shrunk)),
             brute_first_violation(entries, "sum", shrunk)),
        )
        for verdict, expected in cases:
            if expected is None:
                assert verdict.holds
                continue
            failures += 1
            i, j, k, lhs, rhs = expected
            witness = verdict.witness
            assert verdict.fails
            assert (witness.data["i"], witness.data["j"],
                    witness.data["k"]) == (i, j, k)
            assert witness.points == (f"p{i}", f"p{j}", f"p{k}")
            assert (witness.lhs, witness.rhs) == (lhs, rhs)
    assert failures >= 12


@pytest.mark.parametrize("n", [4, 5, 6])
def test_given_theta_with_its_own_prime_denominators(n):
    # theta entries with large prime denominators of their own, unrelated to
    # the table's: the comparison d_ij * L_theta > theta_ij * bound must
    # agree with the brute force in Fractions, holding just above the
    # minimal table and failing just below it at one pair
    failures = shrinkable = 0
    for seed in range(4):
        entries = random_prime_table(n, seed)
        table = table_from(entries)
        minimal = brute_minimal_theta(entries)
        primes = iter(primes_from(10 ** 7 + 97 * seed, n * n + 1))
        above = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                above[i][j] = above[j][i] = minimal[i][j] + Fraction(
                    1, next(primes))
        i, j = max(((i, j) for i in range(n) for j in range(i + 1, n)),
                   key=lambda pair: minimal[pair[0]][pair[1]])
        below = [list(row) for row in above]
        p = next(primes)
        shrink = Fraction(p - 1, p)
        below[i][j] = below[j][i] = 1 + (minimal[i][j] - 1) * shrink
        shrinkable += minimal[i][j] > 1
        for theta in (above, below):
            given = new_theta_table(table.points, theta)
            assert given.scale > 10 ** 7
            verdict = check_extended_b(table, given)
            assert (verify_as(table, ClassTag.EXTENDED_B_METRIC, given)
                    == verdict)
            expected = brute_first_violation(entries, "sum", theta)
            if expected is None:
                assert verdict.holds
                continue
            failures += 1
            i0, j0, k, lhs, rhs = expected
            assert (i0, j0) == (min(i, j), max(i, j))
            assert verdict.fails
            assert verdict.witness.data == {"i": i0, "j": j0, "k": k,
                                            "theta": theta[i0][j0]}
            assert (verdict.witness.lhs, verdict.witness.rhs) == (lhs, rhs)
        rows = classify_space(table)
        assert rows[ClassTag.WEAK_ULTRAMETRIC].constants == {
            "C_min": brute_weak_ultra_constant(entries)}
        assert rows[ClassTag.B_METRIC].constants == {
            "s_min": brute_b_constant(entries)}
        assert rows[ClassTag.EXTENDED_B_METRIC].constants == {
            "theta_max": max(map(max, minimal))}
        for kind, combine in ((ClassTag.METRIC, "sum"),
                              (ClassTag.ULTRAMETRIC, "max")):
            first = brute_first_violation(entries, combine)
            assert rows[kind].holds is (first is None)
            if first is not None:
                assert rows[kind].witness.data == {
                    "i": first[0], "j": first[1], "k": first[2],
                    "combine": combine}
    assert failures == shrinkable >= 2


def test_minimal_theta_dominates_and_is_tight():
    for seed in range(15):
        entries = random_positive_table(4, seed)
        table = table_from(entries)
        theta = minimal_theta(table)
        assert check_extended_b(table, theta).holds
        # diagonal is the floor value
        assert all(theta.entry(i, i) == 1 for i in range(4))
        # strictly shrinking any entry above 1 must break the bound somewhere
        shrunk = []
        touched = False
        for i in range(4):
            row = []
            for j in range(4):
                v = theta.entry(i, j)
                if v > 1:
                    v = 1 + (v - 1) * Fraction(999, 1000)
                    touched = True
                row.append(v)
            shrunk.append(row)
        if touched:
            names = list(table.points)
            from gmetrix import new_theta_table
            assert check_extended_b(table, new_theta_table(names, shrunk)).fails


def test_minimal_theta_max_matches_b_constant():
    # the largest pointwise bound equals the single scalar bound
    for seed in range(15):
        entries = random_positive_table(5, seed)
        table = table_from(entries)
        assert minimal_theta(table).max_entry() == optimal_b_constant(table)


def test_classify_space_rows():
    table = table_from([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    rows = classify_space(table)
    assert rows[ClassTag.METRIC].holds
    assert rows[ClassTag.ULTRAMETRIC].fails
    assert rows[ClassTag.B_METRIC].holds
    assert rows[ClassTag.B_METRIC].constants["s_min"] == 1
    assert rows[ClassTag.WEAK_ULTRAMETRIC].constants["C_min"] == Fraction(5, 4)
    assert rows[ClassTag.EXTENDED_B_METRIC].holds


def test_classify_space_identity_failure_poisons_all_rows():
    table = table_from([[0, 0], [0, 0]])
    rows = classify_space(table)
    assert all(v.fails for v in rows.values())


def test_verify_as_metric_and_bad_kind():
    table = table_from([[0, 1, 10], [1, 0, 2], [10, 2, 0]])
    assert verify_as(table, ClassTag.METRIC).fails
    assert verify_as(table, ClassTag.B_METRIC).holds
    with pytest.raises(UnsupportedKind):
        verify_as(table, ClassTag.EB)


def test_verify_as_with_explicit_theta():
    table = table_from([[0, 1, 10], [1, 0, 2], [10, 2, 0]])
    generous = constant_theta(list(table.points), 4)
    stingy = constant_theta(list(table.points), 2)
    assert verify_as(table, ClassTag.EXTENDED_B_METRIC, theta=generous).holds
    assert verify_as(table, ClassTag.EXTENDED_B_METRIC, theta=stingy).fails


SPACE_KINDS = [tag for tag in ClassTag if tag.is_space]


def _agreement_tables():
    """Generated spaces of every kind, then small random tables whose
    off-diagonal entries are often 0, so that some fail the identity axiom."""
    for kind in SPACE_KINDS:
        for n in (2, 3, 6):
            for seed in range(4):
                yield random_space(kind, n, seed)[0]
    rng = random.Random("verify-as-agreement")
    for _ in range(300):
        n = rng.randint(2, 5)
        entries = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entries[i][j] = entries[j][i] = Fraction(
                    rng.choice([0, 0, 1, 2, 3, 5, 8]), rng.randint(1, 3))
        yield table_from(entries)


def test_verify_as_agrees_with_classify_space():
    # `space verify --class k` answers with verify_as and `space verify`
    # with classify_space; each kind's verdict must be the same document
    for table in _agreement_tables():
        rows = classify_space(table)
        for kind in SPACE_KINDS:
            assert canonical_dumps(rows[kind].to_json()) == \
                canonical_dumps(verify_as(table, kind).to_json()), \
                (table.entries, kind)


def _counting_kernel(monkeypatch):
    """Patch the kernel to record the combine of each start and of each row
    it yields, and the max-ratio to record each call."""
    bounds, max_ratio = axioms._bounds, axioms._max_ratio
    starts, pulled, ratios = [], [], []

    def counted_bounds(rows, combine):
        starts.append(combine)
        for row in bounds(rows, combine):
            pulled.append(combine)
            yield row

    def counted_max_ratio(rows, bound_rows):
        ratios.append(None)
        return max_ratio(rows, bound_rows)

    monkeypatch.setattr(axioms, "_bounds", counted_bounds)
    monkeypatch.setattr(axioms, "_max_ratio", counted_max_ratio)
    return starts, pulled, ratios


def test_verify_as_stops_the_kernel_at_the_failing_row(monkeypatch):
    # d(p0, p2) = 10 exceeds 1 + 2 in row 0, so one bound row decides
    table = table_from([[0, 1, 10], [1, 0, 2], [10, 2, 0]])
    starts, pulled, ratios = _counting_kernel(monkeypatch)
    assert verify_as(table, ClassTag.METRIC).fails
    assert (starts, pulled, ratios) == (["sum"], ["sum"], [])


def test_classify_space_computes_each_kernel_and_ratio_once(monkeypatch):
    starts, _, ratios = _counting_kernel(monkeypatch)
    for kind in SPACE_KINDS:
        table = random_space(kind, 6, 1)[0]
        starts.clear()
        ratios.clear()
        classify_space(table)
        assert sorted(starts) == ["max", "sum"], kind
        assert len(ratios) == 2, kind


def test_classify_space_lists_kinds_in_class_tag_order():
    # the order in which `space verify` prints them to stderr, also when the
    # identity axiom fails
    for entries in ([[0, 3, 4], [3, 0, 5], [4, 5, 0]], [[0, 0], [0, 0]]):
        assert list(classify_space(table_from(entries))) == SPACE_KINDS


def test_check_extended_b_point_set_mismatch():
    table = table_from([[0, 1], [1, 0]])
    theta = constant_theta(["a", "b"], 2)
    with pytest.raises(PointSetMismatch):
        check_extended_b(table, theta)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_metric_closure_of_int_rows_is_the_shortest_path_table(n):
    for seed in range(10):
        rows = [[int(v) for v in row]
                for row in random_positive_table(n, seed, den=1, hi=40)]
        closed = metric_closure(rows)
        assert closed == brute_shortest_paths(rows)
        assert all(type(v) is int for row in closed for v in row)


def _kernel_tables():
    """3,000 symmetric zero-diagonal int tables with n from 1 to 9, their
    entries from {0..3} (heavy ties, zero off-diagonal entries), every other
    one mixed with values next to 10^30; then every generated kind at
    n = 80."""
    rng = random.Random("kernel-against-brute-force")
    near = [10 ** 30 - 1, 10 ** 30, 10 ** 30 + 1]
    for count in range(3000):
        n = count % 9 + 1
        values = [0, 1, 2, 3] + (near if count % 2 else [])
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(values)
        yield rows
    for kind in SPACE_KINDS:
        yield random_space(kind, 80, 3)[0].rows


def test_kernel_matches_brute_force_bounds():
    for rows in _kernel_tables():
        for combine in ("sum", "max"):
            assert list(axioms._bounds(rows, combine)) == \
                brute_bounds(rows, combine), (rows, combine)


def test_max_ratio_reads_above_the_diagonal_only():
    # callers pass symmetric rows and bounds; here the diagonal and the
    # entries below it would give 7 and 9, above it the largest ratio is 3/2
    rows = [[7, 3, 1], [9, 0, 2], [9, 9, 0]]
    bounds = [[1, 2, 1], [1, 0, 2], [1, 1, 0]]
    assert axioms._max_ratio(rows, bounds) == Fraction(3, 2)


def test_ordered_triples_oracle_shape():
    triples = list(ordered_triples(3))
    # i != j, k unrestricted: 3*2*3 combinations
    assert len(triples) == 18
    assert all(i != j for i, j, _ in triples)
