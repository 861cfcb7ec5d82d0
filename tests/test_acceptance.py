"""Acceptance gate: one test per shipped guarantee, timed at stated limits.

Each test prints `[acceptance] <n> <name>: PASS/FAIL (<t> s)`; under
`pytest -v` the per-test PASSED/FAILED line carries the same information.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

from gmetrix import (
    BASIS_AMENABILITY,
    BASIS_EB_SUFFICIENT,
    BASIS_QUASI,
    BoundaryStrategy,
    Budget,
    ClassTag,
    FUNCTION_CATALOG,
    GridSpec,
    MembershipStatus,
    RandomStrategy,
    RegionSpec,
    Triplet,
    check_extended_b,
    check_triangle,
    constant_theta,
    counterexample_search,
    is_s_triplet,
    is_theta_triplet,
    membership,
    minimal_theta,
    new_distance_table,
    optimal_b_constant,
    optimal_weak_ultra_constant,
    parse_fn,
    preserve_check,
    pushforward,
    random_space,
    realize_in_plane,
    region_check,
    sample_triplets,
)
from gmetrix.cli import main
from gmetrix.errors import ParseError

from oracles import (
    brute_b_constant,
    brute_minimal_theta,
    brute_weak_ultra_constant,
    random_positive_table,
)
from test_dsl import CORPUS, MALFORMED, SAMPLE_XS


@contextmanager
def criterion(num, name, limit_s):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if (failed or elapsed >= limit_s) else "PASS"
        print(f"[acceptance] {num} {name}: {status} ({elapsed:.2f} s)")
    assert elapsed < limit_s, \
        f"runtime {elapsed:.2f} s exceeded the {limit_s} s limit"


def test_criterion_01_constants_match_brute_force():
    with criterion(1, "optimal constants vs brute force", 5.0):
        checked = 0
        for index in range(500):
            n = 2 + index % 4  # n in 2..5
            entries = random_positive_table(n, index)
            names = [f"p{i}" for i in range(n)]
            table = new_distance_table(names, entries)
            assert optimal_b_constant(table) == brute_b_constant(entries)
            assert (optimal_weak_ultra_constant(table)
                    == brute_weak_ultra_constant(entries))
            theta = minimal_theta(table)
            expected = brute_minimal_theta(entries)
            assert all(theta.entry(i, j) == expected[i][j]
                       for i in range(n) for j in range(n))
            checked += 1
        assert checked == 500


def test_criterion_02_lattice_of_space_kinds():
    with criterion(2, "space-kind lattice on 1000 random spaces", 10.0):
        sizes = (2, 3, 4, 5, 6)

        for seed in range(200):
            table, _ = random_space(ClassTag.ULTRAMETRIC,
                                    sizes[seed % 5], seed)
            assert optimal_weak_ultra_constant(table) == 1
            assert check_triangle(table).holds

        for seed in range(200):
            table, _ = random_space(ClassTag.METRIC, sizes[seed % 5], seed)
            assert optimal_b_constant(table) == 1

        for seed in range(200):
            random_space(ClassTag.WEAK_ULTRAMETRIC, sizes[seed % 5], seed)

        # a constant bound table says exactly what a single scalar bound says
        for seed in range(200):
            table, _ = random_space(ClassTag.B_METRIC, sizes[seed % 5], seed)
            points = list(table.points)
            s_min = optimal_b_constant(table)
            assert check_extended_b(table, constant_theta(points, s_min)).holds
            assert check_extended_b(table,
                                    constant_theta(points, s_min + 1)).holds
            if s_min > 1:
                shrunk = 1 + (s_min - 1) * Fraction(999, 1000)
                assert check_extended_b(
                    table, constant_theta(points, shrunk)).fails

        # every distance triple of an extended space is a bound-respecting
        # triplet under the matching bound entries
        for seed in range(200):
            table, theta = random_space(ClassTag.EXTENDED_B_METRIC,
                                        sizes[seed % 5], seed)
            assert theta is not None
            n = table.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if len({i, j, k}) < 3:
                            continue
                        t = Triplet(table.entry(i, j), table.entry(i, k),
                                    table.entry(k, j))
                        assert is_theta_triplet(t, theta.entry(i, j),
                                                theta.entry(i, k),
                                                theta.entry(k, j))


def test_criterion_03_planar_realization():
    with criterion(3, "1000 planar realizations at 1e-9 relative", 1.0):
        count = 0
        for t in sample_triplets(RandomStrategy(seed=42, count=1000)):
            u, v, w = realize_in_plane(t)
            for observed, expected in ((u.distance_to(v), t.a),
                                       (u.distance_to(w), t.b),
                                       (v.distance_to(w), t.c)):
                assert abs(observed - expected) <= 1e-9 * expected
            count += 1
        assert count == 1000


def test_criterion_04_classic_preservation():
    with criterion(4, "classic preservation checks", 5.0):
        subadditive = [parse_fn(s) for s in ("sqrt(x)", "min(x, 1)",
                                             "x / (1 + x)")]
        for seed in range(200):
            table, _ = random_space(ClassTag.METRIC, 2 + seed % 5, seed)
            for f in subadditive:
                assert check_triangle(pushforward(f, table)).holds

        path_space = new_distance_table(
            ["x", "y", "z"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        square = parse_fn("x^2")
        assert preserve_check(square, path_space, ClassTag.METRIC).fails
        relaxed = preserve_check(square, path_space, ClassTag.B_METRIC)
        assert relaxed.holds
        assert relaxed.constants["s_min"] == 2


def test_criterion_05_membership_ladder():
    with criterion(5, "membership ladder flagship calls", 15.0):
        budget = Budget()  # default: 1e5 triplet samples, 1e4 grid points
        assert budget.triplet_samples == 100_000
        assert budget.grid.n_points == 10_000

        start = time.perf_counter()
        square = membership(parse_fn("x^2"), ClassTag.EB, budget)
        assert time.perf_counter() - start < 5.0
        assert square.status is MembershipStatus.MEMBER
        assert square.basis == BASIS_EB_SUFFICIENT
        assert 1.98 <= square.constants["s_star_estimate"] <= 2.02

        start = time.perf_counter()
        exponential = membership(parse_fn("exp(x) - 1"), ClassTag.EB, budget)
        assert time.perf_counter() - start < 5.0
        assert exponential.status is MembershipStatus.NON_MEMBER_EVIDENCE
        assert exponential.basis == BASIS_QUASI
        assert exponential.witness.data["ratio"] > 1e3

        start = time.perf_counter()
        zero = membership(parse_fn("0"), ClassTag.EB, budget)
        assert time.perf_counter() - start < 5.0
        assert zero.status is MembershipStatus.NON_MEMBER_EVIDENCE
        assert zero.basis == BASIS_AMENABILITY


def test_criterion_06_region_envelope(capsys):
    with criterion(6, "staircase envelope checks", 1.0):
        code = main(["region", "check", "ceil(x)",
                     "--a", "1", "--b", "1", "--n", "20"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_hold"] is True
        assert len(doc["intervals"]) == 20

        spec = RegionSpec(a=1.0, b=1.0, n_max=20)
        overshoot = parse_fn("piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : "
                             "piece(x <= 2 ? 3 : ceil(x))))")
        report = region_check(overshoot, spec)
        failing = [item for item in report.intervals if item.verdict.fails]
        assert [item.n for item in failing] == [1]
        assert failing[0].upper == 2.0
        assert failing[0].verdict.witness.data["side"] == "upper"

        undershoot = parse_fn("piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : "
                              "piece(x <= 2 ? 1/4 : ceil(x))))")
        report = region_check(undershoot, spec)
        failing = [item for item in report.intervals if item.verdict.fails]
        assert [item.n for item in failing] == [1]
        assert failing[0].lower == 0.5
        assert failing[0].verdict.witness.data["side"] == "lower"


def test_criterion_07_member_bounds_cover_sampled_triplets():
    with criterion(7, "relaxed-member bounds on 1e5 triplets", 5.0):
        budget = Budget(triplet_samples=10_000,
                        grid=GridSpec(x_max=20.0, n_points=2000, seed=1),
                        seed=0)
        members = {}
        for name, source in FUNCTION_CATALOG:
            report = membership(parse_fn(source), ClassTag.MB, budget)
            if report.status is MembershipStatus.MEMBER:
                members[name] = (parse_fn(source), report.constants["s"])
        assert set(members) == {"identity", "saturating-ratio", "unit-clamp",
                                "square-root", "square", "ceiling"}

        pool = [t.as_tuple() for t in sample_triplets(
            RandomStrategy(seed=4207, count=70_000, scale=40.0))]
        pool += [t.as_tuple() for t in sample_triplets(
            BoundaryStrategy(seed=4208, count=30_000, scale=20.0))]
        assert len(pool) == 100_000

        for name, (f, s) in members.items():
            bound = s * (1.0 + 1e-9)
            images = f.runner(chain.from_iterable(pool))
            for (a, b, c), image in zip(pool, zip(images, images, images)):
                assert is_s_triplet(Triplet(*image), bound), (name, a, b, c)


def test_criterion_08_determinism_and_witness_replay(capsys):
    with criterion(8, "suite determinism and witness replay", 30.0):
        assert main(["suite", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["suite", "--seed", "42"]) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        assert all(item["passed"]
                   for item in json.loads(first)["assertions"])

        # independently recorded witnesses replay to the exact same values
        budget = Budget(triplet_samples=20_000,
                        grid=GridSpec(x_max=20.0, n_points=2000, seed=1),
                        seed=0)
        exponential = parse_fn("exp(x) - 1")

        report = membership(exponential, ClassTag.EB, budget)
        data = report.witness.data
        replayed = (exponential(data["a"] + data["b"])
                    / (exponential(data["a"]) + exponential(data["b"])))
        assert replayed == data["ratio"]

        found = counterexample_search(exponential, ClassTag.B, budget)
        assert found is not None
        assert tuple(exponential(side) for side in found.triplet) == found.images
        if found.constant != math.inf:
            a, b, c = found.images
            assert found.constant == max(a / (b + c), b / (a + c),
                                         c / (a + b))

        overshoot = parse_fn("piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : "
                             "piece(x <= 2 ? 3 : ceil(x))))")
        report = region_check(overshoot, RegionSpec(a=1.0, b=1.0, n_max=3))
        witness = report.intervals[0].verdict.witness
        assert overshoot(witness.data["x"]) == witness.data["value"]
        assert witness.data["value"] > report.intervals[0].upper


def test_criterion_09_expression_corpus():
    with criterion(9, "expression corpus and error positions", 5.0):
        assert len(CORPUS) == 20
        for source, reference in CORPUS:
            f = parse_fn(source)
            for x in SAMPLE_XS:
                got = f(x)
                want = reference(x)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

        assert len(MALFORMED) >= 10
        for source, line, column in MALFORMED:
            try:
                parse_fn(source)
            except ParseError as err:
                assert (err.line, err.column) == (line, column), source
            else:
                raise AssertionError(f"{source!r} parsed but should not")
