"""Pushforwards, targeted preservation, membership, search, and the suite."""

import functools
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gmetrix import (
    BASIS_AMENABILITY,
    BASIS_EB_SUFFICIENT,
    BASIS_QUASI,
    BASIS_TRIPLET_DIVERGENCE,
    BASIS_TRIPLET_SUFFICIENT,
    Budget,
    ClassTag,
    FUNCTION_CATALOG,
    GridSpec,
    MembershipStatus,
    RandomStrategy,
    Triplet,
    canonical_dumps,
    check_identity,
    check_triangle,
    counterexample_search,
    is_s_triplet,
    membership,
    new_distance_table,
    parse_fn,
    preserve_check,
    pushforward,
    random_space,
    sample_triplets,
    theorem_suite,
)
from gmetrix import axioms, dsl, preservation
from gmetrix.cli import main
from gmetrix.errors import (
    DomainError,
    EvalError,
    NonFinite,
    NonzeroDiagonal,
    ParseError,
    PreconditionViolated,
    SourceClassViolated,
    UnsupportedClass,
)
from test_dsl import _expressions

PATH_SPACE = new_distance_table(["x", "y", "z"],
                                [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

# small but sufficient budget; keeps this module well under a second per case
FAST = Budget(triplet_samples=4000,
              grid=GridSpec(x_max=20.0, n_points=1500, seed=1),
              seed=0)


def test_pushforward_identity_is_bit_exact():
    table, _ = random_space(ClassTag.METRIC, 5, 3)
    image = pushforward(parse_fn("x"), table)
    assert image.entries == table.entries
    assert image.points == table.points


def test_pushforward_square_path_space():
    image = pushforward(parse_fn("x^2"), PATH_SPACE)
    assert image.entries[0] == (0, 1, 4)
    assert isinstance(image.entry(0, 2), Fraction)


def test_pushforward_clamp_uses_exact_arithmetic():
    table = new_distance_table(["x", "y"], [[0, "7/4"], ["7/4", 0]])
    image = pushforward(parse_fn("min(x, 1)"), table)
    assert image.entry(0, 1) == 1  # exactly, not 0.999...


def test_pushforward_float_path_converts_exactly():
    table = new_distance_table(["x", "y"], [[0, "9/4"], ["9/4", 0]])
    image = pushforward(parse_fn("sqrt(x)"), table)
    assert image.entry(0, 1) == Fraction(3, 2)  # sqrt(2.25) is exact in floats


def test_pushforward_zero_function_collapses_the_table():
    image = pushforward(parse_fn("0"), PATH_SPACE)
    assert all(v == 0 for row in image.entries for v in row)
    assert check_identity(image).fails


def test_pushforward_nonzero_origin_breaks_the_diagonal():
    with pytest.raises(NonzeroDiagonal):
        pushforward(parse_fn("max(x, 1)"), PATH_SPACE)


#: a collinear metric, d(x, z) = a + b, whose entries no float holds
_A, _B = Fraction(295147, 134653), Fraction(794773, 933489)
COLLINEAR = new_distance_table(["x", "y", "z"], [[0, _A, _A + _B],
                                                 [_A, 0, _B],
                                                 [_A + _B, _B, 0]])


@pytest.mark.parametrize("source", ["x", "abs(x)", "x/1", "x-0", "2*x/2"])
def test_rational_pushforward_keeps_a_collinear_metric(source):
    # each is the identity on [0, inf), so the image is the table itself;
    # an image rounded through floats breaks the equality d(x, z) = a + b
    f = parse_fn(source)
    assert pushforward(f, COLLINEAR).entries == COLLINEAR.entries
    assert preserve_check(f, COLLINEAR, ClassTag.METRIC).holds


def test_pushforward_float_path_rejects_an_entry_past_float_range():
    table = new_distance_table(["x", "y"], [[0, "1e400"], ["1e400", 0]])
    with pytest.raises(NonFinite, match="table entry outside the float range"):
        pushforward(parse_fn("sqrt(x)"), table)
    # the exact path needs no float, so the entry is fine there
    assert pushforward(parse_fn("x + x"), table).entry(0, 1) == 2 * 10 ** 400


def test_pushforward_float_path_fails_at_the_first_bad_entry():
    # distinct entries in row-major order: 0, 7, 1e400, 4
    table = new_distance_table(["x", "y", "z"], [[0, 7, "1e400"],
                                                 [7, 0, 4],
                                                 ["1e400", 4, 0]])
    with pytest.raises(DomainError, match="division by zero"):
        pushforward(parse_fn("sqrt(x) / (x - 7)"), table)
    with pytest.raises(NonFinite, match="table entry outside the float range"):
        pushforward(parse_fn("sqrt(x) / (x - 4)"), table)


def test_budget_rejects_a_scale_whose_double_overflows():
    # the scale is 2 * x_max
    with pytest.raises(PreconditionViolated, match="overflows when doubled"):
        Budget(grid=GridSpec(x_max=5e307))
    assert Budget(grid=GridSpec(x_max=4e307)).scale == 8e307


@pytest.mark.parametrize("fields, message", [
    ({"triplet_samples": 0}, "at least 1"),
    ({"triplet_samples": -1}, "at least 1"),
])
def test_budget_rejects_out_of_range_fields(fields, message):
    # a zero-sample budget would let membership call a function a member
    # after scanning no triplet at all
    with pytest.raises(PreconditionViolated, match=message):
        Budget(**fields)
    assert Budget(triplet_samples=1,
                  grid=GridSpec(x_max=5e-301)).triplet_samples == 1


def test_preserve_square_fails_metric_but_holds_relaxed():
    verdict = preserve_check(parse_fn("x^2"), PATH_SPACE, ClassTag.METRIC)
    assert verdict.fails
    assert verdict.witness.lhs == 4
    relaxed = preserve_check(parse_fn("x^2"), PATH_SPACE, ClassTag.B_METRIC)
    assert relaxed.holds
    assert relaxed.constants["s_min"] == 2
    assert isinstance(relaxed.constants["s_min"], Fraction)


def test_preserve_subadditive_catalog_on_random_metrics():
    for source in ("sqrt(x)", "min(x, 1)", "x / (1 + x)"):
        f = parse_fn(source)
        for seed in range(20):
            table, _ = random_space(ClassTag.METRIC, 5, seed)
            assert preserve_check(f, table, ClassTag.METRIC).holds, source
            assert check_triangle(pushforward(f, table)).holds


def test_preserve_check_validates_the_source():
    violator = new_distance_table(["x", "y", "z"],
                                  [[0, 1, 10], [1, 0, 2], [10, 2, 0]])
    with pytest.raises(SourceClassViolated):
        preserve_check(parse_fn("x"), violator, ClassTag.METRIC)
    with pytest.raises(SourceClassViolated):
        preserve_check(parse_fn("x"), PATH_SPACE, ClassTag.ULTRAMETRIC)
    # relaxed targets only need the identity axiom, so the violator passes
    assert preserve_check(parse_fn("x"), violator, ClassTag.B_METRIC).holds


def test_preserve_with_a_nonzero_origin_fails_every_target():
    # the image of the diagonal is f(0), so the image is no space at all
    for source in ("x + 1", "sqrt(x) + 1"):
        for target in (ClassTag.METRIC, ClassTag.B_METRIC,
                       ClassTag.EXTENDED_B_METRIC):
            verdict = preserve_check(parse_fn(source), PATH_SPACE, target)
            assert verdict.fails, (source, target)
            assert verdict.witness.points == ("x",)
            assert verdict.witness.lhs == 1
            assert verdict.witness.description == (
                "f(d(x,x)) = f(0) = 1, but the image of d(x,x) = 0 must be 0")


def test_preserve_check_rejects_function_class_targets():
    with pytest.raises(UnsupportedClass):
        preserve_check(parse_fn("x"), PATH_SPACE, ClassTag.EB)


def test_square_is_an_extended_member_via_the_sufficient_route():
    report = membership(parse_fn("x^2"), ClassTag.EB, FAST)
    assert report.status is MembershipStatus.MEMBER
    assert report.basis == BASIS_EB_SUFFICIENT
    assert 1.98 <= report.constants["s_star_estimate"] <= 2.02


def test_square_is_a_relaxed_member_via_the_triplet_route():
    report = membership(parse_fn("x^2"), ClassTag.MB, FAST)
    assert report.status is MembershipStatus.MEMBER
    assert report.basis == BASIS_TRIPLET_SUFFICIENT
    assert 1.98 <= report.constants["s"] <= 2.02


def test_exponential_is_refuted_for_every_supported_class():
    for tag in (ClassTag.U, ClassTag.DU, ClassTag.B, ClassTag.MB, ClassTag.EB):
        report = membership(parse_fn("exp(x) - 1"), tag, FAST)
        assert report.status is MembershipStatus.NON_MEMBER_EVIDENCE, tag
        assert report.basis == BASIS_QUASI
        assert report.witness.data["ratio"] > 1e3
    transfer = membership(parse_fn("exp(x) - 1"), ClassTag.U, FAST)
    assert "transfers" in transfer.note


def test_zero_function_is_refuted_by_amenability():
    report = membership(parse_fn("0"), ClassTag.EB, FAST)
    assert report.status is MembershipStatus.NON_MEMBER_EVIDENCE
    assert report.basis == BASIS_AMENABILITY
    assert report.witness.data["x"] == 1.0


def test_ultra_class_has_no_sufficient_route():
    report = membership(parse_fn("sqrt(x)"), ClassTag.U, FAST)
    assert report.status is MembershipStatus.INCONCLUSIVE
    assert report.basis is None


def test_non_monotone_function_is_inconclusive_with_reason():
    report = membership(parse_fn("abs(x - 3)"), ClassTag.B, FAST)
    assert report.status in (MembershipStatus.INCONCLUSIVE,
                             MembershipStatus.NON_MEMBER_EVIDENCE)
    if report.status is MembershipStatus.INCONCLUSIVE:
        assert "monotonicity" in report.note


# The last rungs of the ladder need a function whose grid profile (on
# [0, 20]) passes the screens while the triplet scan (entries up to 40)
# sees something else.
RUNG_BUDGET = Budget(triplet_samples=6000,
                     grid=GridSpec(x_max=20.0, n_points=1200, seed=0), seed=0)
#: vanishes on (30, 35): the scan's images hit 0 at a positive argument
VANISHES_PAST_GRID = "piece(x <= 30 ? x : piece(x < 35 ? 0 : x))"
#: jumps to 1e9 at exactly x = 30, a value only the scan's grid sweep holds
SPIKE_PAST_GRID = "piece(x < 30 ? x : piece(x <= 30 ? 1000000000 : x))"
#: bounded and decreasing past 1, with the same spike at 30
DECREASING_SPIKE = ("piece(x < 30 ? piece(x <= 1 ? x : 1 + 1/x) : "
                    "piece(x <= 30 ? 1000000000 : 1 + 1/x))")
DECREASING = "piece(x <= 1 ? x : 1 + 1/x)"


@pytest.mark.parametrize("tag", [ClassTag.B, ClassTag.U])
def test_an_infinite_image_constant_refutes_amenability(tag):
    report = membership(parse_fn(VANISHES_PAST_GRID), tag, RUNG_BUDGET)
    assert report.status is MembershipStatus.NON_MEMBER_EVIDENCE
    assert report.basis == BASIS_AMENABILITY
    assert report.witness.description == "f(32.0) = 0 although x > 0"
    assert report.witness.data == {"x": 32.0, "triplet": (2.0, 32.0, 32.0),
                                   "images": (2.0, 0.0, 0.0)}
    assert report.note == "image triplet with an infinite relaxation constant"


#: 10^305 past x = 1: the scan's ratio 1e305 / (f(b) + f(c)) overflows to
#: inf at its 7,884th sample although no image is 0
OVERFLOWS = "piece(x <= 1 ? x^30 : 10^305)"


@pytest.mark.parametrize("tag", [ClassTag.B, ClassTag.U])
def test_an_overflowing_image_constant_is_inconclusive(tag):
    budget = Budget(triplet_samples=8000, grid=RUNG_BUDGET.grid, seed=0)
    report = membership(parse_fn(OVERFLOWS), tag, budget)
    assert report.status is MembershipStatus.INCONCLUSIVE
    assert report.basis is None
    assert report.witness is None
    assert report.constants["triplet_samples_used"] == 7884
    assert report.note == (
        "image triplet (1.198146867118881, 0.47845036906222216, "
        "0.7196964980566589) maps to (1e+305, 2.4837439234064807e-10, "
        "5.1818123802510525e-05), whose relaxation constant overflows the "
        "float range; no image is 0")


@pytest.mark.parametrize("tag", [ClassTag.B, ClassTag.MB, ClassTag.U])
def test_diverging_image_constants_refute_the_relaxed_classes(tag):
    report = membership(parse_fn(SPIKE_PAST_GRID), tag, RUNG_BUDGET)
    assert report.status is MembershipStatus.NON_MEMBER_EVIDENCE
    assert report.basis == BASIS_TRIPLET_DIVERGENCE
    assert report.witness.data["triplet"] == (2.0, 28.0, 30.0)
    assert report.witness.data["images"] == (2.0, 28.0, 1e9)
    assert report.witness.data["constant"] == 1e9 / 30.0
    assert report.constants["s_star_triplet"] == 1e9 / 30.0
    assert report.constants["triplet_samples_used"] == 6000
    note = "no scalar bound can cover the sampled image triplets"
    if tag is ClassTag.U:
        note += ("; ultrametric preservation sits inside the relaxed "
                 "classes, so the refutation transfers")
    assert report.note == note


def test_diverging_image_constants_leave_the_extended_class_open():
    report = membership(parse_fn(DECREASING_SPIKE), ClassTag.EB, RUNG_BUDGET)
    assert report.status is MembershipStatus.INCONCLUSIVE
    assert report.basis is None
    assert report.witness.data["triplet"] == (30.0, 40.0, 40.0)
    assert report.witness.data["images"] == (1e9, 1.025, 1.025)
    assert report.witness.data["constant"] == 1e9 / 2.05
    assert report.note == (
        "image triplet constants diverge for every scalar bound, but a "
        "point-dependent bound table could still exist")


@pytest.mark.parametrize("source,tag,samples,status,triplet,constant,used", [
    (VANISHES_PAST_GRID, ClassTag.B, 6000,
     MembershipStatus.NON_MEMBER_EVIDENCE, (2.0, 32.0, 32.0), math.inf, 46),
    (SPIKE_PAST_GRID, ClassTag.B, 6000, MembershipStatus.NON_MEMBER_EVIDENCE,
     (2.0, 28.0, 30.0), 1e9 / 30.0, 6000),
    (DECREASING_SPIKE, ClassTag.EB, 6000, MembershipStatus.INCONCLUSIVE,
     (30.0, 40.0, 40.0), 1e9 / 2.05, 6000),
    (OVERFLOWS, ClassTag.B, 8000, MembershipStatus.INCONCLUSIVE,
     None, None, None),
])
def test_member_and_search_read_one_scan_refutation(source, tag, samples,
                                                    status, triplet,
                                                    constant, used):
    f = parse_fn(source)
    budget = Budget(triplet_samples=samples, grid=RUNG_BUDGET.grid, seed=0)
    report = membership(f, tag, budget)
    found = counterexample_search(f, tag, budget)
    assert report.status is status
    if triplet is None:  # an overflow refutes nothing
        assert report.witness is None
        assert found is None
        return
    data = report.witness.data
    # a zero witness names its x, not the infinite constant
    assert (data["triplet"], data.get("constant", math.inf),
            report.constants["triplet_samples_used"]) \
        == (triplet, constant, used)
    if status is MembershipStatus.INCONCLUSIVE:
        # a finite divergence leaves the extended class open, so the search
        # finds no witness against it either
        assert found is None
        return
    assert (found.triplet, found.images, found.constant, found.samples_used) \
        == (triplet, data["images"], constant, used)


@pytest.mark.parametrize("tag", [ClassTag.B, ClassTag.EB, ClassTag.U,
                                 ClassTag.DU])
def test_unproven_premises_leave_membership_open(tag):
    report = membership(parse_fn(DECREASING), tag, RUNG_BUDGET)
    assert report.status is MembershipStatus.INCONCLUSIVE
    assert report.basis is None
    assert report.witness is None
    assert report.constants["s_star_triplet"] == 1.0
    assert report.note == ("sufficient premises not established on the grid "
                           "(missing: monotonicity); no refutation found")


LADDER_CLASSES = (ClassTag.U, ClassTag.DU, ClassTag.B, ClassTag.MB,
                  ClassTag.EB)


def _ladder_outcomes(f):
    """Each class's report JSON without "class", or the type and message of
    the evaluation error that stopped it, all decided from one evidence
    record. An error of the grid profile stops every class; one of the scan
    stops every class that reaches it."""
    try:
        evidence = preservation._Evidence(f, RUNG_BUDGET)
    except EvalError as err:
        return dict.fromkeys(LADDER_CLASSES, (type(err).__name__, str(err)))
    outcomes = {}
    for tag in LADDER_CLASSES:
        try:
            doc = preservation._decide(tag, evidence).to_json()
        except EvalError as err:
            outcomes[tag] = (type(err).__name__, str(err))
            continue
        del doc["class"]
        outcomes[tag] = doc
    return outcomes


def _status(outcome):
    return outcome["status"] if isinstance(outcome, dict) else None


#: a drawn expression on the grid and another past it, switched at a
#: threshold in (20, 40], where only the triplet scan looks; "x" then "0"
#: passes the grid's screens and vanishes where the scan reaches
_PAST_GRID_PIECES = st.builds(
    lambda op, t, inside, past: f"piece(x {op} {t} ? {inside} : {past})",
    st.sampled_from(["<", "<="]), st.integers(201, 400).map(lambda n: n / 10),
    st.one_of(st.just("x"), _expressions()),
    st.one_of(st.just("0"), _expressions()))


@settings(max_examples=100, deadline=None)
@given(st.one_of(_expressions(), _PAST_GRID_PIECES))
def test_membership_answers_respect_the_class_lattice(source):
    try:
        f = parse_fn(source)
    except ParseError:  # a fraction threshold, or past the piece cap
        assume(False)
    outcomes = _ladder_outcomes(f)
    u, du, b, mb, eb = (outcomes[tag] for tag in LADDER_CLASSES)
    # the three relaxed classes coincide
    assert du == b == mb
    # no sufficient criterion for ultrametric preservation exists here
    assert _status(u) != "member"
    # scalar membership implies extended membership
    if _status(b) == "member":
        assert _status(eb) == "member"
    # a refutation of the extended class refutes every class alike
    if _status(eb) == "non-member-evidence":
        for outcome in outcomes.values():
            assert _status(outcome) == "non-member-evidence"
            assert (outcome["basis"], outcome["witness"]) \
                == (eb["basis"], eb["witness"])


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13: the extended class's sufficient route reads the grid "
    "on [0, x_max] only, while the scan that refutes B reaches 2 x_max"))
def test_an_extended_member_is_refuted_by_no_class_for_amenability():
    # Theorem thEB: every extended member is amenable
    evidence = preservation._Evidence(parse_fn(VANISHES_PAST_GRID),
                                      RUNG_BUDGET)
    refuted = [tag for tag in LADDER_CLASSES
               if preservation._decide(tag, evidence).basis
               == BASIS_AMENABILITY]
    extended = preservation._decide(ClassTag.EB, evidence)
    assert extended.status is not MembershipStatus.MEMBER or not refuted


def test_membership_rejects_undecidable_classes():
    with pytest.raises(UnsupportedClass):
        membership(parse_fn("x"), ClassTag.M, FAST)
    with pytest.raises(UnsupportedClass):
        membership(parse_fn("x"), ClassTag.BM, FAST)
    with pytest.raises(UnsupportedClass):
        membership(parse_fn("x"), ClassTag.METRIC, FAST)


def test_membership_is_deterministic():
    first = membership(parse_fn("x^2"), ClassTag.MB, FAST)
    second = membership(parse_fn("x^2"), ClassTag.MB, FAST)
    assert canonical_dumps(first.to_json()) == canonical_dumps(second.to_json())


def test_membership_report_json_shape():
    doc = membership(parse_fn("x^2"), ClassTag.EB, FAST).to_json()
    assert set(doc) == {"class", "status", "basis", "witness", "constants",
                        "note", "budget", "source"}
    assert doc["class"] == "EB"
    assert doc["status"] == "member"


STEP_SOURCE = "piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : 4))"


def test_step_function_membership_constant_is_exactly_two():
    # jump from 1 to 4 forces s = 2: take a = b near the jump, f(2a) = 4,
    # f(a) + f(b) = 2
    for tag in (ClassTag.DU, ClassTag.B, ClassTag.MB):
        report = membership(parse_fn(STEP_SOURCE), tag, FAST)
        assert report.status is MembershipStatus.MEMBER, tag
        assert report.constants["s"] == 2.0
    assert counterexample_search(parse_fn(STEP_SOURCE), ClassTag.B, FAST) is None


_OPEN = ("inconclusive", None)
_BY_MONOTONE = ("member", "sufficient-amenable-increasing-quasi-subadditive")
_BY_TRIPLETS = ("member", "sufficient-bounded-image-triplet-constant")
_NOT_AMENABLE = ("non-member-evidence", "necessary-amenability-failed")
_NOT_QUASI = ("non-member-evidence", "necessary-quasi-subadditivity-diverged")
_DIVERGES = ("non-member-evidence", "image-triplet-constant-divergence")

#: membership's (status, basis) at RUNG_BUDGET for U, DU, B, MB and EB, in
#: that order, for the catalog and the rung expressions
PINNED_ANSWERS = {
    "x": (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
    "x / (1 + x)":
        (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
    "min(x, 1)":
        (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
    "sqrt(x)": (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
    "x^2": (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
    "exp(x) - 1":
        (_NOT_QUASI, _NOT_QUASI, _NOT_QUASI, _NOT_QUASI, _NOT_QUASI),
    "0": (_NOT_AMENABLE, _NOT_AMENABLE, _NOT_AMENABLE, _NOT_AMENABLE,
          _NOT_AMENABLE),
    "ceil(x)": (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
    VANISHES_PAST_GRID: (_NOT_AMENABLE, _NOT_AMENABLE, _NOT_AMENABLE,
                         _NOT_AMENABLE, _BY_MONOTONE),
    SPIKE_PAST_GRID: (_DIVERGES, _DIVERGES, _DIVERGES, _DIVERGES,
                      _BY_MONOTONE),
    DECREASING_SPIKE: (_DIVERGES, _DIVERGES, _DIVERGES, _DIVERGES, _OPEN),
    DECREASING: (_OPEN, _OPEN, _OPEN, _OPEN, _OPEN),
    OVERFLOWS: (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
    STEP_SOURCE:
        (_OPEN, _BY_TRIPLETS, _BY_TRIPLETS, _BY_TRIPLETS, _BY_MONOTONE),
}

#: sha256 over the transcript that test_every_ladder_answer_is_pinned builds
PINNED_TRANSCRIPT_SHA256 = (
    "429a553ac982d5d7fe235afb60e1217c4e2f1346ca6ae0719932a73fd67cee62")


def _result_or_refusal(run, f, tag):
    try:
        return run(f, tag, RUNG_BUDGET)
    except UnsupportedClass as err:
        return str(err)


@functools.cache
def _pinned_runs():
    """{(source, tag): (membership, search)} for every expression of
    PINNED_ANSWERS under every function class, in ClassTag order, at
    RUNG_BUDGET; each run is its result, or, for M and BM, its
    UnsupportedClass message. Computed once for the tests that read it."""
    runs = {}
    for source in PINNED_ANSWERS:
        f = parse_fn(source)
        for tag in ClassTag:
            if tag.is_function_class:
                runs[source, tag] = tuple(
                    _result_or_refusal(run, f, tag)
                    for run in (membership, counterexample_search))
    return runs


def test_every_ladder_answer_is_pinned():
    """Every run of `_pinned_runs`, in order, adds its canonical JSON or its
    refusal message to one transcript. PINNED_ANSWERS was taken before the
    class definitions became one table, and the hash again when search
    began to read its class. A change that alters an answer on purpose
    (ROADMAP items 13, 16 and 20) updates PINNED_ANSWERS and the hash, and
    lists each changed answer in CHANGES.md."""
    answers, digest = {}, hashlib.sha256()
    for (source, _tag), (report, found) in _pinned_runs().items():
        row = answers.setdefault(source, ())
        if not isinstance(report, str):
            answers[source] = row + ((report.status.value, report.basis),)
        for result in (report, found):
            digest.update((result if isinstance(result, str)
                           else canonical_dumps(result)).encode())
    assert answers == PINNED_ANSWERS
    assert digest.hexdigest() == PINNED_TRANSCRIPT_SHA256


@pytest.mark.parametrize("source, tag", [
    pytest.param(source, tag, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 13: the extended class's sufficient route reads the "
        "grid on [0, x_max] only, while the scan finds f(32) = 0"))
        if (source, tag) == (VANISHES_PAST_GRID, ClassTag.EB) else ())
    for source in PINNED_ANSWERS for tag in LADDER_CLASSES])
def test_a_member_answer_meets_no_search_witness(source, tag):
    report, found = _pinned_runs()[source, tag]
    assert report.status is not MembershipStatus.MEMBER or found is None


def test_search_finds_and_realizes_an_exponential_witness():
    witness = counterexample_search(parse_fn("exp(x) - 1"), ClassTag.B, FAST)
    assert witness is not None
    assert witness.constant > 1e6 or witness.constant == math.inf
    assert witness.samples_used <= FAST.triplet_samples
    assert witness.seed == FAST.seed
    # the witness is a live three-point space: sides match the triplet
    a, b, c = witness.triplet
    assert witness.u.distance_to(witness.v) == pytest.approx(a, rel=1e-9)
    assert witness.u.distance_to(witness.w) == pytest.approx(b, rel=1e-9)
    assert witness.v.distance_to(witness.w) == pytest.approx(c, rel=1e-9)
    # and the recorded images re-evaluate exactly
    f = parse_fn("exp(x) - 1")
    assert tuple(f(v) for v in (a, b, c)) == witness.images


def test_search_is_deterministic_and_clean_for_members():
    first = counterexample_search(parse_fn("exp(x) - 1"), ClassTag.B, FAST)
    second = counterexample_search(parse_fn("exp(x) - 1"), ClassTag.B, FAST)
    assert canonical_dumps(first.to_json()) == canonical_dumps(second.to_json())
    assert counterexample_search(parse_fn("x"), ClassTag.B, FAST) is None


def test_relaxed_member_bound_covers_sampled_image_triplets():
    report = membership(parse_fn("x^2"), ClassTag.MB, FAST)
    s = report.constants["s"]
    f = parse_fn("x^2")
    slack = s * (1.0 + 1e-9)
    for t in sample_triplets(RandomStrategy(seed=99, count=2000, scale=40.0)):
        image = Triplet(f(t.a), f(t.b), f(t.c))
        assert is_s_triplet(image, slack)


def test_catalog_names_are_unique_and_parse():
    names = [name for name, _ in FUNCTION_CATALOG]
    assert len(names) == len(set(names)) == 8
    for _, source in FUNCTION_CATALOG:
        parse_fn(source)


def test_theorem_suite_passes_and_is_deterministic():
    first = theorem_suite(seed=7)
    second = theorem_suite(seed=7)
    assert first.all_passed, [a.id for a in first.assertions if not a.passed]
    assert canonical_dumps(first.to_json()) == canonical_dumps(second.to_json())
    assert len(first.assertions) == 12


def test_theorem_suite_computes_each_input_once(monkeypatch):
    calls = {name: Counter() for name in
             ("parse_fn", "classify_fn", "_scan_image_triplets",
              "random_space")}

    def counting(name, key):
        inner = getattr(preservation, name)

        def wrapper(*args):
            calls[name][key(*args)] += 1
            return inner(*args)
        monkeypatch.setattr(preservation, name, wrapper)

    counting("parse_fn", lambda source: source)
    counting("classify_fn", lambda f, grid: (f.source, grid))
    counting("_scan_image_triplets", lambda f, budget: (f.source, budget))
    counting("random_space", lambda kind, n, seed: (kind, n, seed))
    assert theorem_suite(seed=0).all_passed
    # 8 + 1 expressions, 5 + 8 + 1 profiles, 6 + 1 scans, 200 + 200 + 100 +
    # 100 + 20 + 30 + 30 tables; each distinct argument tuple exactly once
    assert {name: (len(c), max(c.values())) for name, c in calls.items()} \
        == {"parse_fn": (9, 1), "classify_fn": (14, 1),
            "_scan_image_triplets": (7, 1), "random_space": (680, 1)}


def test_theorem_suite_compiles_each_scanner_at_most_once(monkeypatch):
    compiled = Counter()
    emit_scan = dsl._emit_scan

    def counting(check, fx):
        compiled[check, fx] += 1  # one checked body per tree here
        return emit_scan(check, fx)

    monkeypatch.setitem(dsl._TEMPLATES, "scan", counting)
    dsl._generated.cache_clear()  # so no scanner comes from earlier tests
    assert theorem_suite(seed=0).all_passed
    # one scanner for each of the suite's 7 scans, none compiled twice
    assert (len(compiled), max(compiled.values())) == (7, 1)


@pytest.mark.parametrize("name,source", FUNCTION_CATALOG)
def test_shared_evidence_decides_like_fresh_membership(name, source):
    # the suite's catalog budget at seed 0
    budget = Budget(triplet_samples=6000,
                    grid=GridSpec(x_max=20.0, n_points=1200, seed=0),
                    seed=800)
    f = parse_fn(source)
    evidence = preservation._Evidence(f, budget)
    # the extended class first and last: before and after the scan ran
    for tag in (ClassTag.EB, ClassTag.U, ClassTag.DU, ClassTag.B,
                ClassTag.MB, ClassTag.EB):
        shared = preservation._decide(tag, evidence)
        fresh = membership(f, tag, budget)
        assert canonical_dumps(shared.to_json()) \
            == canonical_dumps(fresh.to_json())


def test_theorem_suite_reports_failures_without_aborting(capsys, monkeypatch):
    # a wrong constant fails two assertions and a raising region check a
    # third; the suite reports all three, passes the other nine, and the
    # command exits 1
    def broken(*args):
        raise RuntimeError("region check broke")

    monkeypatch.setattr(axioms, "optimal_weak_ultra_constant", lambda t: 2)
    monkeypatch.setattr(preservation, "region_check", broken)
    assert main(["suite", "--seed", "0"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = {item["id"]: item["details"] for item in doc["assertions"]
              if not item["passed"]}
    assert failed == {
        "ultrametric-unit-constant": {"case": 0,
                                      "reason": "constant above 1"},
        "monotone-preserves-ultrametric": {
            "case": 0, "reason": "identity: constant above 1"},
        "ceiling-envelope": {
            "error": repr(RuntimeError("region check broke"))},
    }
    assert len(doc["assertions"]) == 12
    assert doc["all_passed"] is False


def test_theorem_suite_reports_every_row_failing(capsys, monkeypatch):
    # a defect in what each row checks: every row fails at its first case,
    # 0, with a reason (the test above reaches the error shape), and the
    # command exits 1
    bent = new_distance_table(["x", "y", "z"],
                              [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    collapsed = new_distance_table(["x", "y"], [[0, 0], [0, 0]])
    failing = check_triangle(bent)
    assert failing.fails and check_identity(collapsed).fails
    classify_fn = preservation.classify_fn
    region_check = preservation.region_check
    # every function profiles as this one, which is not subadditive and
    # which the screens refute; every region check runs on a spike
    superadditive = parse_fn("exp(x) - 1")
    spike = parse_fn("piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : 100))")
    for name in ("check_ultra", "check_triangle", "check_extended_b"):
        monkeypatch.setattr(axioms, name, lambda *args: failing)
    monkeypatch.setattr(preservation, "is_s_triplet", lambda *args: False)
    monkeypatch.setattr(preservation, "classify_fn",
                        lambda f, grid: classify_fn(superadditive, grid))
    monkeypatch.setattr(preservation, "pushforward",
                        lambda f, table: collapsed)
    monkeypatch.setattr(preservation, "region_check",
                        lambda f, spec: region_check(spike, spec))
    assert main(["suite", "--seed", "0"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["assertions"]) == 12
    for item in doc["assertions"]:
        details = item["details"]
        assert not item["passed"], item["id"]
        assert set(details) == {"case", "reason"}, item
        assert details["case"] == 0, item
        assert isinstance(details["reason"], str) and details["reason"], item
