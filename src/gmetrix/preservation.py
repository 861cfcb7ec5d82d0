"""Pushforwards, preservation checks, class membership, counterexample search.

The membership decision ladder is evidence-honest, and reads each class's
target kind in `model.CLASS_KINDS`:

* necessary screens (amenability, bounded quasi-subadditivity) can refute
  membership outright with a concrete witness;
* sufficient screens certify membership when their grid-verified premises
  fire (monotone route for an extended target, bounded image-triplet route
  for a weak-ultrametric or b-metric target alike);
* everything else stays Inconclusive with the collected evidence.

Scalar divergence refutes a weak-ultrametric or b-metric target and, with
the same witness, an ultrametric one; an extended target stays Inconclusive
because a point-dependent bound table could still exist. B and MB coincide,
but DU is strictly larger and U is not contained in MB (ROADMAP item 16),
so the U and DU answers of the rungs they share with B can be wrong.

The image-triplet scan (last rung, and the search) hands the stream of
plain (a, b, c) tuples to the expression's generated scan
(`RealFn.scanner`). It draws each sample, evaluates its entries in order
with all of `eval_fn`'s checks, scores the images with the formula of
`triplet_constant`, and stops at the first infinite constant; an entry is
evaluated only when the scan reaches it. The ladder and the search read
its one refutation, `_TripletScan.hit`, if it `refutes` the class's target.
Only a search witness becomes a `Triplet`, to be realized in the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, product
from typing import Mapping, Optional

from . import axioms
from .classify import GridSpec, classify_fn, diverged, zero_witness
from .dsl import RealFn, parse_fn
from .errors import (
    NonFinite,
    NonzeroDiagonal,
    PreconditionViolated,
    SourceClassViolated,
    UnsupportedClass,
    exact_text,
)
from .model import (
    CLASS_KINDS,
    ClassTag,
    DistanceTable,
    Verdict,
    Witness,
    constant_theta,
    encode_value,
    fails,
    fields_to_json,
    new_theta_table,
    random_space,
)
from .region import RegionSpec, region_check
from .triplets import (
    PlanarPoint,
    RandomStrategy,
    Sample,
    Triplet,
    is_s_triplet,
    is_theta_triplet,
    mixed_tuples,
    realize_in_plane,
    sample_triplets,
    triplet_constant,
)

# --- pushforward -----------------------------------------------------------------

def _entry_floats(values):
    """Each entry as a float, raised lazily so that an earlier entry's
    evaluation error comes first."""
    for value in values:
        try:
            yield float(value)
        except OverflowError:
            raise NonFinite(exact_text(value), "table entry outside the "
                                               "float range") from None


def pushforward(f: RealFn, table: DistanceTable) -> DistanceTable:
    """Apply f entrywise; exact when the expression allows it.

    Without sqrt, exp, log1p or "^" it runs over rationals
    (`RealFn.exact_runner`), so "abs(x)" reproduces the table bit for bit;
    otherwise in floats converted exactly, where an entry past the float
    range raises NonFinite. Distinct entries run in row-major order; the
    first failing one raises, and a nonzero f(0) surfaces as the
    constructor's NonzeroDiagonal, since the diagonal's image must stay 0.
    """
    distinct = list(dict.fromkeys(chain.from_iterable(table.entries)))
    run = f.exact_runner
    images = (run(distinct) if run is not None
              else map(Fraction, f.runner(_entry_floats(distinct))))
    image_of = dict(zip(distinct, images))
    rows = tuple(tuple(map(image_of.__getitem__, row))
                 for row in table.entries)
    return DistanceTable(table.points, rows)


# --- targeted preservation check ---------------------------------------------------

# image kind -> the kind the input table must already be; the relaxed
# images need only the identity axiom
_SOURCE_KIND = {
    ClassTag.METRIC: ClassTag.METRIC,
    ClassTag.ULTRAMETRIC: ClassTag.ULTRAMETRIC,
    ClassTag.WEAK_ULTRAMETRIC: ClassTag.ULTRAMETRIC,
}


def preserve_check(f: RealFn, table: DistanceTable,
                   target: ClassTag) -> Verdict:
    """Does f carry this concrete table into the target kind?

    The input must satisfy the source axioms the target implies (metric for a
    metric image, ultrametric for the ultra and weak-ultra images, just the
    identity axiom for the relaxed images). The verdict is exact; for the
    relaxed targets it reports the optimal constant of the image. A nonzero
    f(0) fails every target, since the image of d(p, p) = 0 is not 0.
    """
    if not (isinstance(target, ClassTag) and target.is_space):
        raise UnsupportedClass(f"{target!r} is not a space kind")
    source_kind = _SOURCE_KIND.get(target)
    if source_kind is None:
        source_name, source = "identity-passing", axioms.check_identity(table)
    else:
        source_name = source_kind.value
        source = axioms.verify_as(table, source_kind)
    if not source.holds:
        raise SourceClassViolated(
            f"input is not {source_name}: {source.witness.description}")
    try:
        image = pushforward(f, table)
    except NonzeroDiagonal as err:
        p = table.points[err.i]
        return fails(Witness(
            description=(f"f(d({p},{p})) = f(0) = {exact_text(err.value)}, "
                         f"but the image of d({p},{p}) = 0 must be 0"),
            points=(p,), lhs=err.value, rhs=Fraction(0), data={"i": err.i}))
    return axioms.verify_as(image, target)


# --- membership ------------------------------------------------------------------

MEMBER_GRID = GridSpec(x_max=20.0, n_points=10_000, seed=1)


@dataclass(frozen=True)
class Budget:
    """Sampling budget for membership decisions and counterexample search."""

    triplet_samples: int = 100_000
    grid: GridSpec = MEMBER_GRID
    seed: int = 0

    def __post_init__(self) -> None:
        if self.triplet_samples < 1:
            raise PreconditionViolated("triplet_samples must be at least 1")
        # each message names x_max, which sets the scale
        reach = (f"x_max {self.grid.x_max!r} makes the triplet scale "
                 f"{self.scale!r}")
        if math.isinf(2.0 * self.scale):  # b + c reaches twice the scale
            raise PreconditionViolated(
                f"{reach}, which overflows when doubled")
        if self.scale / 20.0 == 0.0:  # the step of mixed_tuples' grid sweep
            raise PreconditionViolated(
                f"{reach}, which underflows when divided by 20")

    @property
    def scale(self) -> float:
        """The triplet scan's scale, the reach of the grid's pair sums;
        GridSpec keeps it positive and finite."""
        return 2.0 * self.grid.x_max

    def to_json(self):
        return {"triplet_samples": self.triplet_samples,
                "grid": self.grid.to_json(),
                "seed": self.seed,
                "scale": self.scale}


class MembershipStatus(Enum):
    MEMBER = "member"
    NON_MEMBER_EVIDENCE = "non-member-evidence"
    INCONCLUSIVE = "inconclusive"


BASIS_AMENABILITY = "necessary-amenability-failed"
BASIS_QUASI = "necessary-quasi-subadditivity-diverged"
BASIS_EB_SUFFICIENT = "sufficient-amenable-increasing-quasi-subadditive"
BASIS_TRIPLET_SUFFICIENT = "sufficient-bounded-image-triplet-constant"
BASIS_TRIPLET_DIVERGENCE = "image-triplet-constant-divergence"

#: the targets whose classes walk the same rungs to the same answer
_RELAXED_TARGETS = (ClassTag.WEAK_ULTRAMETRIC, ClassTag.B_METRIC)


def _require_supported(class_tag: ClassTag, refusal: str) -> None:
    # refusal names the request and takes the tag's value. No rung
    # certifies a metric image, so the ladder answers exactly the classes
    # whose target is not the metric kind: M and BM are refused.
    supported = [tag for tag, (_, target) in CLASS_KINDS.items()
                 if target is not ClassTag.METRIC]
    if class_tag not in supported:
        raise UnsupportedClass(
            refusal.format(getattr(class_tag, "value", class_tag))
            + f" (supported: {', '.join(tag.value for tag in supported)})")


@dataclass(frozen=True)
class MembershipReport:
    class_tag: ClassTag
    status: MembershipStatus
    basis: Optional[str]
    witness: Optional[Witness]
    constants: Mapping[str, object]
    note: Optional[str]
    budget: Budget
    source: str

    def to_json(self):
        return {
            "class": self.class_tag.value,
            "status": self.status.value,
            "basis": self.basis,
            "witness": encode_value(self.witness),
            "constants": encode_value(self.constants),
            "note": self.note,
            "budget": self.budget.to_json(),
            "source": self.source,
        }


@dataclass(frozen=True)
class _TripletScan:
    """What `RealFn.scanner` returns: the sup of the image constants, also
    over samples with an entry above x_max (the top octave) and
    over the rest, the first arg-max and the first infinite constant, each
    as (sample, images)."""

    samples_used: int
    sup: float
    sup_top: float
    sup_below: float
    best: Optional[tuple[Sample, tuple[float, float, float]]]
    infinite: Optional[tuple[Sample, tuple[float, float, float]]]

    @property
    def diverged(self) -> bool:
        return diverged(self.sup, self.sup_top, self.sup_below)

    @property
    def overflowed(self) -> bool:
        # an infinite constant with no image 0 only overflowed the float range
        return self.infinite is not None and 0.0 not in self.infinite[1]

    @property
    def hit(self) -> Optional[tuple[Sample, tuple[float, float, float],
                                    float]]:
        """The scan's refutation as (sample, images, constant), or None:
        the first infinite constant with an image 0, at constant inf, else,
        once the sups diverge, the first arg-max at the sup."""
        if self.infinite is not None:
            return None if self.overflowed else (*self.infinite, math.inf)
        return (*self.best, self.sup) if self.diverged else None

    def refutes(self, target: ClassTag) -> bool:
        """Whether `hit` refutes a class with this target kind: an image 0
        refutes every class, a finite divergence only a scalar bound, since
        a point-dependent bound table could still cover it."""
        hit = self.hit
        return hit is not None and (
            math.isinf(hit[2]) or target is not ClassTag.EXTENDED_B_METRIC)


def _scan_image_triplets(f: RealFn, budget: Budget) -> _TripletScan:
    samples = mixed_tuples(budget.seed, budget.scale)
    return _TripletScan(*f.scanner(islice(samples, budget.triplet_samples),
                                   budget.grid.x_max))


class _Evidence:
    """What the membership ladder reads about one function under one budget:
    its grid profile, whose f values are computed here, and the
    image-triplet scan. The profile's screens, like the scan, run when a
    rung first reads them (the amenability rung reads no pair, and the
    extended class's sufficient route runs no scan). Deciding several
    classes from one record computes each only once."""

    def __init__(self, f: RealFn, budget: Budget):
        self.f = f
        self.budget = budget
        self.profile = classify_fn(f, budget.grid)

    @cached_property
    def scan(self) -> _TripletScan:
        return _scan_image_triplets(self.f, self.budget)


def membership(f: RealFn, class_tag: ClassTag,
               budget: Budget = Budget()) -> MembershipReport:
    """Decide (at grid evidence level) whether f belongs to a function class.

    Supported: each class of `model.CLASS_KINDS` whose target is not the
    metric kind. No rung certifies a metric image, so a class with a metric
    target is rejected with UnsupportedClass.
    """
    _require_supported(class_tag, "membership for {!r} is not decidable here")
    return _decide(class_tag, _Evidence(f, budget))


def _decide(class_tag: ClassTag, evidence: _Evidence) -> MembershipReport:
    profile = evidence.profile
    target = CLASS_KINDS[class_tag][1]

    def report(status, basis, witness, constants, note):
        return MembershipReport(class_tag=class_tag, status=status,
                                basis=basis, witness=witness,
                                constants=dict(constants), note=note,
                                budget=evidence.budget,
                                source=evidence.f.source)

    # ends the note of each rung that refutes the relaxed classes
    transfer = ("; ultrametric preservation sits inside the relaxed classes, "
                "so the refutation transfers" if target is ClassTag.ULTRAMETRIC
                else "")

    if profile.amenable.fails:
        return report(MembershipStatus.NON_MEMBER_EVIDENCE, BASIS_AMENABILITY,
                      profile.amenable.witness, {},
                      "every supported class forces f(0) = 0 and f > 0 elsewhere")
    if profile.quasi_subadditive.fails:
        # quasi-subadditivity is necessary even for the extended class, so
        # this screen refutes all five supported classes; only the weaker
        # image-triplet divergence below stays open for it
        return report(MembershipStatus.NON_MEMBER_EVIDENCE, BASIS_QUASI,
                      profile.quasi_subadditive.witness,
                      profile.quasi_subadditive.constants,
                      "pair ratios f(a+b)/(f(a)+f(b)) diverge, violating the "
                      "quasi-subadditivity every supported class requires"
                      + transfer)

    # amenability holds from here on, so monotonicity is the one premise
    # the sufficient routes still need
    s_estimate = profile.s_star_estimate
    if target is ClassTag.EXTENDED_B_METRIC and profile.increasing.holds:
        # the sufficient route for the extended class needs no triplet scan
        return report(
            MembershipStatus.MEMBER, BASIS_EB_SUFFICIENT, None,
            {"s_star_estimate": s_estimate, "s": max(1.0, s_estimate)},
            "amenable, nondecreasing, and quasi-subadditive on the grid")

    scan = evidence.scan
    constants = {"s_star_estimate": s_estimate,
                 "s_star_triplet": max(1.0, scan.sup),
                 "triplet_samples_used": scan.samples_used}

    if scan.overflowed:
        t, images = scan.infinite
        return report(
            MembershipStatus.INCONCLUSIVE, None, None, constants,
            f"image triplet {t!r} maps to {images!r}, whose relaxation "
            "constant overflows the float range; no image is 0")
    hit = scan.hit
    if hit is not None:
        t, images, constant = hit
        if math.isinf(constant):
            # f vanishes at a positive argument, so amenability fails after
            # all; the zero is sought at b, then c, then a
            x = next(t[i] for i in (1, 2, 0) if images[i] == 0.0)
            return report(
                MembershipStatus.NON_MEMBER_EVIDENCE, BASIS_AMENABILITY,
                zero_witness(x, triplet=t, images=images), constants,
                "image triplet with an infinite relaxation constant")
        witness = Witness(
            description=(f"triangle triplet {t!r} maps to {images!r} with "
                         f"relaxation constant {constant!r}"),
            lhs=max(images), rhs=min(images),
            data={"triplet": t, "images": images, "constant": constant})
        if not scan.refutes(target):
            return report(
                MembershipStatus.INCONCLUSIVE, None, witness, constants,
                "image triplet constants diverge for every scalar bound, but "
                "a point-dependent bound table could still exist")
        return report(MembershipStatus.NON_MEMBER_EVIDENCE,
                      BASIS_TRIPLET_DIVERGENCE, witness, constants,
                      "no scalar bound can cover the sampled image triplets"
                      + transfer)

    if not profile.increasing.holds:
        return report(
            MembershipStatus.INCONCLUSIVE, None, None, constants,
            "sufficient premises not established on the grid "
            "(missing: monotonicity); no refutation found")
    if target in _RELAXED_TARGETS:
        return report(
            MembershipStatus.MEMBER, BASIS_TRIPLET_SUFFICIENT, None,
            {**constants, "s": max(1.0, s_estimate, scan.sup)},
            "image triplet constants plateau; the three relaxed classes "
            "coincide, so one bound serves ultrametric-to-weak, "
            "b-to-b, and metric-to-b preservation alike")
    return report(
        MembershipStatus.INCONCLUSIVE, None, None, constants,
        "screens passed, but no sufficient criterion for ultrametric "
        "preservation is implemented")


# --- counterexample search ----------------------------------------------------------

@dataclass(frozen=True)
class SearchWitness:
    """A sampled triplet whose image admits no scalar relaxation bound,
    together with its planar realization as a concrete three-point space."""

    triplet: tuple[float, float, float]
    images: tuple[float, float, float]
    constant: float  # inf when an image is 0
    u: PlanarPoint
    v: PlanarPoint
    w: PlanarPoint
    samples_used: int
    seed: int

    def to_json(self):
        return {
            "triplet": list(self.triplet),
            "images": list(self.images),
            "constant": encode_value(self.constant),
            "points": {"u": list(self.u.as_tuple()),
                       "v": list(self.v.as_tuple()),
                       "w": list(self.w.as_tuple())},
            "samples_used": self.samples_used,
            "seed": self.seed,
        }


def counterexample_search(f: RealFn, class_tag: ClassTag,
                          budget: Budget = Budget()
                          ) -> Optional[SearchWitness]:
    """Search sampled triangle triplets for an image that refutes the class
    (`_TripletScan.refutes`: an image 0, or a divergence unless the target
    is the extended kind; a constant that only overflows is no witness).

    Absence of a witness is a normal empty return, not evidence of
    membership. A returned witness is realized in the plane, making it a
    concrete three-point metric space whose image violates the relaxation.
    """
    _require_supported(class_tag, "search for {!r} is not supported")
    scan = _scan_image_triplets(f, budget)
    if not scan.refutes(CLASS_KINDS[class_tag][1]):
        return None
    t, images, constant = scan.hit
    u, v, w = realize_in_plane(Triplet(*t))
    return SearchWitness(triplet=t, images=images, constant=constant,
                         u=u, v=v, w=w, samples_used=scan.samples_used,
                         seed=budget.seed)


# --- theorem suite -----------------------------------------------------------------

FUNCTION_CATALOG = (
    ("identity", "x"),
    ("saturating-ratio", "x / (1 + x)"),
    ("unit-clamp", "min(x, 1)"),
    ("square-root", "sqrt(x)"),
    ("square", "x^2"),
    ("exp-minus-one", "exp(x) - 1"),
    ("zero", "0"),
    ("ceiling", "ceil(x)"),
)

_SUBADDITIVE_NAMES = ("identity", "saturating-ratio", "unit-clamp",
                      "square-root", "ceiling")
_MONOTONE_AMENABLE_NAMES = ("identity", "saturating-ratio", "unit-clamp",
                            "square-root", "square", "ceiling")
_POSITIVITY_NAMES = ("saturating-ratio", "unit-clamp", "square-root", "square")
_REFUTED_NAMES = ("exp-minus-one", "zero")


@dataclass(frozen=True)
class SuiteAssertion:
    id: str
    description: str
    passed: bool
    details: Mapping[str, object]

    to_json = fields_to_json


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    assertions: tuple[SuiteAssertion, ...]

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.assertions)

    def to_json(self):
        return {"seed": self.seed, "all_passed": self.all_passed,
                "assertions": [item.to_json() for item in self.assertions]}


def _sweep(kind: ClassTag, per_size: int, first_seed: int):
    """(table, theta) of per_size generated spaces of each size from 2 to 6
    points, seeded in turn from first_seed."""
    return [random_space(kind, n, first_seed + i)
            for i, (n, _) in enumerate(product(range(2, 7), range(per_size)))]


def _run_row(assert_id: str, description: str, cases, check,
             details) -> SuiteAssertion:
    """One suite row: build its cases, check each in order, and pass with
    `details(cases)`, or fail with the first failing case's index and reason.
    Guarded, so a row that raises is a failed entry instead of aborting."""
    try:
        built = cases()
        for i, case in enumerate(built):
            reason = check(case)
            if reason is not None:
                return SuiteAssertion(assert_id, description, False,
                                      {"case": i, "reason": reason})
        return SuiteAssertion(assert_id, description, True, details(built))
    except Exception as err:  # report, never abort
        return SuiteAssertion(assert_id, description, False,
                              {"error": repr(err)})


def theorem_suite(seed: int = 0) -> SuiteReport:
    """Run the cross-checking assertions over generators and the catalog.

    Each assertion is a row: id, description, a thunk that builds its cases,
    a check that returns None or the reason a case fails, and the details
    of a pass. A failed entry's details are the first failing case's index
    and reason, {"case": i, "reason": text}, or {"error": repr} when the row
    raised, so a defect never aborts the suite. Deterministic for a fixed
    seed: identical reports, byte for byte. Within a run, each catalog
    expression is parsed once, and each function's profile and triplet scan
    under one budget, and each generated table, is computed once.
    """
    base = seed * 1000
    catalog = {name: parse_fn(source) for name, source in FUNCTION_CATALOG}
    # the catalog's scan budget; the step function's differs in its seed
    budget = Budget(triplet_samples=6000,
                    grid=GridSpec(x_max=20.0, n_points=1200, seed=seed),
                    seed=base + 800)
    subadditive_grid = GridSpec(x_max=10.0, n_points=600, seed=seed)

    def ultrametric_unit_constant(case):
        table, _theta = case
        if not axioms.check_ultra(table).holds:
            return "ultra axiom"
        if not axioms.check_triangle(table).holds:
            return "triangle"
        if axioms.optimal_weak_ultra_constant(table) != 1:
            return "constant above 1"
        return None

    def metric_unit_relaxation(case):
        table, _theta = case
        if not axioms.check_triangle(table).holds:
            return "triangle"
        if axioms.optimal_b_constant(table) != 1:
            return "relaxation above 1"
        return None

    def scalar_bound_tightness(case):
        table, s = case
        cover = constant_theta(table.points, s)
        if not axioms.check_extended_b(table, cover).holds:
            return "optimal s rejected"
        if s > 1:
            shrunk = 1 + (s - 1) * Fraction(999, 1000)
            below = constant_theta(table.points, shrunk)
            if not axioms.check_extended_b(table, below).fails:
                return "sub-optimal s accepted"
        return None

    def pointwise_bounds_cover(case):
        table, theta, nontrivial = case
        if not axioms.check_extended_b(table, theta).holds:
            return "attached bound rejected"
        if nontrivial:
            rows = [[1 + (v - 1) * Fraction(999, 1000) if v > 1 else v
                     for v in row] for row in theta.entries]
            below = new_theta_table(theta.points, rows)
            if not axioms.check_extended_b(table, below).fails:
                return "shrunk bounds accepted"
        return None

    def subadditive_unit_estimate(name):
        profile = classify_fn(catalog[name], subadditive_grid)
        if not profile.subadditive.holds:
            return f"{name}: subadditivity rejected"
        if profile.s_star_estimate != 1.0:
            return f"{name}: estimate {profile.s_star_estimate}"
        return None

    def scalar_pointwise_agreement(t):
        k = float(triplet_constant(t)) * (1.0 + 1e-12)
        if not is_s_triplet(t, k):
            return "own constant rejected"
        for s in (1.0, 1.5, k, 4.0):
            if is_s_triplet(t, s) != is_theta_triplet(t, s, s, s):
                return f"scalar and pointwise bounds differ at s = {s}"
        return None

    def monotone_preserves_ultra(case):
        name, (table, _theta) = case
        image = pushforward(catalog[name], table)
        if not axioms.check_identity(image).holds:
            return f"{name}: identity axiom"
        if not axioms.check_ultra(image).holds:
            return f"{name}: ultra axiom"
        if axioms.optimal_weak_ultra_constant(image) != 1:
            return f"{name}: constant above 1"
        return None

    def catalog_membership_status(case):
        name, f = case
        # B and EB agree: two catalog functions are refuted, the rest are
        # members
        want = (MembershipStatus.NON_MEMBER_EVIDENCE
                if name in _REFUTED_NAMES else MembershipStatus.MEMBER)
        evidence = _Evidence(f, budget)
        got_b = _decide(ClassTag.B, evidence).status
        got_eb = _decide(ClassTag.EB, evidence).status
        if (got_b, got_eb) != (want, want):
            return (f"{name}: B {got_b.value}, EB {got_eb.value}, "
                    f"expected {want.value}")
        # every certified member must pass the necessary screens
        profile = evidence.profile
        if want is MembershipStatus.MEMBER and (
                not profile.amenable.holds or profile.quasi_subadditive.fails):
            return f"{name}: member fails a necessary screen"
        return None

    def step_function_cases():
        f = parse_fn("piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : 4))")
        evidence = _Evidence(f, replace(budget, seed=base + 900))
        # each relaxed class, then None for the search
        return [(tag, evidence) for tag, (_, target) in CLASS_KINDS.items()
                if target in _RELAXED_TARGETS] + [(None, evidence)]

    def step_function_is_relaxed_member(case):
        tag, evidence = case
        if tag is None:
            if evidence.scan.refutes(ClassTag.B_METRIC):  # what search reads
                return ("search produced a spurious witness, constant "
                        f"{evidence.scan.hit[2]}")
            return None
        rep = _decide(tag, evidence)
        if rep.status is not MembershipStatus.MEMBER:
            return f"{tag.value}: {rep.status.value}"
        if rep.constants.get("s") != 2.0:
            return f"{tag.value}: s = {rep.constants.get('s')}"
        return None

    def ceiling_envelope(name):
        report = region_check(catalog[name],
                              RegionSpec(a=1.0, b=1.0, n_max=10,
                                         samples_per_interval=12))
        if not report.all_hold:
            return f"{name}: {len(report.violations)} envelope violations"
        return None

    def identity_pushforward_exact(case):
        kind, table = case
        if pushforward(catalog["identity"], table).entries != table.entries:
            return f"{kind.value}: image differs"
        return None

    def amenable_preserves_positivity(case):
        name, (table, _theta) = case
        if not axioms.check_identity(pushforward(catalog[name], table)).holds:
            return f"{name}: identity axiom"
        return None

    rows = (
        ("ultrametric-unit-constant",
         "generated ultrametrics satisfy the max inequality with optimal "
         "constant exactly 1 and are metrics in particular",
         lambda: _sweep(ClassTag.ULTRAMETRIC, 40, base),
         ultrametric_unit_constant, lambda cases: {"spaces": len(cases)}),
        ("metric-unit-relaxation",
         "generated metrics satisfy the sum inequality with optimal "
         "relaxation constant exactly 1",
         lambda: _sweep(ClassTag.METRIC, 40, base),
         metric_unit_relaxation, lambda cases: {"spaces": len(cases)}),
        ("scalar-bound-tightness",
         "the optimal scalar relaxation of a generated b-space works as a "
         "constant pointwise bound and shrinking it breaks the space",
         lambda: [(table, axioms.optimal_b_constant(table))
                  for table, _ in _sweep(ClassTag.B_METRIC, 20, base)],
         scalar_bound_tightness,
         lambda cases: {"spaces": len(cases),
                        "nontrivial": sum(s > 1 for _, s in cases)}),
        ("pointwise-bounds-cover",
         "the minimal pointwise bound table attached to generated extended "
         "spaces verifies, and uniformly shrinking its nontrivial entries "
         "fails",
         lambda: [(table, theta, theta.max_entry() > 1) for table, theta
                  in _sweep(ClassTag.EXTENDED_B_METRIC, 20, base)],
         pointwise_bounds_cover,
         lambda cases: {"spaces": len(cases), "shrunk_checked": sum(
             nontrivial for *_, nontrivial in cases)}),
        ("subadditive-unit-estimate",
         "subadditive catalog functions profile with relaxation estimate "
         "exactly 1",
         lambda: _SUBADDITIVE_NAMES, subadditive_unit_estimate,
         lambda cases: {"functions": len(cases)}),
        ("scalar-pointwise-agreement",
         "a scalar relaxation bound and the constant pointwise bound accept "
         "exactly the same sampled triplets",
         lambda: list(sample_triplets(RandomStrategy(seed=base + 500,
                                                     count=500))),
         scalar_pointwise_agreement, lambda cases: {"triplets": len(cases)}),
        ("monotone-preserves-ultrametric",
         "amenable nondecreasing catalog functions push generated "
         "ultrametrics to ultrametrics",
         lambda: list(product(_MONOTONE_AMENABLE_NAMES,
                              _sweep(ClassTag.ULTRAMETRIC, 6, base + 300))),
         monotone_preserves_ultra,
         lambda cases: {"functions": len(_MONOTONE_AMENABLE_NAMES),
                        "spaces_each":
                            len(cases) // len(_MONOTONE_AMENABLE_NAMES)}),
        ("catalog-membership-statuses",
         "membership statuses across the catalog match the known lattice "
         "facts, scalar membership implies extended membership, and every "
         "member passes the necessary screens",
         catalog.items, catalog_membership_status,
         lambda cases: {"functions": len(cases), "screened": sum(
             name not in _REFUTED_NAMES for name, _ in cases)}),
        ("step-function-relaxed-member",
         "the two-level step function lands in all three coinciding relaxed "
         "classes with bound exactly 2, and the search finds no witness "
         "against it",
         step_function_cases, step_function_is_relaxed_member,
         lambda cases: {"classes": 3, "s": 2.0}),
        ("ceiling-envelope",
         "the ceiling function stays inside the staircase envelope grown "
         "from its unit plateau",
         lambda: ("ceiling",), ceiling_envelope,
         lambda cases: {"intervals": 10}),
        ("identity-pushforward-exact",
         "pushing forward along the identity expression reproduces every "
         "table bit for bit",
         lambda: [(kind, random_space(kind, 5, base + 600 + j)[0])
                  for kind in (ClassTag.METRIC, ClassTag.ULTRAMETRIC,
                               ClassTag.WEAK_ULTRAMETRIC, ClassTag.B_METRIC)
                  for j in range(5)],
         identity_pushforward_exact, lambda cases: {"spaces": len(cases)}),
        ("amenable-preserves-positivity",
         "amenable catalog functions keep distinct points at positive "
         "distance after the pushforward",
         lambda: list(product(_POSITIVITY_NAMES,
                              _sweep(ClassTag.METRIC, 6, base + 700))),
         amenable_preserves_positivity,
         lambda cases: {"functions": len(_POSITIVITY_NAMES),
                        "spaces_each": len(cases) // len(_POSITIVITY_NAMES)}),
    )
    return SuiteReport(seed=seed,
                       assertions=tuple(_run_row(*row) for row in rows))
