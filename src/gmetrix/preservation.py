"""Pushforwards, preservation checks, class membership, counterexample search.

The membership decision ladder is evidence-honest:

* necessary screens (amenability, bounded quasi-subadditivity) can refute
  membership outright with a concrete witness;
* sufficient screens certify membership when their grid-verified premises
  fire (monotone route for the extended class, bounded image-triplet route
  for the three coinciding relaxed classes);
* everything else stays Inconclusive with the collected evidence.

Scalar divergence refutes the relaxed classes and, through the inclusion of
ultrametric preservation in them, the ultrametric class too; for the extended
class it stays Inconclusive because a point-dependent bound table could still
exist.

The image-triplet scan (last rung, and the search) hands the stream of
plain (a, b, c) tuples to the expression's generated scan
(`RealFn.scanner`). It draws each sample, evaluates its entries in order
with all of `eval_fn`'s checks, scores the images with the formula of
`triplet_constant`, and stops at the first infinite constant; an entry is
evaluated only when the scan reaches it. Only a search witness becomes a
`Triplet`, to be realized in the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    ClassTag,
    DistanceTable,
    Verdict,
    Witness,
    constant_theta,
    encode_value,
    fails,
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
    scale: Optional[float] = None  # triplet entry scale; default 2 * x_max

    def __post_init__(self) -> None:
        if self.triplet_samples < 1:
            raise PreconditionViolated("triplet_samples must be at least 1")
        scale = self.effective_scale()
        if not (scale > 0 and math.isfinite(scale)):
            raise PreconditionViolated(
                f"triplet scale {scale!r} must be positive and finite")
        if math.isinf(2.0 * scale):  # the sampler adds two entries up to scale
            raise PreconditionViolated(
                f"triplet scale {scale!r} overflows when doubled")
        if scale / 20.0 == 0.0:  # the step of mixed_tuples' grid sweep
            raise PreconditionViolated(
                f"triplet scale {scale!r} underflows when divided by 20")

    def effective_scale(self) -> float:
        return self.scale if self.scale is not None else 2.0 * self.grid.x_max

    def to_json(self):
        return {"triplet_samples": self.triplet_samples,
                "grid": self.grid.to_json(),
                "seed": self.seed,
                "scale": self.effective_scale()}


class MembershipStatus(Enum):
    MEMBER = "member"
    NON_MEMBER_EVIDENCE = "non-member-evidence"
    INCONCLUSIVE = "inconclusive"


BASIS_AMENABILITY = "necessary-amenability-failed"
BASIS_QUASI = "necessary-quasi-subadditivity-diverged"
BASIS_EB_SUFFICIENT = "sufficient-amenable-increasing-quasi-subadditive"
BASIS_TRIPLET_SUFFICIENT = "sufficient-bounded-image-triplet-constant"
BASIS_TRIPLET_DIVERGENCE = "image-triplet-constant-divergence"

_SUPPORTED_CLASSES = frozenset(
    {ClassTag.U, ClassTag.DU, ClassTag.B, ClassTag.MB, ClassTag.EB})
_RELAXED_TRIO = frozenset({ClassTag.DU, ClassTag.B, ClassTag.MB})


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
            "witness": None if self.witness is None else self.witness.to_json(),
            "constants": encode_value(self.constants),
            "note": self.note,
            "budget": self.budget.to_json(),
            "source": self.source,
        }


@dataclass(frozen=True)
class _TripletScan:
    """What `RealFn.scanner` returns: the sup of the image constants, also
    over samples with an entry above half the scale (the top octave) and
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


def _scan_image_triplets(f: RealFn, budget: Budget) -> _TripletScan:
    scale = budget.effective_scale()
    return _TripletScan(*f.scanner(
        islice(mixed_tuples(budget.seed, scale), budget.triplet_samples),
        scale / 2.0))


class _Evidence:
    """What the membership ladder reads about one function under one budget:
    its grid profile, and the image-triplet scan, run when a rung first
    needs it (the extended class's sufficient route never does). Deciding
    several classes from one record computes each only once."""

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

    Supported classes: U, DU, B, MB, EB. The metric-to-metric and
    b-metric-to-metric classes have no implemented sufficient test and are
    rejected with UnsupportedClass.
    """
    if class_tag not in _SUPPORTED_CLASSES:
        raise UnsupportedClass(
            f"membership for {getattr(class_tag, 'value', class_tag)!r} "
            "is not decidable here (supported: U, DU, B, MB, EB)")
    return _decide(class_tag, _Evidence(f, budget))


def _decide(class_tag: ClassTag, evidence: _Evidence) -> MembershipReport:
    profile = evidence.profile

    def report(status, basis, witness, constants, note):
        return MembershipReport(class_tag=class_tag, status=status,
                                basis=basis, witness=witness,
                                constants=dict(constants), note=note,
                                budget=evidence.budget,
                                source=evidence.f.source)

    # ends the note of each rung that refutes the relaxed classes
    transfer = ("; ultrametric preservation sits inside the relaxed classes, "
                "so the refutation transfers" if class_tag is ClassTag.U
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
    if class_tag is ClassTag.EB and profile.increasing.holds:
        # the sufficient route for the extended class needs no triplet scan
        return report(
            MembershipStatus.MEMBER, BASIS_EB_SUFFICIENT, None,
            {"s_star_estimate": s_estimate, "s": max(1.0, s_estimate)},
            "amenable, nondecreasing, and quasi-subadditive on the grid")

    scan = evidence.scan
    constants = {"s_star_estimate": s_estimate,
                 "s_star_triplet": max(1.0, scan.sup),
                 "triplet_samples_used": scan.samples_used}

    if scan.infinite is not None:
        # f vanishes at a positive argument, so amenability fails after all
        t, images = scan.infinite
        witness = zero_witness(t[1] if images[1] == 0.0 else t[2],
                               triplet=t, images=images)
        return report(MembershipStatus.NON_MEMBER_EVIDENCE, BASIS_AMENABILITY,
                      witness, constants,
                      "image triplet with an infinite relaxation constant")
    if scan.diverged:
        t, images = scan.best
        witness = Witness(
            description=(f"triangle triplet {t!r} maps to {images!r} with "
                         f"relaxation constant {scan.sup!r}"),
            lhs=max(images), rhs=min(images),
            data={"triplet": t, "images": images, "constant": scan.sup})
        if class_tag is ClassTag.EB:
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
    if class_tag in _RELAXED_TRIO:
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
    constant: float  # math.inf when the image denominator vanishes
    u: PlanarPoint
    v: PlanarPoint
    w: PlanarPoint
    samples_used: int
    seed: int

    def to_json(self):
        return {
            "triplet": list(self.triplet),
            "images": list(self.images),
            "constant": "inf" if self.constant == math.inf else self.constant,
            "points": {"u": list(self.u.as_tuple()),
                       "v": list(self.v.as_tuple()),
                       "w": list(self.w.as_tuple())},
            "samples_used": self.samples_used,
            "seed": self.seed,
        }


def counterexample_search(f: RealFn, class_tag: ClassTag,
                          budget: Budget = Budget()
                          ) -> Optional[SearchWitness]:
    """Search sampled triangle triplets for an image that defeats every
    scalar bound (divergence across scale octaves, or an infinite constant).

    Absence of a witness is a normal empty return, not evidence of
    membership. A returned witness is realized in the plane, making it a
    concrete three-point metric space whose image violates the relaxation.
    """
    if class_tag not in _SUPPORTED_CLASSES:
        raise UnsupportedClass(
            f"search for {getattr(class_tag, 'value', class_tag)!r} "
            "is not supported (supported: U, DU, B, MB, EB)")
    return _search_witness(_scan_image_triplets(f, budget), budget.seed)


def _search_witness(scan: _TripletScan, seed: int) -> Optional[SearchWitness]:
    if scan.infinite is not None:
        t, images = scan.infinite
        constant = math.inf
    elif scan.diverged:
        t, images = scan.best
        constant = scan.sup
    else:
        return None
    u, v, w = realize_in_plane(Triplet(*t))
    return SearchWitness(triplet=t, images=images, constant=constant,
                         u=u, v=v, w=w, samples_used=scan.samples_used,
                         seed=seed)


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


@dataclass(frozen=True)
class SuiteAssertion:
    id: str
    description: str
    passed: bool
    details: Mapping[str, object]

    def to_json(self):
        return {"id": self.id, "description": self.description,
                "passed": self.passed, "details": encode_value(self.details)}


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


def _generated_tables(kind: ClassTag, first_seed: int) -> list[DistanceTable]:
    """Six generated tables of each size from 2 to 6 points, seeded in turn
    from first_seed; built once and shared by every function a check runs."""
    return [random_space(kind, n, first_seed + i)[0]
            for i, (n, _) in enumerate(product(range(2, 7), range(6)))]


def theorem_suite(seed: int = 0) -> SuiteReport:
    """Run the cross-checking assertions over generators and the catalog.

    Deterministic for a fixed seed: identical reports, byte for byte. Each
    assertion runs guarded, so a defect shows up as a failed entry instead of
    aborting the suite. Within a run, each catalog expression is parsed
    once, and each function's profile and triplet scan under one budget, and
    each generated table, is computed once.
    """
    base = seed * 1000
    catalog = {name: parse_fn(source) for name, source in FUNCTION_CATALOG}
    checks: list[SuiteAssertion] = []

    def run(assert_id: str, description: str, body) -> None:
        try:
            passed, details = body()
        except Exception as err:  # report, never abort
            passed, details = False, {"error": repr(err)}
        checks.append(SuiteAssertion(assert_id, description, bool(passed),
                                     dict(details)))

    def ultrametrics_unit_constant():
        for i, (n, _) in enumerate(product(range(2, 7), range(40))):
            table, _theta = random_space(ClassTag.ULTRAMETRIC, n, base + i)
            if not axioms.check_ultra(table).holds:
                return False, {"space": i, "reason": "ultra axiom"}
            if not axioms.check_triangle(table).holds:
                return False, {"space": i, "reason": "triangle"}
            if axioms.optimal_weak_ultra_constant(table) != 1:
                return False, {"space": i, "reason": "constant above 1"}
        return True, {"spaces": 200}

    run("ultrametric-unit-constant",
        "generated ultrametrics satisfy the max inequality with optimal "
        "constant exactly 1 and are metrics in particular",
        ultrametrics_unit_constant)

    def metrics_unit_relaxation():
        for i, (n, _) in enumerate(product(range(2, 7), range(40))):
            table, _theta = random_space(ClassTag.METRIC, n, base + i)
            if not axioms.check_triangle(table).holds:
                return False, {"space": i, "reason": "triangle"}
            if axioms.optimal_b_constant(table) != 1:
                return False, {"space": i, "reason": "relaxation above 1"}
        return True, {"spaces": 200}

    run("metric-unit-relaxation",
        "generated metrics satisfy the sum inequality with optimal "
        "relaxation constant exactly 1",
        metrics_unit_relaxation)

    def scalar_bound_tightness():
        nontrivial = 0
        for i, (n, _) in enumerate(product(range(2, 7), range(20))):
            table, _theta = random_space(ClassTag.B_METRIC, n, base + i)
            s = axioms.optimal_b_constant(table)
            cover = constant_theta(table.points, s)
            if not axioms.check_extended_b(table, cover).holds:
                return False, {"space": i, "reason": "optimal s rejected"}
            if s > 1:
                nontrivial += 1
                shrunk = 1 + (s - 1) * Fraction(999, 1000)
                below = constant_theta(table.points, shrunk)
                if not axioms.check_extended_b(table, below).fails:
                    return False, {"space": i,
                                   "reason": "sub-optimal s accepted"}
        return True, {"spaces": 100, "nontrivial": nontrivial}

    run("scalar-bound-tightness",
        "the optimal scalar relaxation of a generated b-space works as a "
        "constant pointwise bound and shrinking it breaks the space",
        scalar_bound_tightness)

    def pointwise_bounds_cover():
        shrunk_checked = 0
        for i, (n, _) in enumerate(product(range(2, 7), range(20))):
            table, theta = random_space(ClassTag.EXTENDED_B_METRIC, n,
                                        base + i)
            if not axioms.check_extended_b(table, theta).holds:
                return False, {"space": i, "reason": "attached bound rejected"}
            if theta.max_entry() > 1:
                shrunk_checked += 1
                rows = [[1 + (v - 1) * Fraction(999, 1000) if v > 1 else v
                         for v in row] for row in theta.entries]
                below = new_theta_table(theta.points, rows)
                if not axioms.check_extended_b(table, below).fails:
                    return False, {"space": i,
                                   "reason": "shrunk bounds accepted"}
        return True, {"spaces": 100, "shrunk_checked": shrunk_checked}

    run("pointwise-bounds-cover",
        "the minimal pointwise bound table attached to generated extended "
        "spaces verifies, and uniformly shrinking its nontrivial entries "
        "fails",
        pointwise_bounds_cover)

    def subadditive_unit_estimate():
        grid = GridSpec(x_max=10.0, n_points=600, seed=seed)
        for name in _SUBADDITIVE_NAMES:
            profile = classify_fn(catalog[name], grid)
            if not profile.subadditive.holds:
                return False, {"fn": name, "reason": "subadditivity rejected"}
            if profile.s_star_estimate != 1.0:
                return False, {"fn": name,
                               "estimate": profile.s_star_estimate}
        return True, {"functions": len(_SUBADDITIVE_NAMES)}

    run("subadditive-unit-estimate",
        "subadditive catalog functions profile with relaxation estimate "
        "exactly 1",
        subadditive_unit_estimate)

    def scalar_pointwise_agreement():
        triplets = list(sample_triplets(RandomStrategy(seed=base + 500,
                                                       count=500)))
        for t in triplets:
            k = float(triplet_constant(t)) * (1.0 + 1e-12)
            if not is_s_triplet(t, k):
                return False, {"triplet": t.as_tuple(),
                               "reason": "own constant rejected"}
            for s in (1.0, 1.5, k, 4.0):
                if is_s_triplet(t, s) != is_theta_triplet(t, s, s, s):
                    return False, {"triplet": t.as_tuple(), "s": s}
        return True, {"triplets": len(triplets)}

    run("scalar-pointwise-agreement",
        "a scalar relaxation bound and the constant pointwise bound accept "
        "exactly the same sampled triplets",
        scalar_pointwise_agreement)

    def monotone_preserves_ultra():
        tables = _generated_tables(ClassTag.ULTRAMETRIC, base + 300)
        for name in _MONOTONE_AMENABLE_NAMES:
            f = catalog[name]
            for i, table in enumerate(tables):
                image = pushforward(f, table)
                if not axioms.check_identity(image).holds:
                    return False, {"fn": name, "space": i,
                                   "reason": "identity"}
                if not axioms.check_ultra(image).holds:
                    return False, {"fn": name, "space": i, "reason": "ultra"}
                if axioms.optimal_weak_ultra_constant(image) != 1:
                    return False, {"fn": name, "space": i,
                                   "reason": "constant above 1"}
        return True, {"functions": len(_MONOTONE_AMENABLE_NAMES),
                      "spaces_each": 30}

    run("monotone-preserves-ultrametric",
        "amenable nondecreasing catalog functions push generated "
        "ultrametrics to ultrametrics",
        monotone_preserves_ultra)

    def catalog_membership_statuses():
        budget = Budget(triplet_samples=6000,
                        grid=GridSpec(x_max=20.0, n_points=1200, seed=seed),
                        seed=base + 800)
        member = MembershipStatus.MEMBER
        refuted = MembershipStatus.NON_MEMBER_EVIDENCE
        expected = {
            "identity": (member, member),
            "saturating-ratio": (member, member),
            "unit-clamp": (member, member),
            "square-root": (member, member),
            "square": (member, member),
            "exp-minus-one": (refuted, refuted),
            "zero": (refuted, refuted),
            "ceiling": (member, member),
        }
        screened = 0
        for name, (want_b, want_eb) in expected.items():
            evidence = _Evidence(catalog[name], budget)
            got_b = _decide(ClassTag.B, evidence).status
            got_eb = _decide(ClassTag.EB, evidence).status
            if (got_b, got_eb) != (want_b, want_eb):
                return False, {"fn": name,
                               "b": got_b.value, "eb": got_eb.value,
                               "expected_b": want_b.value,
                               "expected_eb": want_eb.value}
            if got_b is member and got_eb is not member:
                return False, {"fn": name,
                               "reason": "b membership without extended"}
            if member in (got_b, got_eb):
                # every certified member must pass the necessary screens
                profile = evidence.profile
                if not profile.amenable.holds or profile.quasi_subadditive.fails:
                    return False, {"fn": name,
                                   "reason": "member fails a necessary screen"}
                screened += 1
        return True, {"functions": len(expected), "screened": screened}

    run("catalog-membership-statuses",
        "membership statuses across the catalog match the known lattice "
        "facts, scalar membership implies extended membership, and every "
        "member passes the necessary screens",
        catalog_membership_statuses)

    def step_function_is_relaxed_member():
        f = parse_fn("piece(x <= 0 ? 0 : piece(x <= 1 ? 1 : 4))")
        budget = Budget(triplet_samples=6000,
                        grid=GridSpec(x_max=20.0, n_points=1200, seed=seed),
                        seed=base + 900)
        evidence = _Evidence(f, budget)
        reports = [_decide(tag, evidence)
                   for tag in (ClassTag.DU, ClassTag.B, ClassTag.MB)]
        for rep in reports:
            if rep.status is not MembershipStatus.MEMBER:
                return False, {"class": rep.class_tag.value,
                               "status": rep.status.value}
            if rep.constants.get("s") != 2.0:
                return False, {"class": rep.class_tag.value,
                               "s": rep.constants.get("s")}
        witness = _search_witness(evidence.scan, budget.seed)
        if witness is not None:
            return False, {"reason": "search produced a spurious witness",
                           "constant": witness.constant}
        return True, {"classes": 3, "s": 2.0}

    run("step-function-relaxed-member",
        "the two-level step function lands in all three coinciding relaxed "
        "classes with bound exactly 2, and the search finds no witness "
        "against it",
        step_function_is_relaxed_member)

    def ceiling_envelope():
        report = region_check(catalog["ceiling"],
                              RegionSpec(a=1.0, b=1.0, n_max=10,
                                         samples_per_interval=12))
        if not report.all_hold:
            return False, {"violations": len(report.violations)}
        return True, {"intervals": 10}

    run("ceiling-envelope",
        "the ceiling function stays inside the staircase envelope grown "
        "from its unit plateau",
        ceiling_envelope)

    def identity_pushforward_exact():
        f = catalog["identity"]
        kinds = (ClassTag.METRIC, ClassTag.ULTRAMETRIC,
                 ClassTag.WEAK_ULTRAMETRIC, ClassTag.B_METRIC)
        count = 0
        for kind in kinds:
            for j in range(5):
                table, _theta = random_space(kind, 5, base + 600 + j)
                image = pushforward(f, table)
                if image.entries != table.entries:
                    return False, {"kind": kind.value, "space": j}
                count += 1
        return True, {"spaces": count}

    run("identity-pushforward-exact",
        "pushing forward along the identity expression reproduces every "
        "table bit for bit",
        identity_pushforward_exact)

    def amenable_preserves_positivity():
        names = ("saturating-ratio", "unit-clamp", "square-root", "square")
        tables = _generated_tables(ClassTag.METRIC, base + 700)
        for name in names:
            f = catalog[name]
            for i, table in enumerate(tables):
                if not axioms.check_identity(pushforward(f, table)).holds:
                    return False, {"fn": name, "space": i}
        return True, {"functions": len(names), "spaces_each": 30}

    run("amenable-preserves-positivity",
        "amenable catalog functions keep distinct points at positive "
        "distance after the pushforward",
        amenable_preserves_positivity)

    return SuiteReport(seed=seed, assertions=tuple(checks))
