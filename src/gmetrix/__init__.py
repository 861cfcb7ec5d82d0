"""Verification toolkit for generalized metrics and the functions that
preserve them.

Distance tables carry exact rationals, so axiom checks and optimal
relaxation constants are exact; function analysis runs on float grids and
reports three-valued verdicts with witnesses.
"""

from types import ModuleType as _ModuleType

from .axioms import (
    check_extended_b,
    check_identity,
    check_triangle,
    check_ultra,
    classify_space,
    minimal_theta,
    optimal_b_constant,
    optimal_weak_ultra_constant,
    verify_as,
)
from .classify import (
    DEFAULT_GRID,
    REL_TOL,
    FnProfile,
    GridSpec,
    classify_fn,
    sample_pairs,
    sample_points,
    verify_plateau,
)
from .dsl import RealFn, eval_exact, eval_fn, exact_capable, parse_fn
from .errors import (
    DomainError,
    EvalError,
    GmetrixError,
    InvalidEntry,
    InvalidS,
    InvalidTheta,
    NonFinite,
    NotATriplet,
    OutOfCodomain,
    OutOfRange,
    ParseError,
    PlateauNotVerified,
    PreconditionViolated,
    SourceClassViolated,
    SpaceFormatError,
    UnsupportedClass,
    UnsupportedKind,
)
from .model import (
    ClassTag,
    DistanceTable,
    Status,
    ThetaTable,
    Verdict,
    Witness,
    canonical_dumps,
    constant_theta,
    dump_space,
    load_space,
    new_distance_table,
    new_theta_table,
    random_space,
    space_from_json,
    space_to_json,
)
from .preservation import (
    BASIS_AMENABILITY,
    BASIS_EB_SUFFICIENT,
    BASIS_QUASI,
    BASIS_TRIPLET_DIVERGENCE,
    BASIS_TRIPLET_SUFFICIENT,
    FUNCTION_CATALOG,
    Budget,
    MembershipReport,
    MembershipStatus,
    SearchWitness,
    SuiteReport,
    counterexample_search,
    membership,
    preserve_check,
    pushforward,
    theorem_suite,
)
from .region import (
    RegionReport,
    RegionSpec,
    emit_region_svg,
    region_bounds,
    region_check,
    render_region_svg,
)
from .triplets import (
    BoundaryStrategy,
    GridStrategy,
    PlanarPoint,
    RandomStrategy,
    Triplet,
    is_s_triplet,
    is_theta_triplet,
    is_triangle_triplet,
    realize_in_plane,
    sample_triplets,
    triplet_constant,
)

__version__ = "0.1.0"

# every public name imported above, so the list cannot drift from the imports
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
