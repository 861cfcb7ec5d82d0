"""Command line surface: verify spaces, classify and evaluate expressions,
run preservation checks, membership decisions, searches, the theorem suite,
and region checks with SVG plots.

Every subcommand writes canonical JSON to stdout (SVG goes to a file) and a
short human summary to stderr. Exit codes: 0 holds/member, 1 fails or witness
found, 2 inconclusive or undecidable input, 64 usage, 66 file problems, 70
internal errors.

Every argument, the expression included, is converted once by its argparse
type, so a handler receives a parsed `RealFn`, `ClassTag` or number. One
except ladder in `main` maps both a conversion's error and a handler's error
to its exit code.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import axioms
from .classify import GridSpec, classify_fn
from .dsl import RealFn, eval_fn, parse_fn
from .errors import (
    EvalError,
    GmetrixError,
    InvalidEntry,
    NonPositiveEntry,
    NotATriplet,
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
    MAX_SPACE_POINTS,
    ClassTag,
    Status,
    as_rational,
    canonical_dumps,
    dump_space,
    load_space,
    random_space,
    space_to_json,
)
from .preservation import (
    Budget,
    MembershipStatus,
    counterexample_search,
    membership,
    preserve_check,
    theorem_suite,
)
from .region import RegionSpec, emit_region_svg, region_check
from .triplets import Triplet, realize_in_plane

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_FILE = 66
EXIT_INTERNAL = 70

#: Largest `space random -n`; the same cap as a loaded space document's.
MAX_RANDOM_POINTS = MAX_SPACE_POINTS

_STATUS_EXIT = {
    Status.HOLDS: EXIT_HOLDS,
    Status.FAILS: EXIT_FAILS,
    Status.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}
_MEMBERSHIP_EXIT = {
    MembershipStatus.MEMBER: EXIT_HOLDS,
    MembershipStatus.NON_MEMBER_EVIDENCE: EXIT_FAILS,
    MembershipStatus.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through 64 instead
    def error(self, message):
        raise _UsageError(message)


def _emit(doc) -> None:
    sys.stdout.write(canonical_dumps(doc))


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _fraction_arg(text: str) -> Fraction:
    """A nonnegative number whose float is finite, read as a space document's
    entries are."""
    try:
        value = as_rational(text)
        float(value)
    except InvalidEntry as err:
        raise argparse.ArgumentTypeError(str(err))
    except OverflowError:
        raise argparse.ArgumentTypeError(f"{text!r} is out of float range")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be nonnegative")
    return value


def _nonneg_float(text: str) -> float:
    return float(_fraction_arg(text))


def _positive_float(text: str) -> float:
    value = _nonneg_float(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be positive")
    return value


def _side(text: str) -> Fraction:
    """A triplet side for realize; a positive side stays positive as a float."""
    value = _fraction_arg(text)
    if value and not float(value):
        raise argparse.ArgumentTypeError(f"{text!r} underflows to 0 as a float")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be at least 1")
    return value


def _point_count(text: str) -> int:
    value = _positive_int(text)
    if not 2 <= value <= MAX_RANDOM_POINTS:
        raise argparse.ArgumentTypeError(
            f"{text!r} is outside [2, {MAX_RANDOM_POINTS}]")
    return value


def _space_tag(text: str) -> ClassTag:
    tag = ClassTag.parse(text)
    if not tag.is_space:
        raise argparse.ArgumentTypeError(
            f"{text!r} names a function class, not a space kind")
    return tag


def _function_class(text: str) -> ClassTag:
    tag = ClassTag.parse(text)
    if tag.is_space:
        raise argparse.ArgumentTypeError(
            f"{text!r} names a space kind, not a function class")
    return tag


def _expression(text: str) -> RealFn:
    # the module's parse_fn is looked up per call, so patching it reaches
    # the cached parser too; its ParseError leaves parse_args for main
    return parse_fn(text)


# --- handlers ---------------------------------------------------------------------

def _cmd_space_verify(args) -> int:
    table, theta = load_space(args.file)
    if args.kind is None:
        rows = axioms.classify_space(table)
        doc = {
            "points": list(table.points),
            "classification": {tag.value: verdict.to_json()
                               for tag, verdict in rows.items()},
        }
        if theta is not None:
            doc["given_theta"] = axioms.check_extended_b(table, theta).to_json()
        _emit(doc)
        for tag, verdict in rows.items():
            _say(f"{tag.value}: {verdict.status.value}")
        # the extended row holds exactly when the identity axiom does, which
        # is the weakest way to be a space at all
        return EXIT_HOLDS if rows[ClassTag.EXTENDED_B_METRIC].holds \
            else EXIT_FAILS
    verdict = axioms.verify_as(table, args.kind, theta)
    _emit({"kind": args.kind.value, "verdict": verdict.to_json()})
    _say(f"{args.kind.value}: {verdict.status.value}")
    return _STATUS_EXIT[verdict.status]


def _cmd_space_random(args) -> int:
    table, theta = random_space(args.kind, args.n, args.seed)
    doc = {
        "kind": args.kind.value,
        "n": args.n,
        "seed": args.seed,
        "space": space_to_json(table, theta),
    }
    if args.out is not None:
        dump_space(args.out, table, theta)
        _say(f"wrote {args.out}")
    _emit(doc)
    return EXIT_HOLDS


def _spec(kind, **fields):
    """Build or check a sampling spec from flags; its precondition is a
    usage error."""
    try:
        return kind(**fields)
    except PreconditionViolated as err:
        raise _UsageError(str(err)) from None


def _cmd_fn_classify(args) -> int:
    grid = _spec(GridSpec, x_max=args.x_max, n_points=args.points,
                 seed=args.seed)
    profile = classify_fn(args.expr, grid, plateau_b=args.plateau_b)
    _emit(profile.to_json())
    _say(f"amenable: {profile.amenable.status.value}, "
         f"increasing: {profile.increasing.status.value}, "
         f"subadditive: {profile.subadditive.status.value}, "
         f"quasi-subadditive: {profile.quasi_subadditive.status.value}")
    return EXIT_HOLDS


def _cmd_fn_eval(args) -> int:
    value = eval_fn(args.expr, args.at)
    _emit({"source": args.expr.source, "x": args.at, "value": value})
    _say(f"f({args.at}) = {value}")
    return EXIT_HOLDS


def _cmd_preserve(args) -> int:
    table, _theta = load_space(args.space)
    verdict = preserve_check(args.expr, table, args.target)
    _emit({"source": args.expr.source, "target": args.target.value,
           "verdict": verdict.to_json()})
    _say(f"{args.target.value}: {verdict.status.value}")
    return _STATUS_EXIT[verdict.status]


def _budget_from(args) -> Budget:
    grid = _spec(GridSpec, x_max=args.x_max, n_points=args.points,
                 seed=args.grid_seed)
    return _spec(Budget, triplet_samples=args.samples, grid=grid,
                 seed=args.seed)


def _cmd_member(args) -> int:
    report = membership(args.expr, args.klass, _budget_from(args))
    _emit(report.to_json())
    basis = f" via {report.basis}" if report.basis else ""
    _say(f"{args.klass.value}: {report.status.value}{basis}")
    return _MEMBERSHIP_EXIT[report.status]


def _cmd_search(args) -> int:
    budget = _budget_from(args)
    witness = counterexample_search(args.expr, args.klass, budget)
    doc = {
        "source": args.expr.source,
        "class": args.klass.value,
        "budget": budget,
        "witness": witness,
    }
    _emit(doc)
    if witness is None:
        _say("no witness found within the budget")
        return EXIT_INCONCLUSIVE
    _say(f"witness found after {witness.samples_used} samples")
    return EXIT_FAILS


def _cmd_suite(args) -> int:
    report = theorem_suite(args.seed)
    _emit(report.to_json())
    for item in report.assertions:
        _say(f"{'pass' if item.passed else 'FAIL'}  {item.id}")
    return EXIT_HOLDS if report.all_passed else EXIT_FAILS


def _cmd_region(args) -> int:
    spec = _spec(RegionSpec, a=args.a, b=args.b, n_max=args.n,
                 samples_per_interval=args.samples)
    if args.region_command == "plot":
        _spec(spec.plot_steps)
        report = emit_region_svg(args.expr, spec, args.out)
        doc = report.to_json()
        doc["svg"] = args.out
        _emit(doc)
        _say(f"wrote {args.out}")
    else:
        report = region_check(args.expr, spec)
        _emit(report.to_json())
        _say(f"{sum(1 for i in report.intervals if i.verdict.holds)}"
             f"/{len(report.intervals)} intervals hold")
    return EXIT_HOLDS if report.all_hold else EXIT_FAILS


def _cmd_realize(args) -> int:
    triplet = Triplet(args.a, args.b, args.c)
    u, v, w = realize_in_plane(triplet)
    _emit({
        "triplet": [float(args.a), float(args.b), float(args.c)],
        "points": {"u": list(u.as_tuple()), "v": list(v.as_tuple()),
                   "w": list(w.as_tuple())},
    })
    _say(f"u={u.as_tuple()} v={v.as_tuple()} w={w.as_tuple()}")
    return EXIT_HOLDS


# --- parser ----------------------------------------------------------------------

def _grid_flags(parser, grid: GridSpec, seed_flag: str) -> None:
    """The flags of a GridSpec, each defaulting to `grid`'s value."""
    parser.add_argument("--x-max", dest="x_max", type=_positive_float,
                        default=grid.x_max,
                        help="grid upper end (default %(default)s)")
    parser.add_argument("--points", type=_positive_int, default=grid.n_points,
                        help="grid point count (default %(default)s)")
    parser.add_argument(seed_flag, type=int, default=grid.seed,
                        help="grid sampling seed (default %(default)s)")


@cache  # built once per process; parsing never mutates it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmetrix",
                     description="verification toolkit for generalized "
                                 "metrics and distance-preserving functions")
    sub = parser.add_subparsers(dest="command", required=True)

    space = sub.add_parser("space", help="verify or generate spaces")
    space_sub = space.add_subparsers(dest="space_command", required=True)
    verify = space_sub.add_parser("verify", help="check a space JSON file")
    verify.add_argument("file")
    verify.add_argument("--class", dest="kind", type=_space_tag, default=None,
                        help="check one kind instead of the full table")
    verify.set_defaults(handler=_cmd_space_verify)
    rand = space_sub.add_parser("random", help="generate a random space")
    rand.add_argument("--kind", type=_space_tag, required=True)
    rand.add_argument("-n", type=_point_count, required=True,
                      help=f"number of points (2 to {MAX_RANDOM_POINTS})")
    rand.add_argument("--seed", type=int, required=True)
    rand.add_argument("-o", dest="out", default=None,
                      help="also write the bare space document to this file")
    rand.set_defaults(handler=_cmd_space_random)

    fn = sub.add_parser("fn", help="classify or evaluate an expression")
    fn_sub = fn.add_subparsers(dest="fn_command", required=True)
    fc = fn_sub.add_parser("classify", help="profile an expression on a grid")
    fc.add_argument("expr", type=_expression)
    _grid_flags(fc, GridSpec(), "--seed")
    fc.add_argument("--plateau-b", dest="plateau_b", type=_positive_float,
                    default=None, help="verify a plateau on (0, b]")
    fc.set_defaults(handler=_cmd_fn_classify)
    fe = fn_sub.add_parser("eval", help="evaluate an expression at a point")
    fe.add_argument("expr", type=_expression)
    fe.add_argument("--at", type=_nonneg_float, required=True)
    fe.set_defaults(handler=_cmd_fn_eval)

    pres = sub.add_parser("preserve",
                          help="check one function against one space")
    pres.add_argument("expr", type=_expression)
    pres.add_argument("--space", required=True, help="space JSON file")
    pres.add_argument("--target", type=_space_tag, required=True)
    pres.set_defaults(handler=_cmd_preserve)

    for name, handler, text in (
            ("member", _cmd_member, "decide class membership"),
            ("search", _cmd_search, "search for a counterexample triplet")):
        ms = sub.add_parser(name, help=text)
        ms.add_argument("expr", type=_expression)
        ms.add_argument("--class", dest="klass", type=_function_class,
                        required=True)
        ms.add_argument("--samples", type=_positive_int,
                        default=Budget.triplet_samples,
                        help="triangle triplet budget (default %(default)s)")
        ms.add_argument("--seed", type=int, default=Budget.seed,
                        help="sampling seed (default %(default)s)")
        _grid_flags(ms, Budget.grid, "--grid-seed")
        ms.set_defaults(handler=handler)

    suite = sub.add_parser("suite", help="run the cross-checking suite")
    suite.add_argument("--seed", type=int, default=0)
    suite.set_defaults(handler=_cmd_suite)

    region = sub.add_parser("region", help="staircase envelope checks")
    region_sub = region.add_subparsers(dest="region_command", required=True)
    for name in ("check", "plot"):
        rp = region_sub.add_parser(name)
        rp.add_argument("expr", type=_expression)
        rp.add_argument("--a", type=_positive_float, required=True,
                        help="plateau value")
        rp.add_argument("--b", type=_positive_float, required=True,
                        help="plateau edge")
        rp.add_argument("--n", type=_positive_int, required=True,
                        help="number of intervals to check")
        rp.add_argument("--samples", type=_positive_int,
                        default=RegionSpec.samples_per_interval,
                        help="samples per interval (default %(default)s)")
        if name == "plot":
            rp.add_argument("-o", dest="out", default="region.svg",
                            help="output SVG path (default region.svg)")
        rp.set_defaults(handler=_cmd_region)

    real = sub.add_parser("realize",
                          help="place a triangle triplet in the plane")
    real.add_argument("a", type=_side)
    real.add_argument("b", type=_side)
    real.add_argument("c", type=_side)
    real.set_defaults(handler=_cmd_realize)

    return parser


def main(argv=None) -> int:
    # one ladder for both stages: an error while parsing (a bad flag, an
    # expression's ParseError, an unknown tag) maps as a handler's would
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ParseError as err:
        _say(f"expression error: {err}")
        return EXIT_USAGE
    except (_UsageError, UnsupportedKind, UnsupportedClass) as err:
        _say(f"usage error: {err}")
        return EXIT_USAGE
    except SpaceFormatError as err:
        _say(f"file error: {err}")
        return EXIT_FILE
    except (PlateauNotVerified, SourceClassViolated, EvalError,
            NotATriplet, NonPositiveEntry, OutOfRange) as err:
        # the inputs are well-formed but outside the check's premises, so
        # no holds/fails verdict exists
        _say(f"undecidable input: {err}")
        return EXIT_INCONCLUSIVE
    except OSError as err:
        _say(f"file error: {err}")
        return EXIT_FILE
    except GmetrixError as err:
        _say(f"internal error: {err}")
        return EXIT_INTERNAL
    except Exception as err:  # pragma: no cover - last resort
        _say(f"internal error: {err!r}")
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
