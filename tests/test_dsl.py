"""Expression language: parsing, positions, evaluation, and the rational run."""

import math
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, given, settings, strategies as st

from gmetrix import (dsl, eval_exact, eval_fn, new_distance_table, parse_fn,
                     pushforward)
from gmetrix.dsl import (Bin, Call, Lit, Neg, Piece, Var, _Emitter, _checked,
                         _emit_run)
from gmetrix.errors import (
    DomainError,
    EvalError,
    NonFinite,
    NonzeroDiagonal,
    OutOfCodomain,
    ParseError,
    PreconditionViolated,
    UnknownIdentifier,
)
from oracles import (is_rational_tree, random_positive_table, reference_eval,
                     reference_exact)

# Twenty expressions with independently written references. Every function
# is nonnegative over the sample points, so evaluation never rejects.
CORPUS = [
    ("x", lambda x: x),
    ("x^2", lambda x: x ** 2),
    ("sqrt(x)", math.sqrt),
    ("min(x, 1)", lambda x: min(x, 1.0)),
    ("x / (1 + x)", lambda x: x / (1.0 + x)),
    ("exp(x) - 1", lambda x: math.exp(x) - 1.0),
    ("max(x, 2)", lambda x: max(x, 2.0)),
    ("2 * x + 3", lambda x: 2.0 * x + 3.0),
    ("x * (x + 1) / 2", lambda x: x * (x + 1.0) / 2.0),
    ("(x + 1) ^ 2", lambda x: (x + 1.0) ** 2),
    ("2 ^ x", lambda x: 2.0 ** x),
    ("x ^ 0.5", lambda x: x ** 0.5),
    ("abs(x - 3)", lambda x: abs(x - 3.0)),
    ("floor(x) + 1", lambda x: math.floor(x) + 1.0),
    ("ceil(x)", lambda x: float(math.ceil(x))),
    ("log1p(x)", math.log1p),
    ("min(x, x^2, 1)", lambda x: min(x, x ** 2, 1.0)),
    ("piece(x < 1 ? x : 1)", lambda x: x if x < 1.0 else 1.0),
    ("piece(x <= 2 ? x^2 : x + 2)", lambda x: x ** 2 if x <= 2.0 else x + 2.0),
    ("3 / 4 * x", lambda x: 0.75 * x),
]

SAMPLE_XS = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 7.25, 10.0, 123.456]


@pytest.mark.parametrize("source,reference",
                         CORPUS, ids=[s for s, _ in CORPUS])
def test_corpus_matches_reference(source, reference):
    fn = parse_fn(source)
    for x in SAMPLE_XS:
        got = eval_fn(fn, x)
        want = reference(x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (x, got, want)


def test_realfn_is_callable_and_serializable():
    fn = parse_fn("min(x, 1)")
    assert fn(3) == 1.0
    assert fn.to_json() == {"source": "min(x, 1)"}


# (source, line, column) for inputs that must be rejected, with the position
# pinned to where the problem is first detectable
MALFORMED = [
    ("2x", 1, 2),                       # no implicit multiplication
    ("min(x)", 1, 1),                   # min needs two arguments
    ("sqrt(x, 1)", 1, 1),               # sqrt takes one argument
    ("x +", 1, 4),                      # dangling operator
    ("(x + 1", 1, 7),                   # unclosed parenthesis
    ("x ^ ^ 2", 1, 5),                  # operator where an atom belongs
    ("foo(x)", 1, 1),                   # unknown identifier
    ("piece(y < 1 ? 0 : 1)", 1, 7),     # pieces test x only
    ("piece(x > 1 ? 0 : 1)", 1, 9),     # '>' is not in the language
    ("1.", 1, 3),                       # decimal point needs digits
    ("x @ 2", 1, 3),                    # stray character
    ("", 1, 1),                         # empty input
    ("x *", 1, 4),                      # dangling '*'
    ("x (1)", 1, 3),                    # punctuation out of place
    ("x)", 1, 2),
    ("x, 1", 1, 2),
    ("x ? 1", 1, 3),
    ("(x : 1)", 1, 4),
    ("piece(x < 1 ? 0 1)", 1, 17),      # ':' missing
    ("x + \u00b2", 1, 5),               # a superscript is not a digit
    ("2\u00b2", 1, 2),
    ("1.\u00b2", 1, 3),
    ("x\t@", 1, 3),                     # a tab is one column
    ("x\r@", 1, 3),                     # a carriage return ends no line
]


@pytest.mark.parametrize("source,line,column", MALFORMED,
                         ids=[repr(s) for s, _, _ in MALFORMED])
def test_malformed_inputs_report_positions(source, line, column):
    with pytest.raises(ParseError) as excinfo:
        parse_fn(source)
    err = excinfo.value
    assert (err.line, err.column) == (line, column)
    assert f"line {line}, column {column}" in str(err)


def test_error_position_spans_lines():
    with pytest.raises(ParseError) as excinfo:
        parse_fn("min(x,\n 2y)")
    assert (excinfo.value.line, excinfo.value.column) == (2, 3)


def test_numbers_are_spelled_in_decimal_digits():
    # any script's decimal digits, as Fraction reads them: Arabic-Indic one
    fn = parse_fn("\u0661 + x")
    assert [eval_fn(fn, x) for x in SAMPLE_XS] == [1.0 + x for x in SAMPLE_XS]
    # a superscript passes str.isdigit but is no decimal digit
    with pytest.raises(ParseError) as excinfo:
        parse_fn("x + \u00b2")
    assert str(excinfo.value) == ("unexpected character '\u00b2' "
                                  "at line 1, column 5")


def test_unknown_identifier_is_a_parse_error():
    with pytest.raises(UnknownIdentifier) as excinfo:
        parse_fn("sin(x)")
    assert excinfo.value.name == "sin"
    assert isinstance(excinfo.value, ParseError)


def test_piece_cap():
    def nested(depth):
        if depth == 0:
            return "1"
        return f"piece(x < {depth} ? 0 : {nested(depth - 1)})"

    at_cap = parse_fn(nested(8))  # exactly at the cap
    assert_entries_agree(at_cap, [0.0, 0.5, 1.0, 4.5, 8.0, 9.0])
    with pytest.raises(ParseError) as excinfo:
        parse_fn(nested(9))
    assert "piece branches" in str(excinfo.value)


NESTING_CAP = 100

# each builder puts an operand at depth d (the whole expression is depth 1);
# at depth cap + 1 the parser must name that operand's first token. The last
# entry is the most Python frames parse_fn may take at the cap (a parenthesis
# level costs five: two chain levels, factor, power and atom).
NESTINGS = {
    "parentheses": (lambda d: "(" * (d - 1) + "x" + ")" * (d - 1),
                    NESTING_CAP + 1, 504),
    "unary-minus": (lambda d: "-" * (d - 1) + "x", NESTING_CAP + 1, 108),
    "power-chain": (lambda d: "1^" * (d - 1) + "x", 2 * NESTING_CAP + 1, 207),
    "function-arguments": (lambda d: "min(x, " * (d - 1) + "1" + ")" * (d - 1),
                           7 * NESTING_CAP - 2, 604),
    "sum-chain": (lambda d: "x" + " + x" * (d - 1), 4 * NESTING_CAP + 1, 101),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_cap(shape):
    build, column, _ = NESTINGS[shape]
    assert_entries_agree(parse_fn(build(NESTING_CAP)),  # exactly at the cap
                         [0.0, 0.5, 1.0, 2.0])
    with pytest.raises(ParseError) as excinfo:
        parse_fn(build(NESTING_CAP + 1))
    assert (excinfo.value.line, excinfo.value.column) == (1, column)
    assert f"nested deeper than {NESTING_CAP}" in str(excinfo.value)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_cap_fits_the_frame_budget(shape):
    build, _, frames = NESTINGS[shape]
    source = build(NESTING_CAP)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + frames + 50)
    try:
        parse_fn(source)
    finally:
        sys.setrecursionlimit(limit)


# everything the tokenizer knows, a few things it rejects, and characters
# that pass str.isdigit, str.isalnum or str.isalpha without being ASCII
_SOUP = ["x", "1", "0.5", "1.", "+", "-", "*", "/", "^", "(", ")", ",", "?",
         ":", "<", "<=", "min", "max", "sqrt", "exp", "log1p", "abs", "floor",
         "ceil", "piece", "y", "@", " ", "\n", "\t", "\r", "\u00b2", "\u2460",
         "\u00bd", "\u0661", "\u00e9"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=20).map("".join))
def test_token_soup_parses_or_raises_a_parse_error(source):
    try:
        fn = parse_fn(source)
    except ParseError:
        return
    assert fn.source == source


def test_wide_min():
    fn = parse_fn("min(" + ", ".join(["x + 1"] * 2999 + ["x*x - x*x"]) + ")")
    assert len(fn.ast.args) == 3000
    assert_entries_agree(fn, [0.0, 1.0, 1e300])  # NaN at 1e300
    # the scan emits the 3,000-argument body once per entry of a sample
    assert_scan_agrees(fn, [(1.0, 2.0, 3.0), (0.0, 0.0, 0.0),
                            (1.0, 1e300, 1.0)])


def test_emitted_source_holds_float_reprs_only():
    source = _emit_run(*_checked(parse_fn("x + 0.50").ast, _Emitter()))
    assert "x + 0.5\n" in source
    assert "0.50" not in source
    # the rational run names its literals and thresholds, never writes them
    emitter = _Emitter(exact=True)
    source = _emit_run(*_checked(
        parse_fn("piece(x < 0.25 ? x + 0.50 : 97 / 89)").ast, emitter))
    for text in ("0.25", ".25", "0.5", ".5", "97", "89"):
        assert text not in source, text
    assert sorted(emitter.constants.values()) == [Fraction(1, 4), Fraction(1, 2),
                                                  89, 97]


def test_min_max_keep_the_first_of_equal_arguments():
    # 0.0 == -0.0, so the earlier argument wins, as with Python's min and max
    for source, sign in (("min(x, -x)", 1.0), ("max(x, -x)", 1.0),
                         ("min(-x, x)", -1.0), ("max(-x, x)", -1.0)):
        assert math.copysign(1.0, eval_fn(parse_fn(source), 0.0)) == sign


def test_literal_must_fit_a_float():
    assert eval_fn(parse_fn("1" + "0" * 308), 0.0) == 1e308
    with pytest.raises(ParseError) as excinfo:
        parse_fn("x + 1" + "0" * 400)
    assert (excinfo.value.line, excinfo.value.column) == (1, 5)
    assert "numeric literal too long or too large" in str(excinfo.value)
    # past the interpreter's int digit limit, where there is one
    with pytest.raises(ParseError) as excinfo:
        parse_fn("x +\n " + "1" * 5000)
    assert (excinfo.value.line, excinfo.value.column) == (2, 2)


def test_precedence_and_associativity():
    assert eval_fn(parse_fn("2 + 3 * 4"), 0) == 14.0
    assert eval_fn(parse_fn("2 * 3 ^ 2"), 0) == 18.0
    assert eval_fn(parse_fn("2 ^ 3 ^ 2"), 0) == 512.0  # right associative
    assert eval_fn(parse_fn("2 - - 3"), 0) == 5.0


def test_unary_minus_binds_looser_than_power():
    ast = parse_fn("-x^2").ast
    assert isinstance(ast, Neg)
    assert isinstance(ast.operand, Bin) and ast.operand.op == "^"


def test_ast_shapes():
    ast = parse_fn("piece(x <= 1 ? x : max(x, 2))").ast
    assert isinstance(ast, Piece)
    assert ast.op == "<="
    assert ast.threshold == 1
    assert isinstance(ast.then, Var)
    assert isinstance(ast.other, Call) and ast.other.name == "max"
    lit = parse_fn("0.125").ast
    assert isinstance(lit, Lit) and lit.value == Fraction(1, 8)


_UNDERFLOWS = "0." + "0" * 330 + "1"  # exactly nonzero, 0.0 as a float


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_fn(parse_fn("x"), -1.0)
    for x in (math.inf, math.nan):
        with pytest.raises(DomainError, match=r"argument outside \[0, inf\)"):
            eval_fn(parse_fn("min(x, 1)"), x)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("sqrt(x - 5)"), 1.0)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("1 / x"), 0.0)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("log1p(0 - 2)"), 0.0)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("(0 - 1) ^ x"), 2.0)
    with pytest.raises(DomainError, match="zero base with negative exponent"):
        eval_fn(parse_fn("x ^ (0 - 0.5)"), 0.0)
    # a zero denominator is found before the numerator is evaluated
    with pytest.raises(DomainError, match="division by zero"):
        eval_fn(parse_fn("sqrt(x - 5) / (x - x)"), 1.0)
    # a nonzero literal whose float underflows to 0 is a zero denominator
    with pytest.raises(DomainError, match="division by zero"):
        eval_fn(parse_fn(f"x / {_UNDERFLOWS}"), 1.0)


def test_nonfinite_and_codomain_errors():
    with pytest.raises(NonFinite):
        eval_fn(parse_fn("exp(x ^ 2)"), 100.0)
    # inf - inf is NaN, which floor, ceil, min, max and "^" refuse (IEEE
    # pow would give 1 for 1 ^ NaN and NaN ^ 0)
    for source in ("floor(x*x - x*x)", "ceil(x*x - x*x)",
                   "min(1, x*x - x*x)", "min(x*x - x*x, 1)",
                   "max(1, x*x - x*x)", "max(x*x - x*x, 1)",
                   "1 ^ (x*x - x*x)", "(x*x - x*x) ^ 0"):
        with pytest.raises(NonFinite, match="NaN during evaluation"):
            eval_fn(parse_fn(source), 1e200)
    with pytest.raises(OutOfCodomain) as excinfo:
        eval_fn(parse_fn("x - 10"), 1.0)
    assert excinfo.value.value == -9.0


def test_stream_pulls_each_x_only_when_its_value_is_asked_for():
    pulled = []

    def xs():
        for x in (1.0, 4.0, -1.0):
            pulled.append(x)
            yield x

    values = parse_fn("sqrt(x)").runner(xs())
    assert pulled == []
    assert next(values) == 1.0
    assert pulled == [1.0]
    assert next(values) == 2.0
    with pytest.raises(DomainError, match="argument outside"):
        next(values)


def test_negative_intermediates_are_allowed():
    # the "-1" dips below zero on the way; only the result must not
    assert eval_fn(parse_fn("exp(x) - 1"), 0.0) == 0.0


def test_rational_run_detection():
    for source in ("min(x + 1, 2 * x)", "max(3, x, x * x)", "x / 2", "x - 1",
                   "piece(x < 1 ? 0 : 1)", "-x", "abs(x)", "floor(x) + ceil(x)"):
        assert parse_fn(source).exact_runner is not None, source
    for source in ("sqrt(x)", "exp(x) - 1", "log1p(x)", "x^2", "min(x, 2^x)"):
        assert parse_fn(source).exact_runner is None, source


def test_exact_evaluation_matches_floats():
    fn = parse_fn("min(x + 1, 2 * x)")
    at_third = eval_exact(fn.ast, Fraction(1, 3))
    assert at_third == Fraction(2, 3)
    assert float(at_third) == pytest.approx(eval_fn(fn, 1 / 3), rel=1e-15)


def test_each_tree_compiles_each_function_once():
    dsl._generated.cache_clear()
    for _ in range(3):  # re-parses share all four compiled functions
        fn = parse_fn("x / 7 + 0.125")
        assert eval_fn(fn, 7.0) == 1.125
        assert eval_exact(fn.ast, Fraction(7)) == Fraction(9, 8)
        assert next(fn.exact_runner([Fraction(1)])) == Fraction(15, 56)
        assert fn.scanner([(7.0, 0.0, 0.0)], 10.0)[:2] == (1, 4.5)
        assert fn.pairer([(7.0, 7.0)], {7.0: 1.125}, 10.0, 1e-9)[:2] \
            == (1, 2.125 - 2 * 1.125)
    info = dsl._generated.cache_info()
    assert (info.misses, info.currsize) == (4, 4)


def test_exact_evaluation_rejects_foreign_trees():
    assert eval_exact(parse_fn("x / 2").ast, Fraction(1)) == Fraction(1, 2)
    with pytest.raises(PreconditionViolated):
        eval_exact(parse_fn("sqrt(x)").ast, Fraction(1))


# --- the generated evaluator against the reference interpreter ---------------

def _outcome(call):
    """A float's repr, or the type and message of the evaluation error."""
    try:
        return repr(call())
    except EvalError as err:
        return (type(err).__name__, str(err))


def assert_entries_agree(fn, xs):
    """eval_fn, the evaluation stream and the reference interpreter agree on
    every x; a stream raises at its first failing x after yielding the
    values before it."""
    singles = [_outcome(lambda: eval_fn(fn, x)) for x in xs]
    assert singles == [_outcome(lambda: reference_eval(fn.ast, x)) for x in xs]
    batch: list[float] = []

    def drain():
        for value in fn.runner(xs):
            batch.append(value)

    failed = _outcome(drain)
    prefix = [repr(v) for v in batch]
    assert prefix == singles[:len(batch)]
    if len(batch) < len(xs):
        assert failed == singles[len(batch)]
    else:
        assert failed == "None"


def _scan_outcome(fn, t):
    """The images of one sample as the emitted scan reports them, or the
    type and message of its evaluation error."""
    try:
        *_, best, infinite = fn.scanner([t], 1.0)
    except EvalError as err:
        return (type(err).__name__, str(err))
    return repr((best or infinite)[1])


def assert_scan_agrees(fn, samples):
    """Sample by sample, the emitted scan reports the reference images, or
    raises as the reference does at the first failing entry of a, b, c."""
    for t in samples:
        outcomes = [_outcome(lambda: reference_eval(fn.ast, x)) for x in t]
        errors = [o for o in outcomes if isinstance(o, tuple)]
        expected = errors[0] if errors else repr(
            tuple(reference_eval(fn.ast, x) for x in t))
        assert _scan_outcome(fn, t) == expected, t


_NUMBERS = st.sampled_from(["0", "1", "2", "0.5", "3", "10", "0.001", "400",
                            "1/3", _UNDERFLOWS])
_XS = st.one_of(st.sampled_from([0.0, 1.0, 1e200]),
                st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
                st.floats(min_value=0.0, max_value=50.0))


def _expressions():
    def grow(inner):
        pairs = st.tuples(inner, inner)
        return st.one_of(
            st.builds(lambda p, op: f"({p[0]} {op} {p[1]})", pairs,
                      st.sampled_from("+-*/^")),
            st.builds(lambda e: f"(-{e})", inner),
            st.builds(lambda name, e: f"{name}({e})",
                      st.sampled_from(["sqrt", "exp", "log1p", "abs",
                                       "floor", "ceil"]), inner),
            st.builds(lambda name, args: f"{name}({', '.join(args)})",
                      st.sampled_from(["min", "max"]),
                      st.lists(inner, min_size=2, max_size=4)),
            st.builds(lambda op, t, p: f"piece(x {op} {t} ? {p[0]} : {p[1]})",
                      st.sampled_from(["<", "<="]), _NUMBERS, pairs),
        )
    # the last leaf is inf - inf = NaN at x = 1e200
    leaves = st.one_of(st.sampled_from(["x", "(x * x - x * x)"]), _NUMBERS)
    return st.recursive(leaves, grow, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_expressions(), st.lists(_XS, min_size=1, max_size=6))
def test_generated_evaluator_matches_reference(source, xs):
    try:
        fn = parse_fn(source)
    except ParseError:  # more piece branches than the cap
        assume(False)
    assert_entries_agree(fn, xs)


@settings(max_examples=150, deadline=None)
@given(_expressions(), st.tuples(_XS, _XS, _XS))
def test_generated_scan_matches_reference(source, sample):
    try:
        fn = parse_fn(source)
    except ParseError:  # more piece branches than the cap
        assume(False)
    assert_scan_agrees(fn, [sample])


# --- the rational run against its exact twin ----------------------------------

def _pushforward_outcome(fn, entries):
    """pushforward's image rows, or the type and message of its error."""
    table = new_distance_table([f"p{i}" for i in range(len(entries))], entries)
    try:
        return pushforward(fn, table).entries
    except (EvalError, NonzeroDiagonal) as err:
        return (type(err).__name__, str(err))


def _reference_outcome(ast, entries):
    """The image rows by the exact twin, or by the float reference converted
    exactly for a tree with sqrt, exp, log1p or "^"; the distinct entries
    are evaluated in row-major order, and the first failure is the
    outcome."""
    def evaluate(v):
        if is_rational_tree(ast):
            return reference_exact(ast, v)
        return Fraction(reference_eval(ast, float(v)))

    try:
        image = {v: evaluate(v)
                 for v in dict.fromkeys(chain.from_iterable(entries))}
    except EvalError as err:
        return (type(err).__name__, str(err))
    if image[0] != 0:
        err = NonzeroDiagonal(0, image[0])
        return (type(err).__name__, str(err))
    return tuple(tuple(image[v] for v in row) for row in entries)


_TABLES = st.builds(random_positive_table, st.integers(2, 4),
                    st.integers(0, 10 ** 6), st.sampled_from([1, 3, 7, 12]),
                    st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(_expressions(), _TABLES)
def test_pushforward_matches_the_exact_twin(source, entries):
    try:
        fn = parse_fn(source)
    except ParseError:  # more piece branches than the cap
        assume(False)
    assert (fn.exact_runner is None) == (not is_rational_tree(fn.ast))
    assert _pushforward_outcome(fn, entries) == _reference_outcome(fn.ast,
                                                                   entries)
