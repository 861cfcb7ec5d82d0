"""Expression language: parsing, positions, evaluation, and the exact fragment."""

import math
from fractions import Fraction

import pytest

from gmetrix import eval_exact, eval_fn, exact_capable, parse_fn
from gmetrix.dsl import Bin, Call, Lit, Neg, Piece, Var
from gmetrix.errors import (
    DomainError,
    NonFinite,
    OutOfCodomain,
    ParseError,
    PreconditionViolated,
    UnknownIdentifier,
)

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

    parse_fn(nested(8))  # exactly at the cap
    with pytest.raises(ParseError) as excinfo:
        parse_fn(nested(9))
    assert "piece branches" in str(excinfo.value)


NESTING_CAP = 100

# each builder puts an operand at depth d (the whole expression is depth 1);
# at depth cap + 1 the parser must name that operand's first token
NESTINGS = {
    "parentheses": (lambda d: "(" * (d - 1) + "x" + ")" * (d - 1),
                    NESTING_CAP + 1),
    "unary-minus": (lambda d: "-" * (d - 1) + "x", NESTING_CAP + 1),
    "power-chain": (lambda d: "1^" * (d - 1) + "x", 2 * NESTING_CAP + 1),
    "function-arguments": (lambda d: "min(x, " * (d - 1) + "1" + ")" * (d - 1),
                           7 * NESTING_CAP - 2),
    "sum-chain": (lambda d: "x" + " + x" * (d - 1), 4 * NESTING_CAP + 1),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_cap(shape):
    build, column = NESTINGS[shape]
    eval_fn(parse_fn(build(NESTING_CAP)), 0.0)  # exactly at the cap
    with pytest.raises(ParseError) as excinfo:
        parse_fn(build(NESTING_CAP + 1))
    assert (excinfo.value.line, excinfo.value.column) == (1, column)
    assert f"nested deeper than {NESTING_CAP}" in str(excinfo.value)


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


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_fn(parse_fn("x"), -1.0)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("sqrt(x - 5)"), 1.0)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("1 / x"), 0.0)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("log1p(0 - 2)"), 0.0)
    with pytest.raises(DomainError):
        eval_fn(parse_fn("(0 - 1) ^ x"), 2.0)


def test_nonfinite_and_codomain_errors():
    with pytest.raises(NonFinite):
        eval_fn(parse_fn("exp(x ^ 2)"), 100.0)
    # inf - inf is NaN, which math.floor and math.ceil refuse
    for source in ("floor(x*x - x*x)", "ceil(x*x - x*x)"):
        with pytest.raises(NonFinite, match="NaN during evaluation"):
            eval_fn(parse_fn(source), 1e200)
    with pytest.raises(OutOfCodomain) as excinfo:
        eval_fn(parse_fn("x - 10"), 1.0)
    assert excinfo.value.value == -9.0


def test_negative_intermediates_are_allowed():
    # the "-1" dips below zero on the way; only the result must not
    assert eval_fn(parse_fn("exp(x) - 1"), 0.0) == 0.0


def test_exact_fragment_detection():
    assert exact_capable(parse_fn("min(x + 1, 2 * x)").ast)
    assert exact_capable(parse_fn("max(3, x, x * x)").ast)
    for source in ("x / 2", "sqrt(x)", "x - 1", "x^2",
                   "piece(x < 1 ? 0 : 1)", "-x"):
        assert not exact_capable(parse_fn(source).ast), source


def test_exact_evaluation_matches_floats():
    fn = parse_fn("min(x + 1, 2 * x)")
    at_third = eval_exact(fn.ast, Fraction(1, 3))
    assert at_third == Fraction(2, 3)
    assert float(at_third) == pytest.approx(eval_fn(fn, 1 / 3), rel=1e-15)


def test_exact_evaluation_rejects_foreign_trees():
    with pytest.raises(PreconditionViolated):
        eval_exact(parse_fn("x / 2").ast, Fraction(1))
