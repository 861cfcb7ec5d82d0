"""A small expression language for functions from [0, inf) to [0, inf).

Grammar (whitespace insignificant, no implicit multiplication):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right associative
    atom   := NUMBER | "x" | NAME "(" expr ("," expr)* ")"
            | "(" expr ")" | piece
    piece  := "piece" "(" "x" ("<" | "<=") NUMBER "?" expr ":" expr ")"
    NUMBER := digits ("." digits)?        # nonnegative literals, parsed exactly
    NAME   := (letter | "_") (alphanumeric | "_")*

Functions: min, max (two or more arguments), sqrt, exp, log1p, abs, floor,
ceil (one argument). Rational constants are spelled with "/" (e.g. 3/4).
NUMBER digits are decimal digits of any script, the ones Fraction reads
("١" is 1); a character outside every token, such as a superscript
"²" (which passes str.isdigit but is no decimal digit), is reported as
unexpected. Blanks are space, tab, carriage return and newline.
Precedence from loose to tight: +-, */, unary minus, ^. At most eight piece
branches per expression. Operands nest at most 100 deep: the whole
expression is at depth 1, and each parenthesis group, unary minus, "^"
exponent, function argument, piece branch and further operator of a "+-" or
"*/" chain puts its operand one deeper. A literal must fit a float. Parse
errors report 1-based line/column and what was expected.

Evaluation is in floats (but see the rational run below). An argument
outside [0, inf), NaN and +inf included, raises DomainError. Intermediate
values may leave [0, inf) (e.g. the "-1" inside "exp(x)-1"); only the final
value must be nonnegative. A sqrt of a negative intermediate, log1p at or
below -1, a division by zero, or a negative base under "^" raises
DomainError; overflow, inf, or NaN raises NonFinite (also floor, ceil, min,
max or "^" of an intermediate NaN, so no comparison or power drops a NaN); a
negative final value raises OutOfCodomain.

Each RealFn has four generated functions, compiled on first use into one
bounded cache keyed by (tree, shape, domain), so a re-parsed expression
compiles nothing again. All four hold one checked body: the straight-line
code computing f(x) with one assignment per tree node and every check above
inline, so each check is written once.

- `run(xs)` (`RealFn.runner`): a generator that pulls each x only when its
  value is asked for and yields f(x). A failing x raises after the values
  before it have been yielded. Callers zip the values with the xs they
  passed in; eval_fn is the single-x entry on top of it.
- `scan(samples, split)` (`RealFn.scanner`), the image-triplet scan: for
  each sample (a, b, c) it evaluates the body at a, then b, then c, applies
  the relaxation-constant formula of triplets._constant and keeps the
  running sups, all in one frame.
- `pairs(schedule, value_at, split, tol)` (`RealFn.pairer`), the grid
  profile's pair loop: for each pair (a, b) it evaluates the body at a + b,
  reads f(a) and f(b) from the profile's point values and keeps both
  subadditivity views of classify_fn, all in one frame.
- the rational `run(xs)` (`RealFn.exact_runner`, eval_exact): x, literals,
  thresholds and every value are Fractions, with the checks a rational can
  fail. Trees with sqrt, exp, log1p or "^" have none; table pushforwards
  use it when there is one.

The generated text is built from fixed names, repr(float) literals or names
bound to Fractions, and the grammar's operators only, never from the
expression's own text.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Union

from .errors import (
    DomainError,
    NonFinite,
    OutOfCodomain,
    ParseError,
    PreconditionViolated,
    UnknownIdentifier,
)

_UNARY_FNS = ("sqrt", "exp", "log1p", "abs", "floor", "ceil")
_VARIADIC_FNS = ("min", "max")
_PIECE_CAP = 8
_NESTING_CAP = 100


# --- tokens ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str       # NUMBER IDENT OP LPAREN RPAREN COMMA QUESTION COLON LT LE EOF
    text: str
    line: int
    col: int
    value: Fraction | None = None

    def describe(self) -> str:
        return "end of input" if self.kind == "EOF" else repr(self.text)


# One group per token kind, tried in this order; a name must also start
# with a letter or "_", which the loop checks, since [^\W\d] admits "½".
# POINT is a number whose decimal point has no digit after it, OTHER any
# character outside every token. \d is the decimal digits Fraction reads.
_TOKEN = re.compile(r"""
    (?P<BLANK>[ \t\r]+) | (?P<NEWLINE>\n) | (?P<POINT>\d+\.(?!\d))
  | (?P<NUMBER>\d+(?:\.\d+)?) | (?P<IDENT>[^\W\d]\w*) | (?P<OP>[-+*/^])
  | (?P<LE><=) | (?P<LT><) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
  | (?P<QUESTION>\?) | (?P<COLON>:) | (?P<OTHER>.)""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, lexeme = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "POINT":
            raise ParseError("digit expected after decimal point", line,
                             col + len(lexeme), expected=("a digit",))
        elif kind == "OTHER" or (kind == "IDENT" and lexeme[0] != "_"
                                 and not lexeme[0].isalpha()):
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, col)
        elif kind != "BLANK":
            value = _literal(lexeme, line, col) if kind == "NUMBER" else None
            tokens.append(_Token(kind, lexeme, line, col, value))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _literal(lexeme: str, line: int, col: int) -> Fraction:
    """The exact value of a numeric literal that also fits a float."""
    try:
        value = Fraction(lexeme)  # ValueError past the int digit limit
        float(value)
    except (ValueError, OverflowError):
        raise ParseError("numeric literal too long or too large", line, col,
                         expected=("a number that fits a float",)) from None
    return value


# --- syntax tree -------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]


@dataclass(frozen=True)
class Piece:
    op: str          # "<" or "<="
    threshold: Fraction
    then: "Node"
    other: "Node"


Node = Union[Lit, Var, Bin, Neg, Call, Piece]


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.pieces = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        return ParseError(f"unexpected {tok.describe()}", tok.line, tok.col,
                          expected=expected)

    def deeper(self) -> None:
        """One level deeper for the operand starting at the next token."""
        self.depth += 1
        if self.depth > _NESTING_CAP:
            tok = self.peek()
            raise ParseError(f"operand nested deeper than {_NESTING_CAP}",
                             tok.line, tok.col,
                             expected=(f"at most {_NESTING_CAP} levels",))

    def expect(self, kind: str, what: str) -> _Token:
        if self.peek().kind != kind:
            raise self.fail((what,))
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        if self.peek().kind != "EOF":
            raise self.fail(("an operator", "end of input"))
        return node

    # Every nested operand is parsed by factor(), and a chain's tree nests
    # to the left, so these two bound the depth of every later recursion.
    def expr(self, ops: str = "+-") -> Node:
        """A left-nested chain: "+-" joins "*/" chains, "*/" joins factors."""
        depth = self.depth
        node = self.factor() if ops == "*/" else self.expr("*/")
        while self.peek().kind == "OP" and self.peek().text in ops:
            op = self.advance().text
            self.deeper()
            node = Bin(op, node,
                       self.factor() if ops == "*/" else self.expr("*/"))
        self.depth = depth
        return node

    def factor(self) -> Node:
        depth = self.depth
        self.deeper()
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            node = Neg(self.factor())
        else:
            node = self.power()
        self.depth = depth
        return node

    def power(self) -> Node:
        node = self.atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            return Bin("^", node, self.factor())  # right associative
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Lit(tok.value)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "IDENT":
            if tok.text == "x":
                self.advance()
                return Var()
            if tok.text == "piece":
                return self.piece()
            if tok.text in _UNARY_FNS or tok.text in _VARIADIC_FNS:
                return self.call()
            raise UnknownIdentifier(tok.text, tok.line, tok.col)
        raise self.fail(("a number", "'x'", "'('", "a function name"))

    def call(self) -> Node:
        name_tok = self.advance()
        name = name_tok.text
        self.expect("LPAREN", "'('")
        args = [self.expr()]
        while self.peek().kind == "COMMA":
            self.advance()
            args.append(self.expr())
        self.expect("RPAREN", "')' or ','")
        if name in _UNARY_FNS and len(args) != 1:
            raise ParseError(f"{name} takes exactly one argument",
                             name_tok.line, name_tok.col,
                             expected=("one argument",))
        if name in _VARIADIC_FNS and len(args) < 2:
            raise ParseError(f"{name} takes at least two arguments",
                             name_tok.line, name_tok.col,
                             expected=("two or more arguments",))
        return Call(name, tuple(args))

    def piece(self) -> Node:
        self.advance()  # "piece"
        self.pieces += 1
        self.expect("LPAREN", "'('")
        var_tok = self.expect("IDENT", "'x'")
        if var_tok.text != "x":
            raise ParseError("piece conditions test the variable x",
                             var_tok.line, var_tok.col, expected=("'x'",))
        if self.peek().kind not in ("LT", "LE"):
            raise self.fail(("'<'", "'<='"))
        op = "<" if self.advance().kind == "LT" else "<="
        threshold_tok = self.expect("NUMBER", "a number")
        self.expect("QUESTION", "'?'")
        then = self.expr()
        self.expect("COLON", "':'")
        other = self.expr()
        self.expect("RPAREN", "')'")
        return Piece(op, threshold_tok.value, then, other)


# --- the generated evaluator ---------------------------------------------------------

def _reject(x: float, value: float) -> None:
    """Raise for a final value outside [0, inf): NaN and infinities are
    non-finite, anything else is negative."""
    if not math.isfinite(value):
        raise NonFinite(x, f"non-finite value {value!r}")
    raise OutOfCodomain(x, value)


# The emitted text holds fixed names only: x, v0, v1, ... for the node
# values, c0, c1, ... for a rational run's literals, the scan's and the pair
# loop's own locals, and the names bound here; no other builtin is reachable.
_NAMESPACE = {
    "__builtins__": {"abs": abs, "float": float, "OverflowError": OverflowError},
    "DomainError": DomainError,
    "NonFinite": NonFinite,
    "OutOfCodomain": OutOfCodomain,
    "_Fraction": Fraction,
    "_reject": _reject,
    "_inf": math.inf,
    "_sqrt": math.sqrt,
    "_exp": math.exp,
    "_log1p": math.log1p,
    "_floor": math.floor,
    "_ceil": math.ceil,
}
_ARITHMETIC = {"+": "+", "-": "-", "*": "*"}
_COMPARISON = {"<": "<", "<=": "<="}
_CALLS = {"sqrt": "_sqrt({})", "exp": "_exp({})", "log1p": "_log1p({})",
          "abs": "abs({})", "floor": "float(_floor({}))",
          "ceil": "float(_ceil({}))"}
_EXACT_CALLS = {"abs": "abs({})", "floor": "_Fraction(_floor({}))",
                "ceil": "_Fraction(_ceil({}))"}
_LARGEST = repr(sys.float_info.max)


class _Emitter:
    """Statements computing a tree's nodes, one assignment per node, in
    floats or in Fractions, whose literals are bound as names."""

    def __init__(self, exact: bool = False) -> None:
        self.lines: list[str] = []
        self.count = 0
        self.exact = exact
        self.zero = "0" if exact else "0.0"  # 0.0 costs Fraction.from_float
        self.constants: dict[str, Fraction] = {}

    def literal(self, value: Fraction) -> str:
        if not self.exact:
            return repr(float(value))
        name = f"c{len(self.constants)}"
        self.constants[name] = value
        return name

    def fresh(self) -> str:
        self.count += 1
        return f"v{self.count - 1}"

    def assign(self, pad: str, expression: str) -> str:
        name = self.fresh()
        self.lines.append(f"{pad}{name} = {expression}")
        return name

    def guard(self, pad: str, condition: str, error: str) -> None:
        self.lines.append(f"{pad}if {condition}: raise {error}")

    def value(self, node: Node, pad: str) -> str:
        """Emit the statements computing node; return the operand naming it."""
        if isinstance(node, Lit):
            return self.literal(node.value)
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Neg):
            return self.assign(pad, f"-{self.value(node.operand, pad)}")
        if isinstance(node, Bin) and node.op == "/":
            # the denominator first: its zero test precedes the numerator
            right = self.value(node.right, pad)
            self.guard(pad, f"{right} == {self.zero}",
                       "DomainError(x, 'division by zero')")
            return self.assign(pad, f"{self.value(node.left, pad)} / {right}")
        if isinstance(node, Bin):
            left, right = self.value(node.left, pad), self.value(node.right, pad)
            if node.op != "^":
                return self.assign(pad,
                                   f"{left} {_ARITHMETIC[node.op]} {right}")
            if self.exact:
                raise PreconditionViolated("'^' has no rational run")
            self.guard(pad, f"{left} < 0.0", "DomainError(x, "
                       f"f\"negative base {{{left}!r}} under '^'\")")
            self.guard(pad, f"{left} == 0.0 and {right} < 0.0",
                       "DomainError(x, 'zero base with negative exponent')")
            # IEEE pow gives 1 for 1 ^ NaN and NaN ^ 0, which would drop it
            self.guard(pad, f"{left} != {left} or {right} != {right}",
                       "NonFinite(x, 'NaN during evaluation')")
            return self.assign(pad, f"{left} ** {right}")
        if isinstance(node, Call):
            return self.call(node, pad)
        if isinstance(node, Piece):
            out = self.fresh()
            inner = pad + "    "
            self.lines.append(f"{pad}if x {_COMPARISON[node.op]} "
                              f"{self.literal(node.threshold)}:")
            self.lines.append(f"{inner}{out} = {self.value(node.then, inner)}")
            self.lines.append(f"{pad}else:")
            self.lines.append(f"{inner}{out} = {self.value(node.other, inner)}")
            return out
        raise AssertionError(node)

    def call(self, node: Call, pad: str) -> str:
        args = [self.value(a, pad) for a in node.args]
        first, name = args[0], node.name
        if name in _VARIADIC_FNS:
            # Python's min/max order: a later argument replaces the running
            # value only when strictly smaller (larger)
            relation = "<" if name == "min" else ">"
            out = self.assign(pad, first)
            self.lines.extend(f"{pad}if {a} {relation} {out}: {out} = {a}"
                              for a in args[1:])
            if not self.exact:  # a Fraction is never NaN
                self.guard(pad, " or ".join(f"{a} != {a}" for a in args),
                           "NonFinite(x, 'NaN during evaluation')")
            return out
        calls = _EXACT_CALLS if self.exact else _CALLS
        if name not in calls:  # sqrt, exp and log1p in Fractions
            raise PreconditionViolated(f"{name} has no rational run")
        if name == "sqrt":
            self.guard(pad, f"{first} < 0.0", "DomainError("
                       f"x, f'sqrt of negative value {{{first}!r}}')")
        elif name == "log1p":
            self.guard(pad, f"{first} <= -1.0", "DomainError("
                       f"x, f'log1p at {{{first}!r}} (needs > -1)')")
        elif name in ("floor", "ceil") and not self.exact:
            self.guard(pad, f"{first} != {first}",
                       "NonFinite(x, 'NaN during evaluation')")
        return self.assign(pad, calls[name].format(first))


def _checked(ast: Node, emitter: _Emitter) -> tuple[str, str]:
    """Loop-body statements computing f(x) with every guard, and the
    operand naming f(x): the argument check, the tree's own guards,
    OverflowError as NonFinite, and the final-range check, which in
    Fractions tests the sign alone (float() of a huge one overflows). `run`,
    `scan` and `pairs` all evaluate through these.

    One assignment per node, so the compiler meets no nesting deeper than
    the eight piece branches. Literals enter as repr(float) or bound names;
    operators and function names are looked up in fixed tables, so no text
    of the expression reaches the source. Every guard is emitted, also on a
    literal operand, so a literal whose float underflows to 0 still meets
    the division-by-zero check.
    """
    result = emitter.value(ast, " " * 12)
    body = "\n".join(emitter.lines) or " " * 12 + "pass"
    bound, reject = (("", "raise OutOfCodomain") if emitter.exact
                     else (f" <= {_LARGEST}", "_reject"))
    return f"""\
        if not {emitter.zero} <= x{bound}:
            raise DomainError(x, "argument outside [0, inf)")
        try:
{body}
        except OverflowError:
            raise NonFinite(x, "overflow during evaluation") from None
        if not {emitter.zero} <= {result}{bound}:
            {reject}(x, {result})
""", result


def _emit_run(check: str, fx: str) -> str:
    """Python source of the generator `run(xs)` around a checked body."""
    return f"""\
def run(xs):
    for x in xs:
{check}\
        yield {fx}
"""


def _ratio_update(num: str, one: str, other: str) -> str:
    """triplets._constant's step for one entry: k becomes inf when the other
    two sum to zero under a positive num, else num / rest if strictly
    greater."""
    return f"""\
        rest = {one} + {other}
        if rest == 0.0:
            if {num} > 0.0: k = _inf
        elif {num} / rest > k: k = {num} / rest
"""


def _sup_update(pad: str, value: str, at: str, witness: str,
                above: str) -> str:
    """What classify.diverged reads, in scan and pairs alike: the sup of
    value with its first arg-max's witness in at, and the sups where above
    holds (sup_top) and where it fails (sup_below)."""
    return f"""\
{pad}if {value} > sup:
{pad}    sup = {value}
{pad}    {at} = {witness}
{pad}if {above}:
{pad}    if {value} > sup_top: sup_top = {value}
{pad}elif {value} > sup_below: sup_below = {value}
"""


def _emit_scan(check: str, fx: str) -> str:
    """Python source of `scan(samples, split)` around a checked body.

    For each sample (a, b, c) it evaluates the body at a, then b, then c,
    scores the images with the formula of triplets._constant, and keeps the
    sups of _sup_update (above split: any entry above it). It stops at the
    first infinite constant and returns (used, sup, sup_top, sup_below,
    best, infinite); best and infinite are (sample, images) or None.
    """
    return f"""\
def scan(samples, split):
    sup = sup_top = sup_below = 0.0
    best = infinite = None
    used = 0
    for t in samples:
        a, b, c = t
        x = a
{check}\
        fa = {fx}
        x = b
{check}\
        fb = {fx}
        x = c
{check}\
        fc = {fx}
        used += 1
        k = 1.0
{_ratio_update("fa", "fb", "fc")}\
{_ratio_update("fb", "fa", "fc")}\
{_ratio_update("fc", "fa", "fb")}\
        if k == _inf:
            infinite = (t, (fa, fb, fc))
            break
{_sup_update(" " * 8, "k", "best", "(t, (fa, fb, fc))",
             "a > split or b > split or c > split")}\
    return used, sup, sup_top, sup_below, best, infinite
"""


def _emit_pairs(check: str, fx: str) -> str:
    """Python source of `pairs(schedule, value_at, split, tol)` around a
    checked body: classify_fn's pair loop.

    For each pair (a, b) it evaluates the body at x = a + b and reads f(a)
    and f(b) from value_at. It keeps the largest defect f(a + b) - f(a) -
    f(b), whether any defect exceeds tol * max(1, |f(a + b)|), and the sups
    of _sup_update over the ratios f(a + b) / (f(a) + f(b)) of pairs with
    f(a) + f(b) > 0 (above split: the sum above it). It returns (count,
    max_defect, defect_at, violates, sup, sup_top, sup_below, ratio_at);
    defect_at and ratio_at hold (a, b, f(a), f(b), f(a + b)) of the first
    pair reaching each maximum, or None. After the final-range check
    f(a + b) >= 0, so max(1, |f(a + b)|) is one comparison.
    """
    return f"""\
def pairs(schedule, value_at, split, tol):
    max_defect = -_inf
    defect_at = ratio_at = None
    violates = False
    sup = sup_top = sup_below = 0.0
    count = 0
    for a, b in schedule:
        x = a + b
{check}\
        fab = {fx}
        count += 1
        fa = value_at[a]
        fb = value_at[b]
        defect = fab - fa - fb
        if defect > max_defect:
            max_defect = defect
            defect_at = (a, b, fa, fb, fab)
        if defect > tol * (fab if fab > 1.0 else 1.0): violates = True
        denom = fa + fb
        if denom > 0.0:
            ratio = fab / denom
{_sup_update(" " * 12, "ratio", "ratio_at", "(a, b, fa, fb, fab)",
             "x > split")}\
    return (count, max_defect, defect_at, violates, sup, sup_top, sup_below,
            ratio_at)
"""


_TEMPLATES = {"run": _emit_run, "scan": _emit_scan, "pairs": _emit_pairs}


@lru_cache(maxsize=64)
def _generated(ast: Node, shape: str, exact: bool):
    """The compiled function `shape` of _TEMPLATES for a tree, in floats or
    Fractions; None where the tree has no rational body. Callers pass all
    three arguments positionally, so one function is one cache key."""
    emitter = _Emitter(exact)
    try:
        source = _TEMPLATES[shape](*_checked(ast, emitter))
    except PreconditionViolated:
        return None
    namespace = {**_NAMESPACE, **emitter.constants}  # complete with the body
    exec(compile(source, "<gmetrix expression>", "exec"), namespace)
    return namespace.pop(shape)  # no cycle through its own globals


@dataclass(frozen=True)
class RealFn:
    """A parsed function expression; callable on floats (a rational
    argument is converted to float)."""

    source: str
    ast: Node

    @cached_property
    def runner(self) -> Callable[[Iterable[float]], Iterator[float]]:
        """The generator `run(xs)` over floats, with every check of eval_fn;
        a failing x raises after the values before it, naming that x."""
        return _generated(self.ast, "run", False)

    @cached_property
    def exact_runner(self) -> Callable[..., Iterator[Fraction]] | None:
        """`run(xs)` over Fractions; None for sqrt, exp, log1p or "^"."""
        return _generated(self.ast, "run", True)

    @cached_property
    def scanner(self) -> Callable[[Iterable[tuple[float, float, float]], float],
                                  tuple]:
        """The image-triplet scan `scan(samples, split)` (see _emit_scan). A
        failing entry raises with its own x, like eval_fn."""
        return _generated(self.ast, "scan", False)

    @cached_property
    def pairer(self) -> Callable[[Iterable[tuple[float, float]],
                                  dict[float, float], float, float], tuple]:
        """The grid profile's pair loop `pairs(schedule, value_at, split,
        tol)` (see _emit_pairs). A failing sum raises with its own x."""
        return _generated(self.ast, "pairs", False)

    def __call__(self, x) -> float:
        return eval_fn(self, x)

    def to_json(self):
        return {"source": self.source}


def parse_fn(text: str) -> RealFn:
    """Parse an expression; raises ParseError / UnknownIdentifier on bad input."""
    tokens = _tokenize(text)
    if tokens[0].kind == "EOF":
        eof = tokens[0]
        raise ParseError("empty expression", eof.line, eof.col,
                         expected=("an expression",))
    parser = _Parser(tokens)
    ast = parser.parse()
    if parser.pieces > _PIECE_CAP:
        raise ParseError(
            f"{parser.pieces} piece branches exceed the cap of {_PIECE_CAP}",
            1, 1, expected=(f"at most {_PIECE_CAP} piece branches",))
    return RealFn(source=text, ast=ast)


def eval_fn(fn: RealFn, x) -> float:
    """Evaluate at x >= 0; the final value must land back in [0, inf)."""
    return next(fn.runner((float(x),)))


def eval_exact(node: Node, x: Fraction) -> Fraction:
    """Exact f(x) at a rational x through the tree's rational run;
    PreconditionViolated for a tree that has none."""
    run = _generated(node, "run", True)
    if run is None:
        raise PreconditionViolated(f"{node!r} has no rational run")
    return next(run((x,)))
