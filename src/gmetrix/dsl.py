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

Functions: min, max (two or more arguments), sqrt, exp, log1p, abs, floor,
ceil (one argument). Rational constants are spelled with "/" (e.g. 3/4).
Precedence from loose to tight: +-, */, unary minus, ^. At most eight piece
branches per expression. Operands nest at most 100 deep: the whole
expression is at depth 1, and each parenthesis group, unary minus, "^"
exponent, function argument, piece branch and further operator of a "+-" or
"*/" chain puts its operand one deeper. A literal must fit a float. Parse
errors report 1-based line/column and what was expected.

Evaluation is in floats. Intermediate values may leave [0, inf) (e.g. the
"-1" inside "exp(x)-1"); only the final value must be nonnegative. A sqrt of
a negative intermediate, log1p at or below -1, a division by zero, or a
negative base under "^" raises DomainError; overflow, inf, or NaN raises
NonFinite (also floor or ceil of an intermediate NaN); a negative final
value raises OutOfCodomain.

Expressions built only from "+", "*", "min", "max", literals, and "x" also
evaluate exactly over rationals (see exact_capable / eval_exact); table
pushforwards use that path whenever it applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

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


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("digit expected after decimal point",
                                     line, col + (j - i),
                                     expected=("a digit",))
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, start_col,
                                 _literal(text[i:j], line, start_col)))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            tokens.append(_Token("OP", ch, line, start_col))
        elif ch == "(":
            tokens.append(_Token("LPAREN", ch, line, start_col))
        elif ch == ")":
            tokens.append(_Token("RPAREN", ch, line, start_col))
        elif ch == ",":
            tokens.append(_Token("COMMA", ch, line, start_col))
        elif ch == "?":
            tokens.append(_Token("QUESTION", ch, line, start_col))
        elif ch == ":":
            tokens.append(_Token("COLON", ch, line, start_col))
        elif ch == "<":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(_Token("LE", "<=", line, start_col))
                i += 1
                col += 1
            else:
                tokens.append(_Token("LT", "<", line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i += 1
        col += 1
    tokens.append(_Token("EOF", "", line, col))
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
    # to the left, so these three bound the depth of every later recursion.
    def expr(self) -> Node:
        depth = self.depth
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            self.deeper()
            node = Bin(op, node, self.term())
        self.depth = depth
        return node

    def term(self) -> Node:
        depth = self.depth
        node = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            self.deeper()
            node = Bin(op, node, self.factor())
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


def _count_pieces(node: Node) -> int:
    if isinstance(node, Piece):
        return 1 + _count_pieces(node.then) + _count_pieces(node.other)
    if isinstance(node, Bin):
        return _count_pieces(node.left) + _count_pieces(node.right)
    if isinstance(node, Neg):
        return _count_pieces(node.operand)
    if isinstance(node, Call):
        return sum(_count_pieces(a) for a in node.args)
    return 0


# --- compilation to float closures ---------------------------------------------------

def _compile(node: Node) -> Callable[[float], float]:
    if isinstance(node, Lit):
        constant = float(node.value)
        return lambda x: constant
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        inner = _compile(node.operand)
        return lambda x: -inner(x)
    if isinstance(node, Bin):
        left, right = _compile(node.left), _compile(node.right)
        if node.op == "+":
            return lambda x: left(x) + right(x)
        if node.op == "-":
            return lambda x: left(x) - right(x)
        if node.op == "*":
            return lambda x: left(x) * right(x)
        if node.op == "/":
            def divide(x: float) -> float:
                denom = right(x)
                if denom == 0.0:
                    raise DomainError(x, "division by zero")
                return left(x) / denom
            return divide
        if node.op == "^":
            def power(x: float) -> float:
                base = left(x)
                exponent = right(x)
                if base < 0.0:
                    raise DomainError(x, f"negative base {base!r} under '^'")
                if base == 0.0 and exponent < 0.0:
                    raise DomainError(x, "zero base with negative exponent")
                return base ** exponent
            return power
        raise AssertionError(node.op)
    if isinstance(node, Call):
        inners = tuple(_compile(a) for a in node.args)
        name = node.name
        if name == "min":
            return lambda x: min(f(x) for f in inners)
        if name == "max":
            return lambda x: max(f(x) for f in inners)
        inner = inners[0]
        if name == "sqrt":
            def sqrt_fn(x: float) -> float:
                value = inner(x)
                if value < 0.0:
                    raise DomainError(x, f"sqrt of negative value {value!r}")
                return math.sqrt(value)
            return sqrt_fn
        if name == "exp":
            def exp_fn(x: float) -> float:
                return math.exp(inner(x))
            return exp_fn
        if name == "log1p":
            def log1p_fn(x: float) -> float:
                value = inner(x)
                if value <= -1.0:
                    raise DomainError(x, f"log1p at {value!r} (needs > -1)")
                return math.log1p(value)
            return log1p_fn
        if name == "abs":
            return lambda x: abs(inner(x))
        if name == "floor":
            return lambda x: float(math.floor(inner(x)))
        if name == "ceil":
            return lambda x: float(math.ceil(inner(x)))
        raise AssertionError(name)
    if isinstance(node, Piece):
        threshold = float(node.threshold)
        then, other = _compile(node.then), _compile(node.other)
        if node.op == "<":
            return lambda x: then(x) if x < threshold else other(x)
        return lambda x: then(x) if x <= threshold else other(x)
    raise AssertionError(node)


@dataclass(frozen=True)
class RealFn:
    """A parsed function expression; callable on floats (and rationals)."""

    source: str
    ast: Node
    runner: Callable[[float], float] = field(compare=False, repr=False)

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
    ast = _Parser(tokens).parse()
    pieces = _count_pieces(ast)
    if pieces > _PIECE_CAP:
        raise ParseError(
            f"{pieces} piece branches exceed the cap of {_PIECE_CAP}", 1, 1,
            expected=(f"at most {_PIECE_CAP} piece branches",))
    return RealFn(source=text, ast=ast, runner=_compile(ast))


def eval_fn(fn: RealFn, x) -> float:
    """Evaluate at x >= 0; the final value must land back in [0, inf)."""
    xf = float(x)
    if math.isnan(xf) or xf < 0.0:
        raise DomainError(x, "argument outside [0, inf)")
    try:
        value = fn.runner(xf)
    except OverflowError:
        raise NonFinite(xf, "overflow during evaluation") from None
    except ValueError:  # math.floor or math.ceil of a NaN; nothing else
        raise NonFinite(xf, "NaN during evaluation") from None
    except ZeroDivisionError:  # safety net; guards normally catch this
        raise DomainError(xf, "division by zero") from None
    if math.isnan(value) or math.isinf(value):
        raise NonFinite(xf, f"non-finite value {value!r}")
    if value < 0.0:
        raise OutOfCodomain(xf, value)
    return value


# --- exact fragment -------------------------------------------------------------------

def exact_capable(node: Node) -> bool:
    """True when the tree uses only +, *, min, max, literals, and x."""
    if isinstance(node, (Lit, Var)):
        return True
    if isinstance(node, Bin):
        return node.op in "+*" and exact_capable(node.left) and exact_capable(node.right)
    if isinstance(node, Call):
        return node.name in _VARIADIC_FNS and all(exact_capable(a)
                                                  for a in node.args)
    return False


def eval_exact(node: Node, x: Fraction) -> Fraction:
    """Exact rational evaluation of an exact-capable tree."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Bin) and node.op in "+*":
        left, right = eval_exact(node.left, x), eval_exact(node.right, x)
        return left + right if node.op == "+" else left * right
    if isinstance(node, Call) and node.name in _VARIADIC_FNS:
        values = [eval_exact(a, x) for a in node.args]
        return min(values) if node.name == "min" else max(values)
    raise PreconditionViolated(f"{node!r} is outside the exact fragment")
