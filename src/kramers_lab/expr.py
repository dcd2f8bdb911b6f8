"""Expression language for potentials and vector fields.

A small recursive-descent parser plus exact symbolic differentiation for the
landscape definition language:

    expression := term (('+' | '-') term)*
    term       := unary (('*' | '/') unary)*
    unary      := '-' unary | power
    power      := atom ('^' ['-'] integer)*
    atom       := number | identifier | identifier '(' expression ')'
                | '(' expression ')'

Binary operators associate to the left; precedence is ^ > unary minus > * /
> + -.  Variables are ``x1..xd`` with the aliases ``x, y, z`` for the first
three coordinates.  Functions: exp, log, sin, cos.  Powers take literal
(optionally negated) integer exponents.

ASTs are immutable; simplification is limited to constant folding and 0/1
absorption, and only the smart constructors (used by :func:`differentiate`)
apply it — :func:`parse` returns the literal tree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "ExprError", "ParseError", "EvalError",
    "parse", "pretty", "evaluate", "evaluate_many",
    "differentiate", "gradient", "hessian", "variable", "constant",
]


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax or name error, carrying the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalError(ExprError):
    """Domain error during evaluation (division by zero, log of <= 0, ...)."""


# ---------------------------------------------------------------------------
# AST

_UNARY_FUNCS = ("exp", "log", "sin", "cos")
_KINDS = ("const", "var", "sum", "prod", "quot", "pow", "neg") + _UNARY_FUNCS


@dataclass(frozen=True)
class Expr:
    """One AST node.

    kind is one of const, var, sum, prod, quot, pow, neg, exp, log, sin, cos.
    ``value`` is set for const, ``index`` for var (0-based), ``exponent`` for
    pow.  Nodes are hashable and safe to share between threads.
    """

    kind: str
    children: tuple["Expr", ...] = ()
    value: float | None = None
    index: int | None = None
    exponent: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")

    # Operator sugar is handy in tests and preset definitions.
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __pow__(self, n: int):
        return power(self, n)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return pretty(self)


def constant(v: float) -> Expr:
    return Expr("const", value=float(v))


def variable(index: int) -> Expr:
    if index < 0:
        raise ValueError("variable index must be >= 0")
    return Expr("var", index=index)


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _is_const(e: Expr, v: float | None = None) -> bool:
    return e.kind == "const" and (v is None or e.value == v)


# Smart constructors: constant folding and 0/1 absorption only.

def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return constant(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Expr("sum", (a, b))


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return constant(-a.value)
    if a.kind == "neg":
        return a.children[0]
    return Expr("neg", (a,))


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return constant(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return constant(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Expr("prod", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b):
        if b.value == 0:
            raise EvalError("division by constant zero")
        if b.value == 1.0:
            return a
        if _is_const(a):
            return constant(a.value / b.value)
    if _is_const(a, 0.0):
        return constant(0.0)
    return Expr("quot", (a, b))


def power(a: Expr, n: int) -> Expr:
    n = int(n)
    if n == 0:
        return constant(1.0)
    if n == 1:
        return a
    if _is_const(a):
        return constant(a.value ** n)
    return Expr("pow", (a,), exponent=n)


def func(name: str, a: Expr) -> Expr:
    if name not in _UNARY_FUNCS:
        raise ValueError(f"unknown function {name!r}")
    if _is_const(a):
        return constant(getattr(math, name)(a.value))
    return Expr(name, (a,))


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass
class _Token:
    kind: str  # num ident op end
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # Skip trailing whitespace gracefully; anything else is an error.
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            raise ParseError(
                f"unexpected character {stripped[0]!r}",
                pos + (len(rest) - len(stripped)),
            )
        for kind in ("num", "ident", "op"):
            if m.group(kind) is not None:
                tokens.append(_Token(kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


_ALIASES = {"x": 0, "y": 1, "z": 2}


class _Parser:
    def __init__(self, text: str, dimension: int):
        self.text = text
        self.dimension = dimension
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.offset)
        return self.next()

    def parse(self) -> Expr:
        e = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.offset)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.next()
                rhs = self.term()
                e = Expr("sum", (e, rhs if tok.text == "+" else Expr("neg", (rhs,))))
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.next()
                rhs = self.unary()
                e = Expr("prod" if tok.text == "*" else "quot", (e, rhs))
            else:
                return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Expr("neg", (self.unary(),))
        return self.power()

    def power(self) -> Expr:
        e = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "^":
                self.next()
                e = Expr("pow", (e,), exponent=self.exponent())
            else:
                return e

    def exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            raise ParseError("expected integer exponent", tok.offset)
        self.next()
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Expr("const", value=float(tok.text))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if name not in _UNARY_FUNCS:
                    raise ParseError(f"unknown function {name!r}", tok.offset)
                self.next()
                arg = self.expression()
                self.expect_op(")")
                return Expr(name, (arg,))
            return self.variable_ref(name, tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            e = self.expression()
            self.expect_op(")")
            return e
        raise ParseError("syntax error", tok.offset)

    def variable_ref(self, name: str, offset: int) -> Expr:
        if name in _ALIASES:
            index = _ALIASES[name]
        else:
            m = re.fullmatch(r"x(\d+)", name)
            if m is None:
                raise ParseError(f"unknown identifier {name!r}", offset)
            index = int(m.group(1)) - 1
            if index < 0:
                raise ParseError(f"unknown identifier {name!r}", offset)
        if index >= self.dimension:
            raise ParseError(
                f"variable {name!r} out of range for dimension {self.dimension}",
                offset,
            )
        return Expr("var", index=index)


def parse(text: str, dimension: int) -> Expr:
    """Parse ``text`` into an AST over variables x1..x{dimension}.

    Raises :class:`ParseError` with the byte offset of the offending token on
    syntax errors, unknown identifiers/functions, and out-of-range variables.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    return _Parser(text, dimension).parse()


# ---------------------------------------------------------------------------
# Pretty-printing.  Precedence levels: sum=1, prod/quot=2, neg=3, pow=4,
# atoms=5.  parse(pretty(e)) reproduces e exactly.

_PREC = {"sum": 1, "prod": 2, "quot": 2, "neg": 3, "pow": 4}


def _prec(e: Expr) -> int:
    return _PREC.get(e.kind, 5)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


_VAR_NAMES = ("x", "y", "z")


def pretty(e: Expr) -> str:
    """Render ``e`` with minimal parentheses; inverse of :func:`parse`."""
    return _pretty(e)


def _wrap(child: Expr, minimum: int) -> str:
    s = _pretty(child)
    return f"({s})" if _prec(child) < minimum else s


def _pretty(e: Expr) -> str:
    k = e.kind
    if k == "const":
        v = e.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            return f"-{_fmt_num(-v)}"
        return _fmt_num(v)
    if k == "var":
        if e.index < 3:
            return _VAR_NAMES[e.index]
        return f"x{e.index + 1}"
    if k == "sum":
        a, b = e.children
        left = _wrap(a, 1)
        if b.kind == "neg":
            return f"{left} - {_wrap(b.children[0], 2)}"
        if b.kind == "const" and b.value < 0:
            return f"{left} - {_fmt_num(-b.value)}"
        return f"{left} + {_wrap(b, 2)}"
    if k in ("prod", "quot"):
        a, b = e.children
        op = "*" if k == "prod" else "/"
        # Right operand needs strictly higher precedence to survive
        # left-associative re-parsing.
        return f"{_wrap(a, 2)} {op} {_wrap(b, 3)}"
    if k == "neg":
        return f"-{_wrap(e.children[0], 3)}"
    if k == "pow":
        base = _wrap(e.children[0], 5)
        return f"{base}^{e.exponent}"
    # functions
    return f"{k}({_pretty(e.children[0])})"


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expr, point) -> float:
    """Evaluate at a point (sequence of coordinates).  Scalar, strict errors."""
    val = _eval_scalar(e, point)
    if not math.isfinite(val):
        raise EvalError(f"non-finite value {val!r} in scalar evaluation")
    return val


def _eval_scalar(e: Expr, point) -> float:
    k = e.kind
    if k == "const":
        return e.value
    if k == "var":
        return float(point[e.index])
    if k == "sum":
        return _eval_scalar(e.children[0], point) + _eval_scalar(e.children[1], point)
    if k == "prod":
        return _eval_scalar(e.children[0], point) * _eval_scalar(e.children[1], point)
    if k == "quot":
        den = _eval_scalar(e.children[1], point)
        if den == 0.0:
            raise EvalError("division by zero")
        return _eval_scalar(e.children[0], point) / den
    if k == "pow":
        base = _eval_scalar(e.children[0], point)
        if base == 0.0 and e.exponent < 0:
            raise EvalError("zero raised to a negative power")
        try:
            return base ** e.exponent
        except OverflowError as exc:
            raise EvalError(f"overflow in {base!r}^{e.exponent}") from exc
    if k == "neg":
        return -_eval_scalar(e.children[0], point)
    arg = _eval_scalar(e.children[0], point)
    if k == "log":
        if arg <= 0.0:
            raise EvalError(f"log of non-positive value {arg!r}")
        return math.log(arg)
    try:
        return getattr(math, k)(arg)
    except (OverflowError, ValueError) as exc:
        # sin/cos of an infinity raise a bare domain error; exp overflows
        raise EvalError(f"domain error in {k}({arg!r})") from exc


def evaluate_many(e: Expr, points: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an (n, d) array of points. Returns shape (n,).

    Raises :class:`EvalError` if any point hits a domain error or produces a
    non-finite value.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            out = _eval_many(e, points)
        except FloatingPointError as exc:
            raise EvalError(f"domain error in vectorized evaluation: {exc}") from exc
    out = np.broadcast_to(out, (points.shape[0],)).astype(float)
    if not np.all(np.isfinite(out)):
        raise EvalError("non-finite value in vectorized evaluation")
    return out


def _eval_many(e: Expr, pts: np.ndarray):
    k = e.kind
    if k == "const":
        return np.full(pts.shape[0], e.value)
    if k == "var":
        return pts[:, e.index]
    if k == "sum":
        return _eval_many(e.children[0], pts) + _eval_many(e.children[1], pts)
    if k == "prod":
        return _eval_many(e.children[0], pts) * _eval_many(e.children[1], pts)
    if k == "quot":
        den = _eval_many(e.children[1], pts)
        if np.any(den == 0.0):
            raise EvalError("division by zero")
        return _eval_many(e.children[0], pts) / den
    if k == "pow":
        base = _eval_many(e.children[0], pts)
        if e.exponent < 0 and np.any(base == 0.0):
            raise EvalError("zero raised to a negative power")
        return base ** float(e.exponent)
    if k == "neg":
        return -_eval_many(e.children[0], pts)
    arg = _eval_many(e.children[0], pts)
    if k == "log":
        if np.any(arg <= 0.0):
            raise EvalError("log of non-positive value")
        return np.log(arg)
    return getattr(np, k)(arg)


# ---------------------------------------------------------------------------
# Differentiation

def differentiate(e: Expr, var: int) -> Expr:
    """Exact partial derivative d e / d x_{var+1} as a new AST."""
    k = e.kind
    if k == "const":
        return constant(0.0)
    if k == "var":
        return constant(1.0 if e.index == var else 0.0)
    if k == "sum":
        return add(differentiate(e.children[0], var),
                   differentiate(e.children[1], var))
    if k == "prod":
        a, b = e.children
        return add(mul(differentiate(a, var), b), mul(a, differentiate(b, var)))
    if k == "quot":
        a, b = e.children
        num = sub(mul(differentiate(a, var), b), mul(a, differentiate(b, var)))
        return div(num, power(b, 2))
    if k == "pow":
        a = e.children[0]
        return mul(mul(constant(e.exponent), power(a, e.exponent - 1)),
                   differentiate(a, var))
    if k == "neg":
        return neg(differentiate(e.children[0], var))
    a = e.children[0]
    da = differentiate(a, var)
    if k == "exp":
        return mul(func("exp", a), da)
    if k == "log":
        return div(da, a)
    if k == "sin":
        return mul(func("cos", a), da)
    if k == "cos":
        return neg(mul(func("sin", a), da))
    raise AssertionError(k)


def gradient(e: Expr, dimension: int) -> list[Expr]:
    return [differentiate(e, i) for i in range(dimension)]


def hessian(e: Expr, dimension: int) -> list[list[Expr]]:
    grad = gradient(e, dimension)
    return [[differentiate(g, j) for j in range(dimension)] for g in grad]
