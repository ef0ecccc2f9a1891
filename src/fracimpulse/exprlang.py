r"""Arithmetic expression mini-language for config files.

Grammar (binding from loosest to tightest):

    expr   :=  expr ('+' | '-') expr           left associative
            |  expr ('*' | '/') expr           left associative
            |  '-' expr                        unary minus
            |  expr '^' expr                   right associative, tightest
            |  func '(' expr ')'
            |  '(' expr ')'
            |  number | variable

so ``-x^2`` is ``-(x^2)`` and ``a^b^c`` is ``a^(b^c)``.  Functions:
exp, sin, cos, abs, sqrt, ln.  Variables: t, x, xr, xtsup for scalar
problems; components x1..xd and xr1..xrd replace x and xr when d > 1.
Number literals are plain nonnegative floats (scientific notation ok);
a leading '-' is always the unary operator.

Evaluation is strict about domains: division by zero, sqrt/ln outside
their domains, negative base to a non-integer power, and overflow all
raise EvalError naming the offending subexpression instead of letting
NaN or inf propagate.

Two evaluators share these semantics.  evaluate walks the tree for one
binding of scalars.  compile_expr turns a tree, once, into a numpy
closure fn(env) whose variables may be arrays: it broadcasts over their
shapes and returns a float64 array of the broadcast shape, so the same
closure serves one point (scalars) and a whole mesh (arrays).  ``^`` is
np.power, never Python ``**`` (which turns a negative base with a
non-integer exponent into a complex number).  The closure runs under
np.errstate(divide, over, invalid = "raise"); when numpy raises
FloatingPointError it evaluates the bindings one by one with evaluate,
in C order, so the first failing binding raises the same EvalError,
naming the same subexpression, that evaluate raises.  The tree walk is
the error oracle; the closure only makes the success path fast.  With
finite inputs every domain error and overflow raises in numpy too;
non-finite inputs propagate as IEEE arithmetic has them (the solvers
reject non-finite right-hand sides).  Transcendental functions may
differ from the math module's in the last bit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "BinOp",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "compile_expr",
    "pretty",
    "variables",
]


class ExprError(ValueError):
    """Base class for expression language failures."""


class ParseError(ExprError):
    pass


class EvalError(ExprError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Unary, BinOp, Call]

FUNCTIONS = ("exp", "sin", "cos", "abs", "sqrt", "ln")

_VAR_RE = re.compile(r"^(t|xtsup|x\d*|xr\d*)$")

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

# Pratt binding powers: (left, right); unary minus sits between '*' and '^'.
_BINARY_BP = {"+": (10, 11), "-": (10, 11), "*": (20, 21), "/": (20, 21), "^": (40, 39)}
_UNARY_BP = 30


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            rest = source[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} at position {pos}")
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


def parse(source: str) -> Expr:
    """Parse source text into an Expr tree.

    Unknown identifiers (neither a variable form nor a function name) are
    rejected here; whether a given variable is bound is the evaluator's
    concern.
    """
    if not isinstance(source, str) or not source.strip():
        raise ParseError("empty expression")
    tokens = _tokenize(source)
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def advance():
        tok = tokens[state["i"]]
        state["i"] += 1
        return tok

    def expect_op(symbol: str):
        kind, text, pos = advance()
        if kind != "op" or text != symbol:
            raise ParseError(f"expected {symbol!r} at position {pos}, found {text!r}")

    def parse_bp(min_bp: int) -> Expr:
        kind, text, pos = advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} overflows at position {pos}")
            left: Expr = Num(value)
        elif kind == "name":
            if peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {text!r} at position {pos}; "
                        f"known: {', '.join(FUNCTIONS)}"
                    )
                advance()
                arg = parse_bp(0)
                expect_op(")")
                left = Call(text, arg)
            else:
                if _VAR_RE.match(text) is None:
                    raise ParseError(f"unknown identifier {text!r} at position {pos}")
                left = Var(text)
        elif kind == "op" and text == "-":
            left = Unary("-", parse_bp(_UNARY_BP))
        elif kind == "op" and text == "(":
            left = parse_bp(0)
            expect_op(")")
        else:
            raise ParseError(f"unexpected token {text!r} at position {pos}")

        while True:
            kind, text, pos = peek()
            if kind != "op" or text not in _BINARY_BP:
                break
            lbp, rbp = _BINARY_BP[text]
            if lbp <= min_bp:
                break
            advance()
            right = parse_bp(rbp)
            left = BinOp(text, left, right)
        return left

    tree = parse_bp(0)
    kind, text, pos = peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {text!r} at position {pos}")
    return tree


def variables(expr: Expr) -> frozenset[str]:
    """Set of variable names referenced by the tree."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return frozenset(out)


def _fail(node: Expr, reason: str) -> "EvalError":
    return EvalError(f"{reason} in subexpression '{pretty(node)}'")


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate the tree with variables bound by env."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(env[expr.name])
        except KeyError:
            raise EvalError(f"unbound variable '{expr.name}'") from None
    if isinstance(expr, Unary):
        return -evaluate(expr.operand, env)
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, env)
        b = evaluate(expr.right, env)
        if expr.op == "+":
            r = a + b
        elif expr.op == "-":
            r = a - b
        elif expr.op == "*":
            r = a * b
        elif expr.op == "/":
            if b == 0.0:
                raise _fail(expr, "division by zero")
            r = a / b
        else:  # '^'
            if a == 0.0 and b < 0.0:
                raise _fail(expr, "zero raised to a negative power")
            if a < 0.0 and b != math.floor(b):
                raise _fail(expr, "negative base with non-integer exponent")
            try:
                r = math.pow(a, b)
            except (ValueError, OverflowError) as e:
                raise _fail(expr, str(e)) from None
        if not math.isfinite(r):
            raise _fail(expr, "overflow")
        return r
    if isinstance(expr, Call):
        v = evaluate(expr.arg, env)
        try:
            if expr.func == "exp":
                r = math.exp(v)
            elif expr.func == "sin":
                r = math.sin(v)
            elif expr.func == "cos":
                r = math.cos(v)
            elif expr.func == "abs":
                r = abs(v)
            elif expr.func == "sqrt":
                if v < 0.0:
                    raise _fail(expr, "square root of a negative number")
                r = math.sqrt(v)
            elif expr.func == "ln":
                if v <= 0.0:
                    raise _fail(expr, "logarithm of a non-positive number")
                r = math.log(v)
            else:
                raise _fail(expr, f"unknown function {expr.func!r}")
        except OverflowError:
            raise _fail(expr, "overflow") from None
        if not math.isfinite(r):
            raise _fail(expr, "overflow")
        return r
    raise TypeError(f"not an Expr node: {expr!r}")


_NP_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_NP_FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "ln": np.log,
}


def _numpy_closure(expr: Expr) -> Callable[[Mapping[str, np.ndarray]], object]:
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name

        def var(env):
            try:
                return np.asarray(env[name], dtype=float)
            except KeyError:
                raise EvalError(f"unbound variable '{name}'") from None

        return var
    if isinstance(expr, Unary):
        operand = _numpy_closure(expr.operand)
        return lambda env: np.negative(operand(env))
    if isinstance(expr, BinOp):
        op = _NP_BINARY[expr.op]
        left, right = _numpy_closure(expr.left), _numpy_closure(expr.right)
        return lambda env: op(left(env), right(env))
    if isinstance(expr, Call):
        if expr.func not in _NP_FUNCTIONS:
            raise _fail(expr, f"unknown function {expr.func!r}")
        fn, arg = _NP_FUNCTIONS[expr.func], _numpy_closure(expr.arg)
        return lambda env: fn(arg(env))
    raise TypeError(f"not an Expr node: {expr!r}")


def _walk_each(expr: Expr, env: Mapping[str, object]) -> np.ndarray:
    """evaluate at every binding of the broadcast env, in C order."""
    names = list(env)
    arrays = np.broadcast_arrays(*(np.asarray(env[name], dtype=float) for name in names))
    shape = arrays[0].shape if arrays else ()
    out = np.empty(shape)
    for idx in np.ndindex(shape):
        out[idx] = evaluate(expr, {name: a[idx] for name, a in zip(names, arrays)})
    return out


def compile_expr(expr: Expr) -> Callable[[Mapping[str, object]], np.ndarray]:
    """The tree as a numpy closure fn(env) -> array of env's broadcast shape.

    env maps variable names to floats or arrays.  Errors are those of
    evaluate at the first failing binding in C order (see the module
    docstring).
    """
    body = _numpy_closure(expr)

    def run(env: Mapping[str, object]) -> np.ndarray:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                value = body(env)
        except FloatingPointError:
            return _walk_each(expr, env)
        out = np.empty(np.broadcast_shapes(*(np.shape(v) for v in env.values())))
        out[...] = value
        return out

    return run


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "unary": 3, "^": 4, "atom": 5}


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Unary):
        return _PREC["unary"]
    return _PREC["atom"]


def pretty(expr: Expr) -> str:
    """Render with the fewest parentheses that reparse to the same tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        inner = pretty(expr.operand)
        if _prec(expr.operand) < _PREC["unary"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.func}({pretty(expr.arg)})"
    if isinstance(expr, BinOp):
        op = expr.op
        mine = _PREC[op]
        left = pretty(expr.left)
        right = pretty(expr.right)
        if op == "^":
            # right associative: parenthesize left at equal precedence
            if _prec(expr.left) <= mine:
                left = f"({left})"
            if _prec(expr.right) < mine:
                right = f"({right})"
        else:
            if _prec(expr.left) < mine:
                left = f"({left})"
            if _prec(expr.right) <= mine:
                right = f"({right})"
        return f"{left} {op} {right}" if op in "+-" else f"{left}{op}{right}"
    raise TypeError(f"not an Expr node: {expr!r}")
