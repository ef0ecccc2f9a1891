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

One code generator serves every evaluation.  compile_expr writes a tree
out once as Python source, one assignment per operation in evaluation
order (left operand, right operand, operator), and compiles from it, on
first use, two functions of the variables.  scalar, on floats, uses
Python operators and math (math.pow for ``^``) and tests each operation
as it goes: a failed domain check, an exception or a non-finite value
raises EvalError naming that subexpression.  array, on floats or arrays
that broadcast together, uses numpy ufuncs under np.errstate(raise)
(np.power for ``^``, never ``**``, which makes a negative base complex)
and tests only its result: under errstate finite operands give a finite
value or raise.  On FloatingPointError or a non-finite result it runs
scalar at each binding in C order, so a point and a batch raise the
same EvalError.  evaluate runs a tree's scalar function, kept in a
bounded cache.  math and numpy may differ in the last bit; a non-finite input
whose effect does not reach the result passes the array path.

No config text reaches compile() unparsed: the source holds generated
names (v0, v1, ... for values; c0, c1, ... for numbers, which are
default arguments), variable names that _VAR_RE admits and fixed
function names.  Trees of one shape share code from a bounded cache.
"""

from __future__ import annotations

import functools
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
    "Compiled",
    "pretty",
    "variables",
    "monomial",
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


def monomial(expr: Expr, var: str) -> tuple[float, float] | None:
    """(c, b) when the tree is c * var^b, else None.

    Matches numbers, var, unary minus, products with a constant factor,
    division by a nonzero number and var^number.
    """
    if isinstance(expr, Num):
        return expr.value, 0.0
    if isinstance(expr, Var):
        return (1.0, 1.0) if expr.name == var else None
    if isinstance(expr, Unary):
        inner = monomial(expr.operand, var)
        return None if inner is None else (-inner[0], inner[1])
    if not isinstance(expr, BinOp):
        return None
    if expr.op == "^" and isinstance(expr.right, Num):
        return (1.0, expr.right.value) if monomial(expr.left, var) == (1.0, 1.0) else None
    if expr.op == "/" and isinstance(expr.right, Num) and expr.right.value != 0.0:
        inner = monomial(expr.left, var)
        return None if inner is None else (inner[0] / expr.right.value, inner[1])
    if expr.op == "*":
        lhs, rhs = monomial(expr.left, var), monomial(expr.right, var)
        if lhs is not None and rhs is not None and 0.0 in (lhs[1], rhs[1]):
            return lhs[0] * rhs[0], lhs[1] + rhs[1]
    return None


def _fail(node: Expr, reason: str) -> "EvalError":
    return EvalError(f"{reason} in subexpression '{pretty(node)}'")


# each operation's scalar form on its operands {0}, {1} and its numpy ufunc
_FORMS = {
    "+": ("{0} + {1}", "add"), "-": ("{0} - {1}", "subtract"), "*": ("{0} * {1}", "multiply"),
    "/": ("{0} / {1}", "divide"), "^": ("pow({0}, {1})", "power"), "neg": ("-{0}", "negative"),
    "exp": ("exp({0})", "exp"), "sin": ("sin({0})", "sin"), "cos": ("cos({0})", "cos"),
    "abs": ("abs({0})", "absolute"), "sqrt": ("sqrt({0})", "sqrt"), "ln": ("log({0})", "log"),
}
# what scalar tests before an operation: (condition, reason)
_GUARDS = {
    "/": (("{1} == 0.0", "division by zero"),),
    "^": (("{0} == 0.0 and {1} < 0.0", "zero raised to a negative power"),
          ("{0} < 0.0 and {1} != floor({1})", "negative base with non-integer exponent")),
    "sqrt": (("{0} < 0.0", "square root of a negative number"),),
    "ln": (("{0} <= 0.0", "logarithm of a non-positive number"),),
}
_SCALAR_NAMES = {f: getattr(math, f) for f in ("exp", "sin", "cos", "sqrt", "log", "pow", "floor", "isfinite")}
_ARRAY_NAMES = {f: getattr(np, f) for f in ("isfinite", "errstate", *(u for _, u in _FORMS.values()))}

# compiled sources, least recently used first: trees of one shape share one
_CODES: dict[str, object] = {}
_CODES_KEPT = 256
# id(tree) -> (tree, its code) for evaluate: a kept tree keeps its id
_EVALUATED: dict[int, tuple] = {}


def _each(scalar: Callable, *args) -> np.ndarray:
    """scalar at every binding of the broadcast args, in C order."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    out = np.empty(arrays[0].shape if arrays else ())
    for idx in np.ndindex(out.shape):
        out[idx] = scalar(*(float(a[idx]) for a in arrays))
    return out


def _bound(params: tuple[str, ...], env: Mapping[str, object]) -> list:
    """env's value of each parameter; EvalError names the first unbound one."""
    for name in params:
        if name not in env:
            raise EvalError(f"unbound variable '{name}'")
    return [env[name] for name in params]


class Compiled:
    """The generated functions scalar and array of one tree over params
    (default: the variables in the order of their first read), each
    compiled on first use.  Called with env, a mapping of variable names
    to floats or arrays, it gives an array of env's broadcast shape, or
    raises the EvalError of evaluate at the first failing binding in C
    order."""

    def __init__(self, expr: Expr, params: tuple[str, ...] | None = None):
        self._nodes: list[Expr] = []  # the operations, in evaluation order
        self._steps: list[tuple] = []  # (index, key, operands) per operation
        self._reads: list[str] = []  # the variables, in the order of their first read
        self._constants: list[float] = []  # the numbers, default arguments c0, c1, ...
        self._result = self._emit(expr)
        self.params = tuple(self._reads if params is None else params)
        if not all(map(_VAR_RE.fullmatch, self.params)):
            raise ValueError(f"not variable names: {self.params!r}")
        _bound(self._reads, dict.fromkeys(self.params))  # every variable is a parameter

    def _emit(self, node: Expr) -> str:
        """The operand naming node's value, after the steps computing it."""
        if isinstance(node, Num):
            self._constants.append(float(node.value))
            return f"c{len(self._constants) - 1}"
        if isinstance(node, Var):
            if node.name not in self._reads:
                self._reads.append(node.name)
            return node.name
        if isinstance(node, Unary):
            key, operands = "neg", (self._emit(node.operand),)
        elif isinstance(node, BinOp) and node.op in _BINARY_BP:
            key, operands = node.op, (self._emit(node.left), self._emit(node.right))
        elif isinstance(node, Call):
            if node.func not in FUNCTIONS:
                raise _fail(node, f"unknown function {node.func!r}")
            key, operands = node.func, (self._emit(node.arg),)
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        self._steps.append((len(self._nodes), key, operands))
        self._nodes.append(node)
        return f"v{len(self._nodes) - 1}"

    def _compile(self, kind: str, names: dict, **extra) -> Callable:
        numbers = [f"c{k}" for k in range(len(self._constants))]
        lines = [f"def {kind}({', '.join([*self.params, *(f'{c}={c}' for c in numbers)])}):"]
        if kind == "scalar":
            for step in self._steps:
                lines += _scalar_lines(*step)
        elif self._steps:
            args = ", ".join(self.params)
            lines += ["    try:", '        with errstate(divide="raise", over="raise", invalid="raise"):',
                      *(f"            v{i} = {_FORMS[key][1]}({', '.join(operands)})" for i, key, operands in self._steps),
                      "    except FloatingPointError:", f"        return _each({args})",
                      f"    if not isfinite({self._result}).all():", f"        return _each({args})"]
        lines.append(f"    return {self._result}")
        source = "\n".join(lines)
        code = _CODES.pop(source, None) or compile(source, "<exprlang>", "exec")
        _CODES[source] = code  # the most recently used last
        if len(_CODES) > _CODES_KEPT:
            del _CODES[next(iter(_CODES))]
        namespace = {**names, **dict(zip(numbers, self._constants)), **extra}
        exec(code, namespace)
        return namespace.pop(kind)  # a function in its own globals would be a reference cycle

    scalar = functools.cached_property(
        lambda self: self._compile("scalar", _SCALAR_NAMES, _fail=_fail, _nodes=self._nodes))
    array = functools.cached_property(
        lambda self: self._compile("array", _ARRAY_NAMES, _each=functools.partial(_each, self.scalar)))

    def __call__(self, env: Mapping[str, object]) -> np.ndarray:
        value = self.array(*(np.asarray(a, dtype=float) for a in _bound(self.params, env)))
        out = np.empty(np.broadcast_shapes(*(np.shape(v) for v in env.values())))
        out[...] = value
        return out


def _scalar_lines(index: int, key: str, operands: tuple[str, ...]) -> list[str]:
    """One operation of the scalar function, raising the EvalError of its
    node on a failed guard, an exception or a non-finite value."""
    fail = f"raise _fail(_nodes[{index}], {{}})"
    lines = []
    for condition, reason in _GUARDS.get(key, ()):
        lines += [f"    if {condition.format(*operands)}:", "        " + fail.format(repr(reason))]
    line = f"v{index} = {_FORMS[key][0].format(*operands)}"
    if key == "neg":
        return lines + ["    " + line]
    caught, reason = ("(ValueError, OverflowError) as e", "str(e)") if key == "^" else ("OverflowError", "'overflow'")
    return lines + ["    try:", "        " + line, f"    except {caught}:", f"        {fail.format(reason)} from None",
                    f"    if not isfinite(v{index}):", "        " + fail.format("'overflow'")]


def compile_expr(expr: Expr, params: tuple[str, ...] | None = None) -> Compiled:
    """The generated functions of the tree over params (Compiled)."""
    return Compiled(expr, params)


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate the tree with variables bound by env: its generated
    scalar function, compiled once per tree while the tree is among the
    last _CODES_KEPT evaluated."""
    hit = _EVALUATED.get(id(expr))
    if hit is None:
        hit = _EVALUATED[id(expr)] = (expr, Compiled(expr))
        if len(_EVALUATED) > _CODES_KEPT:
            del _EVALUATED[next(iter(_EVALUATED))]
    code = hit[1]
    return code.scalar(*map(float, _bound(code.params, env)))


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
