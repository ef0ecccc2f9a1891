r"""Run configuration: strict JSON schema -> ProblemSpec + run settings.

Layout (unknown keys are rejected everywhere, errors carry field paths):

    {
      "notes": ["free-form strings; carried along, never interpreted"],
      "problem": {
        "alpha": 0.5, "T": 1.0, "x0": 0.1,
        "rhs": {"kind": "split", "f1": "x", "f2": "-x^2"},
        "impulses": [{"time": 0.3, "jump": "0.05"}],
        "delay": {"r": 0.5, "history": "0"}
      },
      "numerics": {"target_h": 0.001, "scheme": "trapezoid",
                    "method": "picard", "tol": 1e-10, "max_iter": 200},
      "certificate": {"p": "auto", "jump_bound": 0.05,
                       "jump_lipschitz": 0.0, "jump_bound_star": 0.05,
                       "envelopes": {"lip": {"form": "exp_decay",
                                              "scale": 0.5, "rate": 1.0}}},
      "output": {"csv": "run.csv", "report": "run.txt"}
    }

Right-hand sides, jumps, and histories are expressions (see exprlang);
for state dimension d > 1 they become lists of d expressions over
components x1..xd (and xr1..xrd), and x0 a list of d numbers.  All
become callables by one rule (_compiled): one point takes the generated
scalar functions, a batch the generated array functions.  The
delay spec is present exactly when rhs.kind is delay/general_delay,
and x0 may then be omitted (taken from history(0)).  numerics.tol and
numerics.max_iter apply to the picard method only; marching uses the
corrector constants of the solver module instead.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import exprlang
from .exprlang import Expr
from .fracquad import SCHEMES
from .problem import (
    ENVELOPE_ROLES,
    RHS_KINDS,
    DelaySpec,
    ImpulseSchedule,
    ProblemSpec,
    RhsSpec,
)
from .solver import METHODS
from .special import Envelope

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "builtin_example", "BUILTIN_EXAMPLES"]

_NUMERICS_DEFAULTS = {
    "target_h": 1.0 / 256.0,
    "scheme": "trapezoid",
    "method": "picard",
    "tol": 1e-10,
    "max_iter": 200,
}


class ConfigError(ValueError):
    """Invalid configuration; message starts with the offending field path."""


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _expect_mapping(value, path: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            _fail(f"{path}.{key}", f"unknown key; allowed: {', '.join(allowed)}")
    for key in required:
        if key not in value:
            _fail(path, f"missing required key {key!r}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    v = float(value)
    if not np.isfinite(v):
        _fail(path, "must be finite")
    return v


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _expect_choice(value, path: str, choices: tuple[str, ...]) -> str:
    value = _expect_str(value, path)
    if value not in choices:
        _fail(path, f"must be one of {', '.join(choices)}; got {value!r}")
    return value


def _parse_expr(source, path: str, allowed_vars: frozenset[str]) -> Expr:
    source = _expect_str(source, path)
    try:
        tree = exprlang.parse(source)
    except exprlang.ParseError as e:
        _fail(path, f"bad expression: {e}")
    stray = exprlang.variables(tree) - allowed_vars
    if stray:
        _fail(
            path,
            f"variables {sorted(stray)} not allowed here; "
            f"allowed: {sorted(allowed_vars)}",
        )
    return tree


def _parse_expr_vector(value, path: str, dim: int, allowed_vars: frozenset[str]) -> tuple[Expr, ...]:
    if isinstance(value, str):
        if dim != 1:
            _fail(path, f"need a list of {dim} expressions for dimension {dim}")
        return (_parse_expr(value, path, allowed_vars),)
    if isinstance(value, list):
        if len(value) != dim:
            _fail(path, f"need {dim} expressions, got {len(value)}")
        return tuple(
            _parse_expr(item, f"{path}[{i}]", allowed_vars)
            for i, item in enumerate(value)
        )
    _fail(path, f"expected an expression string or list, got {type(value).__name__}")


@functools.cache
def _names(prefix: str, d: int) -> tuple[str, ...]:
    """The variables of a d-vector: prefix when d = 1, else prefix1 .. prefixd."""
    return (prefix,) if d == 1 else tuple(f"{prefix}{i + 1}" for i in range(d))


def _compiled(trees: tuple[Expr, ...], params: tuple[str, ...], kinds: str) -> Callable:
    """A right-hand side part, jump map or history over the variables
    params, of arguments of kinds: "x" a (..., d) state binding d of them,
    "t" a (...) array binding one.  The result is lead + (len(trees),),
    lead the leading shape of the first state, else of the first argument.
    One point (lead () or (1,)) takes the generated scalar functions,
    anything larger the array functions (exprlang)."""
    codes = [exprlang.compile_expr(tree, params) for tree in trees]
    state = kinds.find("x")

    def call(*args):
        args = [np.asarray(a, dtype=float) for a in args]
        lead = args[0].shape if state < 0 else args[state].shape[:-1]
        if lead in ((), (1,)):
            point = []
            for a in args:
                point += a.ravel().tolist()
            row = [code.scalar(*point) for code in codes]
            return np.array([row] if lead else row)
        values = []
        for a, kind in zip(args, kinds):
            values += [a[..., i] for i in range(a.shape[-1])] if kind == "x" else [a]
        out = np.empty(lead + (len(codes),))
        for k, code in enumerate(codes):
            out[..., k] = code.array(*values)
        return out

    return call


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    source is the normalized JSON-able dict (dump it to get a config
    file back); asts maps field paths to the parsed expression trees
    for structural comparisons.
    """

    problem: ProblemSpec
    target_h: float
    scheme: str
    method: str
    tol: float
    max_iter: int
    certificate_p: float | str
    csv_path: str | None
    report_path: str | None
    notes: tuple[str, ...]
    source: dict
    asts: dict[str, tuple[Expr, ...]]

    def to_dict(self) -> dict:
        return copy.deepcopy(self.source)

    def dump(self, path: str | Path):
        Path(path).write_text(
            json.dumps(self.source, indent=2, sort_keys=False) + "\n"
        )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return parse_config(data)


def parse_config(data: Any) -> RunConfig:
    """Validate a config dict and build the problem."""
    data = _expect_mapping(
        data, "config", ("problem", "numerics", "certificate", "output", "notes")
    )
    if "problem" not in data:
        _fail("config", "missing required key 'problem'")

    notes = data.get("notes", [])
    if not isinstance(notes, list) or any(not isinstance(s, str) for s in notes):
        _fail("notes", "expected a list of strings")

    asts: dict[str, tuple[Expr, ...]] = {}
    prob = _expect_mapping(
        data["problem"],
        "problem",
        ("alpha", "T", "x0", "rhs", "impulses", "delay"),
        ("alpha", "T", "rhs"),
    )

    alpha = _expect_number(prob["alpha"], "problem.alpha")
    if not 0.0 < alpha < 1.0:
        _fail("problem.alpha", f"must lie strictly inside (0, 1), got {alpha!r}")
    T = _expect_number(prob["T"], "problem.T")
    if T <= 0.0:
        _fail("problem.T", f"must be positive, got {T!r}")

    rhs_raw = _expect_mapping(
        prob["rhs"], "problem.rhs", ("kind", "f", "f1", "f2"), ("kind",)
    )
    kind = _expect_choice(rhs_raw["kind"], "problem.rhs.kind", RHS_KINDS)
    delayed = kind in ("delay", "general_delay")

    if ("delay" in prob) != delayed:
        _fail(
            "problem.delay",
            "present exactly when problem.rhs.kind is delay/general_delay",
        )

    # dimension from x0 (or from history for delay kinds without x0)
    x0_raw = prob.get("x0")
    if x0_raw is None and not delayed:
        _fail("problem.x0", "required unless the problem has a history")
    if x0_raw is not None:
        if isinstance(x0_raw, list):
            if not x0_raw:
                _fail("problem.x0", "must not be empty")
            x0 = np.array(
                [_expect_number(v, f"problem.x0[{i}]") for i, v in enumerate(x0_raw)]
            )
        else:
            x0 = np.array([_expect_number(x0_raw, "problem.x0")])
        dim = x0.size
    else:
        x0 = None
        hist = prob["delay"].get("history") if isinstance(prob["delay"], dict) else None
        dim = len(hist) if isinstance(hist, list) else 1

    state = _names("x", dim)
    rhs_params = ("t", *state) + ((*_names("xr", dim), "xtsup") if delayed else ())

    split = kind == "split"
    parts = ("f1", "f2") if split else ("f",)
    owner = "split kind" if split else f"kind {kind!r}"
    stray = "split kind uses f1/f2, not f" if split else "only valid for the split kind"
    for key in ("f", "f1", "f2"):
        path = f"problem.rhs.{key}"
        if key not in parts:
            if key in rhs_raw:
                _fail(path, stray)
        elif key not in rhs_raw:
            _fail("problem.rhs", f"{owner} requires {key!r}")
        else:
            asts[f"rhs.{key}"] = _parse_expr_vector(rhs_raw[key], path, dim, frozenset(rhs_params))

    impulses_raw = prob.get("impulses", [])
    if not isinstance(impulses_raw, list):
        _fail("problem.impulses", "expected a list")
    times, jump_fns = [], []
    for i, item in enumerate(impulses_raw):
        ipath = f"problem.impulses[{i}]"
        item = _expect_mapping(item, ipath, ("time", "jump"), ("time", "jump"))
        tk = _expect_number(item["time"], f"{ipath}.time")
        if not 0.0 < tk < T:
            _fail(f"{ipath}.time", f"must lie strictly inside (0, {T!r}), got {tk!r}")
        trees = _parse_expr_vector(item["jump"], f"{ipath}.jump", dim, frozenset(state))
        asts[f"impulses[{i}].jump"] = trees
        times.append(tk)
        jump_fns.append(_compiled(trees, state, "x"))

    cert_raw = _expect_mapping(
        data.get("certificate", {}),
        "certificate",
        ("p", "jump_bound", "jump_lipschitz", "jump_bound_star", "envelopes"),
    )
    cert_p: float | str = "auto"
    if "p" in cert_raw:
        if cert_raw["p"] == "auto":
            cert_p = "auto"
        else:
            cert_p = _expect_number(cert_raw["p"], "certificate.p")
            if not 0.0 < cert_p < alpha:
                _fail(
                    "certificate.p",
                    f"must lie in (0, alpha)=(0, {alpha!r}), got {cert_p!r}",
                )

    def _opt_cert_number(key: str) -> float | None:
        if key not in cert_raw:
            return None
        v = _expect_number(cert_raw[key], f"certificate.{key}")
        if v < 0.0:
            _fail(f"certificate.{key}", "must be nonnegative")
        return v

    jump_bound = _opt_cert_number("jump_bound")
    jump_lip = _opt_cert_number("jump_lipschitz")
    jump_bound_star = _opt_cert_number("jump_bound_star")

    envelopes: dict[str, Envelope] = {}
    env_raw = cert_raw.get("envelopes", {})
    if not isinstance(env_raw, dict):
        _fail("certificate.envelopes", "expected an object")
    allowed_roles = ENVELOPE_ROLES[kind]
    for role, desc in env_raw.items():
        epath = f"certificate.envelopes.{role}"
        if role not in allowed_roles:
            _fail(
                epath,
                f"role not valid for rhs kind {kind!r}; allowed: "
                f"{', '.join(allowed_roles)}",
            )
        desc = _expect_mapping(
            desc, epath, ("form", "value", "scale", "rate", "times", "values"), ("form",)
        )
        try:
            envelopes[role] = Envelope.from_dict(desc)
        except (ValueError, KeyError) as e:
            _fail(epath, f"bad envelope: {e}")

    try:
        schedule = ImpulseSchedule(
            times=tuple(times),
            jumps=tuple(jump_fns),
            jump_bound=jump_bound,
            jump_lip=jump_lip,
            jump_bound_star=jump_bound_star,
            vectorized=True,
        )
    except ValueError as e:
        raise ConfigError(f"problem.impulses: {e}") from None

    delay_spec = None
    if delayed:
        draw = _expect_mapping(
            prob["delay"], "problem.delay", ("r", "history"), ("r", "history")
        )
        r = _expect_number(draw["r"], "problem.delay.r")
        if r <= 0.0:
            _fail("problem.delay.r", f"must be positive, got {r!r}")
        trees = _parse_expr_vector(draw["history"], "problem.delay.history", dim, frozenset({"t"}))
        asts["delay.history"] = trees
        delay_spec = DelaySpec(r=r, history=_compiled(trees, ("t",), "t"), vectorized=True)

    fns = {key: _compiled(asts[f"rhs.{key}"], rhs_params, "txxt") for key in parts}
    rhs = RhsSpec(kind=kind, envelopes=envelopes, vectorized=True, **fns)

    try:
        problem = ProblemSpec(
            alpha=alpha, T=T, rhs=rhs, x0=x0, impulses=schedule, delay=delay_spec
        )
    except ValueError as e:
        raise ConfigError(f"problem: {e}") from None

    num_raw = _expect_mapping(
        data.get("numerics", {}),
        "numerics",
        ("target_h", "scheme", "method", "tol", "max_iter"),
    )
    target_h = _expect_number(num_raw.get("target_h", _NUMERICS_DEFAULTS["target_h"]), "numerics.target_h")
    if target_h <= 0.0:
        _fail("numerics.target_h", "must be positive")
    scheme = _expect_choice(
        num_raw.get("scheme", _NUMERICS_DEFAULTS["scheme"]), "numerics.scheme", SCHEMES
    )
    method = _expect_choice(
        num_raw.get("method", _NUMERICS_DEFAULTS["method"]), "numerics.method", METHODS
    )
    tol = _expect_number(num_raw.get("tol", _NUMERICS_DEFAULTS["tol"]), "numerics.tol")
    if tol <= 0.0:
        _fail("numerics.tol", "must be positive")
    max_iter = _expect_int(num_raw.get("max_iter", _NUMERICS_DEFAULTS["max_iter"]), "numerics.max_iter")
    if max_iter < 1:
        _fail("numerics.max_iter", "must be at least 1")

    out_raw = _expect_mapping(data.get("output", {}), "output", ("csv", "report"))
    csv_path = _expect_str(out_raw["csv"], "output.csv") if "csv" in out_raw else None
    report_path = (
        _expect_str(out_raw["report"], "output.report") if "report" in out_raw else None
    )

    return RunConfig(
        problem=problem,
        target_h=target_h,
        scheme=scheme,
        method=method,
        tol=tol,
        max_iter=max_iter,
        certificate_p=cert_p,
        csv_path=csv_path,
        report_path=report_path,
        notes=tuple(notes),
        source=copy.deepcopy(data),
        asts=asts,
    )


_H_FINE = 2.0**-10
_H_MEDIUM = 2.0**-8

BUILTIN_EXAMPLES = ("logistic", "delay-exp", "delay-plain")


def builtin_example(name: str) -> dict:
    """Ready-to-run config dicts for the three shipped examples."""
    if name == "logistic":
        return {
            "notes": [
                "impulsive logistic growth: fractional rate a(t)*x - b(t)*x^2 "
                "with a = b = 1 written inline; edit f1/f2 for other rates",
                "growth bound: (|x0| + m*jump_bound) * exp((a_max + b_max) / "
                "gamma(alpha + 1)) with a_max = b_max = 1",
            ],
            "problem": {
                "alpha": 0.5,
                "T": 1.0,
                "x0": 0.1,
                "rhs": {"kind": "split", "f1": "x", "f2": "-x^2"},
                "impulses": [
                    {"time": 0.3, "jump": "0.05"},
                    {"time": 0.6, "jump": "0.05"},
                ],
            },
            "numerics": {"target_h": _H_FINE, "scheme": "trapezoid", "method": "picard"},
            "certificate": {"p": "auto", "jump_bound": 0.05, "jump_lipschitz": 0.0},
            "output": {"csv": "logistic_solution.csv", "report": "logistic_report.txt"},
        }
    if name == "delay-exp":
        return {
            "notes": [
                "delayed saturating response with exponentially decaying gain "
                "(decay rate 1 inline in f; edit together with the envelopes)",
                "alpha = 0.5, T = 1, impulse time 0.5 and r = 0.5 are editable "
                "choices",
                "lip/bound envelopes declare the gain envelope exp(-t)/2 of f",
            ],
            "problem": {
                "alpha": 0.5,
                "T": 1.0,
                "rhs": {"kind": "delay", "f": "exp(-t)*xtsup/((1+exp(t))*(1+xtsup))"},
                "impulses": [{"time": 0.5, "jump": "0.5"}],
                "delay": {"r": 0.5, "history": "0"},
            },
            "numerics": {"target_h": _H_MEDIUM, "scheme": "trapezoid", "method": "picard"},
            "certificate": {
                "p": "auto",
                "jump_bound": 0.5,
                "jump_lipschitz": 0.0,
                "envelopes": {
                    "lip": {"form": "exp_decay", "scale": 0.5, "rate": 1.0},
                    "bound": {"form": "exp_decay", "scale": 0.5, "rate": 1.0},
                },
            },
            "output": {
                "csv": "delay_exp_solution.csv",
                "report": "delay_exp_report.txt",
            },
        }
    if name == "delay-plain":
        return {
            "notes": [
                "bounded delayed response without decay weighting; the growth "
                "envelope exp(-t)/4 backs the linear-growth existence route "
                "(no Lipschitz declaration, so no contraction verdict)",
                "alpha = 0.5, T = 1, impulse time 0.5 and r = 0.5 are editable "
                "choices",
            ],
            "problem": {
                "alpha": 0.5,
                "T": 1.0,
                "rhs": {"kind": "delay", "f": "xtsup/((1+exp(t))*(1+xtsup))"},
                "impulses": [{"time": 0.5, "jump": "0.5"}],
                "delay": {"r": 0.5, "history": "0"},
            },
            "numerics": {"target_h": _H_MEDIUM, "scheme": "trapezoid", "method": "picard"},
            "certificate": {
                "p": "auto",
                "jump_bound_star": 0.5,
                "envelopes": {"growth": {"form": "exp_decay", "scale": 0.25, "rate": 1.0}},
            },
            "output": {
                "csv": "delay_plain_solution.csv",
                "report": "delay_plain_report.txt",
            },
        }
    raise ConfigError(
        f"unknown example {name!r}; available: {', '.join(BUILTIN_EXAMPLES)}"
    )
