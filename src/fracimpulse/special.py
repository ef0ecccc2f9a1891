r"""Scalar special functions and envelope norms.

Building blocks shared by the quadrature and certificate layers:

    gamma(x)                 Euler gamma on x > 0
    mittag_leffler(a, z)     E_a(z) = sum_k z^k / gamma(a*k + 1), z <= 30
    lp_seminorm(g, p, T)     (int_0^T g(s)^(1/p) ds)^p   for 0 < p < 1
    closed_form_seminorms    lp_seminorm of an envelope at an array of
                             exponents
    holder_constant(a, p)    ((1 - p)/(a - p))^(1 - p)   for 0 < p < a < 1

The seminorm and the Holder constant are the two ingredients of every
contraction estimate downstream: Holder's inequality turns the weakly
singular kernel integral int_0^t (t-s)^(a-1) g(s) ds into
c * ||g||_{1/p} * t^(a-p) with c = holder_constant(a, p).

Envelope instances are the nonnegative comparison functions (bounds and
Lipschitz envelopes) fed to lp_seminorm; they come in three concrete
forms so config files can declare them: constants, decaying exponentials
scale*exp(-rate*t), and piecewise-linear sample tables.  Every form has
a closed-form seminorm; a sample table's is exact piece by piece on
(g/M)^(1/p), M its largest value on [0, T], so no exponent p in (0, 1)
underflows or overflows g^(1/p).  The closed forms and the Holder
constant exist only as numpy array code (closed_form_seminorms,
_holder_constants); lp_seminorm and holder_constant take its element at
[p], which numpy rounds as it rounds p's element of any grid.  Only
plain callables are integrated, by a Gauss-Legendre quadrature of the
same scaled power.  Its nodes are built on the first quadrature, so
importing this module, or taking seminorms of envelopes only, leaves
numpy.polynomial unloaded.  A seminorm that has no finite double value
raises SeminormError, which names the envelope.  _pow_diff (A^e - B^e,
accurate for A near B) serves both the sampled seminorm and the
product-integration weights.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "Envelope",
    "gamma",
    "mittag_leffler",
    "lp_seminorm",
    "closed_form_seminorms",
    "holder_constant",
    "SeminormError",
]

_ML_MAX_TERMS = 100_000
_ML_RANGE = 30.0  # largest z > 0 the series takes
_SEMINORM_REL_TOL = 1e-10
_SEMINORM_MAX_NODES = 2**20
_PANEL_ORDER = 16


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _PANEL_ORDER-point Gauss-Legendre rule on
    [-1, 1], built on the first quadrature: importing numpy.polynomial
    costs over 1 MiB of resident memory that closed forms never need."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(_PANEL_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


@functools.cache
def _ml_contour() -> tuple[np.ndarray, np.ndarray]:
    """Nodes s and weights w of E_alpha(z) = Im sum w s^alpha / (s^alpha - z), z < 0:
    the midpoint rule on s = 32 (0.1309 - 0.1194 theta^2 + 0.25 i theta), theta in
    [-pi, pi] (Weideman & Trefethen, Math. Comp. 76 (2007) 1341), for the Bromwich
    integral of e^s s^(alpha-1) / (s^alpha - z), whose singularities lie left of it
    on the negative axis.  Conjugate nodes give conjugate terms, so the 16 with
    theta > 0 carry (2/32) e^s s'(theta) / s.  Built on the first call: complex
    exp and division at import add 0.45 MiB of resident memory."""
    theta = (np.arange(16) + 0.5) * (np.pi / 16)
    s = 32.0 * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    return s, 2.0 * np.exp(s) * (0.25j - 0.2388 * theta) / s


class SeminormError(ArithmeticError):
    """lp_seminorm found no finite value: the result overflows a double,
    or the quadrature does not converge.  envelope is the g it was given."""

    def __init__(self, message: str, envelope):
        super().__init__(message)
        self.envelope = envelope


def gamma(x: float) -> float:
    """Euler gamma function for real x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma requires x > 0, got {x!r}")
    return math.gamma(x)


def mittag_leffler(alpha: float, z: float) -> float:
    """Mittag-Leffler function E_alpha(z) for real z <= 30: for z < 0 the
    contour sum of _ml_contour, within 1e-14 absolute at any finite z; for
    0 <= z <= 30 the series sum_k z^k / Gamma(alpha k + 1), whose terms are
    all positive there, up to the first term below 1e-14 (1 + partial sum).
    A term that overflows raises OverflowError, a larger or non-finite z
    ValueError.  For alpha = 1 this is exp(z)."""
    alpha = float(alpha)
    z = float(z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"mittag_leffler requires 0 < alpha <= 1, got {alpha!r}")
    if not (math.isfinite(z) and z <= _ML_RANGE):
        raise ValueError(f"mittag_leffler requires a finite z <= {_ML_RANGE:g}, got z={z!r}")
    if z < 0.0:
        s, w = _ml_contour()
        sa = s**alpha
        return float((w * (sa / (sa - z))).sum().imag)
    if z == 0.0:
        return 1.0

    log_z = math.log(z)
    total = 0.0
    for k in range(_ML_MAX_TERMS):
        # z^k / gamma(alpha*k + 1) via logs so large k cannot overflow early
        expo = k * log_z - math.lgamma(alpha * k + 1.0)
        if expo > 700.0:
            raise OverflowError(
                f"mittag_leffler series term overflows double precision "
                f"(alpha={alpha!r}, z={z!r})"
            )
        term = math.exp(expo)
        total += term
        if term <= 1e-14 * (1.0 + total):
            return total
    raise ArithmeticError(
        f"mittag_leffler series did not converge within {_ML_MAX_TERMS} terms"
    )


def lp_seminorm(g: Callable[[float], float], p: float, T: float) -> float:
    r"""Seminorm ||g||_{1/p} = (\int_0^T g(s)^{1/p} ds)^p for 0 < p < 1.

    g must be nonnegative and evaluable on [0, T].  Envelopes take their
    closed forms: v*T^p for the constant v, s*(p/r*(1 - exp(-r*T/p)))^p
    for s*exp(-r*t) (s*T^p at r = 0), and for samples the exact integral
    of each linear piece; the value is element 0 of
    closed_form_seminorms(g, [p], T).  A sampled envelope whose knots do
    not cover [0, T] raises the ValueError of Envelope.__call__, and a
    result too large for a double raises SeminormError.  A plain
    callable is integrated by composite 16-point Gauss-Legendre
    quadrature with panel doubling until the seminorm's relative change
    drops below 1e-10 twice in a row (across a kink two levels can agree
    once by chance), capped at 2^20 nodes.
    The quadrature integrates (g/M)^{1/p}, M the largest sampled value,
    and multiplies M back after the power, so g^{1/p} can neither
    underflow to 0 nor overflow for small p.  A quadrature that does
    not converge raises SeminormError too.
    """
    p = float(p)
    T = float(T)
    if not 0.0 < p < 1.0:
        raise ValueError(f"lp_seminorm requires 0 < p < 1, got p={p!r}")
    if not T > 0.0:
        raise ValueError(f"lp_seminorm requires T > 0, got T={T!r}")
    if isinstance(g, Envelope):
        norm = closed_form_seminorms(g, np.array([p]), T).item()
        if not math.isfinite(norm):
            raise SeminormError(
                f"lp_seminorm of {g!r} over [0, {T!r}] at p={p!r} overflows a double", g
            )
        return norm

    inv_p = 1.0 / p
    gl_nodes, gl_weights = _gauss_legendre()

    def level(panels: int, scale: float) -> tuple[float, float]:
        """Integral of (g/scale')^{1/p} and scale' = max(scale, sampled g)."""
        edges = np.linspace(0.0, T, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
        vals = _eval_nonnegative(g, nodes)
        scale = max(scale, float(vals.max()))
        if scale == 0.0:
            return 0.0, 0.0
        weights = (half[:, None] * gl_weights[None, :]).ravel()
        return float(weights @ (vals / scale) ** inv_p), scale

    panels, agreed = 1, 0
    prev, scale = level(panels, 0.0)
    while agreed < 2:
        panels *= 2
        if panels * _PANEL_ORDER > _SEMINORM_MAX_NODES:
            raise SeminormError(
                f"lp_seminorm of {g!r} over [0, {T!r}] at p={p!r} did not converge "
                f"to rel tol {_SEMINORM_REL_TOL:g} within {_SEMINORM_MAX_NODES} nodes",
                g,
            )
        cur, new_scale = level(panels, scale)
        if new_scale > scale:  # a larger sample: restate prev in the new scale
            prev *= (scale / new_scale) ** inv_p
            scale = new_scale
        agreed = agreed + 1 if abs(cur**p - prev**p) <= _SEMINORM_REL_TOL * max(cur**p, 1e-300) else 0
        prev = cur
    return scale * cur**p


def closed_form_seminorms(env: "Envelope", ps: np.ndarray, T: float) -> np.ndarray:
    """lp_seminorm of an envelope at each exponent of the float array
    ps, in one array pass; lp_seminorm is its element at [p].

    An exp_decay element, with x = rate*T/p, is s*(T*(1 - e^(-x))/x)^p
    through expm1; s*(p/rate)^p for x > 700, where e^(-x) is below
    1e-304 and x may be inf; and s*exp(p*(-x + log(p/-rate))) for
    x <= -700, where e^(-x) overflows.  For a samples envelope, with
    q = 1/p, a linear piece of length dt whose end values, scaled by the
    largest value M on [0, T], are hi >= lo contributes
    dt*(hi^(q+1) - lo^(q+1))/((q+1)(hi - lo)), or dt*hi^q when flat,
    and the seminorm is M*(sum of pieces)^p; the power difference goes
    through _pow_diff, so near-equal ends do not cancel.  Where
    lp_seminorm raises SeminormError, the element is inf or nan instead;
    knots that do not cover [0, T] raise ValueError here too.
    """
    if env.form == "samples":
        return _sampled_seminorms(env, ps, T)
    with np.errstate(all="ignore"):
        if env.form == "constant":
            return env.value * T**ps
        scale, rate = env.scale, env.rate
        if scale == 0.0 or rate * T == 0.0:  # rate * T may underflow
            return scale * T**ps
        x = rate * T / ps
        mid = scale * (T * (-np.expm1(-x) / x)) ** ps
        if -700.0 < x.min() and x.max() <= 700.0:
            return mid
        big = scale * (ps / rate) ** ps
        low = scale * np.exp(ps * (-x + np.log(ps / -rate)))
        return np.where(x > 700.0, big, np.where(x <= -700.0, low, mid))


def _pow_diff(A: np.ndarray, B: np.ndarray, expo: float | np.ndarray) -> np.ndarray:
    """A**expo - B**expo for A > 0 and A >= B >= 0, stable when A is
    close to B and, through log(B / A), when B < A / 2, where B - A may
    round B's digits away.  B = 0 needs no branch: log1p(-1) = -inf and
    expm1(-inf) = -1, so the result is A**expo exactly."""
    with np.errstate(divide="ignore"):
        r = np.log1p((B - A) / A)
        np.log(B / A, out=r, where=(0.0 < B) & (B < 0.5 * A))
    r *= expo
    np.expm1(r, out=r)
    r *= A**expo
    return np.negative(r, out=r)


def _sampled_seminorms(env: "Envelope", ps: np.ndarray, T: float) -> np.ndarray:
    """lp_seminorm of a samples envelope at each exponent of ps, exact on
    each linear piece (see closed_form_seminorms)."""
    times = env.times
    knots = np.concatenate(([0.0], times[(times > 0.0) & (times < T)], [T]))
    u = env(knots)  # raises when the samples do not cover [0, T]
    top = u.max()
    if top == 0.0:
        return np.zeros_like(ps)
    q = 1.0 / ps[:, None]  # one row per exponent, so each row sums alike
    with np.errstate(all="ignore"):  # np.where drops the flat pieces' 0/0
        u /= top
        hi, lo = np.maximum(u[1:], u[:-1]), np.minimum(u[1:], u[:-1])
        sloped = _pow_diff(np.broadcast_to(hi, (ps.size, hi.size)), lo, q + 1.0)
        sloped /= (q + 1.0) * (hi - lo)
        pieces = np.where(hi > lo, sloped, hi**q) * np.diff(knots)
        return top * pieces.sum(axis=1) ** ps


def _eval_nonnegative(g: Callable[[float], float], nodes: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(g(nodes), dtype=float)
        if vals.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.asarray([float(g(float(s))) for s in nodes])
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        bad = nodes[~(np.isfinite(vals) & (vals >= 0.0))][0]
        raise ValueError(f"envelope must be finite and nonnegative; fails at t={bad!r}")
    return vals


def holder_constant(alpha: float, p: float) -> float:
    """Holder pairing constant ((1 - p)/(alpha - p))^(1 - p), 0 < p < alpha < 1:
    element 0 of _holder_constants(alpha, [p])."""
    alpha = float(alpha)
    p = float(p)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"holder_constant requires 0 < alpha < 1, got alpha={alpha!r}")
    if not 0.0 < p < alpha:
        raise ValueError(
            f"holder_constant requires 0 < p < alpha, got p={p!r}, alpha={alpha!r}"
        )
    return _holder_constants(alpha, np.array([p])).item()


def _holder_constants(alpha: float, ps: np.ndarray) -> np.ndarray:
    """holder_constant(alpha, p) at each exponent of the float array ps."""
    a = 1.0 - ps
    return (a / (alpha - ps)) ** a


def _finite(name: str, x):
    """x, after checking that it holds no nan or inf."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"envelope {name} must be finite, got {x!r}")
    return x


class Envelope:
    """Nonnegative comparison function t -> g(t) in one of three closed forms.

    Construct via the factories: ``Envelope.constant(v)``,
    ``Envelope.exp_decay(scale, rate)`` (scale * exp(-rate * t)), or
    ``Envelope.from_samples(times, values)`` (piecewise linear).  Instances
    are callables accepting scalars or arrays.
    """

    __slots__ = ("form", "value", "scale", "rate", "times", "values")

    def __init__(self, form: str, **params):
        self.form = form
        self.value = params.get("value")
        self.scale = params.get("scale")
        self.rate = params.get("rate")
        self.times = params.get("times")
        self.values = params.get("values")

    @staticmethod
    def constant(value: float) -> "Envelope":
        value = _finite("value", float(value))
        if value < 0.0:
            raise ValueError(f"constant envelope must be nonnegative, got {value!r}")
        return Envelope("constant", value=value)

    @staticmethod
    def exp_decay(scale: float, rate: float) -> "Envelope":
        """scale * exp(-rate * t); scale must be nonnegative."""
        scale = _finite("scale", float(scale))
        rate = _finite("rate", float(rate))
        if scale < 0.0:
            raise ValueError(f"exp_decay scale must be nonnegative, got {scale!r}")
        return Envelope("exp_decay", scale=scale, rate=rate)

    @staticmethod
    def from_samples(times, values) -> "Envelope":
        """Piecewise-linear envelope through (times[i], values[i])."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise ValueError("samples need matching 1-D arrays with at least 2 points")
        _finite("times", times)
        _finite("values", values)
        with np.errstate(over="ignore"):  # an infinite gap is rejected below
            gaps = np.diff(times)
        if np.any(gaps <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(gaps)):  # __call__ divides by them
            raise ValueError("neighbouring sample times must lie a finite distance apart")
        if np.any(values < 0.0):
            raise ValueError("sample values must be nonnegative")
        return Envelope("samples", times=times, values=values)

    def __call__(self, t):
        scalar = np.isscalar(t)
        ts = np.asarray(t, dtype=float)
        if self.form == "constant":
            out = np.full_like(ts, self.value)
        elif self.form == "exp_decay":
            out = self.scale * np.exp(-self.rate * ts)
        else:
            lo, hi = self.times[0], self.times[-1]
            slack = 1e-12 * max(1.0, abs(lo), abs(hi))
            if np.any(ts < lo - slack) or np.any(ts > hi + slack):
                raise ValueError(
                    f"sampled envelope defined on [{lo!r}, {hi!r}], asked outside"
                )
            # each point from its two neighbouring knots, weights in [0, 1]:
            # nothing cancels or overflows, and a knot gets its sample
            ts = np.clip(ts, lo, hi)
            i = np.clip(np.searchsorted(self.times, ts, side="right") - 1, 0, self.times.size - 2)
            t0, t1 = self.times[i], self.times[i + 1]
            out = (t1 - ts) / (t1 - t0) * self.values[i] + (ts - t0) / (t1 - t0) * self.values[i + 1]
        return float(out) if scalar else out

    def to_dict(self) -> dict:
        if self.form == "constant":
            return {"form": "constant", "value": self.value}
        if self.form == "exp_decay":
            return {"form": "exp_decay", "scale": self.scale, "rate": self.rate}
        return {
            "form": "samples",
            "times": [float(v) for v in self.times],
            "values": [float(v) for v in self.values],
        }

    @staticmethod
    def from_dict(data: dict) -> "Envelope":
        form = data.get("form")
        if form == "constant":
            return Envelope.constant(data["value"])
        if form == "exp_decay":
            return Envelope.exp_decay(data["scale"], data["rate"])
        if form == "samples":
            return Envelope.from_samples(data["times"], data["values"])
        raise ValueError(f"unknown envelope form {form!r}")

    def __eq__(self, other):
        if not isinstance(other, Envelope):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items() if k != "form")
        return f"Envelope.{self.form}({inner})"
