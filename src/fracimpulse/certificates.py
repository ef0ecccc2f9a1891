r"""Existence/uniqueness certificates for impulsive fractional problems.

All quantities share two ingredients: the Holder pairing constant
c = ((1-p)/(alpha-p))^(1-p) for an exponent p in (0, alpha), and
L^{1/p} seminorms of declared envelopes.  For a problem with m
impulses of Lipschitz constant l2 and a Lipschitz envelope L of the
right-hand side, the contraction constant is

    gamma = m*l2 + c * ||L||_{1/p} * T^(alpha-p) / D

with normalization D = gamma(alpha+1) in the stated form and
D = gamma(alpha) in the proof form; both are reported, the verdict
keys on the (larger) stated value.  The three contraction operations
differ only in which envelopes feed ||L||: the split kind uses the
Lipschitz envelope of the regular part, the delay kind the history
Lipschitz envelope, and the general kind the sum of state and history
envelopes.

Also provided: nested a-priori radii built from bound envelopes, the
Schaefer-route a-priori bound for delay problems with linear-growth
envelopes, the equicontinuity modulus of the compact split part, and
the classical-Gronwall growth bound for the impulsive logistic
example.  certify() assembles everything for a ProblemSpec, optionally
minimizing the stated gamma over a 64-point grid of exponents
(choose_p).  Seminorms, c and T^(alpha-p) come only from numpy array
code, which lp_seminorm and holder_constant run at [p], so the search's
one pass over the grid picks bitwise the exponent of a scalar loop over
it, and certify reads the constants of its objective at the chosen
index.  No seminorm of a certificate goes through a quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problem import ProblemSpec
from .special import (
    Envelope,
    SeminormError,
    _holder_constants,
    closed_form_seminorms,
    gamma,
    lp_seminorm,
)

__all__ = [
    "ContractionPair",
    "Certificate",
    "CertificateError",
    "a_priori_radii",
    "contraction_split",
    "contraction_delay",
    "contraction_general",
    "schaefer_bound",
    "equicontinuity_modulus",
    "logistic_growth_bound",
    "certify",
    "P_GRID_POINTS",
]

P_GRID_POINTS = 64


class CertificateError(ValueError):
    """Certificate computation cannot proceed (e.g. Schaefer q >= 1)."""


class ContractionPair(NamedTuple):
    """One contraction constant under both gamma-function normalizations."""

    stated: float  # denominator gamma(alpha + 1)
    proof: float  # denominator gamma(alpha)


def _check_common(alpha: float, p: float, T: float, m: int, **nonnegative: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not 0.0 < p < alpha:
        raise ValueError(f"p must lie in (0, alpha), got p={p!r}, alpha={alpha!r}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T!r}")
    _check_nonnegative(m=m, **nonnegative)


def _check_nonnegative(**values: float):
    for name, v in values.items():
        if not 0.0 <= v < math.inf:  # nan fails too
            raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")


def _t_powers(alpha: float, ps: np.ndarray, T: float) -> np.ndarray:
    """T^(alpha - p) at each exponent of the float array ps."""
    return T ** (alpha - ps)


class _Exponent:
    """A Holder exponent p with the factors of p that every constant
    carries, c = holder_constant(alpha, p) and T^(alpha - p), and the
    constants they give for a seminorm.  The factors are elements of the
    search's arrays, or of the same array code run at [p]; T^(alpha - p)
    is computed only once a constant needs it."""

    def __init__(self, alpha: float, T: float, p: float, holder: float, tpow: float | None = None):
        self.alpha, self.T, self.p, self.holder = alpha, T, p, holder
        if tpow is not None:
            self.tpow = tpow

    @functools.cached_property
    def tpow(self) -> float:
        return _t_powers(self.alpha, np.array([self.p]), self.T).item()

    def pair(self, jumps: float, norm: float) -> ContractionPair:
        base = self.holder * norm * self.tpow
        return ContractionPair(
            stated=jumps + base / gamma(self.alpha + 1.0), proof=jumps + base / gamma(self.alpha)
        )

    def tail(self, norm: float) -> float:
        """c * norm * T^(alpha - p) / gamma(alpha): the radii's last term, the Schaefer q."""
        return self.holder * norm * self.tpow / gamma(self.alpha)

    def radii(self, x0_norm: float, l1: float, m: int, norm: float) -> tuple[float, ...]:
        tail = self.tail(norm)
        return tuple(x0_norm + k * l1 + tail for k in range(m + 1))

    def schaefer(self, phi0_norm: float, l1_star: float, m: int, norm: float) -> tuple[float, float | None]:
        """q and the bound (|phi(0)| + m*l1* + q) / (1 - q), None when q >= 1."""
        q = self.tail(norm)
        return q, (phi0_norm + m * l1_star + q) / (1.0 - q) if q < 1.0 else None

    def equicontinuity(self, norm: float) -> float:
        return 2.0 * self.holder * norm / gamma(self.alpha)


def _exponent(alpha: float, p: float, T: float) -> _Exponent:
    return _Exponent(alpha, T, p, _holder_constants(alpha, np.array([p])).item())


def contraction_split(
    m: int, jump_lip: float, f1_lip: Envelope, alpha: float, p: float, T: float
) -> ContractionPair:
    """Contraction constant for a split RHS (Lipschitz part f1)."""
    _check_common(alpha, p, T, m, jump_lip=jump_lip)
    return _exponent(alpha, p, T).pair(m * jump_lip, lp_seminorm(f1_lip, p, T))


def contraction_delay(
    m: int, jump_lip: float, lip: Envelope, alpha: float, p: float, T: float
) -> ContractionPair:
    """Contraction constant for a single-history-argument delay RHS."""
    return contraction_split(m, jump_lip, lip, alpha, p, T)


def contraction_general(
    m: int,
    jump_lip: float,
    state_lip: Envelope,
    history_lip: Envelope,
    alpha: float,
    p: float,
    T: float,
) -> ContractionPair:
    """Contraction constant for f(t, x, x_t): state and history envelopes add."""
    _check_common(alpha, p, T, m, jump_lip=jump_lip)
    norm = lp_seminorm(state_lip, p, T) + lp_seminorm(history_lip, p, T)
    return _exponent(alpha, p, T).pair(m * jump_lip, norm)


def a_priori_radii(
    x0_norm: float,
    l1: float,
    m: int,
    M1: Envelope,
    M2: Envelope | None,
    alpha: float,
    p: float,
    T: float,
) -> tuple[tuple[float, ...], float]:
    """Nested invariant-ball radii per impulse count.

    lambda_k = |x0| + k*l1 + c*(||M1|| + ||M2||)*T^(alpha-p)/gamma(alpha)
    for k = 0..m; returns (radii, lambda) with lambda = max = last.
    """
    _check_common(alpha, p, T, m, x0_norm=x0_norm, l1=l1)
    norm = lp_seminorm(M1, p, T)
    if M2 is not None:
        norm += lp_seminorm(M2, p, T)
    radii = _exponent(alpha, p, T).radii(x0_norm, l1, m, norm)
    return radii, radii[-1]


def schaefer_bound(
    phi0_norm: float,
    l1_star: float,
    m: int,
    M4: Envelope,
    alpha: float,
    p: float,
    T: float,
) -> tuple[float, float]:
    """A-priori solution bound for the linear-growth delay route.

    With q = c*||M4||_{1/p}*T^(alpha-p)/gamma(alpha), the bound is
    (|phi(0)| + m*l1* + q) / (1 - q).  Returns (q, bound); q >= 1
    raises CertificateError (the route gives no bound there).
    """
    _check_common(alpha, p, T, m, phi0_norm=phi0_norm, l1_star=l1_star)
    q, bound = _exponent(alpha, p, T).schaefer(phi0_norm, l1_star, m, lp_seminorm(M4, p, T))
    if bound is None:
        raise CertificateError(
            f"linear-growth factor q={q:.6g} >= 1: no a-priori bound at p={p!r}"
        )
    return q, bound


def equicontinuity_modulus(
    M2: Envelope, alpha: float, p: float, T: float
) -> float:
    """Coefficient C in |F2(tau2) - F2(tau1)| <= C*(tau2 - tau1)^(alpha-p)
    for the compact part's fractional integral: C = 2c*||M2||_{1/p}/gamma(alpha)."""
    _check_common(alpha, p, T, 0)
    return _exponent(alpha, p, T).equicontinuity(lp_seminorm(M2, p, T))


def logistic_growth_bound(
    x0_norm: float, m: int, l1: float, a_max: float, b_max: float, alpha: float
) -> float:
    """Growth bound (|x0| + m*l1)*exp((a* + b*)/gamma(alpha+1)) for the
    impulsive logistic equation with rates a(t) <= a*, b(t) <= b*: inf
    when the exponential overflows, 0 when |x0| + m*l1 = 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    _check_nonnegative(x0_norm=x0_norm, m=m, l1=l1, a_max=a_max, b_max=b_max)
    scale = x0_norm + m * l1
    if scale == 0.0:
        return 0.0
    try:
        return scale * math.exp((a_max + b_max) / gamma(alpha + 1.0))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Certificate:
    """All computed constants for one problem at one Holder exponent."""

    kind: str
    alpha: float
    p: float
    T: float
    m: int
    holder_c: float
    gamma_stated: float | None
    gamma_proof: float | None
    radii: tuple[float, ...] | None
    radius: float | None
    schaefer_q: float | None
    schaefer_bound: float | None
    equicontinuity_coeff: float | None
    verdict: str
    p_auto: bool


# the Lipschitz envelopes whose seminorms add up in gamma, per rhs kind
_LIP_ROLES = {
    "plain": ("lip",),
    "split": ("f1_lip",),
    "delay": ("lip",),
    "general_delay": ("state_lip", "history_lip"),
}


def _contraction_inputs(spec: ProblemSpec) -> tuple[int, float, tuple[str, ...]] | None:
    """(m, jump Lipschitz constant, roles of the Lipschitz envelopes) of
    gamma, or None when spec does not declare all of them."""
    m = len(spec.impulses.times)
    l2 = spec.impulses.jump_lip
    roles = _LIP_ROLES[spec.rhs.kind]
    if (m > 0 and l2 is None) or not all(map(spec.rhs.envelopes.__contains__, roles)):
        return None
    return m, 0.0 if l2 is None else l2, roles


def _gamma_pair_for(spec: ProblemSpec, p: float) -> ContractionPair | None:
    inputs = _contraction_inputs(spec)
    if inputs is None:
        return None
    m, l2, roles = inputs
    lips = [spec.rhs.envelopes[role] for role in roles]
    if len(lips) == 2:
        return contraction_general(m, l2, *lips, spec.alpha, p, spec.T)
    return contraction_split(m, l2, lips[0], spec.alpha, p, spec.T)


def _schaefer_q_for(spec: ProblemSpec, p: float) -> float | None:
    if spec.rhs.kind != "delay" or "growth" not in spec.rhs.envelopes:
        return None
    growth = lp_seminorm(spec.rhs.envelopes["growth"], p, spec.T)
    return _exponent(spec.alpha, p, spec.T).tail(growth)


_GRID_INDEX = np.arange(1.0, P_GRID_POINTS + 1)


def choose_p(spec: ProblemSpec) -> tuple[float, bool]:
    """Deterministic 64-point grid search over (0, alpha).

    Minimizes gamma_stated when a Lipschitz envelope is declared, else
    the Schaefer growth factor q, else falls back to alpha/2; ties keep
    the smallest exponent.  One array pass evaluates the objective at
    every grid point, with the array code that lp_seminorm and
    holder_constant run at [p], so each grid value is bitwise the value
    of a scalar loop over the grid and the first minimum among the
    finite values is the exponent that loop picks.  A seminorm that is
    not finite at some grid exponent raises the SeminormError of the
    first such exponent, naming the first such envelope in role order;
    a samples envelope whose knots do not cover [0, T] raises its
    ValueError.  When no grid exponent gives a finite objective (it
    overflows everywhere), CertificateError names the envelope roles
    that feed it.
    """
    return _search(spec, _contraction_inputs(spec))[0].p, True


def _search(spec: ProblemSpec, inputs) -> tuple[_Exponent, dict[str, float]]:
    """The exponent choose_p picks, with the seminorms that its grid pass
    evaluated there, by envelope role; inputs are _contraction_inputs(spec)."""
    alpha, T = spec.alpha, spec.T
    if inputs is not None:
        m, l2, roles = inputs
        jumps, denom, objective = m * l2, gamma(alpha + 1.0), "gamma_stated"
    elif spec.rhs.kind == "delay" and "growth" in spec.rhs.envelopes:
        roles, jumps, denom, objective = ("growth",), 0.0, gamma(alpha), "Schaefer q"
    else:
        return _exponent(alpha, alpha / 2.0, T), {}

    grid = alpha * _GRID_INDEX / (P_GRID_POINTS + 1)
    envs = [spec.rhs.envelopes[role] for role in roles]
    norms = [closed_form_seminorms(env, grid, T) for env in envs]
    bad = ~np.isfinite(norms)
    if bad.any():  # lp_seminorm raises there what the scalar loop raises first
        i = bad.any(axis=0).argmax()
        lp_seminorm(envs[bad[:, i].argmax()], grid[i].item(), T)
    holder, tpow = _holder_constants(alpha, grid), _t_powers(alpha, grid, T)
    with np.errstate(over="ignore"):
        norm = norms[0] if len(norms) == 1 else norms[0] + norms[1]
        vals = jumps + holder * norm * tpow / denom
    i = int(np.argmin(np.where(np.isfinite(vals), vals, np.inf)))
    if not math.isfinite(vals[i]):
        named = ", ".join(map(repr, roles))
        raise CertificateError(
            f"no exponent of the p-grid on (0, {alpha!r}) gives a finite {objective} "
            f"from envelope{'s' if len(roles) > 1 else ''} {named}"
        )
    at = _Exponent(alpha, T, grid[i].item(), holder[i].item(), tpow[i].item())
    return at, {role: n[i].item() for role, n in zip(roles, norms)}


def certify(spec: ProblemSpec, p: float | str = "auto") -> Certificate:
    """Assemble the certificate for spec at exponent p (or "auto").

    Quantities whose envelopes or impulse constants are missing come
    back None with verdict not_applicable rather than raising; declared
    jump bounds are spot-checked on the working ball when radii exist.
    An envelope whose seminorm has no finite value (at an exponent the
    search or the constants need) raises CertificateError naming its
    role and the exponent.
    """
    try:
        return _certificate(spec, p)
    except SeminormError as err:
        role = next(r for r, env in spec.rhs.envelopes.items() if env is err.envelope)
        raise CertificateError(f"envelope {role!r}: {err}") from err


def _certificate(spec: ProblemSpec, p: float | str) -> Certificate:
    alpha, T = spec.alpha, spec.T
    inputs = _contraction_inputs(spec)
    if p == "auto":
        (at, searched), p_auto = _search(spec, inputs), True
    else:
        p_val = float(p)
        if not 0.0 < p_val < alpha:
            raise ValueError(
                f"p must lie in (0, alpha)=(0, {alpha!r}), got {p_val!r}"
            )
        at, searched, p_auto = _exponent(alpha, p_val, T), {}, False

    m = len(spec.impulses)
    envs = spec.rhs.envelopes
    kind = spec.rhs.kind

    def norm(*roles: str) -> float:
        """Sum of the seminorms of the envelopes roles at p, in role order,
        with the search's values where it evaluated them."""
        total = 0.0
        for role in roles:
            value = searched.get(role)
            total += lp_seminorm(envs[role], at.p, T) if value is None else value
        return total

    if inputs is None:
        verdict = "not_applicable"
        gamma_stated = gamma_proof = None
    else:
        _, l2, roles = inputs
        gamma_stated, gamma_proof = at.pair(m * l2, norm(*roles))
        verdict = "contraction_holds" if gamma_stated < 1.0 else "contraction_fails"

    radii = radius = None
    l1 = spec.impulses.jump_bound
    bound_roles = ("f1_bound", "f2_bound") if kind == "split" else ("bound",)
    if (m == 0 or l1 is not None) and all(role in envs for role in bound_roles):
        with np.errstate(over="ignore"):  # inf past about 1e154, which the spot check refuses
            x0_norm = float(np.linalg.norm(spec.x0))
        radii = at.radii(x0_norm, l1 or 0.0, m, norm(*bound_roles))
        radius = radii[-1]

    schaefer_q = schaefer_value = None
    l1_star = spec.impulses.jump_bound_star
    if l1_star is None:
        l1_star = l1
    if kind == "delay" and "growth" in envs and (m == 0 or l1_star is not None):
        with np.errstate(over="ignore"):  # inf past about 1e154, and so is the bound
            phi0_norm = float(np.linalg.norm(spec.x0))
        schaefer_q, schaefer_value = at.schaefer(phi0_norm, l1_star or 0.0, m, norm("growth"))

    equi = None
    if kind == "split" and "f2_bound" in envs:
        equi = at.equicontinuity(norm("f2_bound"))

    if radius is not None and m > 0:
        spec.impulses.spot_check(radius, spec.dim)

    return Certificate(
        kind=kind,
        alpha=alpha,
        p=at.p,
        T=T,
        m=m,
        holder_c=at.holder,
        gamma_stated=gamma_stated,
        gamma_proof=gamma_proof,
        radii=radii,
        radius=radius,
        schaefer_q=schaefer_q,
        schaefer_bound=schaefer_value,
        equicontinuity_coeff=equi,
        verdict=verdict,
        p_auto=p_auto,
    )
