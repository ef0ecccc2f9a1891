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
(choose_p).  The search evaluates the whole grid in one numpy pass, with
special.closed_form_seminorms for every envelope form (constant,
exp_decay and samples alike), and re-evaluates the scalar gamma only at
the few points the pass cannot tell apart from its minimum, so it picks
bitwise the exponent of a scalar loop over the grid.  No seminorm of a
certificate goes through a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problem import ProblemSpec
from .special import (
    Envelope,
    SeminormError,
    closed_form_seminorms,
    gamma,
    holder_constant,
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


def _check_common(alpha: float, p: float, T: float, m: int):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not 0.0 < p < alpha:
        raise ValueError(f"p must lie in (0, alpha), got p={p!r}, alpha={alpha!r}")
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T!r}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m!r}")


def _kernel_factor(norm: float, alpha: float, p: float, T: float) -> float:
    return holder_constant(alpha, p) * norm * T ** (alpha - p)


def _pair(m: int, jump_lip: float, norm_sum: float, alpha: float, p: float, T: float) -> ContractionPair:
    base = _kernel_factor(norm_sum, alpha, p, T)
    jumps = m * jump_lip
    return ContractionPair(
        stated=jumps + base / gamma(alpha + 1.0),
        proof=jumps + base / gamma(alpha),
    )


def contraction_split(
    m: int, jump_lip: float, f1_lip: Envelope, alpha: float, p: float, T: float
) -> ContractionPair:
    """Contraction constant for a split RHS (Lipschitz part f1)."""
    _check_common(alpha, p, T, m)
    return _pair(m, jump_lip, lp_seminorm(f1_lip, p, T), alpha, p, T)


def contraction_delay(
    m: int, jump_lip: float, lip: Envelope, alpha: float, p: float, T: float
) -> ContractionPair:
    """Contraction constant for a single-history-argument delay RHS."""
    _check_common(alpha, p, T, m)
    return _pair(m, jump_lip, lp_seminorm(lip, p, T), alpha, p, T)


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
    _check_common(alpha, p, T, m)
    norm = lp_seminorm(state_lip, p, T) + lp_seminorm(history_lip, p, T)
    return _pair(m, jump_lip, norm, alpha, p, T)


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
    _check_common(alpha, p, T, m)
    if x0_norm < 0.0 or l1 < 0.0:
        raise ValueError("x0_norm and l1 must be nonnegative")
    norm = lp_seminorm(M1, p, T)
    if M2 is not None:
        norm += lp_seminorm(M2, p, T)
    tail = _kernel_factor(norm, alpha, p, T) / gamma(alpha)
    radii = tuple(x0_norm + k * l1 + tail for k in range(m + 1))
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
    _check_common(alpha, p, T, m)
    if phi0_norm < 0.0 or l1_star < 0.0:
        raise ValueError("phi0_norm and l1_star must be nonnegative")
    q = _kernel_factor(lp_seminorm(M4, p, T), alpha, p, T) / gamma(alpha)
    if q >= 1.0:
        raise CertificateError(
            f"linear-growth factor q={q:.6g} >= 1: no a-priori bound at p={p!r}"
        )
    return q, (phi0_norm + m * l1_star + q) / (1.0 - q)


def equicontinuity_modulus(
    M2: Envelope, alpha: float, p: float, T: float
) -> float:
    """Coefficient C in |F2(tau2) - F2(tau1)| <= C*(tau2 - tau1)^(alpha-p)
    for the compact part's fractional integral: C = 2c*||M2||_{1/p}/gamma(alpha)."""
    _check_common(alpha, p, T, 0)
    return 2.0 * holder_constant(alpha, p) * lp_seminorm(M2, p, T) / gamma(alpha)


def logistic_growth_bound(
    x0_norm: float, m: int, l1: float, a_max: float, b_max: float, alpha: float
) -> float:
    """Growth bound (|x0| + m*l1)*exp((a* + b*)/gamma(alpha+1)) for the
    impulsive logistic equation with rates a(t) <= a*, b(t) <= b*."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if min(x0_norm, l1, a_max, b_max) < 0.0 or m < 0:
        raise ValueError("arguments must be nonnegative")
    return (x0_norm + m * l1) * math.exp((a_max + b_max) / gamma(alpha + 1.0))


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


def _contraction_inputs(spec: ProblemSpec) -> tuple[int, float, tuple[Envelope, ...]] | None:
    """(m, jump Lipschitz constant, Lipschitz envelopes) of gamma, or
    None when spec does not declare all of them."""
    envs = spec.rhs.envelopes
    m = len(spec.impulses)
    l2 = spec.impulses.jump_lip
    roles = _LIP_ROLES[spec.rhs.kind]
    if (m > 0 and l2 is None) or any(role not in envs for role in roles):
        return None
    return m, 0.0 if l2 is None else l2, tuple(envs[role] for role in roles)


def _gamma_pair_for(spec: ProblemSpec, p: float) -> ContractionPair | None:
    inputs = _contraction_inputs(spec)
    if inputs is None:
        return None
    m, l2, lips = inputs
    if len(lips) == 2:
        return contraction_general(m, l2, *lips, spec.alpha, p, spec.T)
    return contraction_split(m, l2, lips[0], spec.alpha, p, spec.T)


def _schaefer_q_for(spec: ProblemSpec, p: float) -> float | None:
    if spec.rhs.kind != "delay" or "growth" not in spec.rhs.envelopes:
        return None
    return _kernel_factor(
        lp_seminorm(spec.rhs.envelopes["growth"], p, spec.T), spec.alpha, p, spec.T
    ) / gamma(spec.alpha)


# The array pass of choose_p repeats the scalar operations, and only
# numpy's pow, expm1, exp and log may round differently from the C
# library's: by at most 1 ulp as measured (numpy 2.4, AVX-512), taken as
# 4 ulp here.  At most four such calls compound in one value (the Hölder
# constant, T^(alpha-p) and two inside a seminorm; the two seminorms of
# the general kind add, which keeps the larger relative error), and each
# adds its relative error, except that the log of the x <= -700 exp_decay
# branch enters through exp(p * log(.)) with |p * log(.)| at most 745.
# A samples seminorm runs the same numpy calls in both passes, on the
# same operands and with each exponent's pieces summed along one row, so
# only a vector loop that rounded by the array's length could part them.
# Were it to, the same 4-ulp bound covers log1p, expm1 and pow in each
# piece (expm1 of r <= 0 has condition at most 1; the quotient and the
# sum of positive pieces keep the largest relative error) and the final
# pow, whose exponent p < 1 shrinks the error it is given: six calls
# with the Hölder constant and T^(alpha-p), far below the 1e-12 below.
# While every factor is a normal double far from both ends of the range
# (_NORMAL), an array value is thus within 1e-12 relative of its scalar
# twin.  A grid point whose scalar value ties or beats the scalar value at
# the array minimum then has an array value within (1 + 1e-12)/(1 - 1e-12),
# about 1 + 2e-12, of the array minimum; the band is 50 times that margin,
# so the scalar loop over the band finds the minimum of the whole grid.
_CONFIRM_BAND = 1e-10
_NORMAL = (1e-290, 1e290)
_GRID_INDEX = np.arange(1.0, P_GRID_POINTS + 1)


def _is_normal(a: np.ndarray) -> bool:
    """Whether every element of a lies in _NORMAL (a nan does not)."""
    return bool(_NORMAL[0] <= a.min() and a.max() <= _NORMAL[1])


def choose_p(spec: ProblemSpec) -> tuple[float, bool]:
    """Deterministic 64-point grid search over (0, alpha).

    Minimizes gamma_stated when a Lipschitz envelope is declared, else
    the Schaefer growth factor q, else falls back to alpha/2; ties keep
    the smallest exponent.  One array pass evaluates the objective at
    every grid point, and the scalar gamma_stated or q is re-evaluated
    only at the points within _CONFIRM_BAND of the array minimum, so the
    chosen p is bitwise the one a scalar loop over the whole grid picks.
    The array pass is one path for every envelope form: it takes
    closed_form_seminorms of each envelope, which marks an overflow as
    inf instead of raising.  When the pass leaves the range where its
    error bound holds (an overflow, a zero objective), the scalar loop
    runs over the whole grid and raises what it raises, at the first
    exponent that fails.  A samples envelope whose knots do not cover
    [0, T] raises its ValueError from the array pass.  When no grid
    exponent gives a finite objective (it overflows everywhere),
    CertificateError names the envelope roles that feed it.
    """
    alpha, T = spec.alpha, spec.T
    grid = alpha * _GRID_INDEX / (P_GRID_POINTS + 1)
    ps = grid.tolist()
    inputs = _contraction_inputs(spec)
    if inputs is not None:
        m, l2, envs = inputs
        jumps, denom = m * l2, gamma(alpha + 1.0)
        objective, roles = "gamma_stated", _LIP_ROLES[spec.rhs.kind]

        def scalar(p: float) -> float:
            return _gamma_pair_for(spec, p).stated

    elif spec.rhs.kind == "delay" and "growth" in spec.rhs.envelopes:
        envs, jumps, denom = (spec.rhs.envelopes["growth"],), 0.0, gamma(alpha)
        objective, roles = "the Schaefer q", ("growth",)

        def scalar(p: float) -> float:
            return _schaefer_q_for(spec, p)

    else:
        return alpha / 2.0, True

    norms = [closed_form_seminorms(env, grid, T) for env in envs]
    with np.errstate(all="ignore"):
        norm = norms[0] if len(norms) == 1 else norms[0] + norms[1]
        holder = ((1.0 - grid) / (alpha - grid)) ** (1.0 - grid)
        vals = jumps + holder * norm * T ** (alpha - grid) / denom
    # holder > 1, and T^(alpha - p) lies between T and 1
    candidates = range(P_GRID_POINTS)
    if (
        _NORMAL[0] <= T <= _NORMAL[1]
        and _is_normal(vals)
        and all(_is_normal(n) or not n.any() for n in norms)
    ):
        candidates = np.flatnonzero(vals <= vals.min() * (1.0 + _CONFIRM_BAND)).tolist()

    best_p, best_val = None, math.inf
    for i in candidates:
        val = scalar(ps[i])
        if val < best_val:
            best_p, best_val = ps[i], val
    if best_p is None:
        named = ", ".join(map(repr, roles))
        raise CertificateError(
            f"no exponent of the p-grid on (0, {alpha!r}) gives a finite {objective} "
            f"from envelope{'s' if len(roles) > 1 else ''} {named}"
        )
    return best_p, True


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
    if p == "auto":
        p_val, p_auto = choose_p(spec)
    else:
        p_val = float(p)
        if not 0.0 < p_val < spec.alpha:
            raise ValueError(
                f"p must lie in (0, alpha)=(0, {spec.alpha!r}), got {p_val!r}"
            )
        p_auto = False

    alpha, T = spec.alpha, spec.T
    m = len(spec.impulses)
    envs = spec.rhs.envelopes
    kind = spec.rhs.kind

    pair = _gamma_pair_for(spec, p_val)
    if pair is None:
        verdict = "not_applicable"
        gamma_stated = gamma_proof = None
    else:
        gamma_stated, gamma_proof = pair.stated, pair.proof
        verdict = "contraction_holds" if gamma_stated < 1.0 else "contraction_fails"

    radii = radius = None
    l1 = spec.impulses.jump_bound
    bound_envs: tuple[Envelope, Envelope | None] | None = None
    if kind == "split" and "f1_bound" in envs and "f2_bound" in envs:
        bound_envs = (envs["f1_bound"], envs["f2_bound"])
    elif kind in ("plain", "delay", "general_delay") and "bound" in envs:
        bound_envs = (envs["bound"], None)
    if bound_envs is not None and (m == 0 or l1 is not None):
        radii, radius = a_priori_radii(
            float(np.linalg.norm(spec.x0)),
            0.0 if l1 is None else l1,
            m,
            bound_envs[0],
            bound_envs[1],
            alpha,
            p_val,
            T,
        )

    schaefer_q = schaefer_value = None
    l1_star = spec.impulses.jump_bound_star
    if l1_star is None:
        l1_star = spec.impulses.jump_bound
    if kind == "delay" and "growth" in envs and (m == 0 or l1_star is not None):
        try:
            schaefer_q, schaefer_value = schaefer_bound(
                float(np.linalg.norm(spec.x0)),
                0.0 if l1_star is None else l1_star,
                m,
                envs["growth"],
                alpha,
                p_val,
                T,
            )
        except CertificateError:
            schaefer_q = _schaefer_q_for(spec, p_val)
            schaefer_value = None

    equi = None
    if kind == "split" and "f2_bound" in envs:
        equi = equicontinuity_modulus(envs["f2_bound"], alpha, p_val, T)

    if radius is not None and m > 0:
        spec.impulses.spot_check(radius, spec.dim)

    return Certificate(
        kind=kind,
        alpha=alpha,
        p=p_val,
        T=T,
        m=m,
        holder_c=holder_constant(alpha, p_val),
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
