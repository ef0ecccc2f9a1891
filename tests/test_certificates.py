"""Certificate quantities against closed forms and the normalization identity."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracimpulse import certificates
from fracimpulse.certificates import (
    P_GRID_POINTS,
    CertificateError,
    _exponent,
    _gamma_pair_for,
    _schaefer_q_for,
    a_priori_radii,
    certify,
    choose_p,
    contraction_delay,
    contraction_general,
    contraction_split,
    equicontinuity_modulus,
    logistic_growth_bound,
    schaefer_bound,
)
from fracimpulse.problem import (
    ENVELOPE_ROLES,
    DelaySpec,
    ImpulseSchedule,
    ProblemSpec,
    RhsSpec,
)
from fracimpulse.special import (
    Envelope,
    SeminormError,
    _holder_constants,
    closed_form_seminorms,
    holder_constant,
    lp_seminorm,
)

ALPHA, P, T = 0.5, 0.25, 1.0
C_HOLDER = 3.0**0.75  # ((1-p)/(alpha-p))^(1-p) at (0.5, 0.25)


class TestContractionClosedForms:
    def test_split_frozen_value(self):
        pair = contraction_split(1, 0.25, Envelope.constant(0.1), ALPHA, P, T)
        # independent closed form: 0.25 + c * 0.1 / Gamma(1.5), Gamma(1.5) = sqrt(pi)/2
        expected = 0.25 + C_HOLDER * 0.1 * 2.0 / math.sqrt(math.pi)
        assert pair.stated == pytest.approx(expected, rel=1e-10)
        assert pair.stated == pytest.approx(0.5072148274314975, rel=1e-12)
        assert pair.proof == pytest.approx(
            0.25 + C_HOLDER * 0.1 / math.sqrt(math.pi), rel=1e-10
        )

    def test_delay_matches_split_shape(self):
        env = Envelope.constant(0.2)
        a = contraction_split(2, 0.1, env, ALPHA, P, T)
        b = contraction_delay(2, 0.1, env, ALPHA, P, T)
        assert a == b  # same formula, different envelope role

    def test_general_adds_envelope_norms(self):
        e1 = Envelope.constant(0.1)
        e2 = Envelope.constant(0.3)
        combined = contraction_general(0, 0.0, e1, e2, ALPHA, P, T)
        direct = contraction_delay(0, 0.0, Envelope.constant(0.4), ALPHA, P, T)
        assert combined.stated == pytest.approx(direct.stated, rel=1e-9)
        assert combined.proof == pytest.approx(direct.proof, rel=1e-9)

    def test_normalization_identity_sweep(self):
        # (stated - m*l2) * Gamma(a+1) == (proof - m*l2) * Gamma(a)
        rng = np.random.default_rng(20240811)
        for _ in range(20):
            alpha = float(rng.uniform(0.15, 0.95))
            p = float(alpha * rng.uniform(0.2, 0.8))
            horizon = float(rng.uniform(0.5, 3.0))
            m = int(rng.integers(0, 4))
            l2 = float(rng.uniform(0.0, 0.3))
            env = Envelope.exp_decay(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 2.0)))
            pair = contraction_delay(m, l2, env, alpha, p, horizon)
            lhs = (pair.stated - m * l2) * math.gamma(alpha + 1.0)
            rhs = (pair.proof - m * l2) * math.gamma(alpha)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_checks(self):
        env = Envelope.constant(0.1)
        with pytest.raises(ValueError):
            contraction_split(1, 0.1, env, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            contraction_split(1, 0.1, env, 1.2, 0.25, 1.0)
        with pytest.raises(ValueError):
            contraction_split(-1, 0.1, env, 0.5, 0.25, 1.0)


class TestRadii:
    def test_closed_form_constant_envelopes(self):
        # tail = c*(||M1|| + ||M2||)*T^(a-p)/Gamma(a), constants are their own seminorm
        radii, lam = a_priori_radii(
            1.0, 0.5, 2, Envelope.constant(0.3), Envelope.constant(0.2), ALPHA, P, T
        )
        tail = C_HOLDER * 0.5 / math.gamma(0.5)
        assert radii == pytest.approx((1.0 + tail, 1.5 + tail, 2.0 + tail), rel=1e-9)
        assert lam == radii[-1]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_single_bound_envelope(self):
        radii, lam = a_priori_radii(
            0.0, 0.0, 0, Envelope.constant(1.0), None, ALPHA, P, T
        )
        assert len(radii) == 1
        assert lam == pytest.approx(C_HOLDER / math.gamma(0.5), rel=1e-9)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            a_priori_radii(-1.0, 0.0, 0, Envelope.constant(1.0), None, ALPHA, P, T)


class TestSchaefer:
    def test_frozen_value(self):
        # M4 = exp(-t)/4, phi0 = 0, one impulse bounded by 1/2, p = 1/4
        q, bound = schaefer_bound(0.0, 0.5, 1, Envelope.exp_decay(0.25, 1.0), ALPHA, P, T)
        assert q == pytest.approx(0.22629970282590746, rel=1e-10)
        assert bound == pytest.approx(0.9387351995064320, rel=1e-10)

    def test_bound_formula(self):
        q, bound = schaefer_bound(0.3, 0.1, 2, Envelope.constant(0.2), ALPHA, P, T)
        assert bound == pytest.approx((0.3 + 0.2 + q) / (1.0 - q), rel=1e-12)

    def test_rejects_q_at_least_one(self):
        with pytest.raises(CertificateError, match="q"):
            schaefer_bound(0.0, 0.0, 0, Envelope.constant(5.0), ALPHA, P, T)


BAD_SCALARS = [-1.0, math.nan, math.inf]


@pytest.mark.parametrize("bad", BAD_SCALARS)
def test_contraction_rejects_a_bad_jump_lip(bad):
    env = Envelope.constant(0.1)
    for call in (
        lambda: contraction_split(1, bad, env, ALPHA, P, T),
        lambda: contraction_delay(1, bad, env, ALPHA, P, T),
        lambda: contraction_general(1, bad, env, env, ALPHA, P, T),
    ):
        with pytest.raises(ValueError, match=r"^jump_lip must be finite and nonnegative"):
            call()


@pytest.mark.parametrize("bad", BAD_SCALARS)
def test_bounds_reject_bad_scalars(bad):
    env = Envelope.constant(0.1)
    cases = [
        ("x0_norm", lambda: a_priori_radii(bad, 0.0, 0, env, None, ALPHA, P, T)),
        ("l1", lambda: a_priori_radii(0.0, bad, 0, env, None, ALPHA, P, T)),
        ("phi0_norm", lambda: schaefer_bound(bad, 0.0, 0, env, ALPHA, P, T)),
        ("l1_star", lambda: schaefer_bound(0.0, bad, 0, env, ALPHA, P, T)),
        ("x0_norm", lambda: logistic_growth_bound(bad, 0, 0.0, 1.0, 1.0, ALPHA)),
        ("l1", lambda: logistic_growth_bound(1.0, 0, bad, 1.0, 1.0, ALPHA)),
        ("a_max", lambda: logistic_growth_bound(1.0, 0, 0.0, bad, 1.0, ALPHA)),
        ("b_max", lambda: logistic_growth_bound(1.0, 0, 0.0, 1.0, bad, ALPHA)),
    ]
    for name, call in cases:
        with pytest.raises(ValueError, match=rf"^{name} must be finite and nonnegative"):
            call()


def test_equicontinuity_modulus_frozen():
    got = equicontinuity_modulus(Envelope.constant(1.0), ALPHA, P, T)
    assert got == pytest.approx(2.572148274314975, rel=1e-12)
    assert got == pytest.approx(2.0 * C_HOLDER / math.sqrt(math.pi), rel=1e-10)


def test_logistic_growth_bound_overflow_is_inf_unless_the_scale_is_zero():
    # (a* + b*) / Gamma(1.5) = 1.13e308 overflows exp
    assert logistic_growth_bound(0.1, 2, 0.05, 1e308, 1.0, 0.5) == math.inf
    assert logistic_growth_bound(0.0, 2, 0.0, 1e308, 1.0, 0.5) == 0.0
    assert logistic_growth_bound(0.0, 0, 0.05, 1.0, 1.0, 0.5) == 0.0


def test_logistic_growth_bound_frozen():
    # (|x0| + m*l1) * exp((a* + b*)/Gamma(alpha+1))
    assert logistic_growth_bound(0.1, 2, 0.05, 1.0, 1.0, 0.5) == pytest.approx(
        1.9104148582716843, rel=1e-12
    )
    assert logistic_growth_bound(0.05, 1, 0.05, 1.0, 1.0, 0.5) == pytest.approx(
        0.9552074291358421, rel=1e-12
    )
    with pytest.raises(ValueError):
        logistic_growth_bound(0.1, 2, 0.05, 1.0, 1.0, 1.5)


def _delay_problem(envelopes, jump_lip=0.0, jump_bound=0.5, star=None):
    return ProblemSpec(
        alpha=0.5,
        T=1.0,
        rhs=RhsSpec(
            kind="delay",
            f=lambda t, x, xr, sup: np.array([math.exp(-t) * sup / ((1 + math.exp(t)) * (1 + sup))]),
            envelopes=envelopes,
        ),
        impulses=ImpulseSchedule(
            times=(0.5,),
            jumps=(lambda x: np.array([0.5]),),
            jump_bound=jump_bound,
            jump_lip=jump_lip,
            jump_bound_star=star,
        ),
        delay=DelaySpec(r=0.5, history=lambda s: np.array([0.0])),
    )


class TestCertify:
    def test_delay_contraction_at_quarter(self):
        spec = _delay_problem({"lip": Envelope.exp_decay(0.5, 1.0)})
        cert = certify(spec, p=0.25)
        assert cert.gamma_stated == pytest.approx(0.9051988113036299, rel=1e-9)
        assert cert.verdict == "contraction_holds"
        assert not cert.p_auto
        # identity between the two normalizations
        lhs = (cert.gamma_stated - 0.0) * math.gamma(1.5)
        rhs = (cert.gamma_proof - 0.0) * math.gamma(0.5)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_auto_p_beats_quarter(self):
        spec = _delay_problem({"lip": Envelope.exp_decay(0.5, 1.0)})
        cert = certify(spec, p="auto")
        assert cert.p_auto
        fixed = certify(spec, p=0.25)
        assert cert.gamma_stated <= fixed.gamma_stated
        # grid point: alpha * i / 65
        assert any(
            cert.p == pytest.approx(0.5 * i / 65.0, abs=1e-15) for i in range(1, 65)
        )

    def test_schaefer_route(self):
        spec = _delay_problem({"growth": Envelope.exp_decay(0.25, 1.0)}, star=0.5)
        cert = certify(spec, p=0.25)
        assert cert.verdict == "not_applicable"
        assert cert.gamma_stated is None
        assert cert.schaefer_q == pytest.approx(0.22629970282590746, rel=1e-9)
        assert cert.schaefer_bound == pytest.approx(0.9387351995064320, rel=1e-9)

    def test_schaefer_q_too_large_reported_without_bound(self):
        spec = _delay_problem({"growth": Envelope.constant(5.0)}, star=0.5)
        cert = certify(spec, p=0.25)
        assert cert.schaefer_q is not None and cert.schaefer_q >= 1.0
        assert cert.schaefer_bound is None

    def test_contraction_fails_when_jumps_dominate(self):
        spec = _delay_problem({"lip": Envelope.exp_decay(0.5, 1.0)}, jump_lip=1.0)
        cert = certify(spec, p=0.25)
        assert cert.gamma_stated >= 1.0
        assert cert.verdict == "contraction_fails"

    def test_missing_jump_lip_blocks_gamma(self):
        spec = _delay_problem({"lip": Envelope.exp_decay(0.5, 1.0)}, jump_lip=None)
        cert = certify(spec, p=0.25)
        assert cert.gamma_stated is None
        assert cert.verdict == "not_applicable"

    def test_radii_from_bound_envelope(self):
        spec = _delay_problem({"bound": Envelope.exp_decay(0.5, 1.0)})
        cert = certify(spec, p=0.25)
        assert cert.radii is not None and len(cert.radii) == 2
        assert cert.radius == cert.radii[-1]
        assert cert.radii[1] - cert.radii[0] == pytest.approx(0.5, rel=1e-12)

    def test_spot_check_runs_on_working_ball(self):
        # declared bound is a lie: certify must surface it
        spec = _delay_problem({"bound": Envelope.exp_decay(0.5, 1.0)}, jump_bound=0.01)
        from fracimpulse.problem import ProblemError

        with pytest.raises(ProblemError, match="jump_bound"):
            certify(spec, p=0.25)

    def test_split_equicontinuity_and_radii(self):
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(
                kind="split",
                f1=lambda t, x: x,
                f2=lambda t, x: -x * np.abs(x),
                envelopes={
                    "f1_bound": Envelope.constant(0.5),
                    "f2_bound": Envelope.constant(1.0),
                    "f1_lip": Envelope.constant(0.1),
                },
            ),
            x0=np.array([0.1]),
            impulses=ImpulseSchedule(
                times=(0.5,), jumps=(lambda x: np.array([0.05]),),
                jump_bound=0.05, jump_lip=0.25,
            ),
        )
        cert = certify(spec, p=0.25)
        assert cert.equicontinuity_coeff == pytest.approx(2.572148274314975, rel=1e-10)
        assert cert.gamma_stated == pytest.approx(0.5072148274314975, rel=1e-10)
        assert cert.radii is not None and len(cert.radii) == 2

    def test_invalid_p(self):
        spec = _delay_problem({"lip": Envelope.exp_decay(0.5, 1.0)})
        with pytest.raises(ValueError):
            certify(spec, p=0.5)
        with pytest.raises(ValueError):
            certify(spec, p=0.0)


def test_choose_p_minimizes_schaefer_without_lip():
    spec = _delay_problem({"growth": Envelope.exp_decay(0.25, 1.0)}, star=0.5)
    p, auto = choose_p(spec)
    assert auto
    cert = certify(spec, p=p)
    # chosen p must not lose to the fixed quarter exponent
    assert cert.schaefer_q <= 0.22629970282590746 + 1e-12


def test_choose_p_fallback_half_alpha():
    spec = ProblemSpec(
        alpha=0.6,
        T=1.0,
        rhs=RhsSpec(kind="plain", f=lambda t, x: x),
        x0=np.array([1.0]),
    )
    p, auto = choose_p(spec)
    assert auto and p == pytest.approx(0.3)


def _linear_problem(lam, jump_lip, alpha=0.5, horizon=1.0):
    return ProblemSpec(
        alpha=alpha,
        T=horizon,
        rhs=RhsSpec(
            kind="plain", f=lambda t, x: -lam * x, envelopes={"lip": Envelope.constant(lam)}
        ),
        x0=np.array([1.0]),
        impulses=ImpulseSchedule(
            times=(0.5,), jumps=(lambda x: x,), jump_bound=1.0, jump_lip=jump_lip
        ),
    )


def test_weak_envelope_does_not_vanish_at_small_p():
    # 0.999 + c * 0.001 * T^a / Gamma(a+1) > 1 at every p; the seminorm of
    # the 0.001 envelope once underflowed to 0 at p = alpha/65
    cert = certify(_linear_problem(0.001, 0.999))
    assert cert.verdict == "contraction_fails"
    assert cert.gamma_stated > 1.0


def test_strong_envelope_certifies_without_overflow():
    lam = 400.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify(_linear_problem(lam, 0.0))
    holder = ((1.0 - cert.p) / (0.5 - cert.p)) ** (1.0 - cert.p)
    assert cert.gamma_stated == pytest.approx(holder * lam / math.gamma(1.5), rel=1e-9)
    assert cert.verdict == "contraction_fails"


def test_seminorm_overflow_is_a_certificate_error_naming_role_and_p():
    # 1.7e308 * T^p first exceeds a double at the grid point p = 11 * 0.5 / 65
    spec = dataclasses.replace(
        _delay_problem({"lip": Envelope.constant(1.7e308)}), T=2.0
    )
    message = (
        "envelope 'lip': lp_seminorm of Envelope.constant(value=1.7e+308) over "
        "[0, 2.0] at p=0.08461538461538462 overflows a double"
    )
    with pytest.raises(CertificateError) as err:
        certify(spec)
    assert str(err.value) == message
    with pytest.raises(CertificateError, match=r"^envelope 'lip': .* at p=0\.25 overflows"):
        certify(spec, p=0.25)


def test_seminorm_overflow_names_the_history_role():
    spec = ProblemSpec(
        alpha=0.5,
        T=2.0,
        rhs=RhsSpec(
            kind="general_delay",
            f=lambda t, x, xr, sup: -x,
            envelopes={
                "state_lip": Envelope.constant(1.0),
                "history_lip": Envelope.constant(1.7e308),
            },
        ),
        delay=DelaySpec(r=0.5, history=lambda s: np.array([0.0])),
    )
    with pytest.raises(CertificateError, match=r"^envelope 'history_lip': .* at p=0\.0846"):
        certify(spec)


def test_kinked_samples_certify_at_every_grid_exponent():
    """lip samples with kinks off the dyadic panel edges, on which the
    panel-doubling quadrature did not converge at p = alpha/65 within 2^20
    nodes, so certify raised; the closed form certifies."""
    lip = Envelope.from_samples([0.0, 2 / 3, 4 / 3, 2.0], [0.1, 10.0, 0.1, 5.0])
    spec = ProblemSpec(
        alpha=0.5,
        T=2.0,
        x0=np.array([1.0]),
        rhs=RhsSpec(kind="plain", f=lambda t, x: -x, envelopes={"lip": lip}),
    )
    cert = certify(spec)
    assert (cert.p, cert.p_auto, cert.verdict) == (0.5 * 35 / 65, True, "contraction_fails")
    # 40-digit values of the same gamma: 22.1652040894208354..., 22.2081018956726818...
    assert cert.gamma_stated == pytest.approx(22.165204089420835, rel=1e-14)
    assert certify(spec, p=0.25).gamma_stated == pytest.approx(22.20810189567268, rel=1e-14)


def reference_choose_p(spec):
    """choose_p as one scalar loop over the whole grid: the reference
    whose p (or error) the array pass must reproduce bitwise."""
    alpha = spec.alpha
    grid = [alpha * i / (P_GRID_POINTS + 1) for i in range(1, P_GRID_POINTS + 1)]
    has_lip = _gamma_pair_for(spec, grid[0]) is not None
    best_p, best_val = None, math.inf
    for p in grid:
        if has_lip:
            val = _gamma_pair_for(spec, p).stated
        else:
            q = _schaefer_q_for(spec, p)
            if q is None:
                return alpha / 2.0, True
            val = q
        if val < best_val:
            best_p, best_val = p, val
    return best_p, True


def _outcome(fn, spec):
    try:
        return fn(spec)
    except Exception as err:  # compared by type and message
        return type(err), str(err)


@st.composite
def envelopes(draw, T):
    """constant (0, ordinary, near overflow), exp_decay (scale 0, rate 0,
    both signs, |r T / p| past 700) and sampled envelopes whose knots
    cover [0, T]."""
    form = draw(st.sampled_from(["constant", "exp_decay", "samples"]))
    if form == "constant":
        value = draw(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(1e307, 1.7e308))
        )
        return Envelope.constant(value)
    if form == "exp_decay":
        scale = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
        # a growing envelope stays below e^700 on [0, T]; x = r T / p passes
        # -700 at small p and 700 for the large positive rates
        rate = draw(
            st.one_of(st.just(0.0), st.floats(-700.0 / T, 1e-3), st.floats(1e-3, 1e5))
        )
        return Envelope.exp_decay(scale, rate)
    # knots anywhere, the first at or before 0 and the last at or after T
    lo = draw(st.one_of(st.just(0.0), st.floats(-1.0, 0.0)))
    hi = draw(st.one_of(st.just(T), st.floats(T, T + 1.0)))
    times = sorted({lo, hi, *draw(st.lists(st.floats(0.0, T), max_size=4))})
    values = draw(st.lists(st.floats(0.25, 4.0), min_size=len(times), max_size=len(times)))
    return Envelope.from_samples(times, values)


@st.composite
def certificate_problems(draw):
    alpha = draw(st.floats(0.05, 0.95))
    T = draw(st.floats(0.1, 5.0))
    m = draw(st.integers(0, 2))
    jump_lip = draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    route = draw(st.sampled_from(["gamma", "gamma", "gamma", "schaefer", "fallback"]))
    kind = "delay" if route == "schaefer" else draw(st.sampled_from(sorted(ENVELOPE_ROLES)))
    lips = [r for r in ENVELOPE_ROLES[kind] if r.endswith("lip")]
    others = [r for r in ENVELOPE_ROLES[kind] if not r.endswith("lip")]
    if route == "gamma":
        roles = lips + draw(st.lists(st.sampled_from(others), unique=True))
    elif route == "schaefer":
        roles = ["growth"] + draw(st.lists(st.just("bound"), max_size=1))
    else:  # neither gamma nor the Schaefer q: alpha / 2
        if kind == "delay":
            others.remove("growth")
        roles = draw(st.lists(st.sampled_from(others), unique=True))
    envs = {role: draw(envelopes(T)) for role in roles}
    times = tuple(T * (k + 1) / (m + 1) for k in range(m))
    impulses = ImpulseSchedule(
        times=times, jumps=tuple(lambda x: 0.0 * x for _ in times), jump_lip=jump_lip
    )
    delayed = kind in ("delay", "general_delay")
    if kind == "split":
        rhs = RhsSpec(kind=kind, f1=lambda t, x: x, f2=lambda t, x: x, envelopes=envs)
    elif delayed:
        rhs = RhsSpec(kind=kind, f=lambda t, x, xr, sup: x, envelopes=envs)
    else:
        rhs = RhsSpec(kind=kind, f=lambda t, x: x, envelopes=envs)
    return ProblemSpec(
        alpha=alpha,
        T=T,
        rhs=rhs,
        x0=np.array([0.0]),
        impulses=impulses,
        delay=DelaySpec(r=T / 4.0, history=lambda s: np.array([0.0])) if delayed else None,
    )


PROPERTY = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY
@given(certificate_problems())
@example(  # the sum of two near-overflow seminorms overflows at every p
    ProblemSpec(
        alpha=0.5,
        T=4.0,
        rhs=RhsSpec(
            kind="general_delay",
            f=lambda t, x, xr, sup: x,
            envelopes={
                "state_lip": Envelope.constant(4.37645911022471e307),
                "history_lip": Envelope.constant(4.708370680094852e307),
            },
        ),
        x0=np.array([0.0]),
        impulses=ImpulseSchedule(jump_lip=0.0),
        delay=DelaySpec(r=1.0, history=lambda s: np.array([0.0])),
    )
)
def test_choose_p_is_bitwise_the_reference_loop(spec):
    want = _outcome(reference_choose_p, spec)
    got = _outcome(choose_p, spec)
    if want != (None, True):
        assert got == want
        return
    # no grid exponent gives a finite objective: the reference loop keeps
    # p = None, choose_p raises and names the envelopes of the objective
    roles = [r for r in spec.rhs.envelopes if r.endswith("lip")] or ["growth"]
    assert got[0] is CertificateError
    assert "gives a finite" in got[1]
    assert all(repr(role) in got[1] for role in roles)


@pytest.mark.parametrize(
    "envs, T, jump_lip, outcome",
    [
        # overflows from p = 11 alpha / 65
        ({"lip": Envelope.constant(1.7e308)}, 2.0, 0.0, SeminormError),
        # the x < -700 branch: max 1.75e308 at T, overflows from p = 56 alpha / 65
        ({"lip": Envelope.exp_decay(1.75e308 * math.exp(-400.0), -0.4)}, 1000.0, 0.0, SeminormError),
        # the Schaefer route overflows
        ({"growth": Envelope.constant(1.7e308)}, 3.0, 0.0, SeminormError),
        # a zero objective, outside the array's range: the scalar loop
        ({"lip": Envelope.constant(0.0)}, 1.0, 0.0, 0.5 / 65),
        # every array value is the jump term: all 64 points tie, the first wins
        ({"lip": Envelope.constant(0.0)}, 1.0, 0.5, 0.5 / 65),
    ],
)
def test_choose_p_outside_the_array_range_matches_the_reference(envs, T, jump_lip, outcome):
    spec = dataclasses.replace(_delay_problem(envs, jump_lip=jump_lip), T=T)
    got = _outcome(choose_p, spec)
    assert got == _outcome(reference_choose_p, spec)
    assert got[0] == outcome


@pytest.mark.parametrize(
    "alpha, T, rate",
    [
        (0.7635020466217661, 2.5198519743412344, 37.6948816491322),
        (0.4000609660616991, 0.6348267559541411, 19.30214696090557),
        (0.48593124379399905, 0.6131879847561129, 3.9525354259684455),
        (0.7635020466217661, 2.5198519743412344, 37.69488164913253),
        (0.4000609660616991, 0.6348267559541411, 19.302146960905695),
        (0.7909617263261186, 1.4810116608369455, 32.449440339476844),
    ],
)
def test_choose_p_breaks_a_last_ulp_tie_by_the_scalar_value(alpha, T, rate):
    # gamma_stated at two neighbouring grid points differs by at most one
    # ulp: where the C library's pow and numpy's SIMD pow (AVX-512 builds)
    # each computed part of the values, they ranked the two differently.
    # With numpy's arithmetic at every exponent, choose_p and the scalar
    # loop see the same values and pick the same point.
    spec = ProblemSpec(
        alpha=alpha,
        T=T,
        rhs=RhsSpec(
            kind="plain",
            f=lambda t, x: x,
            envelopes={"lip": Envelope.exp_decay(1.0, rate)},
        ),
        x0=np.array([0.0]),
    )
    assert choose_p(spec) == reference_choose_p(spec)


@pytest.mark.parametrize(
    "envs, message",
    [
        # every seminorm is 1.5e308: the Hölder constant times it overflows
        ({"lip": Envelope.constant(1.5e308)}, "gamma_stated from envelope 'lip'"),
        ({"growth": Envelope.constant(1.5e308)}, "Schaefer q from envelope 'growth'"),
    ],
)
def test_no_finite_objective_is_a_certificate_error(envs, message):
    spec = _delay_problem(envs)
    assert reference_choose_p(spec) == (None, True)
    with pytest.raises(CertificateError) as err:
        certify(spec)
    assert str(err.value) == (
        f"no exponent of the p-grid on (0, 0.5) gives a finite {message}"
    )


def test_choose_p_confirms_few_grid_points(monkeypatch):
    # one array pass and no scalar re-evaluation of gamma at any grid point
    spec = _linear_problem(1.25, 0.0)
    want = reference_choose_p(spec)
    calls = []
    real = certificates._gamma_pair_for
    monkeypatch.setattr(
        certificates, "_gamma_pair_for", lambda s, p: calls.append(p) or real(s, p)
    )
    assert choose_p(spec) == want
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    alpha=st.floats(0.01, 0.99),
    T=st.floats(1e-3, 1e3),
)
def test_array_seminorms_match_the_scalar_closed_forms(data, alpha, T):
    """Each value at one exponent is bitwise its element of the grid
    arrays that choose_p evaluates: seminorms, Holder constants, gamma
    and the kernel term c * norm * T^(alpha - p) / Gamma(alpha)."""
    env = data.draw(grid_envelopes(T))
    grid = alpha * np.arange(1.0, P_GRID_POINTS + 1) / (P_GRID_POINTS + 1)
    norms = closed_form_seminorms(env, grid, T)
    holders, tpows = _holder_constants(alpha, grid), certificates._t_powers(alpha, grid, T)
    with np.errstate(over="ignore"):
        tails = holders * norms * tpows / math.gamma(alpha)
        stated = 0.5 + holders * norms * tpows / math.gamma(alpha + 1.0)
    for i, p in enumerate(grid.tolist()):
        at = _exponent(alpha, p, T)
        assert (holder_constant(alpha, p), at.holder, at.tpow) == (holders[i], holders[i], tpows[i])
        try:
            norm = lp_seminorm(env, p, T)
        except ArithmeticError:
            assert not math.isfinite(norms[i])
            continue
        assert norm == norms[i]
        assert at.tail(norm) == tails[i]
        assert at.pair(0.5, norm).stated == stated[i]


def grid_envelopes(T):
    """constant, exp_decay and samples envelopes for the p-grid arrays."""
    return st.one_of(
        st.floats(0.0, 1e300).map(Envelope.constant),
        st.builds(
            Envelope.exp_decay,
            st.one_of(st.just(0.0), st.floats(1e-300, 1e300)),
            st.one_of(st.just(0.0), st.floats(-1e4, 1e6)),
        ),
        envelopes(T).filter(lambda env: env.form == "samples"),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), alpha=st.floats(0.01, 0.99), T=st.floats(1e-3, 1e3))
def test_grid_arrays_are_elementwise_their_values_at_one_exponent(data, alpha, T):
    """numpy rounds an element alike whatever the array's length, so the
    search's grid arrays are bitwise their values at [p], the one-exponent
    path of lp_seminorm, holder_constant and certify."""
    env = data.draw(grid_envelopes(T))
    grid = alpha * np.arange(1.0, P_GRID_POINTS + 1) / (P_GRID_POINTS + 1)
    for array in (
        lambda ps: closed_form_seminorms(env, ps, T),
        lambda ps: _holder_constants(alpha, ps),
        lambda ps: certificates._t_powers(alpha, ps, T),
    ):
        whole = array(grid)
        ones = np.concatenate([array(np.array([p])) for p in grid.tolist()])
        assert whole.tobytes() == ones.tobytes()
