"""Special functions: gamma wrapper, Mittag-Leffler function, seminorms, envelopes."""

import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimpulse.special import (
    Envelope,
    closed_form_seminorms,
    gamma,
    holder_constant,
    lp_seminorm,
    mittag_leffler,
)


# E_alpha(z) to 40 digits at the double z: mpmath's Talbot inversion of
# s^(alpha-1) / (s^alpha - z) at 60 digits (exp(z) at alpha = 1)
_ML_GRID = {
    (0.1, -1e-08): 0.9999999894886300477946626723701721647906,
    (0.1, -0.1): 0.9047657422574315107958985603605436349939,
    (0.1, -1.0): 0.4855644643110821015914755431646791521195,
    (0.1, -4.0): 0.1901336542612927933252236733365757686056,
    (0.1, -16.0): 0.05530929518294869804110456792753535061535,
    (0.1, -100.0): 0.009272657231311858298238162599141127960412,
    (0.1, -1000.0): 0.000934920553605890735022202610291145787231,
    (0.3, -1e-08): 0.9999999888575750264444756891522274554951,
    (0.3, -0.1): 0.8988115365027225480996672322610424846484,
    (0.3, -1.0): 0.4565944083296906706195130224040984139119,
    (0.3, -4.0): 0.1665017443155166497053345710473997429482,
    (0.3, -16.0): 0.04641594241768555900830930239853692717194,
    (0.3, -100.0): 0.007658856222286641491001169094762141395502,
    (0.3, -1000.0): 0.0007699324649525776927827519226334835892093,
    (0.5, -1e-08): 0.999999988716208429044873272699824459566,
    (0.5, -0.1): 0.8964569799691266366633882693077250311263,
    (0.5, -1.0): 0.4275835761558070044107503444905151808202,
    (0.5, -4.0): 0.1369994576250613898894451713998054823302,
    (0.5, -16.0): 0.03519337782493083756637297489953351970143,
    (0.5, -100.0): 0.005641613782989432903556457006951550718706,
    (0.5, -1000.0): 0.0005641893014533876541997450280616957271664,
    (0.8, -1e-08): 0.9999999892632873296400909257863326671188,
    (0.8, -0.1): 0.8993047682144851386818210952611453934404,
    (0.8, -1.0): 0.3869485786189768461748361271562294604682,
    (0.8, -4.0): 0.07704867993034474878624344277513251376941,
    (0.8, -16.0): 0.01476911427781525172444726337571628270163,
    (0.8, -100.0): 0.00220567886850911074545314666282540559476,
    (0.8, -1000.0): 0.0002180957552274838145988000717726166273832,
    (0.95, -1e-08): 0.9999999897946755725914066252941709939477,
    (0.95, -0.1): 0.9032240546280757405634345379834171162423,
    (0.95, -1.0): 0.3715736200306788139769773418026133466446,
    (0.95, -4.0): 0.03516665554269048431836501752611526178072,
    (0.95, -16.0): 0.003660089681157742825089249325050620785113,
    (0.95, -100.0): 0.0005233306439470409611787709575596276975073,
    (0.95, -1000.0): 0.00005145569927857012697370203959927978775523,
    (1.0, -1e-08): 0.9999999900000000499999996241077275409713,
    (1.0, -0.1): 0.9048374180359595681413923842169355953091,
    (1.0, -1.0): 0.3678794411714423215955237701614608674458,
    (1.0, -4.0): 0.01831563888873418029371802127324124221191,
    (1.0, -16.0): 0.0000001125351747192591145137751790601271916379,
    (1.0, -100.0): 3.720075976020835962959695803863118337359e-44,
    (1.0, -1000.0): 5.075958897549456765291809479574336919306e-435,
}
# small alpha or large |z|: the alternating series loses its digits to cancellation
_ML_FAST_DECAYS = {
    (0.2, -2.0): 0.3056786964187060098289746541635853680012,
    (0.3, -3.0): 0.2118026331964357820337664696977758800093,
    (0.5, -4.0): 0.1369994576250613898894451713998054823302,
    (0.8, -8.0): 0.03227382844683579138862213519639283527429,
    (0.5, -10.0): 0.05614099274382258585751738722046831156516,
    (0.8, -10.0): 0.02490281976197653218560213447788746172035,
}


class TestGamma:
    @pytest.mark.parametrize("x", [0.3, 0.5, 1.2, 4.7])
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)

    def test_known_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0
        assert gamma(0.5) ** 2 == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            gamma(x)


class TestMittagLeffler:
    def test_at_zero(self):
        assert mittag_leffler(0.7, 0.0) == 1.0

    def test_alpha_one_is_exp(self):
        for z in np.linspace(-5.0, 5.0, 21):
            e = math.exp(z)
            assert abs(mittag_leffler(1.0, z) - e) <= 1e-12 * (1.0 + e)

    @pytest.mark.parametrize("z", [-2.0, -1.0, -0.3, 0.5, 1.0, 2.0])
    def test_half_order_erfc_identity(self, z):
        # E_{1/2}(z) = e^{z^2} erfc(-z), independent of the series code
        expected = math.exp(z * z) * math.erfc(-z)
        assert mittag_leffler(0.5, z) == pytest.approx(expected, rel=1e-12)

    def test_frozen_values(self):
        assert mittag_leffler(0.5, 1.0) == pytest.approx(5.008980080762283, rel=1e-13)
        assert mittag_leffler(0.5, -1.0) == pytest.approx(0.42758357615580700, rel=1e-13)

    def test_monotone_in_z(self):
        zs = [-1.5, -1.0, 0.0, 1.0, 3.0]
        vals = [mittag_leffler(0.3, z) for z in zs]
        assert vals == sorted(vals)

    def test_moderate_negative_argument_stays_accurate(self):
        expected = math.exp(9.0) * math.erfc(3.0)
        assert mittag_leffler(0.5, -3.0) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha,z", sorted(_ML_FAST_DECAYS))
    def test_fast_decays_match_mpmath(self, alpha, z):
        assert abs(mittag_leffler(alpha, z) - _ML_FAST_DECAYS[alpha, z]) <= 1e-14

    @pytest.mark.parametrize("alpha,z", sorted(_ML_GRID))
    def test_negative_axis_matches_mpmath_grid(self, alpha, z):
        assert abs(mittag_leffler(alpha, z) - _ML_GRID[alpha, z]) <= 1e-14

    @pytest.mark.parametrize("z", [-3.0, -10.0])
    def test_half_order_identity_far_on_negative_axis(self, z):
        expected = math.exp(z * z) * math.erfc(-z)
        assert mittag_leffler(0.5, z) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_positive_axis_series_values_frozen(self):
        # the series code for 0 <= z <= 30 is unchanged, bit for bit
        assert mittag_leffler(0.1, 1e-8) == 1.00000001051137
        assert mittag_leffler(0.3, 3.0) == 2.7203610806250538e17
        assert mittag_leffler(0.5, 1.0) == 5.008980080762268
        assert mittag_leffler(0.8, 10.0) == 66050994.884095915
        assert mittag_leffler(0.95, 30.0) == 4028974884869873.5
        assert mittag_leffler(1.0, 2.0) == 7.389056098930644

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, z):
        with pytest.raises(ValueError, match=f"z={z!r}"):
            mittag_leffler(0.5, z)

    def test_domain(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.5, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 31.0)


class TestLpSeminorm:
    @pytest.mark.parametrize(
        "c,p,T", [(1.0, 0.25, 1.0), (2.5, 0.5, 3.0), (0.3, 0.75, 0.5)]
    )
    def test_constant_closed_form(self, c, p, T):
        # (int_0^T c^{1/p})^p = c * T^p
        got = lp_seminorm(lambda t: c + 0.0 * np.asarray(t), p, T)
        assert got == pytest.approx(c * T**p, rel=1e-9)

    def test_identity_function(self):
        # g(t)=t, p=0.5: (int_0^1 t^2)^{1/2} = 1/sqrt(3)
        got = lp_seminorm(lambda t: np.asarray(t, dtype=float), 0.5, 1.0)
        assert got == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)

    def test_exp_closed_form(self):
        # g=e^{-t}, p=0.25: ((1 - e^{-4})/4)^{1/4}
        got = lp_seminorm(lambda t: np.exp(-np.asarray(t)), 0.25, 1.0)
        assert got == pytest.approx(((1.0 - math.exp(-4.0)) / 4.0) ** 0.25, rel=1e-9)

    def test_monotone_in_horizon(self):
        g = Envelope.exp_decay(1.0, 0.5)
        a = lp_seminorm(g, 0.25, 0.5)
        b = lp_seminorm(g, 0.25, 1.0)
        assert b > a

    def test_rejects_negative_integrand(self):
        with pytest.raises(ValueError):
            lp_seminorm(lambda t: np.asarray(t) - 0.5, 0.5, 1.0)

    def test_small_exponent_neither_underflows_nor_overflows(self):
        # g^(1/p) = 0.001^130 underflows and 400^130 overflows unscaled
        p = 0.5 / 65
        assert lp_seminorm(lambda t: 0.001 + 0.0 * t, p, 1.0) == pytest.approx(0.001, rel=1e-12)
        assert lp_seminorm(lambda t: 400.0 + 0.0 * t, p, 1.0) == pytest.approx(400.0, rel=1e-12)
        # a sampled ramp from 1e-3 to 1e3, whose top reaches 1e390 unscaled:
        # (int_0^2 g^{1/p})^p = (p/(b(1+p)) * (g(2)^{(1+p)/p} - g(0)^{(1+p)/p}))^p
        env = Envelope.from_samples([0.0, 2.0], [1e-3, 1e3])
        expected = (2.0 / (1e3 - 1e-3) * p / (1.0 + p)) ** p * 1e3 ** (1.0 + p)
        assert lp_seminorm(env, p, 2.0) == pytest.approx(expected, rel=1e-6)

    def test_closed_form_overflow_raises(self):
        # e^{1000 t} over [0, 1]: the seminorm itself exceeds a double
        with pytest.raises(ArithmeticError, match="overflows"):
            lp_seminorm(Envelope.exp_decay(1.0, -1000.0), 0.01, 1.0)
        with pytest.raises(ArithmeticError, match="overflows"):
            lp_seminorm(Envelope.constant(1e308), 0.5, 4.0)

    def test_exp_decay_steep_growth_stays_finite(self):
        # int_0^1 (e^{400 t})^(1/p) dt = int_0^1 e^{800 t} dt overflows a double;
        # its p-th power, about e^400, does not
        p, rate = 0.5, -400.0
        expected = math.exp(400.0 + p * math.log(p / 400.0))
        got = lp_seminorm(Envelope.exp_decay(1.0, rate), p, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_exp_decay_extreme_rates(self):
        # a subnormal rate is no decay at all; a huge one leaves (p/r)^p
        assert lp_seminorm(Envelope.exp_decay(2.0, 5e-324), 0.25, 1.5) == 2.0 * 1.5**0.25
        got = lp_seminorm(Envelope.exp_decay(1.0, 1e308), 0.01, 2.0)
        assert got == pytest.approx((0.01 / 1e308) ** 0.01, rel=1e-12)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            lp_seminorm(lambda t: 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lp_seminorm(lambda t: 1.0, 0.5, 0.0)


class TestHolderConstant:
    def test_frozen_value(self):
        assert holder_constant(0.5, 0.25) == pytest.approx(3.0**0.75, rel=1e-12)

    def test_closed_form(self):
        assert holder_constant(0.75, 0.25) == pytest.approx(1.5**0.75, rel=1e-12)

    def test_at_least_one(self):
        for alpha in (0.2, 0.5, 0.9):
            for frac in (0.1, 0.5, 0.9):
                assert holder_constant(alpha, alpha * frac) >= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            holder_constant(0.5, 0.5)
        with pytest.raises(ValueError):
            holder_constant(0.5, 0.0)
        with pytest.raises(ValueError):
            holder_constant(1.0, 0.5)


class TestEnvelope:
    def test_constant(self):
        env = Envelope.constant(2.0)
        assert env(0.0) == 2.0
        assert np.all(env(np.array([0.0, 1.0, 5.0])) == 2.0)

    def test_exp_decay(self):
        env = Envelope.exp_decay(0.5, 1.0)
        ts = np.array([0.0, 0.5, 1.0])
        assert np.allclose(env(ts), 0.5 * np.exp(-ts), rtol=0, atol=0)
        assert env(0.0) == 0.5

    def test_samples_interpolation(self):
        env = Envelope.from_samples([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
        assert env(0.5) == pytest.approx(1.0)
        assert env(1.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            env(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Envelope.constant(-1.0)
        with pytest.raises(ValueError):
            Envelope.exp_decay(-0.5, 1.0)
        with pytest.raises(ValueError):
            Envelope.from_samples([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            Envelope.from_samples([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            Envelope.from_samples([0.0], [1.0])

    def test_samples_interpolation_never_negative(self):
        # the interpolant at t = 0, between the samples 1.875 and 0, is 2.3e-323
        # (mpmath), where a slope anchored at the left knot gives -2.2e-16
        env = Envelope.from_samples([-0.79296875, 1e-323, 0.5, 1.0], [1.875, 0.0, 0.0, 1.0])
        assert 0.0 < env(0.0) < 1e-322
        assert lp_seminorm(env, 0.25, 1.0) == pytest.approx(0.5**0.25 * 0.2**0.25, rel=1e-15)

    @pytest.mark.parametrize(
        "times, values, t, exact",
        [
            # the interpolant next to a knot 4e-101 right of 0: 2.2547591457558745537e-100
            ([-0.18328758234618103, 4.1326935259853466e-101, 1.0], [1.0, 0.0, 0.0], 0.0,
             2.2547591457558745e-100),
            # halfway across a subnormally short piece
            ([-1e-320, 1e-320, 1.0], [1.0, 2.0, 1.0], 0.0, 1.5),
            # between two knots at the top of the float range
            ([0.0, 1.0], [1e308, 1e308], 0.3, 1e308),
            ([0.0, 0.3, 1.0], [1.0, 2.0, 0.5], 0.3, 2.0),  # a knot gets its sample
        ],
    )
    def test_samples_interpolation_matches_mpmath(self, times, values, t, exact):
        assert Envelope.from_samples(times, values)(t) == pytest.approx(exact, rel=1e-15, abs=0.0)

    def test_samples_farther_apart_than_the_float_range_rejected(self):
        # the gap 2e308 overflows, and the interpolation weights would read 0
        with pytest.raises(ValueError, match="finite distance apart"):
            Envelope.from_samples([-1e308, 1e308], [1.0, 1.0])

    def test_sampled_seminorm_next_to_a_tiny_knot(self):
        # (int_0^t1 u^(1/p))^p for the ramp u from 2.25e-100 down to 0 on
        # [0, t1 = 4.1e-101]: 3.669700604022876269822e-101 (mpmath, 50 digits)
        env = Envelope.from_samples([-0.18328758234618103, 4.1326935259853466e-101, 1.0], [1.0, 0.0, 0.0])
        assert lp_seminorm(env, 0.5 / 65, 1.0) == pytest.approx(3.669700604022876e-101, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, make",
        [
            ("value", lambda x: Envelope.constant(x)),
            ("scale", lambda x: Envelope.exp_decay(x, 1.0)),
            ("rate", lambda x: Envelope.exp_decay(1.0, x)),
            ("times", lambda x: Envelope.from_samples([0.0, x], [1.0, 1.0])),
            ("values", lambda x: Envelope.from_samples([0.0, 1.0], [1.0, x])),
        ],
    )
    def test_non_finite_parameters_rejected(self, name, make, bad):
        with pytest.raises(ValueError, match=f"^envelope {name} must be finite"):
            make(bad)

    def test_dict_round_trip(self):
        for env in (
            Envelope.constant(1.5),
            Envelope.exp_decay(0.5, 2.0),
            Envelope.from_samples([0.0, 1.0], [1.0, 0.5]),
        ):
            again = Envelope.from_dict(env.to_dict())
            assert again == env

    def test_from_dict_unknown_form(self):
        with pytest.raises(ValueError):
            Envelope.from_dict({"form": "mystery"})

    def test_seminorm_accepts_envelopes(self):
        env = Envelope.constant(0.1)
        assert lp_seminorm(env, 0.25, 1.0) == pytest.approx(0.1, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.1, 0.95),
    frac=st.floats(1.0 / 65.0, 1.0, exclude_max=True),
    T=st.floats(0.5, 2.0),
    scale=st.floats(1e-3, 400.0),
    rate=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    constant=st.booleans(),
)
def test_closed_forms_match_quadrature(alpha, frac, T, scale, rate, constant):
    """Constant and exp_decay envelopes take closed forms; the same
    function as a plain callable goes through the scaled quadrature."""
    p = alpha * frac
    env = Envelope.constant(scale) if constant else Envelope.exp_decay(scale, rate)
    closed = lp_seminorm(env, p, T)
    quadrature = lp_seminorm(lambda t: env(np.asarray(t)), p, T)
    assert closed == pytest.approx(quadrature, rel=1e-9)


def test_closed_forms_leave_the_quadrature_rule_unbuilt():
    """The Gauss-Legendre rule (numpy.polynomial, over 1 MiB resident) is
    built on the first quadrature: importing the package and certifying
    with constant, exp_decay and samples envelopes never loads it; only a
    plain callable does."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import fracimpulse
        from fracimpulse import Envelope, ProblemSpec, RhsSpec, certify

        for lip in (
            Envelope.constant(0.5),
            Envelope.exp_decay(2.0, 1.5),
            Envelope.from_samples([0.0, 0.3, 1.0], [1.0, 2.0, 0.5]),
        ):
            spec = ProblemSpec(
                alpha=0.5, T=1.0, x0=np.array([1.0]),
                rhs=RhsSpec(kind="plain", f=lambda t, x: -x, envelopes={"lip": lip}),
            )
            certify(spec)
        print("numpy.polynomial" in sys.modules)
        fracimpulse.lp_seminorm(lambda t: 1.0 + t, 0.25, 1.0)
        print("numpy.polynomial" in sys.modules)
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def _piecewise_quadrature(env, p, T):
    """lp_seminorm of a samples envelope by the panel-doubling quadrature
    of plain callables, run on each linear piece of env/M (M its largest
    value on [0, T]): no kink lies inside a quadrature interval, so every
    piece converges to the quadrature's tolerance."""
    knots = np.concatenate(([0.0], env.times[(env.times > 0.0) & (env.times < T)], [T]))
    top = env(knots).max()
    if top == 0.0:
        return 0.0
    total = 0.0
    for a, b in zip(knots[:-1].tolist(), knots[1:].tolist()):
        piece = lp_seminorm(lambda s, a=a: env(np.minimum(a + s, T)) / top, p, b - a)
        total += piece ** (1.0 / p)
    return top * total**p


@st.composite
def sampled_envelopes(draw):
    """Knots anywhere (off-dyadic, past both ends of [0, T]), with zero
    pieces and equal or near-equal neighbours."""
    T = draw(st.floats(0.1, 5.0))
    inner = draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True), max_size=6))
    ends = [draw(st.one_of(st.just(0.0), st.floats(-1.0, 0.0))),
            draw(st.one_of(st.just(T), st.floats(T, T + 1.0)))]
    # the quadrature oracle cannot resolve a piece of a few ulps or a
    # subnormal length, so knots keep 1e-9 * T from each other and 0 and T
    inner = [t for t in inner if min(t, T - t) > 1e-9 * T]
    times = []
    for t in sorted(inner + ends):
        if not times or t - times[-1] > 1e-9 * T:
            times.append(t)
    values = [draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3))) for _ in times]
    for i in range(1, len(values)):
        kin = draw(st.sampled_from(["free", "free", "equal", "near"]))
        if kin == "equal":
            values[i] = values[i - 1]
        elif kin == "near" and values[i - 1] > 0.0:
            values[i] = values[i - 1] * (1.0 + draw(st.floats(-1e-9, 1e-9)))
    return Envelope.from_samples(times, values), T


@settings(max_examples=150, deadline=None)
@given(sampled=sampled_envelopes(), alpha=st.floats(0.05, 0.95), i=st.integers(1, 64))
def test_sampled_closed_form_matches_quadrature(sampled, alpha, i):
    env, T = sampled
    p = alpha * i / 65
    try:
        want = _piecewise_quadrature(env, p, T)
    except ArithmeticError:  # the quadrature did not converge on some piece
        return
    got = lp_seminorm(env, p, T)
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)
    assert closed_form_seminorms(env, np.array([p, p]), T).tolist() == pytest.approx(
        [want, want], rel=1e-9, abs=0.0
    )


def test_sampled_closed_form_beats_the_quadrature_across_a_kink():
    """Across a kink two successive panel levels of the quadrature over
    [0, T] agree by chance at 4096 panels, 1.1e-9 off; requiring a second
    agreement in a row stops it 1.5e-12 off.  The closed form agrees with
    the value of the same integral to 40 digits (mpmath, frozen here)."""
    times = [0.0, 0.3365465429727631, 1.7379769203449138, 1.7743733819768095, 1.8913385966484255]
    values = [2.5540339299970407, 2.1088025895022198, 2.259547005992246, 0.0, 1.2744965126616026]
    env, p, T = Envelope.from_samples(times, values), 0.12410823052123038, 1.8882019267522607
    exact = 2.3865156762622703  # 2.38651567626227025302604...
    closed, quadrature = lp_seminorm(env, p, T), lp_seminorm(lambda t: env(t), p, T)
    assert closed == pytest.approx(exact, rel=1e-15)
    assert quadrature == pytest.approx(exact, rel=1e-11)
    assert abs(closed - exact) < abs(quadrature - exact)


def test_sampled_seminorm_special_pieces():
    # a zero envelope, a flat one, and a ramp: (int_0^2 (t/2)^4)^(1/4) = (2/5)^(1/4)
    assert lp_seminorm(Envelope.from_samples([0.0, 2.0], [0.0, 0.0]), 0.25, 2.0) == 0.0
    flat = Envelope.from_samples([-1.0, 0.5, 3.0], [1.5, 1.5, 1.5])
    assert lp_seminorm(flat, 0.25, 2.0) == pytest.approx(1.5 * 2.0**0.25, rel=1e-15)
    ramp = Envelope.from_samples([0.0, 2.0], [0.0, 1.0])
    assert lp_seminorm(ramp, 0.25, 2.0) == pytest.approx(0.4**0.25, rel=1e-15)


@pytest.mark.parametrize("times", [[0.0, 1.0], [0.5, 2.0], [1e-9, 2.0]])
def test_sampled_seminorm_outside_the_samples_raises(times):
    env = Envelope.from_samples(times, [1.0, 2.0])
    lo, hi = env.times[0], env.times[-1]
    message = f"sampled envelope defined on [{lo!r}, {hi!r}], asked outside"
    for call in (
        lambda: lp_seminorm(env, 0.25, 2.0),
        lambda: closed_form_seminorms(env, np.array([0.25]), 2.0),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
    # within the slack of Envelope.__call__ the samples cover [0, T]
    assert lp_seminorm(Envelope.from_samples([1e-13, 2.0], [1.0, 1.0]), 0.25, 2.0) > 0.0
