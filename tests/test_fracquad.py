"""Product-integration weights: exactness, positivity, convergence orders."""

import math

import numpy as np
import pytest

from fracimpulse.exprlang import parse
from fracimpulse.fracquad import (
    build_weights,
    convergence_order,
    frac_integral,
    power_integral,
)
from fracimpulse.problem import ImpulseSchedule, ProblemSpec, RhsSpec, build_mesh
from fracimpulse.special import gamma


def _mesh(times=(), target_h=2.0**-5, T=1.0):
    jumps = tuple(lambda x: x for _ in times)
    spec = ProblemSpec(
        alpha=0.5,
        T=T,
        rhs=RhsSpec(kind="plain", f=lambda t, x: x),
        x0=np.array([1.0]),
        impulses=ImpulseSchedule(times=times, jumps=jumps),
    )
    return build_mesh(spec, target_h)


@pytest.mark.parametrize("scheme", ["rectangle", "trapezoid"])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_row_sums_integrate_one_exactly(scheme, alpha):
    # rows applied to g == 1 must give t_j^alpha / gamma(alpha+1)
    mesh = _mesh(times=(0.3, 0.6), target_h=2.0**-6)
    table = build_weights(mesh, alpha, scheme)
    sums = table.dense().sum(axis=1)
    exact = mesh.nodes**alpha / gamma(alpha + 1.0)
    assert sums[0] == 0.0
    scale = np.maximum(np.abs(exact), 1e-300)
    assert np.max(np.abs(sums - exact)[1:] / scale[1:]) <= 1e-12


@pytest.mark.parametrize("scheme", ["rectangle", "trapezoid"])
def test_weights_nonnegative(scheme):
    mesh = _mesh(times=(0.3,), target_h=2.0**-5)
    table = build_weights(mesh, 0.4, scheme)
    assert np.min(table.dense()) >= -1e-15


def test_trapezoid_exact_on_linear():
    mesh = _mesh(target_h=2.0**-5)
    table = build_weights(mesh, 0.5, "trapezoid")
    vals = frac_integral(table, mesh.nodes.copy())
    exact = np.array([power_integral(0.5, 1.0, t) for t in mesh.nodes])
    assert np.max(np.abs(vals - exact)) <= 1e-13 * max(1.0, exact[-1])
    # frozen closed form at t = 1: gamma(2)/gamma(2.5)
    assert vals[-1] == pytest.approx(0.7522527780636750, rel=1e-12)


def test_rectangle_not_exact_on_linear():
    mesh = _mesh(target_h=2.0**-5)
    table = build_weights(mesh, 0.5, "rectangle")
    got = frac_integral(table, mesh.nodes.copy(), mesh.n_nodes - 1)
    assert abs(got - 0.7522527780636750) > 1e-4


def test_power_rule_closed_form():
    # I^alpha[s^beta](t) = gamma(beta+1)/gamma(beta+1+alpha) t^(beta+alpha)
    assert power_integral(0.5, 0.0, 1.0) == pytest.approx(
        1.0 / gamma(1.5), rel=1e-14
    )
    assert power_integral(0.5, 2.0, 2.0) == pytest.approx(
        gamma(3.0) / gamma(3.5) * 2.0**2.5, rel=1e-14
    )
    with pytest.raises(ValueError):
        power_integral(0.5, -1.0, 1.0)


def test_frac_integral_linearity_and_zero_node():
    mesh = _mesh(times=(0.5,), target_h=2.0**-4)
    table = build_weights(mesh, 0.5, "trapezoid")
    g1 = np.sin(mesh.nodes)
    g2 = np.cos(mesh.nodes)
    lhs = frac_integral(table, 2.0 * g1 - 3.0 * g2)
    rhs = 2.0 * frac_integral(table, g1) - 3.0 * frac_integral(table, g2)
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)
    assert frac_integral(table, g1, 0) == 0.0


def test_frac_integral_vector_samples():
    mesh = _mesh(target_h=2.0**-4)
    table = build_weights(mesh, 0.5, "trapezoid")
    samples = np.stack([mesh.nodes, 2.0 * mesh.nodes], axis=1)
    out = frac_integral(table, samples)
    assert out.shape == samples.shape
    assert np.allclose(out[:, 1], 2.0 * out[:, 0], rtol=0, atol=1e-15)


def test_frac_integral_validates_input():
    mesh = _mesh(target_h=2.0**-4)
    table = build_weights(mesh, 0.5, "trapezoid")
    with pytest.raises(ValueError):
        frac_integral(table, np.zeros(3))
    with pytest.raises(ValueError):
        frac_integral(table, np.zeros(mesh.n_nodes), j=mesh.n_nodes)


def test_semigroup_property_discrete():
    # I^a I^b g ~ I^(a+b) g on a uniform mesh (rectangle-level accuracy)
    mesh = _mesh(target_h=2.0**-7)
    a, b = 0.3, 0.4
    g = np.cos(mesh.nodes)
    ta = build_weights(mesh, a, "trapezoid")
    tb = build_weights(mesh, b, "trapezoid")
    tab = build_weights(mesh, a + b, "trapezoid")
    composed = frac_integral(ta, frac_integral(tb, g))
    direct = frac_integral(tab, g)
    h = mesh.seg_steps[0]
    assert np.max(np.abs(composed - direct)) <= 10.0 * h


def test_build_weights_validation():
    mesh = _mesh(target_h=2.0**-4)
    with pytest.raises(ValueError):
        build_weights(mesh, 1.5, "trapezoid")
    with pytest.raises(ValueError):
        build_weights(mesh, 0.5, "simpson")


class TestConvergenceOrder:
    def test_rectangle_first_order(self):
        study = convergence_order(
            "rectangle", 0.5, parse("t"), 1.0, [2.0**-k for k in range(5, 11)]
        )
        assert not study.exact
        assert study.order >= 0.9

    def test_trapezoid_second_order(self):
        study = convergence_order(
            "trapezoid", 0.5, parse("t^2"), 1.0, [2.0**-k for k in range(5, 11)]
        )
        assert not study.exact
        assert study.order >= 1.5

    def test_trapezoid_exact_on_linear_flagged(self):
        study = convergence_order(
            "trapezoid", 0.5, parse("2*t"), 1.0, [0.1, 0.05, 0.025]
        )
        assert study.exact
        assert study.order is None

    def test_non_monomial_uses_fine_reference(self):
        study = convergence_order(
            "trapezoid", 0.5, parse("exp(-t)"), 1.0, [0.1, 0.05, 0.025]
        )
        assert not study.exact
        assert study.order >= 1.5

    def test_constant_integrand_is_exact(self):
        study = convergence_order("rectangle", 0.5, parse("2"), 1.0, [0.1, 0.05, 0.025])
        assert study.exact

    def test_needs_three_steps(self):
        with pytest.raises(ValueError):
            convergence_order("trapezoid", 0.5, parse("t"), 1.0, [0.1, 0.05])


def test_stable_on_fine_uniform_mesh():
    # row sums survive thousands of nearly equal nodes (expm1/log1p path)
    mesh = _mesh(target_h=2.0**-11)
    table = build_weights(mesh, 0.5, "trapezoid")
    sums = table.dense().sum(axis=1)
    exact = mesh.nodes**0.5 / gamma(1.5)
    rel = np.abs(sums[1:] - exact[1:]) / exact[1:]
    assert np.max(rel) <= 1e-12
