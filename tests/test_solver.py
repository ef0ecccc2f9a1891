"""Solvers: exactness cases, oracle error bounds, method agreement."""

import math

import numpy as np
import pytest

from fracimpulse.problem import (
    DelaySpec,
    ImpulseSchedule,
    ProblemSpec,
    RhsSpec,
    build_mesh,
)
from fracimpulse.solver import (
    SolverError,
    jump_residual,
    solve_marching,
    solve_picard,
    split_component_integral,
)
from fracimpulse.special import gamma, mittag_leffler


def _linear(alpha=0.5, lam=-1.0, x0=1.0, T=1.0):
    return ProblemSpec(
        alpha=alpha,
        T=T,
        rhs=RhsSpec(kind="plain", f=lambda t, x: lam * x),
        x0=np.array([x0]),
    )


def _step_problem():
    return ProblemSpec(
        alpha=0.5,
        T=1.0,
        rhs=RhsSpec(kind="plain", f=lambda t, x: np.zeros_like(x)),
        x0=np.array([1.0]),
        impulses=ImpulseSchedule(times=(0.5,), jumps=(lambda x: np.array([0.5]),)),
    )


class TestZeroRhs:
    def test_step_profile_exact(self):
        spec = _step_problem()
        mesh = build_mesh(spec, 2.0**-4)
        rep = solve_picard(spec, mesh)
        assert rep.converged and rep.iterations == 1
        idx = mesh.impulse_idx[0]
        expected = np.where(np.arange(mesh.n_nodes) <= idx, 1.0, 1.5)
        assert np.max(np.abs(rep.trajectory.values[:, 0] - expected)) <= 1e-14
        assert rep.trajectory.right_values[0, 0] == pytest.approx(1.5, abs=1e-14)
        assert jump_residual(rep.trajectory, spec) <= 1e-14

    def test_marching_identical(self):
        spec = _step_problem()
        mesh = build_mesh(spec, 2.0**-4)
        a = solve_picard(spec, mesh)
        b = solve_marching(spec, mesh)
        assert np.array_equal(a.trajectory.values, b.trajectory.values)

    def test_state_dependent_jump(self):
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: np.zeros_like(x)),
            x0=np.array([2.0]),
            impulses=ImpulseSchedule(times=(0.5,), jumps=(lambda x: 0.5 * x,)),
        )
        mesh = build_mesh(spec, 2.0**-3)
        rep = solve_picard(spec, mesh)
        assert rep.trajectory.values[-1, 0] == pytest.approx(3.0, abs=1e-13)
        assert jump_residual(rep.trajectory, spec) <= 1e-13


class TestLinearOracle:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_trapezoid_tracks_mittag_leffler(self, alpha):
        spec = _linear(alpha=alpha)
        mesh = build_mesh(spec, 2.0**-7)
        rep = solve_picard(spec, mesh)
        assert rep.converged
        h = mesh.seg_steps[0]
        tol = 20.0 * h ** (0.8 * min(1.0 + alpha, 2.0))
        for i in (mesh.n_nodes // 2, mesh.n_nodes - 1):
            t = mesh.nodes[i]
            exact = mittag_leffler(alpha, -(t**alpha))
            assert abs(rep.trajectory.values[i, 0] - exact) <= tol

    def test_rectangle_converges_coarser(self):
        spec = _linear()
        err = []
        for k in (4, 6):
            mesh = build_mesh(spec, 2.0**-k)
            rep = solve_picard(spec, mesh, scheme="rectangle")
            exact = mittag_leffler(0.5, -1.0)
            err.append(abs(rep.trajectory.values[-1, 0] - exact))
        assert err[1] < err[0] / 2.5  # roughly first order

    def test_positive_coefficient_growth(self):
        spec = _linear(lam=1.0)
        mesh = build_mesh(spec, 2.0**-8)
        rep = solve_picard(spec, mesh)
        exact = mittag_leffler(0.5, 1.0)
        assert rep.trajectory.values[-1, 0] == pytest.approx(exact, rel=1e-3)


class TestMethodAgreement:
    def test_picard_vs_marching_linear(self):
        spec = _linear()
        mesh = build_mesh(spec, 2.0**-7)
        a = solve_picard(spec, mesh, tol=1e-10)
        b = solve_marching(spec, mesh)
        gap = np.max(np.abs(a.trajectory.values - b.trajectory.values))
        assert gap <= 1e-9

    def test_single_correction_less_accurate_but_close(self):
        spec = _linear()
        mesh = build_mesh(spec, 2.0**-7)
        one = solve_marching(spec, mesh, corrections="single")
        full = solve_marching(spec, mesh)
        gap = np.max(np.abs(one.trajectory.values - full.trajectory.values))
        assert 0.0 < gap < 1e-2

    def test_invalid_corrections_mode(self):
        spec = _linear()
        mesh = build_mesh(spec, 2.0**-4)
        with pytest.raises(ValueError):
            solve_marching(spec, mesh, corrections="twice")


class TestFirstInterval:
    def test_bitwise_identity_before_first_impulse(self):
        base = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: np.sin(x) - x),
            x0=np.array([1.0]),
        )
        with_jump = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=base.rhs,
            x0=np.array([1.0]),
            impulses=ImpulseSchedule(times=(0.5,), jumps=(lambda x: np.array([0.25]),)),
        )
        mesh_a = build_mesh(base, 2.0**-5)
        mesh_b = build_mesh(with_jump, 2.0**-5)
        idx = mesh_b.impulse_idx[0]
        assert np.array_equal(mesh_a.nodes[: idx + 1], mesh_b.nodes[: idx + 1])

        ma = solve_marching(base, mesh_a)
        mb = solve_marching(with_jump, mesh_b)
        assert np.array_equal(
            ma.trajectory.values[: idx + 1], mb.trajectory.values[: idx + 1]
        )

        # fixed sweep count makes the picard iterates comparable too
        pa = solve_picard(base, mesh_a, tol=0.0, max_iter=25)
        pb = solve_picard(with_jump, mesh_b, tol=0.0, max_iter=25)
        assert np.array_equal(
            pa.trajectory.values[: idx + 1], pb.trajectory.values[: idx + 1]
        )


class TestDelay:
    def _delay_ignoring_history(self):
        # f reads only (t, x): the delay plumbing must not disturb the solve
        return ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: -x),
            impulses=ImpulseSchedule(),
            delay=DelaySpec(r=0.5, history=lambda s: np.array([1.0])),
        )

    def test_reduction_to_plain(self):
        delay_spec = self._delay_ignoring_history()
        plain_spec = _linear()
        dmesh = build_mesh(delay_spec, 2.0**-5)
        pmesh = build_mesh(plain_spec, 2.0**-5)
        assert np.array_equal(dmesh.nodes, pmesh.nodes)
        a = solve_picard(delay_spec, dmesh)
        b = solve_picard(plain_spec, pmesh)
        assert np.max(np.abs(a.trajectory.values - b.trajectory.values)) <= 1e-12

    def test_lagged_argument_reads_history_then_nodes(self):
        seen = {}

        def f(t, x, xr, sup):
            seen[round(t, 10)] = float(xr[0])
            return np.zeros(1)

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="delay", f=f),
            impulses=ImpulseSchedule(),
            delay=DelaySpec(r=0.5, history=lambda s: np.array([abs(s)])),
        )
        mesh = build_mesh(spec, 0.25)
        solve_marching(spec, mesh)
        # f == 0 keeps x == x(0) = 0; lag reads phi(t - 0.5) for t < 0.5
        assert seen[0.0] == pytest.approx(0.5)
        assert seen[0.25] == pytest.approx(0.25)
        assert seen[0.5] == pytest.approx(0.0)
        assert seen[0.75] == pytest.approx(0.0)

    def test_sup_norm_feeds_rhs(self):
        # growth driven purely by the window sup: |phi| = 2 early on
        def f(t, x, xr, sup):
            return np.array([sup])

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="delay", f=f),
            impulses=ImpulseSchedule(),
            delay=DelaySpec(r=0.5, history=lambda s: np.array([2.0])),
        )
        mesh = build_mesh(spec, 2.0**-5)
        rep = solve_picard(spec, mesh)
        assert rep.converged
        vals = rep.trajectory.values[:, 0]
        assert np.all(np.diff(vals) >= -1e-12)  # nondecreasing
        assert vals[-1] > 2.0  # once x exceeds phi the sup follows x

    def test_delay_requires_delay_mesh(self):
        spec = self._delay_ignoring_history()
        plain_mesh = build_mesh(_linear(), 0.25)
        with pytest.raises(SolverError):
            solve_picard(spec, plain_mesh)


class TestFailureModes:
    def test_rhs_error_names_node(self):
        def f(t, x):
            if t > 0.6:
                raise ValueError("boom")
            return np.zeros_like(x)

        spec = ProblemSpec(
            alpha=0.5, T=1.0, rhs=RhsSpec(kind="plain", f=f), x0=np.array([1.0])
        )
        mesh = build_mesh(spec, 0.25)
        with pytest.raises(SolverError, match="node"):
            solve_picard(spec, mesh)

    def test_rhs_bad_shape(self):
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: np.zeros(3)),
            x0=np.array([1.0]),
        )
        mesh = build_mesh(spec, 0.25)
        with pytest.raises(SolverError, match="shape"):
            solve_marching(spec, mesh)

    def test_non_converged_flagged(self):
        spec = _linear(lam=1.0)
        mesh = build_mesh(spec, 2.0**-6)
        rep = solve_picard(spec, mesh, tol=1e-15, max_iter=2)
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.final_residual > 1e-15
        assert len(rep.residual_history) == 2

    def test_marching_reports_corrector_failure(self):
        # f = -lam sin(x) with w_jj * lam = 3: the trapezoid corrector
        # x -> known - w_jj lam sin(x) does not contract at x0 = 1
        h = 2.0**-6
        w_jj = h**0.5 / gamma(2.5)
        for lam, stalls in ((3.0 / w_jj, True), (0.3 / w_jj, False)):
            spec = ProblemSpec(
                alpha=0.5,
                T=1.0,
                rhs=RhsSpec(kind="plain", f=lambda t, x, lam=lam: -lam * np.sin(x)),
                x0=np.array([1.0]),
            )
            mesh = build_mesh(spec, h)
            rep = solve_marching(spec, mesh, max_corrections=60)
            assert rep.converged is not stalls
            assert (rep.unconverged_nodes > 0) is stalls
            if stalls:
                assert rep.iterations == 60
                assert rep.final_residual > 1e-3
                assert not solve_picard(spec, mesh).converged
            else:
                assert 1 <= rep.iterations < 60
                assert rep.final_residual <= 1e-12

    def test_residual_history_contracts(self):
        spec = _linear()
        mesh = build_mesh(spec, 2.0**-6)
        rep = solve_picard(spec, mesh)
        hist = rep.residual_history
        assert len(hist) == rep.iterations
        assert all(b < a for a, b in zip(hist[1:-1], hist[2:]))


class TestVectorState:
    def test_two_dimensional_rotation_like(self):
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: np.array([-x[1], x[0]])),
            x0=np.array([1.0, 0.0]),
            impulses=ImpulseSchedule(
                times=(0.5,), jumps=(lambda x: np.array([0.1, -0.1]),)
            ),
        )
        mesh = build_mesh(spec, 2.0**-6)
        a = solve_picard(spec, mesh)
        b = solve_marching(spec, mesh)
        assert a.converged
        assert a.trajectory.values.shape == (mesh.n_nodes, 2)
        assert np.max(np.abs(a.trajectory.values - b.trajectory.values)) <= 1e-9
        assert jump_residual(a.trajectory, spec) <= 1e-13


class TestSplitComponentIntegral:
    def test_components_sum_to_full_integral(self):
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(
                kind="split",
                f1=lambda t, x: x,
                f2=lambda t, x: -x * x,
            ),
            x0=np.array([0.1]),
            impulses=ImpulseSchedule(times=(0.5,), jumps=(lambda x: np.array([0.05]),)),
        )
        mesh = build_mesh(spec, 2.0**-6)
        rep = solve_picard(spec, mesh)
        assert rep.converged
        f1_part = split_component_integral(spec, rep.trajectory, component=1)
        f2_part = split_component_integral(spec, rep.trajectory, component=2)
        # x0 + jumps + I[f1] + I[f2] must reproduce the converged left limits
        jumps = np.zeros((mesh.n_nodes, 1))
        idx = mesh.impulse_idx[0]
        jumps[idx + 1 :] = 0.05
        recon = spec.x0[None, :] + jumps + f1_part + f2_part
        gap = np.max(np.abs(recon - rep.trajectory.values))
        assert gap <= 1e-9

    def test_requires_split_kind(self):
        spec = _linear()
        mesh = build_mesh(spec, 0.25)
        rep = solve_picard(spec, mesh)
        from fracimpulse.problem import ProblemError

        with pytest.raises(ProblemError):
            split_component_integral(spec, rep.trajectory)
