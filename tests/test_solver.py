"""Solvers: exactness cases, oracle error bounds, method agreement."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracimpulse.problem import (
    DelaySpec,
    ImpulseSchedule,
    ProblemSpec,
    RhsSpec,
    build_mesh,
)
from fracimpulse.solver import (
    PREDICTOR_DEGREE,
    SolverError,
    _norms,
    _residual,
    _Windows,
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

    def test_delay_runs_on_a_plain_mesh(self):
        # r = 0.3 is no multiple of the step 0.25: lags above 0 interpolate
        spec = dataclasses.replace(
            self._delay_ignoring_history(), delay=DelaySpec(r=0.3, history=lambda s: np.array([1.0]))
        )
        plain_mesh = build_mesh(_linear(), 0.25)
        a = solve_picard(spec, plain_mesh)
        b = solve_picard(_linear(), plain_mesh)
        assert a.converged and a.trajectory.values.tobytes() == b.trajectory.values.tobytes()

    def test_values_before_an_impulse_ignore_it_on_an_incommensurate_delay(self):
        # r = 1/pi is no multiple of h = 0.005, and a lag in the cell after
        # the impulse at 0.3 reads its right limit, which no node before the
        # impulse may see: marching and Picard at tol = 0 (as in criterion 9)
        # give those nodes bitwise.  0.3 is a grid node, so both meshes
        # have the same Picard windows
        def f(t, x, xr, sup):
            return -x + 0.5 * np.sin(xr) + 0.2 * sup / (1.0 + sup)

        def spec(times):
            return ProblemSpec(
                alpha=0.5,
                T=1.0,
                rhs=RhsSpec(kind="delay", f=f),
                impulses=ImpulseSchedule(times=times, jumps=tuple(lambda x: 0.5 * x + 1.0 for _ in times)),
                delay=DelaySpec(r=1.0 / math.pi, history=lambda s: np.array([1.0 + s])),
            )

        bare, jumped = spec(()), spec((0.3,))
        mesh_b, mesh_j = build_mesh(bare, 0.005), build_mesh(jumped, 0.005)
        idx = mesh_j.impulse_idx[0]
        assert mesh_b.nodes[: idx + 1].tobytes() == mesh_j.nodes[: idx + 1].tobytes()
        lags = mesh_j.nodes - 1.0 / math.pi
        assert np.any((0.3 < lags) & (lags < mesh_j.nodes[idx + 1]))
        solves = (
            lambda s, m: solve_marching(s, m, scheme="trapezoid"),
            lambda s, m: solve_picard(s, m, scheme="trapezoid", tol=0.0, max_iter=20),
        )
        for solve in solves:
            a, b = solve(bare, mesh_b), solve(jumped, mesh_j)
            assert not np.array_equal(a.trajectory.values[-1], b.trajectory.values[-1])
            assert a.trajectory.values[: idx + 1].tobytes() == b.trajectory.values[: idx + 1].tobytes()


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
        # f = -lam sin(x) with w_jj * lam = c: the trapezoid corrector
        # x -> known - c sin(x) does not contract at x0 = 1 for c = 3 and
        # 2.2.  At c = 3 its update grows three times in a row at node 1,
        # where marching stops; at c = 2.2 it cycles through all 60
        # corrections at node 1, and marching stops at a later node
        h = 2.0**-6
        w_jj = h**0.5 / gamma(2.5)
        for c, iterations, failed in ((3.0, 4, 1), (2.2, 60, 2), (0.3, None, 0)):
            spec = ProblemSpec(
                alpha=0.5,
                T=1.0,
                rhs=RhsSpec(kind="plain", f=lambda t, x, lam=c / w_jj: -lam * np.sin(x)),
                x0=np.array([1.0]),
            )
            mesh = build_mesh(spec, h)
            rep = solve_marching(spec, mesh)
            assert rep.converged is (failed == 0)
            assert rep.unconverged_nodes == failed
            assert (rep.stop_node is None) is (failed == 0)
            if failed:
                assert rep.iterations == iterations
                assert rep.final_residual > 1e-3
                assert not solve_picard(spec, mesh).converged
            else:
                assert 1 <= rep.iterations < 60
                assert rep.final_residual <= 1e-12

    def test_marching_stops_where_its_corrector_diverges(self):
        # h^alpha 8 / Gamma(2.2) = 2.9: the corrector's update at node 1
        # grows three times in a row; marching stops there unconverged and
        # the nodes to its right keep x0
        spec = _linear(alpha=0.2, lam=-8.0)
        mesh = build_mesh(spec, 2.0**-7)
        rep = solve_marching(spec, mesh)
        assert not rep.converged and rep.unconverged_nodes == 1 and rep.stop_node == 1
        assert rep.iterations == 3 and rep.final_residual > 1.0
        assert np.isfinite(rep.trajectory.values[1, 0]) and rep.trajectory.values[1, 0] != 1.0
        assert np.all(rep.trajectory.values[2:] == 1.0)

    def test_diverging_iterate_is_a_solver_error(self):
        # a whole-mesh update whose squares overflow is an error.  Without
        # errstate numpy warns, and this repository's warning filter makes
        # that warning the caller's exception instead of a SolverError
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: np.full_like(x, 1e160)),
            x0=np.array([1.0]),
        )
        mesh = build_mesh(spec, 2.0**-4)
        with pytest.raises(SolverError, match=r"iterate diverged at sweep 1: residual overflow"):
            solve_picard(spec, mesh)

    def test_stiff_windows_end_unconverged(self):
        # h^alpha 8 / Gamma(2.2) = 2.9: marching's corrector does not
        # contract, and tol = 0 halves every window.  After two whole-mesh
        # sweeps and two in each of the windows of 32, 16, 8, 4 and 2 nodes
        # from node 1, the one-node window at node 1 grows three sweeps in
        # a row and ends the solve after 15 sweeps; no update overflows
        spec = _linear(alpha=0.2, lam=-8.0)
        mesh = build_mesh(spec, 2.0**-7)
        rep = solve_picard(spec, mesh, tol=0.0, max_iter=23)
        assert not rep.converged and rep.iterations == 15 == len(rep.residual_history)
        assert rep.stop_node == 1
        assert math.inf not in rep.residual_history and np.all(np.isfinite(rep.trajectory.values))

    @pytest.mark.parametrize("persistent", [False, True])
    def test_overflowing_window_is_halved(self, persistent):
        # f spikes to 1e300 at node 300 in window sweeps, once or every
        # time: the window's update overflows and it is halved, not an
        # error.  Once, the halves converge; every time, the halving
        # reaches node 300 alone, whose overflow ends the solve there
        spec = _linear(alpha=0.5, lam=-4.0, T=2.0)
        mesh = build_mesh(spec, 2.0 / 1024)
        spiked = []

        def f(t, x):
            out = -4.0 * x
            hit = t == mesh.nodes[300]
            if t.size < mesh.n_nodes and hit.any() and (persistent or not spiked):
                out[hit] = 1e300
                spiked.append(t.size)
            return out

        spiking = ProblemSpec(
            alpha=0.5, T=2.0, rhs=RhsSpec(kind="plain", f=f, vectorized=True), x0=np.array([1.0])
        )
        rep = solve_picard(spiking, mesh)
        assert math.inf in rep.residual_history
        if persistent:
            assert spiked[-1] == 1 and not rep.converged and rep.final_residual == math.inf
            assert rep.iterations < 200 and rep.stop_node == 300
        else:
            assert rep.converged and rep.stop_node is None
            ref = solve_picard(spec, mesh)
            assert np.max(np.abs(rep.trajectory.values - ref.trajectory.values)) <= 1e-9

    def test_diverging_one_node_window_ends_unconverged(self):
        # x' = x^2 blows up before T: near the blow-up the one-node windows
        # (marching's corrector) grow three sweeps in a row, and the solve
        # stops there with the report as it stands
        from fracimpulse.config import parse_config

        cfg = parse_config(
            {
                "problem": {"alpha": 0.6, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": "x*x"}},
                "numerics": {"target_h": 0.0015625},
            }
        )
        mesh = build_mesh(cfg.problem, cfg.target_h)
        rep = solve_picard(cfg.problem, mesh, max_iter=200)
        assert not rep.converged and rep.final_residual > 1.0
        assert rep.iterations < 200 and len(rep.residual_history) == rep.iterations

    def test_residual_history_contracts(self):
        spec = _linear()
        mesh = build_mesh(spec, 2.0**-6)
        rep = solve_picard(spec, mesh)
        hist = rep.residual_history
        assert len(hist) == rep.iterations
        assert all(b < a for a, b in zip(hist[1:-1], hist[2:]))


class TestWindows:
    """Whole-mesh sweeps that stall give way to windows of nodes."""

    # |lam| T^alpha / Gamma(alpha + 1) = 2.28, 6.38, 3.34: whole-mesh
    # iterates peak near 1e13-1e15 and never reach tol
    @pytest.mark.parametrize("alpha, lam, T", [(0.21, -2.17, 0.83), (0.5, -4.0, 2.0), (0.3, -3.0, 1.0)])
    def test_fast_decays_converge(self, alpha, lam, T):
        spec = _linear(alpha=alpha, lam=lam, T=T)
        mesh = build_mesh(spec, T / 1024)
        assert mesh.n_nodes == 1025
        rep = solve_picard(spec, mesh, tol=1e-10, max_iter=200)
        assert rep.converged and rep.final_residual <= 1e-10
        mar = solve_marching(spec, mesh)
        assert np.max(np.abs(rep.trajectory.values - mar.trajectory.values)) <= 1e-9

    def test_report_counts_sweeps_per_node(self):
        spec = _linear(alpha=0.5, lam=-4.0, T=2.0)
        mesh = build_mesh(spec, 2.0 / 1024)
        # predicted windows need at most 30 sweeps a node here
        needed = solve_picard(spec, mesh, max_iter=200).iterations
        assert needed <= 30
        for max_iter in (1, 2, 3, 4, 10, needed - 1, needed, 200):
            rep = solve_picard(spec, mesh, max_iter=max_iter)
            assert rep.iterations <= max_iter
            assert len(rep.residual_history) == rep.iterations
            assert rep.converged is (rep.final_residual <= 1e-10)
            assert rep.converged is (max_iter >= needed)
        # a stalled window runs out of sweeps: unconverged, not an error
        rep = solve_picard(spec, mesh, max_iter=10)
        assert rep.iterations == 10 and rep.final_residual > 1e-10

    @pytest.mark.parametrize("node", [317, 318, 319, 320])
    def test_predictor_stops_at_a_jump(self, node):
        # the window at node 321 extrapolates the samples of nodes
        # 317..320; a jump of +1 among them starts the stencil after it
        # (at 320, g[320] alone).  Fitted across the jump at 318, the RHS
        # goes non-finite at node 342
        h = 2.0 / 1024
        spec = ProblemSpec(
            alpha=0.5,
            T=2.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: -np.exp(x)),
            x0=np.array([1.0]),
            impulses=ImpulseSchedule(times=(node * h,), jumps=(lambda x: np.ones_like(x),)),
        )
        mesh = build_mesh(spec, h)
        assert mesh.n_nodes == 1025 and mesh.impulse_idx == (node,)
        rep = solve_picard(spec, mesh)
        mar = solve_marching(spec, mesh)
        assert rep.converged and mar.converged
        assert np.max(np.abs(rep.trajectory.values - mar.trajectory.values)) <= 1e-9

    # the dense-picard benchmark's problem with x0 = 1 and a jump of 0.5:
    # two whole-mesh sweeps and windows predicted from extrapolated
    # samples take 6.0 and 6.7 calls a node; a cubic through the solved
    # values after three sweeps takes 7.95 and 8.65.  On N = 4097 a
    # per-node f starts in windows at the initial iterate, which take 2.8
    # and 3.2 with a cubic in t, 1.65 and 2.22 with one in (t - t_p)^alpha
    @pytest.mark.parametrize("lam, t1, limit", [(1.25, 0.5, 2.0), (2.0, 0.75, 2.6)])
    def test_rhs_calls_per_node(self, lam, t1, limit):
        calls = [0]

        def f(t, x):
            calls[0] += 1
            return -lam * x

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=f),
            x0=np.array([1.0]),
            impulses=ImpulseSchedule(times=(t1,), jumps=(lambda x: np.full_like(x, 0.5),)),
        )
        mesh = build_mesh(spec, 1.0 / 4096)
        assert mesh.n_nodes == 4097
        assert solve_picard(spec, mesh).converged
        assert calls[0] / mesh.n_nodes <= limit

    @pytest.mark.parametrize("name", ["logistic", "delay-exp", "delay-plain"])
    def test_builtins_never_switch(self, name, monkeypatch):
        # whole-mesh sweeps converge on the builtins at the steps the CLI
        # benchmark runs, so their outputs do not depend on the windows
        from fracimpulse import solver
        from fracimpulse.config import builtin_example, parse_config

        cfg = parse_config(builtin_example(name))
        sizes = []

        def recording(f, vectorized, args, dim, what, where):
            sizes.append(args[0].size)
            return sample(f, vectorized, args, dim, what, where)

        sample = solver._sample
        monkeypatch.setattr(solver, "_sample", recording)
        for h in (2.0**-10, 2.0**-11):
            mesh = build_mesh(cfg.problem, h)
            for scheme in ("trapezoid", "rectangle"):
                sizes.clear()
                rep = solve_picard(cfg.problem, mesh, scheme=scheme, tol=cfg.tol, max_iter=cfg.max_iter)
                assert rep.converged and set(sizes) == {mesh.n_nodes}

    def test_dense_picard_rhs_call_ceiling(self):
        # the middle dense-picard benchmark problem, f = -1.25 x called
        # node by node on N = 7169 nodes with one jump at 0.5: 4.9 calls a
        # node with 64-node windows, 3.8 with 32-node ones after whole-mesh
        # sweeps, 1.9 when the windows start at the initial iterate, 1.27
        # when their predictor is a cubic in (t - t_p)^alpha instead of in t
        lam, x0, c, t1 = 1.25, 1.0, 0.5, 0.5
        calls = [0]

        def f(t, x):
            calls[0] += 1
            return -lam * x

        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=f),
            x0=np.array([x0]),
            impulses=ImpulseSchedule(times=(t1,), jumps=(lambda x: np.full_like(x, c),)),
        )
        mesh = build_mesh(spec, 1.0 / 7168)
        assert mesh.n_nodes == 7169
        rep = solve_picard(spec, mesh)
        assert rep.converged
        assert calls[0] / mesh.n_nodes <= 1.5
        # the benchmark's oracle bound: the jump cell makes the error first order
        exact = x0 * mittag_leffler(0.5, -lam) + c * mittag_leffler(0.5, -lam * math.sqrt(1.0 - t1))
        assert abs(rep.trajectory.values[-1, 0] - exact) <= 0.5 * (x0 + c) / 7168

    # (t1, target_h, windows): a one-run mesh, with no impulse (the first,
    # second and third full windows from node 501 share one batch of
    # bases) and with an impulse at node 256 inside a window; a two-run
    # mesh whose steps differ by 1e-3 relative at its impulse node 154,
    # with windows right after it (one, one, two, three and four samples of
    # the new piece), across it and on each side of it
    @pytest.mark.parametrize(
        "t1, target_h, windows",
        [
            (None, 1e-3, [(501, 533), (533, 565), (801, 833), (1, 33), (3, 35), (565, 597), (990, 1001)]),
            (0.5, 2.0**-9, [(250, 282), (257, 289), (300, 332)]),
            (0.3, 2.0**-9, [(155, 187), (156, 188), (157, 189), (158, 190), (159, 191)]),
            (0.3, 2.0**-9, [(140, 172), (150, 155), (123, 155), (300, 332), (482, 514)]),
        ],
    )
    def test_predictor_is_lagrange_through_the_node_times(self, t1, target_h, windows):
        # a window's predicted samples are the Lagrange polynomial in
        # s = (t - t_p)^alpha through the last solved samples of lo's
        # piece, which starts at t_p, evaluated exactly at the targets' s,
        # past an impulse inside the window too, to 1e-12 of the sum of
        # |l_i(s)| |g_i| it adds up (up to 5e4 times |g| 32 steps past the
        # last of four samples).  The windows of one mesh share one
        # _Windows, so a batch of bases built for one window serves the
        # full windows after it
        impulses = {}
        if t1 is not None:
            impulses["impulses"] = ImpulseSchedule(times=(t1,), jumps=(lambda x: x,))
        spec = ProblemSpec(
            alpha=0.5, T=1.0, rhs=RhsSpec(kind="plain", f=lambda t, x: -x), x0=np.zeros(2), **impulses
        )
        mesh = build_mesh(spec, target_h)
        t = mesh.nodes
        g = np.stack([np.cos(3.0 * t) + 0.5 * t, np.exp(-2.0 * t)], axis=1)
        state = _Windows(spec, mesh, None, None, g, 1e-10)
        for lo, hi in windows:
            got = state._extrapolate(lo, hi)
            t_p = max([t[idx] for idx in mesh.impulse_idx if idx < lo], default=0.0)
            start = max([idx + 1 for idx in mesh.impulse_idx if idx < lo], default=0)
            first = min(max(start, lo - 1 - PREDICTOR_DEGREE), lo - 1)
            s = (t[first:hi] - t_p) ** spec.alpha
            want, scale = _lagrange_exact(s[: lo - first], g[first:lo], s[lo - first :])
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (lo, hi)

    def test_halving_reaches_one_node(self):
        # tol = 0 stalls every window at its second sweep, so the halves
        # go down to single nodes, each of which gets what is left
        spec = _linear(alpha=0.5, lam=-1.0)
        mesh = build_mesh(spec, 2.0**-4)
        rep = solve_picard(spec, mesh, tol=0.0, max_iter=40)
        assert not rep.converged
        assert rep.iterations == 40 == len(rep.residual_history)
        ref = solve_picard(spec, mesh, tol=1e-13)
        assert np.max(np.abs(rep.trajectory.values - ref.trajectory.values)) <= 1e-12


def _jump_problem(f, vectorized=False):
    """The dense-picard benchmark's problem shape: x0 = 1, a jump of 0.5 at 0.5."""
    return ProblemSpec(
        alpha=0.5,
        T=1.0,
        rhs=RhsSpec(kind="plain", f=f, vectorized=vectorized),
        x0=np.array([1.0]),
        impulses=ImpulseSchedule(times=(0.5,), jumps=(lambda x: np.full_like(x, 0.5),)),
    )


class TestProbe:
    """Which Picard solves on more than PER_NODE_WINDOWS nodes start in
    windows: those of a per-node RHS.  Every other solve sweeps its own
    mesh first, and no second mesh is solved."""

    @staticmethod
    def _record(monkeypatch):
        """The batch sizes of every sampling and the nodes of every weight table built."""
        from fracimpulse import solver

        sizes, tables = [], []
        sample, build = solver._sample, solver.build_weights

        def recording(f, vectorized, args, dim, what, where):
            sizes.append(args[0].size)
            return sample(f, vectorized, args, dim, what, where)

        def building(mesh, *args, **kwargs):
            tables.append(mesh.n_nodes)
            return build(mesh, *args, **kwargs)

        monkeypatch.setattr(solver, "_sample", recording)
        monkeypatch.setattr(solver, "build_weights", building)
        return sizes, tables

    @pytest.mark.parametrize("name", ["logistic", "delay-exp", "delay-plain"])
    def test_builtins_are_not_routed(self, name, monkeypatch):
        # config right-hand sides are vectorized, so the builtins at 2^-12
        # (N > 4096) sweep their whole mesh: every batch is the whole mesh,
        # and the solve builds its own table only
        from fracimpulse import solver
        from fracimpulse.config import builtin_example, parse_config

        cfg = parse_config(builtin_example(name))
        mesh = build_mesh(cfg.problem, 2.0**-12)
        assert mesh.n_nodes > solver.PER_NODE_WINDOWS and cfg.problem.rhs.vectorized
        sizes, tables = self._record(monkeypatch)
        for scheme in ("trapezoid", "rectangle"):
            sizes.clear()
            tables.clear()
            rep = solve_picard(cfg.problem, mesh, scheme=scheme, tol=cfg.tol, max_iter=cfg.max_iter)
            assert rep.converged and set(sizes) == {mesh.n_nodes}
            assert tables == [mesh.n_nodes]

    def test_routed_per_node_matches_vectorized(self):
        # N = 8193: whole-mesh sweeps of -1.25 x stall at sweep 2, and the
        # windows from the stalled iterate land on the bits of the per-node
        # solve, which starts in windows at the initial iterate
        mesh = build_mesh(_jump_problem(lambda t, x: -x), 2.0**-13)
        assert mesh.n_nodes == 8193
        node, vec = (
            solve_picard(_jump_problem(lambda t, x: -1.25 * x, vectorized=v), mesh) for v in (False, True)
        )
        assert node.converged and vec.converged
        assert np.array_equal(node.trajectory.values, vec.trajectory.values)
        assert np.array_equal(node.trajectory.right_values, vec.trajectory.right_values)
        assert vec.iterations == node.iterations + 2

    def test_per_node_rhs_is_routed_without_a_stall(self, monkeypatch):
        # whole-mesh sweeps of f = -0.6 x keep contracting.  A per-node f
        # still starts in windows, where it makes 1.15 calls a node against
        # 19.1 in whole-mesh sweeps; a vectorized one, which pays per batch,
        # sweeps the whole mesh to tol
        from fracimpulse import solver

        calls = [0]

        def f(t, x):
            calls[0] += 1
            return -0.6 * x

        node, vec = _jump_problem(f), _jump_problem(lambda t, x: -0.6 * x, vectorized=True)
        mesh = build_mesh(node, 2.0**-13)
        assert mesh.n_nodes == 8193
        sizes, tables = self._record(monkeypatch)
        routed = solve_picard(node, mesh)
        assert routed.converged and calls[0] / mesh.n_nodes <= 1.5
        assert max(sizes) <= solver.WINDOW and tables == [mesh.n_nodes]
        sizes.clear()
        swept = solve_picard(vec, mesh)
        assert swept.converged and set(sizes) == {mesh.n_nodes}
        assert np.max(np.abs(routed.trajectory.values - swept.trajectory.values)) <= 1e-9

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_fine_mesh_errors_are_unchanged(self, vectorized):
        # f = 1e160 overflows the squares of a whole-mesh update at sweep 1,
        # which raises; windows from the initial iterate converge to the
        # closed form x0 + 1e160 t^alpha / Gamma(alpha + 1), plus the jump
        # past t = 0.5.  An f that raises names the first node past
        # t = 0.7, 5735 of 8193, either way
        def boom(t, x):
            if np.any(np.asarray(t) > 0.7):
                raise ValueError("boom")
            return -1.25 * x

        mesh = build_mesh(_jump_problem(lambda t, x: -x), 2.0**-13)
        huge = _jump_problem(lambda t, x: np.full_like(x, 1e160), vectorized)
        if vectorized:
            with pytest.raises(SolverError, match=r"iterate diverged at sweep 1: residual overflow"):
                solve_picard(huge, mesh)
        else:
            rep = solve_picard(huge, mesh)
            past = np.arange(mesh.n_nodes) > mesh.impulse_idx[0]
            exact = 1.0 + 1e160 * mesh.nodes**0.5 / gamma(1.5) + 0.5 * past
            assert rep.converged
            assert np.max(np.abs(rep.trajectory.values[:, 0] / exact - 1.0)) <= 1e-14
            assert abs(rep.trajectory.right_values[0, 0] / (exact[mesh.impulse_idx[0]] + 0.5) - 1.0) <= 1e-14
        with pytest.raises(SolverError, match=r"node 5735 \(t="):
            solve_picard(_jump_problem(boom, vectorized), mesh)


class TestNorms:
    def test_bitwise_linalg_norm(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            x = rng.standard_normal((1000, d)) * 10.0 ** rng.uniform(-160.0, 153.0, (1000, 1))
            x[:4] = [[5e-324] * d, [2.2e-308] * d, [7e153] * d, [-1.3e154] + [0.0] * (d - 1)]
            assert _norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
            for row in x[:10]:
                assert _norms(row).tobytes() == np.linalg.norm(row, axis=-1).tobytes()

    def test_same_overflow_signal(self):
        x = np.array([[1e155, 0.0]])
        for norm in (_norms, lambda v: np.linalg.norm(v, axis=-1)):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                norm(x)
            with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
                assert norm(x)[0] == np.inf


def _lagrange_exact(ts, ys, t):
    """The Lagrange polynomial through (ts, ys) at t, in exact arithmetic on
    the given floats and rounded once, and the sum of |l_i(t)| |ys_i|."""
    ts = [Fraction(float(s)) for s in ts]
    value = np.zeros((len(t), ys.shape[1]))
    scale = np.zeros_like(value)
    for k, tk in enumerate(t):
        tk = Fraction(float(tk))
        for i, ti in enumerate(ts):
            li = math.prod((tk - tj) / (ti - tj) for j, tj in enumerate(ts) if j != i)
            for c in range(ys.shape[1]):
                value[k, c] += li * Fraction(float(ys[i, c]))
                scale[k, c] += abs(float(li) * ys[i, c])
    return value, scale


@st.composite
def update_pairs(draw):
    """(n, d) iterates new and old with entries of any sign whose
    magnitudes are log-uniform over 1e-200 .. 1e308, so that updates
    underflow, overflow on subtraction or squaring, or neither, or over
    1e-200 .. 1e-150, where the largest squared norm is often subnormal;
    some rows are unchanged and some differences sit at the overflow edge
    of the squared norm, sqrt(DBL_MAX)."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    top = draw(st.sampled_from([308.0, -150.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries():
        return rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-200.0, top, (n, d))

    new, old = entries(), entries()
    same = rng.random(n) < 0.2
    old[same] = new[same]
    edge = rng.random(n) < 0.1
    old[edge] = 0.0
    new[edge] = math.sqrt(np.finfo(float).max) * (1.0 + rng.integers(-4, 5, (int(edge.sum()), d)) * 2.0**-52)
    return new, old


class TestResidual:
    @settings(max_examples=300, deadline=None)
    @given(update_pairs())
    def test_bitwise_the_largest_norm_of_the_update(self, pair):
        # the stopping rule and the window halving on overflow read this
        # number: it is the largest _norms(new - old) bit for bit, inf
        # exactly where that is, and silent where that overflows
        new, old = pair
        with np.errstate(over="ignore"):
            want = float(np.max(_norms(new - old)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _residual(new, old)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert (got == math.inf) is (want == math.inf)


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
