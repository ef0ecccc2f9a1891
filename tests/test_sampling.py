"""Batched RHS sampling: lags and window sups, the sampler's contract,
and the agreement of Picard (whole-sweep batches) with marching (one
node at a time) on random linear, logistic and delay problems."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fracimpulse.config import parse_config
from fracimpulse.problem import (
    DelaySpec,
    Mesh,
    ProblemSpec,
    RhsSpec,
    Trajectory,
    build_mesh,
    history_sup_norm,
)
from fracimpulse.solver import SolverError, _DelayData, solve_marching, solve_picard

PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def delay_windows(draw):
    """A delay mesh with a dyadic step (node times and window ends are
    exact), a history with knots, and a random iterate whose right
    limits often dominate.  q may exceed the node count, so every
    node can sit below q; when some window starts on a node, one impulse
    sits exactly at a window's left endpoint."""
    h = 2.0 ** -draw(st.integers(3, 6))
    steps = draw(st.integers(4, 120))
    q = draw(st.integers(1, steps + 10))
    d = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = set(draw(st.sets(st.integers(1, steps - 1), max_size=3)))
    if steps - q >= 1:
        cuts.add(draw(st.integers(1, min(steps - q, steps - 1))))
    cuts = sorted(cuts)
    mesh = Mesh(
        nodes=h * np.arange(steps + 1.0),
        boundary_idx=(0, *cuts, steps),
        seg_steps=(h,) * (len(cuts) + 1),
        delay_steps=q,
    )
    r = q * h
    # tents narrower than a step, centred on the knots: a knot off the
    # grid is often the largest history value in its window
    knots = [float(s) for s in rng.uniform(-r, 0.0, size=draw(st.integers(0, 4)))]
    knots.append(-h * float(rng.integers(0, q + 1)))  # one knot on the grid
    base, peaks = rng.uniform(-0.5, 0.5, d), rng.uniform(0.0, 3.0, (len(knots), d))

    def history(s):
        tents = np.maximum(0.0, 1.0 - np.abs(s - np.array(knots)) / (h / 4))
        return base + tents @ peaks

    spec = ProblemSpec(
        alpha=0.5,
        T=steps * h,
        rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: x),
        delay=DelaySpec(r=r, history=history, sample_times=tuple(knots)),
    )
    values = 0.5 * rng.normal(size=(steps + 1, d))
    values[0] = spec.x0  # x(0) = phi(0)
    rights = 3.0 * rng.normal(size=(len(cuts), d))
    return spec, mesh, values, rights


@PROPERTY
@given(case=delay_windows())
def test_batched_window_sups_match_per_node_and_oracle(case):
    spec, mesh, values, rights = case
    dd = _DelayData(spec, mesh)
    norms = np.linalg.norm(values, axis=1)
    right_norms = {
        idx: float(np.linalg.norm(v)) for idx, v in zip(mesh.impulse_idx, rights)
    }
    batched = dd.window_sups(norms, right_norms)
    per_node = np.array([dd.window_sup(i, norms, right_norms) for i in range(mesh.n_nodes)])
    assert batched.tobytes() == per_node.tobytes()  # max never rounds: bitwise
    lags = np.stack([dd.lagged(i, values) for i in range(mesh.n_nodes)])
    assert dd.lagged_all(values).tobytes() == lags.tobytes()
    traj = Trajectory(mesh=mesh, values=values, right_values=rights)
    oracle = [history_sup_norm(traj, spec.delay, t) for t in mesh.nodes]
    np.testing.assert_allclose(batched, oracle, rtol=1e-12, atol=0.0)


def _linear_config(lam, alpha, x0, impulses):
    return {
        "problem": {
            "alpha": alpha,
            "T": 1.0,
            "x0": x0,
            "rhs": {"kind": "plain", "f": f"-{lam!r}*x"},
            "impulses": impulses,
        },
        "numerics": {"target_h": 2.0**-6},
    }


def _logistic_config(rate, alpha, x0, impulses):
    return {
        "problem": {
            "alpha": alpha,
            "T": 1.0,
            "x0": x0,
            "rhs": {"kind": "split", "f1": f"{rate!r}*x", "f2": "-x^2"},
            "impulses": impulses,
        },
        "numerics": {"target_h": 2.0**-6},
    }


def _delay_config(rate, alpha, x0, impulses):
    return {
        "problem": {
            "alpha": alpha,
            "T": 1.0,
            "rhs": {"kind": "delay", "f": f"-{rate!r}*xr + 0.5*x/(1 + xtsup)"},
            "impulses": impulses,
            "delay": {"r": 0.25, "history": f"{x0!r} - 0.8*t"},
        },
        "numerics": {"target_h": 2.0**-6},
    }


@st.composite
def impulse_lists(draw):
    times = sorted(draw(st.sets(st.integers(1, 7), min_size=1, max_size=3)))
    jumps = ["0.05", "0.1*x", "-0.2*x+0.03", "0.02*sin(x)"]
    return [{"time": k / 8.0, "jump": draw(st.sampled_from(jumps))} for k in times]


@PROPERTY
@given(
    make=st.sampled_from([_linear_config, _logistic_config, _delay_config]),
    rate=st.floats(0.1, 2.0),
    alpha=st.floats(0.3, 0.9),
    x0=st.floats(0.05, 0.5),
    impulses=impulse_lists(),
)
def test_picard_and_marching_agree(make, rate, alpha, x0, impulses):
    spec = parse_config(make(rate, alpha, x0, impulses)).problem
    mesh = build_mesh(spec, 2.0**-6)
    tol = 1e-10
    pic = solve_picard(spec, mesh, tol=tol, max_iter=200)
    mar = solve_marching(spec, mesh)
    assert pic.converged and mar.converged and mar.unconverged_nodes == 0
    gap = max(
        float(np.max(np.abs(pic.trajectory.values - mar.trajectory.values))),
        float(np.max(np.abs(pic.trajectory.right_values - mar.trajectory.right_values))),
    )
    assert gap <= 10.0 * tol


def _plain(f, vectorized=False, x0=(1.0,)):
    return ProblemSpec(
        alpha=0.5,
        T=1.0,
        rhs=RhsSpec(kind="plain", f=f, vectorized=vectorized),
        x0=np.array(x0),
    )


class TestVectorizedContract:
    def test_one_call_per_sweep_and_same_values(self):
        calls = []

        def batched(t, x):
            calls.append(t.shape)
            return -1.5 * x

        spec = _plain(batched, vectorized=True)
        mesh = build_mesh(spec, 2.0**-6)
        rep = solve_picard(spec, mesh)
        assert calls == [(mesh.n_nodes,)] * rep.iterations
        ref = solve_picard(_plain(lambda t, x: -1.5 * x), mesh)
        assert np.array_equal(rep.trajectory.values, ref.trajectory.values)
        calls.clear()
        marched = solve_marching(spec, mesh)
        assert set(calls) == {(1,)}
        expect = solve_marching(_plain(lambda t, x: -1.5 * x), mesh)
        assert np.array_equal(marched.trajectory.values, expect.trajectory.values)

    def test_flat_output_accepted_in_one_dimension(self):
        spec = _plain(lambda t, x: -x[:, 0], vectorized=True)
        mesh = build_mesh(spec, 2.0**-4)
        ref = solve_picard(_plain(lambda t, x: -x), mesh)
        assert np.array_equal(solve_picard(spec, mesh).trajectory.values, ref.trajectory.values)

    def test_wrong_batch_shape(self):
        spec = _plain(lambda t, x: np.zeros((x.shape[0], 3)), vectorized=True)
        mesh = build_mesh(spec, 0.25)
        with pytest.raises(SolverError, match=r"shape \(5, 3\), expected \(5, 1\)"):
            solve_picard(spec, mesh)

    def test_error_names_first_failing_node(self):
        def f(t, x):
            if np.any(t > 0.6):
                raise ValueError("boom")
            return np.zeros_like(x)

        spec = _plain(f, vectorized=True)
        mesh = build_mesh(spec, 0.125)
        with pytest.raises(SolverError, match=r"node 5 \(t=0\.625\): boom"):
            solve_picard(spec, mesh)


class TestPerNodeContract:
    def test_first_offending_node_wins(self):
        # node 2 returns NaN, node 3 raises: node 2 is reported
        def f(t, x):
            if t == 0.5:
                return np.array([np.nan])
            if t > 0.5:
                raise ValueError("boom")
            return np.zeros_like(x)

        mesh = build_mesh(_plain(f), 0.25)
        with pytest.raises(SolverError, match=r"node 2 \(t=0\.5\) returned a non-finite"):
            solve_picard(_plain(f), mesh)

    def test_short_output_is_not_broadcast(self):
        spec = _plain(lambda t, x: np.zeros(1), x0=(1.0, 2.0))
        mesh = build_mesh(spec, 0.25)
        with pytest.raises(SolverError, match=r"node 0 \(t=0\.0\) returned shape \(1,\), expected \(2,\)"):
            solve_picard(spec, mesh)

    def test_scalar_output_in_one_dimension(self):
        spec = _plain(lambda t, x: -float(x[0]))
        mesh = build_mesh(spec, 2.0**-4)
        ref = solve_picard(_plain(lambda t, x: -x), mesh)
        assert np.array_equal(solve_picard(spec, mesh).trajectory.values, ref.trajectory.values)


class TestConfigClosures:
    def _config(self, f):
        return parse_config(
            {
                "problem": {"alpha": 0.5, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": f}},
                "numerics": {"target_h": 2.0**-4},
            }
        )

    @pytest.mark.parametrize("solve", [solve_picard, solve_marching])
    def test_division_by_zero_at_one_node(self, solve):
        cfg = self._config("x + 1/(t - 0.5)")
        mesh = build_mesh(cfg.problem, cfg.target_h)
        with pytest.raises(
            SolverError,
            match=r"node 8 \(t=0\.5\): division by zero in subexpression '1\.0/\(t - 0\.5\)'",
        ):
            solve(cfg.problem, mesh)

    def test_batched_and_per_node_calls_agree(self):
        cfg = parse_config(
            {
                "problem": {
                    "alpha": 0.5,
                    "T": 1.0,
                    "rhs": {"kind": "delay", "f": ["x2*xtsup - xr1", "exp(-t)*x1*xr2"]},
                    "delay": {"r": 0.5, "history": ["1 + t", "cos(t)"]},
                }
            }
        )
        f = cfg.problem.rhs.f
        assert cfg.problem.rhs.vectorized
        rng = np.random.default_rng(5)
        t, x, xr, sup = rng.random(7), rng.random((7, 2)), rng.random((7, 2)), rng.random(7)
        batch = f(t, x, xr, sup)
        assert batch.shape == (7, 2)
        for i in range(7):
            np.testing.assert_allclose(f(t[i], x[i], xr[i], sup[i]), batch[i], rtol=1e-14)
            np.testing.assert_allclose(f(t[i : i + 1], x[i : i + 1], xr[i : i + 1], sup[i : i + 1])[0], batch[i], rtol=1e-14)
