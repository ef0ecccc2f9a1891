"""Batched RHS sampling: lags and window sups, the sampler's contract,
and the agreement of Picard (whole-sweep batches) with marching (one
node at a time) on random linear, logistic and delay problems; the
same sampling rule on delay histories and jump maps."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fracimpulse import certify, exprlang
from fracimpulse.config import builtin_example, parse_config
from fracimpulse.problem import (
    DelaySpec,
    ImpulseSchedule,
    ProblemError,
    ProblemSpec,
    RhsSpec,
    Trajectory,
    _CHUNK,
    _sample,
    build_mesh,
    history_sup_norm,
)
from fracimpulse.solver import SolverError, _DelayData, _Jumps, solve_marching, solve_picard

PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def delay_windows(draw, max_dim=2):
    """A delay problem on its mesh from build_mesh, with a dyadic step
    (node times and window ends are exact) or any other step, and a
    delay that is a multiple of the step (t - r then meets its node,
    bitwise or to rounding) or not (lags above 0 fall inside cells, and
    r < h puts them in the node's own cell).  Up to five impulses sit on
    grid nodes or off them, as inserted nodes.  A history with knots,
    and a random iterate of dimension 1 .. max_dim whose right limits
    often dominate.  r may exceed T, so every node can sit below r; when
    r is a multiple of the step, one impulse often sits at a window's
    left endpoint."""
    h = draw(st.one_of(st.integers(3, 6).map(lambda k: 2.0**-k), st.floats(0.01, 0.2)))
    steps = draw(st.integers(4, 120))
    d = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.linspace(0.0, steps * h, steps + 1)
    cuts = set(draw(st.sets(st.integers(1, steps - 1), max_size=2)))
    if draw(st.booleans()):
        q = draw(st.integers(1, steps + 10))
        r = q * h
        if steps - q >= 1:
            cuts.add(draw(st.integers(1, min(steps - q, steps - 1))))
    else:
        r = h * draw(st.floats(0.3, steps + 10.0))
    times = {float(grid[k]) for k in cuts}
    times |= {float(t) for t in rng.uniform(0.0, grid[-1], size=draw(st.integers(0, 2)))}
    times = sorted(t for t in times if 0.0 < t < grid[-1])
    # tents narrower than a step, centred on the knots: a knot off the
    # grid is often the largest history value in its window; a wave of
    # about a step's period between them, so that the history points of
    # a window decide its sup
    knots = [float(s) for s in rng.uniform(-r, 0.0, size=draw(st.integers(0, 4)))]
    knots.append(-h * float(rng.integers(0, int(r / h) + 1)))  # one knot on the step grid
    base, peaks = rng.uniform(-0.5, 0.5, d), rng.uniform(0.0, 3.0, (len(knots), d))
    wave = rng.uniform(0.0, 1.0, d)

    def history(s):
        tents = np.maximum(0.0, 1.0 - np.abs(s - np.array(knots)) / (h / 4))
        return base + tents @ peaks + wave * np.sin(5.0 * s / h)

    spec = ProblemSpec(
        alpha=0.5,
        T=float(grid[-1]),
        rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: x),
        impulses=ImpulseSchedule(times=times, jumps=tuple(lambda x: x for _ in times)),
        delay=DelaySpec(r=r, history=history, sample_times=tuple(knots)),
    )
    mesh = build_mesh(spec, h)
    values = 0.5 * rng.normal(size=(mesh.n_nodes, d))
    values[0] = spec.x0  # x(0) = phi(0)
    rights = 3.0 * rng.normal(size=(len(times), d))
    return spec, mesh, values, rights


def _jumps(spec, mesh, rights):
    """A _Jumps holding the right limits rights, whatever the jump maps."""
    jumps = _Jumps(spec, mesh)
    jumps.rights[:] = rights
    return jumps


@PROPERTY
@given(case=delay_windows())
def test_batched_window_sups_match_per_node_and_oracle(case):
    spec, mesh, values, rights = case
    n, r = mesh.n_nodes, spec.delay.r
    jumps = _jumps(spec, mesh, rights)
    dd = _DelayData(spec, mesh)
    dd.store(0, values)
    lags, sups = dd.window(0, n, jumps)
    per_node = [dd.window(i, i + 1, jumps) for i in range(n)]
    # max never rounds: bitwise
    assert np.concatenate([s for _, s in per_node]).tobytes() == sups.tobytes()
    assert np.concatenate([lag for lag, _ in per_node]).tobytes() == lags.tobytes()
    # a lag on a node reads it, below 0 the history, else the interpolant
    traj = Trajectory(mesh=mesh, values=values, right_values=rights)
    expected = []
    for t in mesh.nodes.tolist():
        i = mesh.node_index(t - r)
        if i is not None:
            expected.append(values[i])
        else:
            expected.append(spec.delay.history(t - r) if t - r < 0.0 else traj.evaluate(t - r))
    assert lags.tobytes() == np.reshape(expected, lags.shape).tobytes()
    oracle = [history_sup_norm(traj, spec.delay, t) for t in mesh.nodes]
    np.testing.assert_allclose(sups, oracle, rtol=1e-12, atol=0.0)


def test_inserted_node_below_r_samples_the_lags_of_its_window():
    # at the inserted node 0.3 the window below 0 holds the lags 0.3 - r,
    # 0.3125 - r and 0.34375 - r of the nodes up to r = 0.37, which the
    # grid 0.3 - r + k/32 misses; sin(40 s) peaks between the two sets
    spec = ProblemSpec(
        alpha=0.5,
        T=1.0,
        rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: x),
        impulses=ImpulseSchedule(times=(0.3,), jumps=(lambda x: x,)),
        delay=DelaySpec(r=0.37, history=lambda s: np.array([np.sin(40.0 * s)])),
    )
    mesh = build_mesh(spec, 2.0**-5)
    values = np.zeros((mesh.n_nodes, 1))
    dd = _DelayData(spec, mesh)
    dd.store(0, values)
    sups = dd.window(0, mesh.n_nodes, _Jumps(spec, mesh))[1]
    k = mesh.impulse_idx[0]
    lags = np.array([0.3, 0.3125, 0.34375]) - 0.37
    assert mesh.nodes[k] == 0.3 and sups[k] == np.max(np.abs(np.sin(40.0 * lags)))
    traj = Trajectory(mesh=mesh, values=values, right_values=np.zeros((1, 1)))
    oracle = [history_sup_norm(traj, spec.delay, t) for t in mesh.nodes]
    np.testing.assert_allclose(sups, oracle, rtol=1e-12, atol=0.0)


@PROPERTY
@given(case=delay_windows(max_dim=3), data=st.data())
def test_consecutive_windows_read_like_one_whole_mesh_read(case, data):
    # windows whose lags all lie left of them (the method of steps): every
    # lag is stored before its window is read, and the window's own nodes
    # fold into the sups as a running max.  A grid stored window by
    # window holds the norms of one stored whole, bit for bit
    spec, mesh, values, rights = case
    n = mesh.n_nodes
    jumps = _jumps(spec, mesh, rights)
    dd = _DelayData(spec, mesh)
    p = dd.p
    assume(np.all(dd.first < p + np.arange(n)))  # no lag in its node's own cell
    lags, sups = [], []
    start = 0
    while start < n:
        most = int(np.searchsorted(dd.first, p + start)) - start  # lags left of start
        stop = min(n, start + data.draw(st.integers(1, most), label="window size"))
        assert not dd.norms[p + start : p + stop].any()  # its own rows are empty
        lag, sup = dd.window(start, stop, jumps)
        lags.append(lag.copy())
        dd.store(start, values[start:stop])
        sups.append(np.maximum(sup, np.maximum.accumulate(dd.norms[p + start : p + stop])))
        start = stop
    whole = _DelayData(spec, mesh)
    whole.store(0, values)
    assert dd.norms.tobytes() == whole.norms.tobytes()
    whole_lags, whole_sups = whole.window(0, n, jumps)
    assert np.concatenate(lags).tobytes() == whole_lags.tobytes()
    assert np.concatenate(sups).tobytes() == whole_sups.tobytes()
    assert dd.rows[p:].tobytes() == values.tobytes()


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


def _window_batches(calls, mesh, rep):
    """Check that the batches of a windowed Picard solve are whole-mesh
    sweeps, then runs of consecutive nodes that start in node order and
    cover nodes 1 .. N, and that the most batches any node was in is
    rep.iterations.  Returns the number of whole-mesh sweeps."""
    n = mesh.n_nodes
    whole = next(i for i, t in enumerate(calls) if t.size < n)
    assert whole >= 2
    assert all(t.tobytes() == mesh.nodes.tobytes() for t in calls[:whole])
    starts = [int(np.searchsorted(mesh.nodes, t[0])) for t in calls[whole:]]
    assert starts == sorted(starts) and starts[0] == 1
    sweeps = np.full(n, whole)
    for lo, t in zip(starts, calls[whole:]):
        assert t.tobytes() == mesh.nodes[lo : lo + t.size].tobytes()
        sweeps[lo : lo + t.size] += 1
    assert sweeps[1:].min() > whole and sweeps.max() == rep.iterations
    return whole


class TestVectorizedContract:
    def test_one_call_per_sweep_and_same_values(self):
        calls = []

        def batched(t, x):
            calls.append(t.copy())
            return -1.5 * x

        spec = _plain(batched, vectorized=True)
        mesh = build_mesh(spec, 2.0**-6)
        rep = solve_picard(spec, mesh)
        # the whole-mesh residual ratio stalls at sweep 2; the one block of
        # 64 nodes is solved as two windows of 32, and the left one stalls
        # too and is solved again as two halves
        assert rep.converged and _window_batches(calls, mesh, rep) == 2
        assert sorted({t.size for t in calls}) == [16, 32, mesh.n_nodes]
        ref = solve_picard(_plain(lambda t, x: -1.5 * x), mesh)
        assert np.array_equal(rep.trajectory.values, ref.trajectory.values)
        calls.clear()
        marched = solve_marching(spec, mesh)
        assert {t.shape for t in calls} == {(1,)}
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

    def test_same_wrong_shape_at_every_node(self):
        # one array of shape (n, 1, 1) holds the right number of values
        spec = _plain(lambda t, x: np.zeros((1, 1)))
        mesh = build_mesh(spec, 0.25)
        with pytest.raises(SolverError, match=r"node 0 \(t=0\.0\) returned shape \(1, 1\), expected \(1,\)"):
            solve_picard(spec, mesh)

    def test_scalar_output_in_one_dimension(self):
        spec = _plain(lambda t, x: -float(x[0]))
        mesh = build_mesh(spec, 2.0**-4)
        ref = solve_picard(_plain(lambda t, x: -x), mesh)
        assert np.array_equal(solve_picard(spec, mesh).trajectory.values, ref.trajectory.values)


    def test_mixed_scalar_and_one_element_outputs(self):
        # the bulk assembly rejects the mix; the node walk accepts each
        spec = _plain(lambda t, x: -float(x[0]) if t < 0.5 else -x)
        mesh = build_mesh(spec, 2.0**-4)
        ref = solve_picard(_plain(lambda t, x: -x), mesh)
        rep = solve_picard(spec, mesh)
        assert rep.trajectory.values.tobytes() == ref.trajectory.values.tobytes()
        assert rep.residual_history == ref.residual_history

    @pytest.mark.parametrize("error", [ValueError, TypeError])
    def test_bad_shape_before_a_raise_is_reported(self, error):
        # node 1 returns two values, node 3 raises: node 1's shape wins
        def f(t, x):
            if t == 0.25:
                return np.zeros(2)
            if t == 0.75:
                raise error("boom")
            return np.zeros_like(x)

        mesh = build_mesh(_plain(f), 0.25)
        with pytest.raises(SolverError, match=r"node 1 \(t=0\.25\) returned shape \(2,\), expected \(1,\)"):
            solve_picard(_plain(f), mesh)

    def test_non_finite_before_bad_shape_is_reported(self):
        def f(t, x):
            if t == 0.25:
                return np.array([np.inf])
            if t == 0.75:
                return np.zeros((1, 1))
            return np.zeros_like(x)

        mesh = build_mesh(_plain(f), 0.25)
        with pytest.raises(SolverError, match=r"node 1 \(t=0\.25\) returned a non-finite"):
            solve_picard(_plain(f), mesh)

    def test_type_error_after_non_finite_propagates(self):
        # as before: only ValueError and ArithmeticError become node errors
        def f(t, x):
            if t == 0.25:
                return np.array([np.nan])
            if t == 0.75:
                raise TypeError("not a node error")
            return np.zeros_like(x)

        mesh = build_mesh(_plain(f), 0.25)
        with pytest.raises(TypeError, match="not a node error"):
            solve_picard(_plain(f), mesh)

    def test_one_call_per_node_and_sweep(self):
        # one call per node of each batch a vectorized f would get, in order
        calls, batches = [], []

        def f(t, x):
            calls.append(t)
            return -x

        def batched(t, x):
            batches.append(t.copy())
            return -x

        spec = _plain(f)
        mesh = build_mesh(spec, 2.0**-7)
        rep = solve_picard(spec, mesh)
        ref = solve_picard(_plain(batched, vectorized=True), mesh)
        assert rep.converged and rep.residual_history == ref.residual_history
        _window_batches(batches, mesh, ref)
        assert calls == np.concatenate(batches).tolist()


class TestPerNodeChunks:
    """A per-node f is called, and its outputs assembled, _CHUNK nodes at
    a time; neither the values nor the messages show where a chunk ends.
    On a mesh of step 1/(2 _CHUNK) over [0, 1], t = 0.5 is the first node
    of the second chunk and t = 0.75 lies in it."""

    @pytest.mark.parametrize("n", [2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("lagged", [False, True])
    def test_outputs_equal_one_whole_assembly(self, n, d, lagged):
        rng = np.random.default_rng(n * d)
        t = np.sort(rng.uniform(0.0, 1.0, n))
        x, x_lag = rng.normal(size=(2, n, d))
        sups = rng.uniform(0.0, 2.0, n)
        if lagged:
            args, f = (t, x, x_lag, sups), lambda t, x, xl, sup: np.sin(t) * x - sup * xl
        else:
            args, f = (t, x), lambda t, x: np.sin(t) * x - t
        # the outputs of every node in one list and one np.array call
        rows = [a.tolist() if a.ndim == 1 else a for a in args]
        whole = np.array(list(map(f, *rows)), dtype=float)
        got = _sample(f, False, args, d, "rhs", str)
        assert got.shape == (n, d)
        assert got.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("later", ["raise", "shape"])
    def test_non_finite_in_the_first_chunk_comes_first(self, later):
        def f(t, x):
            if t == 0.25:
                return np.array([np.nan])
            if t == 0.75:
                if later == "raise":
                    raise ValueError("boom")
                return np.zeros(2)
            return -x

        mesh = build_mesh(_plain(f), 0.5 / _CHUNK)
        with pytest.raises(
            SolverError, match=rf"^rhs at node {_CHUNK // 2} \(t=0\.25\) returned a non-finite value$"
        ):
            solve_picard(_plain(f), mesh)

    def test_sweep_holds_one_chunk_of_outputs(self):
        # one Python output per node until a single np.array call peaked
        # at 1348 KiB here; a chunk at a time it is the (n, 1) result, one
        # chunk of outputs and its block
        n = 8193
        args = (np.linspace(0.0, 1.0, n), np.ones((n, 1)))
        f = lambda t, x: -1.25 * x
        _sample(f, False, args, 1, "rhs", str)  # first-call set-up stays untraced
        tracemalloc.start()
        try:
            _sample(f, False, args, 1, "rhs", str)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_bad_shape_at_the_first_node_of_a_chunk_names_it(self):
        spec = _plain(lambda t, x: np.zeros((1, 1)) if t == 0.5 else -x)
        mesh = build_mesh(spec, 0.5 / _CHUNK)
        with pytest.raises(
            SolverError,
            match=rf"^rhs at node {_CHUNK} \(t=0\.5\) returned shape \(1, 1\), expected \(1,\)$",
        ):
            solve_picard(spec, mesh)


def _linear_closure(A, b, c):
    """t, x -> c t + b + A x by elementwise products, for a float t and
    (d,) x or (n,) t and (n, d) x: row i is bitwise the same either way."""

    def f(t, x):
        out = np.asarray(t, dtype=float)[..., None] * c + b
        for j in range(A.shape[1]):
            out = out + A[:, j] * x[..., j : j + 1]
        return out

    return f


@PROPERTY
@given(
    d=st.integers(1, 3),
    kind=st.sampled_from(["plain", "split"]),
    alpha=st.floats(0.3, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_node_and_vectorized_trajectories_are_bitwise_equal(d, kind, alpha, seed):
    rng = np.random.default_rng(seed)

    def part():
        return _linear_closure(
            rng.uniform(-0.4, 0.4, (d, d)) / d, rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        )

    parts = {"f": part()} if kind == "plain" else {"f1": part(), "f2": part()}
    x0 = rng.uniform(-1, 1, d)
    mesh = None
    reports = []
    for vectorized in (False, True):
        spec = ProblemSpec(
            alpha=alpha, T=1.0, rhs=RhsSpec(kind=kind, vectorized=vectorized, **parts), x0=x0
        )
        mesh = mesh or build_mesh(spec, 2.0**-5)
        reports.append(solve_picard(spec, mesh))
    per_node, batched = reports
    assert per_node.trajectory.values.tobytes() == batched.trajectory.values.tobytes()
    assert per_node.trajectory.right_values.tobytes() == batched.trajectory.right_values.tobytes()
    assert per_node.residual_history == batched.residual_history


def _delay_problem(history, vectorized=False, sample_times=()):
    return ProblemSpec(
        alpha=0.5,
        T=1.0,
        rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: -xr + 0.1 * sup * x),
        delay=DelaySpec(r=0.5, history=history, sample_times=sample_times, vectorized=vectorized),
    )


class TestHistoryGrid:
    def test_scalar_and_one_element_histories_agree(self):
        reports = []
        for history in (lambda s: 1.0 - 0.3 * s, lambda s: np.array([1.0 - 0.3 * s])):
            spec = _delay_problem(history)
            reports.append(solve_picard(spec, build_mesh(spec, 2.0**-5)))
        scalar, array = reports
        assert scalar.trajectory.values.tobytes() == array.trajectory.values.tobytes()
        assert scalar.residual_history == array.residual_history

    def test_two_dimensional_history(self):
        def history(s):
            return np.array([1.0 + s, np.cos(s)])

        spec = _delay_problem(history)
        mesh = build_mesh(spec, 2.0**-5)
        dd = _DelayData(spec, mesh)
        grid = [history(t - 0.5) for t in mesh.nodes[: dd.p]]  # rows -q h .. -h
        assert dd.p == 16 and dd.rows[:16].tobytes() == np.array(grid).tobytes()
        rep = solve_picard(spec, mesh)
        assert rep.converged and rep.trajectory.values.shape == (mesh.n_nodes, 2)
        assert rep.trajectory.values[0].tolist() == [1.0, 1.0]

    def test_wrong_shape_names_the_time(self):
        def history(s):
            return np.zeros(3) if s == -0.25 else np.zeros(2)

        spec = _delay_problem(history)
        mesh = build_mesh(spec, 0.125)
        with pytest.raises(SolverError, match=r"history at t=-0\.25 returned shape \(3,\), expected \(2,\)"):
            solve_picard(spec, mesh)


def _vector_history(s):
    """A history that takes a float or an (n,) array of times."""
    s = np.asarray(s, dtype=float)
    return np.stack([1.0 + 0.5 * s, 2.0 - 3.0 * s * s], axis=-1)


class TestVectorizedHistory:
    def test_batched_and_per_point_grids_agree_bitwise(self):
        calls = []

        def history(s):
            calls.append(np.shape(s))
            return _vector_history(s)

        knots = (-0.3, -0.1, -0.015625)
        data = {}
        for vectorized in (False, True):
            spec = _delay_problem(history, vectorized, knots)
            mesh = build_mesh(spec, 2.0**-5)
            calls.clear()
            data[vectorized] = _DelayData(spec, mesh)
            # 0, then the lags of the 16 nodes below r = 0.5 and the knots in
            # one descending run: one call when vectorized
            assert calls == ([(17 + len(knots),)] if vectorized else [()] * (17 + len(knots)))
        for name in ("rows", "norms"):
            assert getattr(data[True], name).tobytes() == getattr(data[False], name).tobytes()
        jumps = _Jumps(spec, mesh)
        reads = [dd.window(0, 16, jumps) for dd in data.values()]
        assert reads[0][1].tobytes() == reads[1][1].tobytes()
        knot = np.linalg.norm(_vector_history(np.array([-0.015625])), axis=1)
        assert reads[0][1][15] == knot[0]  # off the grid: the knot is the max

    def test_batched_solve_matches_per_point_solve(self):
        reports = [
            solve_picard(spec, build_mesh(spec, 2.0**-6))
            for spec in (_delay_problem(_vector_history, v) for v in (False, True))
        ]
        assert reports[0].trajectory.values.tobytes() == reports[1].trajectory.values.tobytes()

    def test_non_finite_value_names_the_first_bad_time(self):
        def history(s):
            out = _vector_history(s)
            if np.ndim(s):
                out[np.asarray(s) <= -0.25] = np.nan
            return out

        spec = _delay_problem(history, vectorized=True)
        with pytest.raises(SolverError, match=r"history at t=-0\.25 returned a non-finite value"):
            _DelayData(spec, build_mesh(spec, 0.125))

    def test_wrong_shape_names_the_first_time(self):
        def history(s):
            return _vector_history(s)[..., :1] if np.ndim(s) else _vector_history(s)

        spec = _delay_problem(history, vectorized=True)
        with pytest.raises(
            SolverError,
            match=r"history on t=0\.0 \.\. t=-0\.5 returned shape \(5, 1\), expected \(5, 2\)",
        ):
            _DelayData(spec, build_mesh(spec, 0.125))

    def test_failing_point_is_named(self):
        def history(s):
            if np.any(np.asarray(s) == -0.375):
                raise ValueError("no value there")
            return _vector_history(s)

        spec = _delay_problem(history, vectorized=True)
        with pytest.raises(SolverError, match=r"history evaluation failed at t=-0\.375: no value there"):
            _DelayData(spec, build_mesh(spec, 0.125))

    def test_config_history_scalar_call_is_the_tree_walk(self):
        cfg = parse_config(
            {
                "problem": {
                    "alpha": 0.5,
                    "T": 1.0,
                    "rhs": {"kind": "delay", "f": ["-xr1", "-xr2"]},
                    "delay": {"r": 0.5, "history": ["exp(t)*cos(3*t)", "1 + t/3"]},
                }
            }
        )
        delay = cfg.problem.delay
        assert delay.vectorized
        trees = cfg.asts["delay.history"]
        times = np.linspace(-0.5, 0.0, 37)
        batch = delay.history(times)
        assert batch.shape == (37, 2)
        for i, s in enumerate(times.tolist()):
            walk = [exprlang.evaluate(tree, {"t": s}) for tree in trees]
            assert delay.history(s).tobytes() == np.array(walk).tobytes()
            np.testing.assert_allclose(batch[i], walk, rtol=1e-15)


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


def _jump_config(name: str, jump: str, history: str | None = None):
    data = builtin_example(name)
    data["problem"]["impulses"][0]["jump"] = jump
    if history is not None:
        data["problem"]["delay"]["history"] = history
    return parse_config(data)


class TestJumpMaps:
    @pytest.mark.parametrize(
        "data",
        [
            builtin_example("logistic"),
            builtin_example("delay-exp"),
            builtin_example("delay-plain"),
            {
                "problem": {
                    "alpha": 0.5,
                    "T": 1.0,
                    "x0": [0.5, -0.5],
                    "rhs": {"kind": "plain", "f": ["-x1", "-x2"]},
                    "impulses": [
                        {"time": 0.25, "jump": ["x1*x2", "sin(x2)"]},
                        {"time": 0.5, "jump": ["0.1", "x1"]},
                    ],
                }
            },
        ],
        ids=["logistic", "delay-exp", "delay-plain", "two-dimensional"],
    )
    def test_config_batch_is_the_tree_walk_bitwise(self, data):
        # spot check every map with a declared bound, recording its draws
        problem = parse_config(data).problem
        schedule = problem.impulses
        assert schedule.vectorized
        draws = []

        def recorded(jump):
            def call(x):
                draws.append((jump, x.copy()))
                return jump(x)

            return call

        spy = dataclasses.replace(
            schedule, jumps=tuple(map(recorded, schedule.jumps)), jump_bound=1e6
        )
        dim = problem.dim
        spy.spot_check(radius=2.0, dim=dim)
        assert [x.shape for _, x in draws] == [(100, dim)] * len(schedule)
        for jump, xs in draws:
            batch = jump(xs)
            walk = np.array([jump(x) for x in xs])
            assert batch.shape == walk.shape == (100, dim)
            assert batch.tobytes() == walk.tobytes()

    @pytest.mark.parametrize("solve", [solve_picard, solve_marching])
    def test_vectorized_map_gets_batches_only(self, solve):
        def batches_only(x):
            if x.ndim != 2:
                raise ValueError(f"expected an (n, d) batch, got shape {x.shape}")
            return 0.1 * np.sin(x)

        def problem(jump, vectorized):
            schedule = ImpulseSchedule(times=(0.5,), jumps=(jump,), jump_lip=0.1, vectorized=vectorized)
            return ProblemSpec(
                alpha=0.5, T=1.0, x0=1.0, rhs=RhsSpec(kind="plain", f=lambda t, x: -x), impulses=schedule
            )

        spec = problem(batches_only, True)
        spec.impulses.spot_check(radius=2.0, dim=1)
        mesh = build_mesh(spec, 0.125)
        got = solve(spec, mesh).trajectory
        want = solve(problem(lambda x: 0.1 * np.sin(x), False), mesh).trajectory
        assert got.values.tobytes() == want.values.tobytes()
        assert got.right_values.tobytes() == want.right_values.tobytes()

    def test_failing_map_in_the_spot_check_is_a_problem_error(self):
        cfg = _jump_config("delay-exp", "x^0.5")
        with pytest.raises(ProblemError) as err:
            certify(cfg.problem, p=cfg.certificate_p)
        assert str(err.value) == (
            "impulse 0 at t=0.5: jump evaluation failed at sample 2 "
            "(x=[-0.8543598446917474]): negative base with non-integer "
            "exponent in subexpression 'x^0.5'"
        )

    @pytest.mark.parametrize("solve", [solve_picard, solve_marching])
    def test_failing_map_in_a_solve_names_the_impulse(self, solve):
        cfg = _jump_config("delay-plain", "x^0.5", history="-1")
        with pytest.raises(SolverError) as err:
            solve(cfg.problem, build_mesh(cfg.problem, cfg.target_h))
        assert str(err.value) == (
            "jump evaluation failed at impulse 0 (t=0.5): negative base with "
            "non-integer exponent in subexpression 'x^0.5'"
        )

    @pytest.mark.parametrize(
        "jump, message",
        [
            (lambda x: np.array([np.nan]), r"^jump at impulse 0 \(t=0\.5\) returned a non-finite value$"),
            (lambda x: np.zeros(2), r"^jump at impulse 0 \(t=0\.5\) returned shape \(2,\), expected \(1,\)$"),
        ],
    )
    def test_bad_jump_value_names_the_impulse(self, jump, message):
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: -x),
            x0=1.0,
            impulses=ImpulseSchedule(times=(0.5,), jumps=(jump,)),
        )
        with pytest.raises(SolverError, match=message):
            solve_picard(spec, build_mesh(spec, 0.125))

    def test_other_exceptions_propagate(self):
        def jump(x):
            raise KeyError("not a value error")

        schedule = ImpulseSchedule(times=(0.5,), jumps=(jump,), jump_bound=1.0, vectorized=True)
        with pytest.raises(KeyError):
            schedule.spot_check(radius=1.0, dim=1)
        with pytest.raises(KeyError):
            schedule.apply(0, np.zeros(1))
