"""Problem model: validation, meshes, trajectories, history sup-norm."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fracimpulse
from fracimpulse import solver
from fracimpulse.fracquad import build_weights
from fracimpulse.problem import (
    DelaySpec,
    ImpulseSchedule,
    Mesh,
    MeshError,
    ProblemError,
    ProblemSpec,
    RhsSpec,
    SolverError,
    Trajectory,
    build_mesh,
    history_sup_norm,
)
from fracimpulse.solver import _DelayData, _Jumps


def _plain_spec(T=1.0, times=(), jumps=None, alpha=0.5, x0=1.0, **impulse_kwargs):
    if jumps is None:
        jumps = tuple(lambda x: np.array([0.5]) for _ in times)
    return ProblemSpec(
        alpha=alpha,
        T=T,
        rhs=RhsSpec(kind="plain", f=lambda t, x: np.zeros_like(x)),
        x0=np.atleast_1d(x0),
        impulses=ImpulseSchedule(times=times, jumps=jumps, **impulse_kwargs),
    )


def _delay_spec(r=0.5, T=1.0, times=(0.5,), history=None):
    if history is None:
        history = lambda s: np.array([2.0])
    jumps = tuple(lambda x: np.array([0.5]) for _ in times)
    return ProblemSpec(
        alpha=0.5,
        T=T,
        rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: np.zeros_like(x)),
        impulses=ImpulseSchedule(times=times, jumps=jumps),
        delay=DelaySpec(r=r, history=history),
    )


PINNED_VIOLATIONS = [
    (
        lambda x: 3.0 * x,
        {"jump_bound": 0.5},
        "impulse 1 at t=0.5: |I_k| reached 5.9802 > declared jump_bound 0.5",
    ),
    (
        lambda x: np.sin(3.0 * x),
        {"jump_lip": 0.5},
        "impulse 1 at t=0.5: jump map moved 1.13301 over distance 2.11392, "
        "exceeding declared jump_lip 0.5",
    ),
]

SPOT_PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def jump_maps(draw):
    """A state dimension, one to three linear, sin or constant jump maps
    that take one (d,) state or an (n, d) batch, and honest constants
    for the whole schedule: a bound on the ball of radius r as
    bound_per_radius * r + bound, and a Lipschitz constant."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jumps, slopes, bounds, lips = [], [], [], []
    for kind in draw(st.lists(st.sampled_from(["linear", "sin", "constant"]), min_size=1, max_size=3)):
        if kind == "linear":
            a = rng.uniform(-2.0, 2.0, (dim, dim))
            # column by column, so one state and a batch round alike
            jumps.append(lambda x, a=a: sum(x[..., j : j + 1] * a[:, j] for j in range(dim)))
            slopes.append(float(np.linalg.norm(a)))
            lips.append(float(np.linalg.norm(a)))
        elif kind == "sin":
            w, c = rng.uniform(-3.0, 3.0, dim), rng.uniform(-1.0, 1.0, dim)
            jumps.append(lambda x, w=w, c=c: np.sin(x * w + c))
            bounds.append(float(np.sqrt(dim)))
            lips.append(float(np.max(np.abs(w))))
        else:
            c = rng.uniform(-1.0, 1.0, dim)
            jumps.append(lambda x, c=c: np.broadcast_to(c, np.shape(x)).copy())
            bounds.append(float(np.linalg.norm(c)))
            lips.append(0.0)
    honest = {"bound_per_radius": max(slopes, default=0.0), "bound": max(bounds, default=0.0)}
    return dim, tuple(jumps), {**honest, "jump_lip": max(lips, default=0.0)}


def declarations():
    """Factors on the honest constants: None leaves a constant
    undeclared, >= 1 is honest, < 1 may be violated."""
    factor = st.one_of(st.none(), st.sampled_from([0.0, 0.05, 0.3, 0.9, 1.0, 2.0]))
    return st.fixed_dictionaries({"jump_bound": factor, "jump_lip": factor})


class TestValidation:
    def test_alpha_range(self):
        for alpha in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(ProblemError, match=r"\(0, 1\)"):
                _plain_spec(alpha=alpha)

    def test_impulse_times_ordered_and_interior(self):
        with pytest.raises(ProblemError):
            ImpulseSchedule(times=(0.5, 0.3), jumps=(lambda x: x, lambda x: x))
        with pytest.raises(ProblemError):
            ImpulseSchedule(times=(0.0,), jumps=(lambda x: x,))
        with pytest.raises(ProblemError):
            _plain_spec(times=(1.0,), jumps=(lambda x: x,))

    def test_rhs_kind_field_coupling(self):
        with pytest.raises(ProblemError):
            RhsSpec(kind="split", f=lambda t, x: x)
        with pytest.raises(ProblemError):
            RhsSpec(kind="plain", f=None)
        with pytest.raises(ProblemError):
            RhsSpec(kind="plain", f=lambda t, x: x, f1=lambda t, x: x)
        with pytest.raises(ProblemError):
            RhsSpec(kind="nope", f=lambda t, x: x)

    def test_envelope_roles_per_kind(self):
        from fracimpulse.special import Envelope

        with pytest.raises(ProblemError, match="f1_lip"):
            RhsSpec(kind="plain", f=lambda t, x: x, envelopes={"f1_lip": Envelope.constant(1.0)})
        ok = RhsSpec(kind="plain", f=lambda t, x: x, envelopes={"lip": Envelope.constant(1.0)})
        assert "lip" in ok.envelopes

    def test_delay_iff_kind(self):
        with pytest.raises(ProblemError):
            ProblemSpec(
                alpha=0.5,
                T=1.0,
                rhs=RhsSpec(kind="plain", f=lambda t, x: x),
                x0=np.array([1.0]),
                delay=DelaySpec(r=0.5, history=lambda s: np.array([1.0])),
            )
        with pytest.raises(ProblemError):
            ProblemSpec(
                alpha=0.5,
                T=1.0,
                rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: x),
                x0=np.array([1.0]),
            )

    def test_x0_from_history(self):
        spec = _delay_spec(history=lambda s: np.array([3.0]))
        assert spec.x0 == pytest.approx([3.0])

    def test_omitted_x0_calls_the_history_once_at_zero(self):
        calls = []

        def history(s):
            calls.append(s)
            return np.array([3.0])

        _delay_spec(history=history)
        assert calls == [0.0, -0.5]  # t = 0 once, then t = -r

    def test_x0_history_mismatch(self):
        with pytest.raises(ProblemError, match="history"):
            ProblemSpec(
                alpha=0.5,
                T=1.0,
                rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: x),
                x0=np.array([1.0]),
                delay=DelaySpec(r=0.5, history=lambda s: np.array([2.0])),
            )


class TestSpotCheck:
    def test_accepts_honest_declaration(self):
        sched = ImpulseSchedule(
            times=(0.5,),
            jumps=(lambda x: 0.1 * x,),
            jump_bound=0.1 * 2.0,
            jump_lip=0.1,
        )
        sched.spot_check(radius=2.0, dim=1)

    def test_flags_bound_violation(self):
        sched = ImpulseSchedule(
            times=(0.5,), jumps=(lambda x: 3.0 * x,), jump_bound=0.1
        )
        with pytest.raises(ProblemError, match="jump_bound"):
            sched.spot_check(radius=2.0, dim=1)

    def test_flags_lipschitz_violation(self):
        sched = ImpulseSchedule(
            times=(0.5,), jumps=(lambda x: 3.0 * x,), jump_lip=0.5
        )
        with pytest.raises(ProblemError, match="jump_lip"):
            sched.spot_check(radius=2.0, dim=1)

    def test_noop_without_declarations(self):
        sched = ImpulseSchedule(times=(0.5,), jumps=(lambda x: 100.0 * x,))
        sched.spot_check(radius=2.0, dim=1)

    def test_each_map_evaluated_once_per_sample(self):
        calls = [0, 0]

        def counted(k, scale):
            def jump(x):
                calls[k] += 1
                return scale * x

            return jump

        sched = ImpulseSchedule(
            times=(0.25, 0.5),
            jumps=(counted(0, 0.1), counted(1, 0.2)),
            jump_bound=0.5,
            jump_lip=0.2,
        )
        sched.spot_check(radius=2.0, dim=2, samples=37)
        assert calls == [37, 37]

    def test_vectorized_map_called_once_per_impulse(self):
        calls = [[], []]

        def counted(k, scale):
            def jump(x):
                calls[k].append(np.shape(x))
                return scale * x

            return jump

        sched = ImpulseSchedule(
            times=(0.25, 0.5),
            jumps=(counted(0, 0.1), counted(1, 0.2)),
            jump_bound=0.5,
            jump_lip=0.2,
            vectorized=True,
        )
        sched.spot_check(radius=2.0, dim=2, samples=37)
        assert calls == [[(37, 2)], [(37, 2)]]

    @pytest.mark.parametrize("second, declared, message", PINNED_VIOLATIONS)
    def test_violation_messages_are_pinned(self, second, declared, message):
        sched = ImpulseSchedule(
            times=(0.25, 0.5), jumps=(lambda x: 0.1 * x, second), **declared
        )
        with pytest.raises(ProblemError) as err:
            sched.spot_check(radius=2.0, dim=2, samples=40)
        assert str(err.value) == message

    @pytest.mark.parametrize("second, declared, message", PINNED_VIOLATIONS)
    def test_violation_messages_are_pinned_vectorized(self, second, declared, message):
        sched = ImpulseSchedule(
            times=(0.25, 0.5),
            jumps=(lambda x: 0.1 * x, second),
            vectorized=True,
            **declared,
        )
        with pytest.raises(ProblemError) as err:
            sched.spot_check(radius=2.0, dim=2, samples=40)
        assert str(err.value) == message

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_failing_map_names_the_sample(self, vectorized):
        def jump(x):
            if np.any(np.asarray(x)[..., 0] < 0.0):
                raise ValueError("negative state")
            return 0.1 * x

        sched = ImpulseSchedule(
            times=(0.5,), jumps=(jump,), jump_bound=1.0, vectorized=vectorized
        )
        with pytest.raises(ProblemError) as err:
            sched.spot_check(radius=2.0, dim=1, samples=10)
        assert isinstance(err.value.__cause__, SolverError)
        assert str(err.value) == (
            "impulse 0 at t=0.5: jump evaluation failed at sample 2 "
            "(x=[-0.11719674362757981]): negative state"
        )

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_non_finite_value_names_the_sample(self, vectorized):
        def jump(x):
            x = np.asarray(x)
            return np.where(x < 0.0, np.inf, 0.1 * x)

        sched = ImpulseSchedule(
            times=(0.5,), jumps=(jump,), jump_lip=1.0, vectorized=vectorized
        )
        with pytest.raises(ProblemError) as err:
            sched.spot_check(radius=2.0, dim=1, samples=10)
        assert str(err.value) == (
            "impulse 0 at t=0.5: jump at sample 2 (x=[-0.11719674362757981]) "
            "returned a non-finite value"
        )

    def test_wrong_shape_is_a_problem_error(self):
        sched = ImpulseSchedule(
            times=(0.5,), jumps=(lambda x: np.zeros(3),), jump_bound=1.0
        )
        with pytest.raises(ProblemError, match=r"jump at sample 0 \(x=.*\) returned shape \(3,\), expected \(2,\)"):
            sched.spot_check(radius=2.0, dim=2, samples=10)

    @SPOT_PROPERTY
    @given(maps=jump_maps(), declared=declarations(), radius=st.floats(0.1, 5.0))
    def test_vectorized_and_per_point_agree(self, maps, declared, radius):
        # maps work elementwise, so one state or a batch gives the same bits
        dim, jumps, honest = maps
        honest["jump_bound"] = honest.pop("bound_per_radius") * radius + honest.pop("bound")
        outcome = []
        for vectorized in (False, True):
            kwargs = {
                name: None if factor is None else factor * honest[name]
                for name, factor in declared.items()
            }
            sched = ImpulseSchedule(
                times=tuple(0.1 * (k + 1) for k in range(len(jumps))),
                jumps=jumps,
                vectorized=vectorized,
                **kwargs,
            )
            try:
                sched.spot_check(radius=radius, dim=dim, samples=50)
            except ProblemError as e:
                outcome.append(str(e))
            else:
                outcome.append(None)
            if all(f is not None and f >= 1.0 for f in declared.values()):
                assert outcome[-1] is None  # honest declarations always pass
        assert outcome[0] == outcome[1]


def test_solver_error_is_one_class():
    assert fracimpulse.SolverError is solver.SolverError is SolverError


class TestBuildMesh:
    def test_off_grid_impulse_is_an_inserted_node(self):
        spec = _plain_spec(times=(0.3,))
        mesh = build_mesh(spec, 0.25)
        # 0.15 and 0.7/3 per segment differ, so the grid k/4 takes 0.3 in
        assert mesh.seg_steps == (0.25, 0.25)
        assert mesh.nodes.tolist() == [0.0, 0.25, 0.3, 0.5, 0.75, 1.0]
        assert mesh.boundary_idx == (0, 2, 5)

    def test_one_step_segments_keep_their_nodes(self):
        # 0.3/615 and 0.4/820 differ in the last bit: one step
        spec = _plain_spec(times=(0.3, 0.6))
        mesh = build_mesh(spec, 2.0**-11)
        assert mesh.boundary_idx == (0, 615, 1230, 2050)
        assert mesh.seg_steps == (0.3 / 615, 0.3 / 615, 0.4 / 820)

    def test_impulse_times_on_nodes_bitwise(self):
        spec = _plain_spec(times=(0.3, 0.6))
        mesh = build_mesh(spec, 0.01)
        for tk, idx in zip((0.3, 0.6), mesh.impulse_idx):
            assert mesh.nodes[idx] == tk
            assert mesh.node_index(tk) == idx

    def test_refinement_is_superset_on_dyadic(self):
        spec = _plain_spec(times=(0.5,))
        coarse = build_mesh(spec, 2.0**-3)
        fine = build_mesh(spec, 2.0**-4)
        coarse_set = set(coarse.nodes.tolist())
        assert coarse_set.issubset(set(fine.nodes.tolist()))

    def test_segment_shorter_than_target_h_is_a_cut_cell(self):
        spec = _plain_spec(times=(0.1,))
        mesh = build_mesh(spec, 0.5)
        assert mesh.nodes.tolist() == [0.0, 0.1, 0.5, 1.0]
        assert mesh.boundary_idx == (0, 1, 3) and mesh.seg_steps == (0.5, 0.5)
        assert build_mesh(spec, 0.1).n_nodes == 11  # 0.1 is the grid node 1 * 0.1

    def test_node_cap(self):
        spec = _plain_spec()
        with pytest.raises(MeshError, match="cap"):
            build_mesh(spec, 1e-6)

    def test_delay_global_step_alignment(self):
        spec = _delay_spec(r=0.5, times=(0.5,))
        mesh = build_mesh(spec, 2.0**-4)
        # h = 2^-4 divides r: each lag t_j - 0.5 is the node j - 8, bitwise
        n = mesh.n_nodes
        assert [mesh.node_index(t - 0.5) for t in mesh.nodes[8:]] == list(range(n - 8))
        assert np.array_equal(mesh.nodes[8:] - 0.5, mesh.nodes[: n - 8])

    def test_delay_step_refines_to_fit(self):
        # r = 0.5 with target 0.3 gives h = 0.25, as without the delay
        spec = _delay_spec(r=0.5, times=(0.5,), T=1.0)
        mesh = build_mesh(spec, 0.3)
        assert mesh.seg_steps == (0.25, 0.25)
        assert mesh.nodes.tolist() == build_mesh(_plain_spec(times=(0.5,)), 0.3).nodes.tolist()

    def test_delay_segments_off_by_roundoff_take_the_global_step(self):
        # 3.3/66, 0.1/2 and 1.6/32 are all 0.05 but differ by more than
        # STEP_ULPS ulps: the mesh is the grid k 0.05 with 3.3 and 3.4,
        # which are not bitwise grid nodes, inserted, and its weights one step
        spec = _delay_spec(r=0.1, T=5.0, times=(3.3, 3.4))
        mesh = build_mesh(spec, 0.05)
        assert mesh.seg_steps == (0.05, 0.05, 0.05)
        assert mesh.n_nodes == 103 and mesh.boundary_idx == (0, 66, 69, 102)
        assert mesh.nodes[[66, 69]].tolist() == [3.3, 3.4]
        table = build_weights(mesh, 0.5, "trapezoid")
        W, g = table.dense(), np.cos(mesh.nodes)
        assert np.all(np.abs(table.apply(g) - W @ g) <= 1e-12 * (np.abs(W) @ np.abs(g)))
        assert solver.solve_picard(spec, mesh).converged

    def test_delay_segments_off_the_step_grid_get_an_inserted_node(self):
        # 0.3 + 1e-10 is 6 steps of 0.05 only to 1e-9: it is inserted into
        # the grid k 0.05, and its own lag falls inside a cell
        spec = _delay_spec(r=0.1, T=1.0, times=(0.3 + 1e-10,))
        mesh = build_mesh(spec, 0.05)
        grid = np.linspace(0.0, 1.0, 21)
        assert mesh.nodes.tolist() == np.insert(grid, 7, 0.3 + 1e-10).tolist()
        assert mesh.node_index(mesh.nodes[7] - 0.1) is None
        assert solver.solve_marching(spec, mesh).converged

    def test_delay_node_cap_is_the_plain_cap(self):
        # 2^15 steps need one node over the cap, with or without the delay
        for spec in (_delay_spec(r=0.5, times=(0.5,)), _plain_spec(times=(0.5,))):
            with pytest.raises(MeshError, match=r"^mesh would need 32769 nodes, over the 32768 cap"):
                build_mesh(spec, 2.0**-15)

    @pytest.mark.parametrize("target_h", [5e-324, 1e-310, 1e-300])
    def test_step_too_small_to_count_hits_the_node_cap(self, target_h):
        # T / target_h overflows to inf for the first two, whose node
        # count once raised OverflowError
        with pytest.raises(MeshError, match=r"^mesh would need T / target_h = .* over the 32768 cap"):
            build_mesh(_plain_spec(times=(0.5,)), target_h)

    def test_incommensurate_delay_gets_the_plain_mesh(self):
        # no step r/q divides 0.5 for r = sqrt(2)/4; the mesh is the
        # delay-free one, and every lag above 0 lies inside a cell
        spec = _delay_spec(r=2.0 ** 0.5 / 4.0, times=(0.5,))
        mesh = build_mesh(spec, 0.1)
        assert mesh.nodes.tolist() == build_mesh(_plain_spec(times=(0.5,)), 0.1).nodes.tolist()
        assert all(mesh.node_index(t - spec.delay.r) is None for t in mesh.nodes)
        assert solver.solve_picard(spec, mesh).converged


class TestTrajectory:
    def _traj(self):
        spec = _plain_spec(times=(0.5,))
        mesh = build_mesh(spec, 0.25)
        values = np.arange(mesh.n_nodes, dtype=float)[:, None]
        rights = np.array([[10.0]])
        return mesh, Trajectory(mesh=mesh, values=values, right_values=rights)

    def test_limits(self):
        mesh, traj = self._traj()
        k = mesh.impulse_idx[0]
        assert traj.left_limit(0) == pytest.approx([float(k)])
        assert traj.right_limit(0) == pytest.approx([10.0])
        assert traj.evaluate(0.5, "left") == pytest.approx([float(k)])
        assert traj.evaluate(0.5, "right") == pytest.approx([10.0])

    def test_interpolation_uses_right_limit_after_impulse(self):
        mesh, traj = self._traj()
        k = mesh.impulse_idx[0]
        # midpoint of the cell starting at the impulse node
        t_mid = 0.5 * (mesh.nodes[k] + mesh.nodes[k + 1])
        expected = 0.5 * (10.0 + traj.values[k + 1, 0])
        assert traj.evaluate(t_mid) == pytest.approx([expected])

    def test_interpolation_inside_plain_cell(self):
        mesh, traj = self._traj()
        t_mid = 0.5 * (mesh.nodes[0] + mesh.nodes[1])
        assert traj.evaluate(t_mid) == pytest.approx([0.5])

    def test_limits_at_impulse_time_off_by_an_ulp(self):
        # 0.1 + 0.2 and 0.7 - 0.4 miss the node 0.3 by an ulp on either
        # side; both still pick the requested one-sided limit
        spec = _plain_spec(times=(0.3,), jumps=(lambda x: np.array([5.0]),), x0=0.0)
        mesh = build_mesh(spec, 0.05)
        k = mesh.impulse_idx[0]
        values = np.where(np.arange(mesh.n_nodes) > k, 5.0, 0.0)[:, None]
        traj = Trajectory(mesh=mesh, values=values, right_values=np.array([[5.0]]))
        assert 0.1 + 0.2 != 0.3 and 0.7 - 0.4 != 0.3
        assert mesh.node_index(0.1 + 0.2) == mesh.node_index(0.7 - 0.4) == k
        assert traj.evaluate(0.1 + 0.2, "left")[0] == 0.0
        assert traj.evaluate(0.7 - 0.4, "right")[0] == 5.0

    def test_domain_and_side_checks(self):
        _, traj = self._traj()
        with pytest.raises(ValueError):
            traj.evaluate(-0.1)
        with pytest.raises(ValueError):
            traj.evaluate(1.1)
        with pytest.raises(ValueError):
            traj.evaluate(0.5, side="middle")
        with pytest.raises(ValueError, match=r"^t=nan outside"):
            traj.evaluate(float("nan"))

    def test_range_error_prints_the_bounds_as_floats(self):
        _, traj = self._traj()
        with pytest.raises(ValueError) as err:
            traj.evaluate(1.5)
        assert str(err.value) == "t=1.5 outside [0.0, 1.0]"

    def test_shape_validation(self):
        mesh, _ = self._traj()
        with pytest.raises(ProblemError):
            Trajectory(mesh=mesh, values=np.zeros((3, 1)), right_values=np.zeros((1, 1)))
        with pytest.raises(ProblemError):
            Trajectory(
                mesh=mesh,
                values=np.zeros((mesh.n_nodes, 1)),
                right_values=np.zeros((2, 1)),
            )


class TestHistorySupNorm:
    def test_constant_history_dominates_early(self):
        spec = _delay_spec(r=0.5, times=(0.5,), history=lambda s: np.array([2.0]))
        mesh = build_mesh(spec, 2.0**-4)
        values = np.zeros((mesh.n_nodes, 1))
        traj = Trajectory(mesh=mesh, values=values, right_values=np.array([[0.0]]))
        # window [.25-.5, .25] reaches into the history where |phi| = 2
        assert history_sup_norm(traj, spec.delay, 0.25) == pytest.approx(2.0)

    def test_ramp_history(self):
        # phi(s) = -s on [-r, 0]: sup over [t-r, 0] is r - t for t < r
        spec = _delay_spec(r=0.5, times=(0.5,), history=lambda s: np.array([-s]))
        mesh = build_mesh(spec, 2.0**-4)
        values = np.zeros((mesh.n_nodes, 1))
        traj = Trajectory(mesh=mesh, values=values, right_values=np.array([[0.0]]))
        assert history_sup_norm(traj, spec.delay, 0.0) == pytest.approx(0.5)
        assert history_sup_norm(traj, spec.delay, 0.25) == pytest.approx(0.25)

    def test_uses_trajectory_left_limits_inside_window(self):
        spec = _delay_spec(r=0.5, times=(0.5,), history=lambda s: np.array([0.0]))
        mesh = build_mesh(spec, 2.0**-4)
        values = np.zeros((mesh.n_nodes, 1))
        k = mesh.impulse_idx[0]
        values[k] = 3.0  # left limit at the impulse node
        traj = Trajectory(mesh=mesh, values=values, right_values=np.array([[7.0]]))
        # impulse node strictly inside the window counts with left limit
        assert history_sup_norm(traj, spec.delay, 0.75) == pytest.approx(3.0)

    def test_right_limit_at_window_left_endpoint(self):
        spec = _delay_spec(r=0.5, times=(0.5,), history=lambda s: np.array([0.0]))
        mesh = build_mesh(spec, 2.0**-4)
        values = np.zeros((mesh.n_nodes, 1))
        traj = Trajectory(mesh=mesh, values=values, right_values=np.array([[7.0]]))
        # window [0.5, 1.0]: left endpoint is the impulse node, right limit rule
        assert history_sup_norm(traj, spec.delay, 1.0) == pytest.approx(7.0)

    def test_right_limit_at_non_dyadic_window_left_endpoint(self):
        # 0.7 - 0.3 = 0.39999999999999997 is not bitwise the node 0.4; the
        # solver's window sup still counts the impulse's right limit there
        spec = _delay_spec(r=0.3, times=(0.4,), history=lambda s: np.array([0.0]))
        mesh = build_mesh(spec, 0.05)
        traj = Trajectory(
            mesh=mesh, values=np.zeros((mesh.n_nodes, 1)), right_values=np.array([[7.0]])
        )
        i = mesh.node_index(0.7)
        assert i is not None and 0.7 - 0.3 != mesh.nodes[i - 6]
        assert history_sup_norm(traj, spec.delay, 0.7) == 7.0
        dd = _DelayData(spec, mesh)
        jumps = _Jumps(spec, mesh)
        jumps.rights[0] = 7.0
        assert dd.window(i, i + 1, jumps)[1].tolist() == [7.0]
        assert dd.window(0, mesh.n_nodes, jumps)[1][i] == 7.0

    @pytest.mark.parametrize("t", [float("nan"), -0.1, 1.1])
    def test_time_outside_the_mesh_raises(self, t):
        spec = _delay_spec(r=0.5, times=(), history=lambda s: np.array([1.0]))
        mesh = build_mesh(spec, 2.0**-4)
        traj = Trajectory(
            mesh=mesh, values=np.ones((mesh.n_nodes, 1)), right_values=np.zeros((0, 1))
        )
        with pytest.raises(ValueError, match=r"outside \[0, T\]"):
            history_sup_norm(traj, spec.delay, t)

    def test_non_finite_history_raises_like_the_solver(self):
        # a NaN history value used to drop out of max(sup, nan); solve_picard
        # reads the same history through the same sampling rule
        def history(s):
            return np.array([np.nan if -0.4 < s < -0.2 else 1.0])

        spec = _delay_spec(r=0.5, times=(), history=history)
        mesh = build_mesh(spec, 0.125)
        traj = Trajectory(
            mesh=mesh, values=np.ones((mesh.n_nodes, 1)), right_values=np.zeros((0, 1))
        )
        # between nodes the window samples t - r and then the node lags
        for t, s in ((0.0, "-0.375"), (0.1, "-0.375")):
            with pytest.raises(SolverError, match=rf"^history at t={s} returned a non-finite value$"):
                history_sup_norm(traj, spec.delay, t)
        with pytest.raises(SolverError, match=r"^history at t=-0.25 returned a non-finite value$"):
            solver.solve_picard(spec, mesh)

    def test_vectorized_history_is_sampled_in_one_call(self):
        calls = []

        def history(s):
            calls.append(np.shape(s))
            return -np.asarray(s)

        spec = _delay_spec(r=0.5, times=(), history=history)
        delay = DelaySpec(r=0.5, history=history, vectorized=True)
        mesh = build_mesh(spec, 2.0**-4)
        traj = Trajectory(
            mesh=mesh, values=np.zeros((mesh.n_nodes, 1)), right_values=np.zeros((0, 1))
        )
        calls.clear()
        assert history_sup_norm(traj, delay, 0.0) == 0.5
        assert calls == [(9,)]  # the grid -0.5, -0.4375, ..., -0.0625 and 0

    def test_any_mesh_serves(self):
        # a mesh built without the delay: r = 0.3 is no multiple of 0.25
        plain = _plain_spec()
        mesh = build_mesh(plain, 0.25)
        traj = Trajectory(
            mesh=mesh, values=np.zeros((mesh.n_nodes, 1)), right_values=np.zeros((0, 1))
        )
        delay = DelaySpec(r=0.3, history=lambda s: np.array([1.0 - s]))
        assert history_sup_norm(traj, delay, 0.25) == pytest.approx(1.05)
        assert history_sup_norm(traj, delay, 0.5) == 0.0

    def test_sampled_history_knots_enter_window(self):
        # piecewise linear history peaking between delay-grid points
        delay = DelaySpec(
            r=0.5,
            history=lambda s: np.array([np.interp(s, [-0.5, -0.21, 0.0], [0.0, 5.0, 0.0])]),
            sample_times=(-0.21,),
        )
        spec = ProblemSpec(
            alpha=0.5,
            T=1.0,
            rhs=RhsSpec(kind="delay", f=lambda t, x, xr, sup: np.zeros_like(x)),
            impulses=ImpulseSchedule(),
            delay=delay,
        )
        mesh = build_mesh(spec, 0.25)
        traj = Trajectory(
            mesh=mesh, values=np.zeros((mesh.n_nodes, 1)), right_values=np.zeros((0, 1))
        )
        assert history_sup_norm(traj, spec.delay, 0.0) == pytest.approx(5.0)
