"""The paper's invariants as properties over random problems: both solvers
against the Mittag-Leffler closed form of the linear impulsive problem,
Picard against marching on plain, split and delay problems in one and
two dimensions, and Picard's observed contraction against the
certificate."""

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fracimpulse import certify
from fracimpulse.config import parse_config
from fracimpulse.problem import DelaySpec, ImpulseSchedule, ProblemSpec, RhsSpec, build_mesh
from fracimpulse.solver import SolverError, jump_residual, solve_marching, solve_picard
from fracimpulse.special import Envelope, gamma, mittag_leffler

TOL = 1e-10


def _impulse_times(draw, max_size, denominator):
    """Up to max_size distinct impulse times k / denominator in (0, 1)."""
    ks = draw(st.sets(st.integers(1, denominator - 1), max_size=max_size))
    return tuple(k / denominator for k in sorted(ks))


def _check_report(rep, spec):
    """What every report must say of itself: a converged one met its
    tolerance and holds right = left + I_k(left) to 1e-12; an unconverged
    iterate may have grown, so it holds the jumps to roundoff at its scale."""
    scale = 1.0
    if rep.converged:
        assert rep.final_residual <= TOL
    else:
        scale += float(np.max(np.abs(rep.trajectory.values)))
    assert jump_residual(rep.trajectory, spec) <= 1e-12 * scale


def _picard(spec, mesh, max_iter):
    """solve_picard's report, or None when the iterate overflows."""
    try:
        return solve_picard(spec, mesh, tol=TOL, max_iter=max_iter)
    except SolverError:
        return None


@st.composite
def linear_impulsive(draw):
    """x' = lam x (Caputo, order alpha) on [0, 1] with 0-3 constant jumps,
    on a mesh of step h = 2^-9 where marching's corrector contracts:
    h^alpha |lam| / Gamma(alpha + 2) <= 1/2."""
    h = 2.0**-9
    alpha = draw(st.floats(0.2, 0.95))
    lam = draw(st.floats(-20.0, 0.0))
    assume(h**alpha * abs(lam) / gamma(alpha + 2.0) <= 0.5)
    x0 = draw(st.floats(-1.0, 1.0, allow_subnormal=False))
    times = _impulse_times(draw, 3, 16)
    cs = [draw(st.floats(-1.0, 1.0, allow_subnormal=False)) for _ in times]
    spec = ProblemSpec(
        alpha=alpha,
        T=1.0,
        rhs=RhsSpec(kind="plain", f=lambda t, x: lam * x, vectorized=True),
        x0=np.array([x0]),
        impulses=ImpulseSchedule(
            times=times, jumps=tuple(lambda x, c=c: np.array([c]) for c in cs)
        ),
    )
    # x(1) = x0 E(lam) + sum_k c_k E(lam (1 - t_k)^alpha)
    exact = x0 * mittag_leffler(alpha, lam) + sum(
        c * mittag_leffler(alpha, lam * (1.0 - t) ** alpha) for c, t in zip(cs, times)
    )
    # The trapezoid integrates the left limit over the cell right of each
    # impulse, an error source lam c_k (h/2) (t - t_k)^(alpha-1) / Gamma(alpha)
    # that the decay damps; the rest is of order h^(1+alpha)
    bound = 0.5 * h * (
        abs(x0)
        + sum(
            abs(c) * (1.0 + abs(lam) * (1.0 - t) ** (alpha - 1.0) / gamma(alpha))
            for c, t in zip(cs, times)
        )
    )
    return spec, build_mesh(spec, h), exact, bound


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=linear_impulsive())
def test_linear_problem_matches_mittag_leffler_closed_form(case):
    spec, mesh, exact, bound = case
    mar = solve_marching(spec, mesh)
    _check_report(mar, spec)
    assert mar.converged
    assert abs(mar.trajectory.values[-1, 0] - exact) <= bound
    # Picard gets its absolute tolerance on top, which tiny data meet at once
    pic = solve_picard(spec, mesh, tol=TOL, max_iter=300)
    _check_report(pic, spec)
    assert pic.converged
    assert abs(pic.trajectory.values[-1, 0] - exact) <= bound + 10.0 * TOL


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    alpha=st.floats(0.2, 0.9),
    lam=st.floats(-8.0, -1.0),
    data=st.data(),
    max_iter=st.integers(4, 30),
)
def test_values_before_the_first_impulse_ignore_it(alpha, lam, data, max_iter):
    # whole-mesh sweeps stall on these decays, and at tol = 0 a fixed
    # number of sweeps makes the iterates comparable: the nodes up to the
    # first impulse, windows and halves included, never read a later node.
    # tol = 0 halves every window down to single nodes, which diverge
    # unless marching's corrector contracts
    h = 2.0**-7
    assume(h**alpha * abs(lam) / gamma(alpha + 2.0) <= 0.5)
    times = _impulse_times(data.draw, 2, 16)
    assume(times)
    cs = [data.draw(st.floats(-1.0, 1.0)) for _ in times]

    def spec(times, cs):
        return ProblemSpec(
            alpha=alpha,
            T=1.0,
            rhs=RhsSpec(kind="plain", f=lambda t, x: lam * x, vectorized=True),
            x0=np.array([1.0]),
            impulses=ImpulseSchedule(
                times=times, jumps=tuple(lambda x, c=c: np.array([c]) for c in cs)
            ),
        )

    bare, jumped = spec((), []), spec(times, cs)
    mesh_b, mesh_j = build_mesh(bare, h), build_mesh(jumped, h)
    idx = mesh_j.impulse_idx[0]
    assert mesh_b.nodes[: idx + 1].tobytes() == mesh_j.nodes[: idx + 1].tobytes()
    # a solve whose every node reached an exactly zero update stopped
    # early, after as many sweeps as it reports; at that budget it runs
    # the same sweeps to the end, and the other solve is held to it too
    budget = max_iter
    while True:
        a = solve_picard(bare, mesh_b, tol=0.0, max_iter=budget)
        b = solve_picard(jumped, mesh_j, tol=0.0, max_iter=budget)
        if a.iterations == b.iterations == budget:
            break
        assert min(a.iterations, b.iterations) < budget and (a.converged or b.converged)
        budget = min(a.iterations, b.iterations)
    assert a.trajectory.values[: idx + 1].tobytes() == b.trajectory.values[: idx + 1].tobytes()


@st.composite
def agreement_configs(draw):
    """A plain, split or delay config in one or two dimensions with 0-2
    affine jumps anywhere in (0, 1), on the grid 2^-6 or inserted into
    it, and a delay r anywhere in (0.05, 0.9), whose lags mostly fall
    inside cells."""
    kind = draw(st.sampled_from(["plain", "split", "delay"]))
    d = draw(st.integers(1, 2))
    xs = ["x"] if d == 1 else ["x1", "x2"]
    coef = st.floats(-1.0, 1.0).map(lambda v: repr(round(v, 3)))
    own = [f"{draw(coef)}*{x}" for x in xs]
    other = [f"{draw(coef)}*sin({xs[-1 - i]})" for i in range(d)]
    problem = {"alpha": draw(st.floats(0.3, 0.9)), "T": 1.0}
    if kind == "split":
        problem["rhs"] = {"kind": "split", "f1": own, "f2": other}
    elif kind == "plain":
        problem["rhs"] = {"kind": "plain", "f": [f"{a} + {b}" for a, b in zip(own, other)]}
    else:
        lags = ["xr"] if d == 1 else ["xr1", "xr2"]
        problem["rhs"] = {
            "kind": "delay",
            "f": [f"{a} + {draw(coef)}*{r} + 0.5*xtsup/(1 + xtsup)" for a, r in zip(own, lags)],
        }
        problem["delay"] = {
            "r": draw(st.floats(0.05, 0.9)),
            "history": [f"{draw(coef)} + {draw(coef)}*t" for _ in xs],
        }
    if kind != "delay":
        problem["x0"] = [draw(st.floats(-1.0, 1.0)) for _ in xs]
    problem["impulses"] = [
        {"time": t, "jump": [f"{draw(coef)}*0.3*{x} + {draw(coef)}*0.1" for x in xs]}
        for t in sorted(draw(st.sets(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=2)))
    ]
    return {"problem": problem, "numerics": {"target_h": 2.0**-6}}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=agreement_configs())
@example(
    data={
        "problem": {
            "alpha": 0.30078125,
            "T": 1.0,
            "rhs": {"kind": "plain", "f": ["1.0*x + 1.0*sin(x)"]},
            "x0": [0.015625],
            "impulses": [],
        },
        "numerics": {"target_h": 2.0**-6},
    }
)
def test_picard_and_marching_reach_one_fixed_point(data):
    # the example is a growing solution whose windows contract at about
    # 0.55 a sweep: windows that stopped at an update of tol left it
    # 1.0e-9 from marching
    spec = parse_config(data).problem
    mesh = build_mesh(spec, 2.0**-6)
    mar = solve_marching(spec, mesh)
    pic = _picard(spec, mesh, max_iter=200)
    _check_report(mar, spec)
    if pic is not None:
        _check_report(pic, spec)
    if pic is None or not (pic.converged and mar.converged):
        return
    a, b = pic.trajectory, mar.trajectory
    assert np.max(np.abs(a.values - b.values)) <= 10.0 * TOL
    assert np.max(np.abs(a.right_values - b.right_values), initial=0.0) <= 10.0 * TOL


@st.composite
def nonlinear_problems(draw):
    """lam x - mu x|x| (plain) or lam x + 0.5 x(t - r) - mu sup x (delay) on
    [0, 1] with one affine jump, on a mesh of step 2^-7."""
    h = 2.0**-7
    alpha = draw(st.floats(0.2, 0.95))
    lam = draw(st.floats(-20.0, -1.0))
    mu = draw(st.floats(0.0, 2.0))
    a, b = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    impulses = ImpulseSchedule(
        times=(draw(st.integers(1, 15)) / 16,), jumps=(lambda x: a * x + b,)
    )
    if draw(st.booleans()):
        rhs = RhsSpec(kind="plain", f=lambda t, x: lam * x - mu * x * np.abs(x), vectorized=True)
        spec = ProblemSpec(
            alpha=alpha, T=1.0, rhs=rhs, x0=np.array([draw(st.floats(-1.5, 1.5))]), impulses=impulses
        )
    else:
        c0, c1 = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
        rhs = RhsSpec(
            kind="delay",
            f=lambda t, x, xr, sup: lam * x + 0.5 * xr - mu * sup[:, None] * x,
            vectorized=True,
        )
        delay = DelaySpec(r=draw(st.sampled_from([0.125, 0.25])), history=lambda s: np.array([c0 + c1 * s]))
        spec = ProblemSpec(alpha=alpha, T=1.0, rhs=rhs, impulses=impulses, delay=delay)
    return spec, build_mesh(spec, h), lam, mu


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=nonlinear_problems())
def test_picard_converges_where_marching_contracts(case):
    # whole-mesh sweeps stall on most of these, and windows that start
    # from the iterate left at the switch used to overflow
    spec, mesh, lam, mu = case
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging corrector
            mar = solve_marching(spec, mesh)
    except SolverError:
        mar = None
    assume(mar is not None and mar.converged)
    # the corrector's Lipschitz constant along marching's solution and the
    # history's ends: |lam| + 2 mu max |x|
    traj = mar.trajectory
    big = max(np.max(np.abs(traj.values)), np.max(np.abs(traj.right_values)))
    if spec.delay is not None:
        big = max(big, *(abs(spec.delay.history(s)[0]) for s in (0.0, -spec.delay.r)))
    lip = abs(lam) + 2.0 * mu * big
    assume(mesh.nodes[1] ** spec.alpha * lip / gamma(spec.alpha + 2.0) <= 0.5)
    pic = solve_picard(spec, mesh, tol=TOL, max_iter=200)
    _check_report(pic, spec)
    assert pic.converged
    assert np.max(np.abs(pic.trajectory.values - mar.trajectory.values)) <= 1e-9


@st.composite
def certified_sine_problems(draw):
    """f = lam sin x with lip = |lam| declared and 0-2 affine jumps
    a_k x + b_k with jump_lip = max |a_k| declared."""
    lam = draw(st.floats(-2.0, 2.0))
    times = _impulse_times(draw, 2, 8)
    slopes = [draw(st.floats(-0.3, 0.3)) for _ in times]
    shifts = [draw(st.floats(-0.5, 0.5)) for _ in times]
    jumps = tuple(lambda x, a=a, b=b: a * x + b for a, b in zip(slopes, shifts))
    return ProblemSpec(
        alpha=draw(st.floats(0.2, 0.95)),
        T=1.0,
        rhs=RhsSpec(
            kind="plain",
            f=lambda t, x: lam * np.sin(x),
            vectorized=True,
            envelopes={"lip": Envelope.constant(abs(lam))},
        ),
        x0=np.array([draw(st.floats(-2.0, 2.0))]),
        impulses=ImpulseSchedule(
            times=times, jumps=jumps, jump_lip=max(map(abs, slopes), default=0.0)
        ),
    )


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=certified_sine_problems())
def test_observed_contraction_stays_under_certified_gamma(spec):
    cert = certify(spec)
    assume(cert.verdict == "contraction_holds")
    rep = solve_picard(spec, build_mesh(spec, 2.0**-6), tol=TOL, max_iter=200)
    _check_report(rep, spec)
    hist = rep.residual_history
    # r_{n+1} / r_n from sweep 2 on, while r_n is above roundoff
    for n in range(1, len(hist) - 1):
        if hist[n] <= 1e-11:
            break
        assert hist[n + 1] / hist[n] <= cert.gamma_stated + 0.1, f"sweep {n + 2}"
