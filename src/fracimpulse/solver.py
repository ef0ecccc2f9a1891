r"""Fixed-point solvers for the impulsive fractional integral equation.

Both solvers discretize

    x(t_j) = x0 + sum_{t_k < t_j} I_k(x(t_k-)) + (I^alpha f)(t_j)

on a problem mesh with a product-integration weight table.

solve_picard sweeps the whole mesh: each iteration evaluates the
operator at the previous iterate (jumps included, frozen at the
previous iterate's left limits) and stops when the sup-norm update
falls below tol.  The observed residual ratios approximate the
operator's contraction factor.

solve_marching computes nodes left to right in one pass.  The
rectangle scheme is fully explicit.  The trapezoid scheme predicts
with the rectangle value and then iterates the diagonal corrector
x -> known + w_jj f(t_j, x) to convergence (the map contracts with
factor w_jj * Lip(f), small for any usable step), so the marching
solution coincides with the Picard fixed point up to tolerances.  When
w_jj * Lip(f) is too large the corrector can fail to converge; the
report then says so (converged=False).  Pass corrections="single" for a
classic one-shot corrector.

Both solvers touch the weights only through WeightTable.apply, row and
diag.

Right limits of a returned trajectory are rebuilt from the final left
limits, so right - left = I_k(left) holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracquad import WeightTable, build_weights, frac_integral
from .problem import Mesh, ProblemError, ProblemSpec, Trajectory

__all__ = [
    "SolverError",
    "SolveReport",
    "solve_picard",
    "solve_marching",
    "jump_residual",
    "split_component_integral",
]


class SolverError(RuntimeError):
    """Right-hand side evaluation failed or solver misuse."""


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve: trajectory plus convergence bookkeeping."""

    trajectory: Trajectory
    iterations: int
    final_residual: float
    converged: bool
    scheme: str
    method: str
    residual_history: tuple[float, ...] = ()


class _DelayData:
    """Precomputed history values on the delay-aligned negative grid."""

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        delay = spec.delay
        q = mesh.delay_steps
        if q is None:
            raise SolverError("delay problem requires a mesh built with the delay")
        self.q = q
        h = delay.r / q
        vals = []
        for j in range(q + 1):
            v = np.atleast_1d(np.asarray(delay.history(-j * h), dtype=float))
            vals.append(v)
        self.phi_vals = np.stack(vals)  # row j = phi(-j*h)
        self.phi_norms = np.linalg.norm(self.phi_vals, axis=1)
        knots = [s for s in delay.sample_times if s < 0.0]
        knots.sort()
        self.knots = np.asarray(knots)
        self.knot_norms = np.array(
            [
                np.linalg.norm(np.atleast_1d(np.asarray(delay.history(s), dtype=float)))
                for s in knots
            ]
        )
        self.r = delay.r

    def lagged(self, i: int, values: np.ndarray) -> np.ndarray:
        """x(t_i - r): node value for t_i >= r, history value below."""
        if i >= self.q:
            return values[i - self.q]
        return self.phi_vals[self.q - i]

    def window_sup(
        self,
        i: int,
        norms: np.ndarray,
        right_norms: dict[int, float],
    ) -> float:
        """Sup of |x| over the discrete window [t_i - r, t_i].

        norms[j] = |values[j]| of the iterate being sampled; impulse nodes
        inside the window enter with their left limit, the window's left
        endpoint with its right limit when it is an impulse node.
        """
        lo_idx = i - self.q
        sup = float(np.max(norms[max(lo_idx, 0) : i + 1]))
        if lo_idx >= 0 and lo_idx in right_norms:
            sup = max(sup, right_norms[lo_idx])
        if lo_idx < 0:
            j_hi = -lo_idx  # offsets -h .. -j_hi*h lie in the window
            sup = max(sup, float(np.max(self.phi_norms[1 : j_hi + 1])))
            if self.knots.size:
                lo_t = -j_hi * (self.r / self.q)
                first = int(np.searchsorted(self.knots, lo_t - 1e-12))
                if first < self.knots.size:
                    sup = max(sup, float(np.max(self.knot_norms[first:])))
        return sup


class _RhsSampler:
    """Evaluates f along an iterate, with node-identified error reporting."""

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        self.spec = spec
        self.mesh = mesh
        self.dim = spec.dim
        self.delay_data = _DelayData(spec, mesh) if spec.delay is not None else None

    def eval_node(
        self,
        i: int,
        x: np.ndarray,
        values: np.ndarray,
        right_norms: dict[int, float],
        norms: np.ndarray,
    ) -> np.ndarray:
        rhs = self.spec.rhs
        t = float(self.mesh.nodes[i])
        try:
            if rhs.kind == "plain":
                out = rhs.f(t, x)
            elif rhs.kind == "split":
                out = np.atleast_1d(np.asarray(rhs.f1(t, x), dtype=float)) + np.atleast_1d(
                    np.asarray(rhs.f2(t, x), dtype=float)
                )
            else:
                dd = self.delay_data
                saved = values[i].copy()
                saved_norm = norms[i]
                values[i] = x
                norms[i] = np.linalg.norm(x)
                try:
                    lag = dd.lagged(i, values)
                    sup = dd.window_sup(i, norms, right_norms)
                finally:
                    values[i] = saved
                    norms[i] = saved_norm
                out = rhs.f(t, x, lag, sup)
        except (ArithmeticError, ValueError) as e:
            raise SolverError(
                f"rhs evaluation failed at node {i} (t={t!r}): {e}"
            ) from e
        arr = np.atleast_1d(np.asarray(out, dtype=float))
        if arr.shape != (self.dim,):
            raise SolverError(
                f"rhs at node {i} (t={t!r}) returned shape {arr.shape}, "
                f"expected ({self.dim},)"
            )
        if not np.all(np.isfinite(arr)):
            raise SolverError(f"rhs at node {i} (t={t!r}) returned a non-finite value")
        return arr

    def sample_all(
        self, values: np.ndarray, right_norms: dict[int, float]
    ) -> np.ndarray:
        norms = np.linalg.norm(values, axis=1)
        g = np.empty_like(values)
        for i in range(values.shape[0]):
            g[i] = self.eval_node(i, values[i], values, right_norms, norms)
        return g


def _jump_data(spec: ProblemSpec, mesh: Mesh, values: np.ndarray):
    """Jump increments at the current left limits: cumulative sum per node,
    right-limit map, and right-limit norms."""
    n, d = values.shape
    jsum = np.zeros((n, d))
    rights = {}
    right_norms = {}
    for k, idx in enumerate(mesh.impulse_idx):
        inc = spec.impulses.apply(k, values[idx])
        jsum[idx + 1 :] += inc
        rights[idx] = values[idx] + inc
        right_norms[idx] = float(np.linalg.norm(rights[idx]))
    return jsum, rights, right_norms


def _initial_iterate(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Constant x0 with the declared jumps applied once, in order."""
    values = np.tile(spec.x0, (mesh.n_nodes, 1))
    for k, idx in enumerate(mesh.impulse_idx):
        inc = spec.impulses.apply(k, values[idx])
        values[idx + 1 :] += inc
    return values


def _final_trajectory(spec: ProblemSpec, mesh: Mesh, values: np.ndarray) -> Trajectory:
    rights = [
        values[idx] + spec.impulses.apply(k, values[idx])
        for k, idx in enumerate(mesh.impulse_idx)
    ]
    rights_arr = (
        np.stack(rights) if rights else np.zeros((0, values.shape[1]))
    )
    return Trajectory(mesh=mesh, values=values, right_values=rights_arr)


def solve_picard(
    spec: ProblemSpec,
    mesh: Mesh,
    scheme: str = "trapezoid",
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolveReport:
    """Whole-mesh fixed-point iteration of the integral operator.

    Stops when the sup-norm distance between consecutive iterates is at
    most tol; converged=False after max_iter sweeps otherwise.
    """
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    table = build_weights(mesh, spec.alpha, scheme)
    sampler = _RhsSampler(spec, mesh)

    values = _initial_iterate(spec, mesh)
    history: list[float] = []
    converged = False
    iterations = 0
    residual = math.inf
    for _ in range(max_iter):
        jsum, _, right_norms = _jump_data(spec, mesh, values)
        g = sampler.sample_all(values, right_norms)
        new = spec.x0[None, :] + jsum + table.apply(g)
        residual = float(np.max(np.linalg.norm(new - values, axis=1)))
        history.append(residual)
        values = new
        iterations += 1
        if residual <= tol:
            converged = True
            break

    return SolveReport(
        trajectory=_final_trajectory(spec, mesh, values),
        iterations=iterations,
        final_residual=residual,
        converged=converged,
        scheme=scheme,
        method="picard",
        residual_history=tuple(history),
    )


def solve_marching(
    spec: ProblemSpec,
    mesh: Mesh,
    scheme: str = "trapezoid",
    corrector_tol: float = 1e-13,
    max_corrections: int = 60,
    corrections: str = "converge",
) -> SolveReport:
    """One-pass time stepping, left to right.

    rectangle is explicit.  trapezoid predicts each node with the
    rectangle row and then fixed-point iterates the diagonal corrector
    until the update is below corrector_tol (relative); with
    corrections="single" exactly one corrector application is made.

    The report gives the largest corrector iteration count over the
    nodes as iterations and the largest final corrector update as
    final_residual; converged is False when some node used up
    max_corrections without meeting corrector_tol.
    """
    if corrections not in ("converge", "single"):
        raise ValueError(f"corrections must be 'converge' or 'single', got {corrections!r}")
    if max_corrections < 1:
        raise ValueError(f"max_corrections must be at least 1, got {max_corrections!r}")
    table = build_weights(mesh, spec.alpha, scheme)
    rect = (
        table
        if scheme == "rectangle"
        else build_weights(mesh, spec.alpha, "rectangle")
    )
    sampler = _RhsSampler(spec, mesh)
    impulse_at = {idx: k for k, idx in enumerate(mesh.impulse_idx)}

    n = mesh.n_nodes
    d = spec.dim
    values = np.tile(spec.x0, (n, 1))
    norms = np.linalg.norm(values, axis=1)
    g = np.zeros((n, d))
    jsum = np.zeros(d)
    right_norms: dict[int, float] = {}
    wdiag = table.diag()
    most_corrections = 0
    worst_gap = 0.0
    failed = 0

    def f_at(i: int, x: np.ndarray) -> np.ndarray:
        return sampler.eval_node(i, x, values, right_norms, norms)

    for i in range(n):
        base = spec.x0 + jsum
        xi = base + rect.row(i)[:i] @ g[:i]  # the rectangle value predicts
        if scheme == "trapezoid":
            known = base + table.row(i)[:i] @ g[:i]
            wjj = wdiag[i]
            limit = 1 if corrections == "single" else max_corrections
            for count in range(1, limit + 1):
                nxt = known + wjj * f_at(i, xi)
                gap = float(np.max(np.abs(nxt - xi)))
                xi = nxt
                if gap <= corrector_tol * (1.0 + float(np.max(np.abs(xi)))):
                    break
            else:  # tolerance not met; the single corrector stops here by design
                failed += corrections == "converge"
            most_corrections = max(most_corrections, count)
            worst_gap = max(worst_gap, gap)
        values[i] = xi
        norms[i] = np.linalg.norm(xi)
        g[i] = f_at(i, xi)
        k = impulse_at.get(i)
        if k is not None:
            inc = spec.impulses.apply(k, values[i])
            jsum = jsum + inc
            right_norms[i] = float(np.linalg.norm(values[i] + inc))

    return SolveReport(
        trajectory=_final_trajectory(spec, mesh, values),
        iterations=most_corrections,
        final_residual=worst_gap,
        converged=failed == 0,
        scheme=scheme,
        method="marching",
        residual_history=(),
    )


def jump_residual(traj: Trajectory, spec: ProblemSpec) -> float:
    """max_k | right_k - left_k - I_k(left_k) |, zero without impulses."""
    worst = 0.0
    for k in range(len(spec.impulses)):
        left = traj.left_limit(k)
        gap = traj.right_limit(k) - left - spec.impulses.apply(k, left)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def split_component_integral(
    spec: ProblemSpec,
    traj: Trajectory,
    scheme: str = "trapezoid",
    component: int = 2,
    table: WeightTable | None = None,
) -> np.ndarray:
    """Fractional integral of one part of a split RHS along a trajectory.

    Returns the (N+1, d) array of (I^alpha f_component)(t_j) using the
    trajectory's left-limit node values.  Needed to observe the
    equicontinuity modulus of the compact part in isolation.
    """
    if spec.rhs.kind != "split":
        raise ProblemError("split_component_integral needs a split-kind rhs")
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    f = spec.rhs.f1 if component == 1 else spec.rhs.f2
    if table is None:
        table = build_weights(traj.mesh, spec.alpha, scheme)
    nodes = traj.mesh.nodes
    g = np.empty_like(traj.values)
    for i in range(nodes.size):
        g[i] = np.atleast_1d(np.asarray(f(float(nodes[i]), traj.values[i]), dtype=float))
    return frac_integral(table, g)
