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
report then says so (converged=False).

Both solvers touch the weights only through WeightTable.apply, row and
diag, and sample f through one sampler: a Picard sweep samples every
node in one batch (one call of a vectorized RHS, see RhsSpec), and
marching samples batches of one node.  A per-node callable costs its
call plus a fraction of a microsecond per node: the outputs of a batch
are collected and assembled into one preallocated array 1024 nodes at
a time, so a sweep holds one chunk of Python outputs, not one per node.

Lags and window sups come from one delay grid (_DelayData): a sweep
stores its iterate and reads all windows with an O(N) sliding max;
marching reads node i's window before solving for it and folds |x| in.

Right limits of a returned trajectory are rebuilt from the final left
limits, so right - left = I_k(left) holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fracquad import build_weights, frac_integral
from .problem import (
    Mesh,
    ProblemError,
    ProblemSpec,
    SolverError,
    Trajectory,
    _history_values,
    _sample,
)

__all__ = [
    "SolverError",
    "SolveReport",
    "solve_picard",
    "solve_marching",
    "jump_residual",
    "split_component_integral",
]

METHODS = ("picard", "marching")  # solve_picard and solve_marching

# The trapezoid marching corrector stops once its update is at most
# CORRECTOR_TOL relative to the node value, or after MAX_CORRECTIONS steps.
CORRECTOR_TOL = 1e-13
MAX_CORRECTIONS = 60


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
    unconverged_nodes: int = 0


def _sliding_max(a: np.ndarray, width: int) -> np.ndarray:
    """out[k] = max(a[k : k + width]) for each full window of a, in O(len(a)).

    van Herk / Gil-Werman: pad the tail with -inf, cut into blocks of
    width, and combine each block's suffix max at k with the next
    block's prefix max at k + width - 1.
    """
    n = a.size - width + 1
    blocks = -(-a.size // width)
    padded = np.full(blocks * width, -np.inf)
    padded[: a.size] = a
    cut = padded.reshape(blocks, width)
    prefix = np.maximum.accumulate(cut, axis=1).ravel()
    suffix = np.maximum.accumulate(cut[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:n], prefix[width - 1 : width - 1 + n])


class _DelayData:
    """Delay grid: rows 0 .. q-1 hold the history at -q h .. -h (sampled like
    the RHS), row q + j node j once stored; norms holds |row|, 0 until then.
    Node j's lag x(t_j - r) is row j, and its window [t_j - r, t_j] rows j .. j + q."""

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        delay = spec.delay
        q = mesh.delay_steps
        if q is None:
            raise SolverError("delay problem requires a mesh built with the delay")
        self.q = q
        h = delay.r / q

        # sampled from t = 0 down, so an error names the failure nearest 0
        phi = _history_values(delay, -np.arange(q + 1) * h, spec.dim)
        self.rows = np.zeros((q + mesh.n_nodes, spec.dim))
        self.norms = np.zeros(q + mesh.n_nodes)
        self.rows[:q] = phi[q:0:-1]
        self.norms[:q] = np.linalg.norm(self.rows[:q], axis=-1)
        # knots join the windows of nodes i < q, which reach below t = 0:
        # a suffix max over the knots at or right of the window's left end
        knots = np.array(sorted(s for s in delay.sample_times if s < 0.0))
        self.knot_sups = None
        if knots.size:
            knot_norms = np.linalg.norm(_history_values(delay, knots, spec.dim), axis=-1)
            first = np.searchsorted(knots, (np.arange(min(q, mesh.n_nodes)) - q) * h - 1e-12)
            suffix = np.maximum.accumulate(knot_norms[::-1])[::-1]
            self.knot_sups = np.append(suffix, -np.inf)[first]

    def store(self, start: int, x: np.ndarray) -> None:
        """Write the (n, d) rows of nodes start .. start + n - 1 and their norms."""
        at = slice(self.q + start, self.q + start + len(x))
        self.rows[at] = x
        self.norms[at] = np.linalg.norm(x, axis=-1)

    def window(self, start: int, stop: int, right_norms: np.ndarray):
        """Lags (n, d) and window sups (n,) of nodes start .. stop - 1.

        Node j's sup is the max of norms[j : j + q + 1] (impulse nodes by
        their left limits), of the declared knots when j < q, and of
        right_norms[j - q], the (N,) right-limit norms, 0 off impulse nodes.
        """
        q = self.q
        span = self.norms[start : stop + q]
        sups = span.max(keepdims=True) if stop - start == 1 else _sliding_max(span, q + 1)
        if start < q and self.knot_sups is not None:
            k = min(stop, q) - start
            sups[:k] = np.maximum(sups[:k], self.knot_sups[start : start + k])
        lo = max(start, q)
        if lo < stop:
            sups[lo - start :] = np.maximum(sups[lo - start :], right_norms[lo - q : stop - q])
        return self.rows[start:stop], sups


class _Sampler:
    """f at a run of consecutive nodes, as an (n, d) array; a delay RHS
    also takes the lags and window sups read from the grid in delay.

    Sampling goes through _sample, the rule the history grid and the
    jump maps share.  A vectorized RHS is called once per run.  A
    per-node callable is called once per node, in order; the outputs of
    each chunk of 1024 nodes are collected in a list and written into
    the preallocated (n, d) array by one np.array call (_assemble), so a
    node costs the call plus a fraction of a microsecond and the
    transient memory is one chunk of outputs.  Shapes are checked once
    per chunk (per run when vectorized), finiteness once per run.
    Errors name the first offending node: for a per-node callable by
    walking the outputs already made, which calls f no second time; for
    a vectorized RHS by re-scanning the run node by node, on the error
    path only.  parts are the callables whose sum is f (f1 and f2 for
    the split kind).
    """

    def __init__(self, spec: ProblemSpec, mesh: Mesh, parts: tuple | None = None):
        rhs = spec.rhs
        if parts is None:
            parts = (rhs.f1, rhs.f2) if rhs.kind == "split" else (rhs.f,)
        self.parts = parts
        self.vectorized = rhs.vectorized
        if self.vectorized:
            self.f = self._call_parts
        else:
            self.f = parts[0] if len(parts) == 1 else self._split_sum
        self.dim = spec.dim
        self.times = mesh.nodes
        self.delay = _DelayData(spec, mesh) if spec.delay is not None else None

    def sweep(self, values: np.ndarray, right_norms: np.ndarray) -> np.ndarray:
        """f along a whole iterate, stored on the delay grid and read at once."""
        dd = self.delay
        if dd is None:
            return self(0, values)
        dd.store(0, values)
        return self(0, values, *dd.window(0, values.shape[0], right_norms))

    def __call__(self, start: int, x, x_lag=None, sups=None) -> np.ndarray:
        """f at nodes start .. start + n - 1 from (n, d) x and x_lag, (n,) sups."""
        t = self.times[start : start + x.shape[0]]
        args = (t, x) if x_lag is None else (t, x, x_lag, sups)
        return _sample(self.f, self.vectorized, args, self.dim, "rhs", self._nodes_from(start))

    def _nodes_from(self, start: int):
        """where(i) for _sample: the label of node start + i."""
        return lambda i: f"node {start + i} (t={float(self.times[start + i])!r})"

    def _split_sum(self, *row):
        f1, f2 = self.parts
        return np.atleast_1d(np.asarray(f1(*row), dtype=float)) + np.atleast_1d(
            np.asarray(f2(*row), dtype=float)
        )

    def _call_parts(self, *args) -> np.ndarray:
        g = None
        for f in self.parts:
            out = np.asarray(f(*args), dtype=float)
            if out.ndim == 1 and self.dim == 1:
                out = out[:, None]
            g = out if g is None else g + out
        return g


def _increments(spec: ProblemSpec, mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """I_k at the left limits values[t_k], one row per impulse: (m, d)."""
    incs = np.zeros((len(mesh.impulse_idx), values.shape[1]))
    for k, idx in enumerate(mesh.impulse_idx):
        incs[k] = spec.impulses.apply(k, values[idx])
    return incs


def _initial_iterate(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Constant x0 with the declared jumps applied once, in order."""
    values = np.tile(spec.x0, (mesh.n_nodes, 1))
    for k, idx in enumerate(mesh.impulse_idx):
        inc = spec.impulses.apply(k, values[idx])
        values[idx + 1 :] += inc
    return values


def _final_trajectory(spec: ProblemSpec, mesh: Mesh, values: np.ndarray) -> Trajectory:
    rights = values[list(mesh.impulse_idx)] + _increments(spec, mesh, values)
    return Trajectory(mesh=mesh, values=values, right_values=rights)


def solve_picard(
    spec: ProblemSpec,
    mesh: Mesh,
    scheme: str = "trapezoid",
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolveReport:
    """Whole-mesh fixed-point iteration of the integral operator.

    Stops when the sup-norm distance between consecutive iterates is at
    most tol; converged=False after max_iter sweeps otherwise.  Raises
    SolverError when that distance overflows (a diverging iterate).
    """
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    table = build_weights(mesh, spec.alpha, scheme)
    sampler = _Sampler(spec, mesh)

    values = _initial_iterate(spec, mesh)
    history: list[float] = []
    converged = False
    iterations = 0
    residual = math.inf
    impulse_idx = np.array(mesh.impulse_idx, dtype=int)
    right_norms = np.zeros(mesh.n_nodes)
    for _ in range(max_iter):
        incs = _increments(spec, mesh, values)
        steps = np.zeros_like(values)  # the jump sum is their running total
        steps[impulse_idx + 1] = incs
        right_norms[impulse_idx] = np.linalg.norm(values[impulse_idx] + incs, axis=-1)
        g = sampler.sweep(values, right_norms)
        new = spec.x0[None, :] + np.cumsum(steps, axis=0) + table.apply(g)
        try:
            with np.errstate(over="raise"):
                residual = float(np.max(np.linalg.norm(new - values, axis=-1)))
        except FloatingPointError as e:  # the squares pass ~1e308
            raise SolverError(
                f"the iterate diverged at sweep {iterations + 1}: residual overflow ({e})"
            ) from e
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


def solve_marching(spec: ProblemSpec, mesh: Mesh, scheme: str = "trapezoid") -> SolveReport:
    """One-pass time stepping, left to right.

    rectangle is explicit.  trapezoid predicts each node with the
    rectangle row and then fixed-point iterates the diagonal corrector
    until the update is below CORRECTOR_TOL (relative).

    The report gives the largest corrector iteration count over the
    nodes as iterations and the largest final corrector update as
    final_residual; unconverged_nodes counts the nodes that used up
    MAX_CORRECTIONS without meeting CORRECTOR_TOL, and converged is
    False when there is one.
    """
    table = build_weights(mesh, spec.alpha, scheme)
    rect = (
        table
        if scheme == "rectangle"
        else build_weights(mesh, spec.alpha, "rectangle")
    )
    sampler = _Sampler(spec, mesh)
    dd = sampler.delay
    impulse_at = {idx: k for k, idx in enumerate(mesh.impulse_idx)}

    n = mesh.n_nodes
    d = spec.dim
    values = np.tile(spec.x0, (n, 1))
    g = np.zeros((n, d))
    jsum = np.zeros(d)
    right_norms = np.zeros(n)
    wdiag = table.diag()
    most_corrections = 0
    worst_gap = 0.0
    failed = 0

    def f_at(i: int, x: np.ndarray) -> np.ndarray:
        if dd is None:
            return sampler(i, x[None, :])[0]
        # the window sup with |x| at node i
        sup = max(rest, float(np.linalg.norm(x, axis=-1)))
        return sampler(i, x[None, :], lag, np.array([sup]))[0]

    for i in range(n):
        if dd is not None:  # read while node i's row is empty
            lag, sups = dd.window(i, i + 1, right_norms)
            rest = float(sups[0])
        base = spec.x0 + jsum
        xi = base + rect.row(i)[:i] @ g[:i]  # the rectangle value predicts
        if scheme == "trapezoid":
            known = base + table.row(i)[:i] @ g[:i]
            wjj = wdiag[i]
            for count in range(1, MAX_CORRECTIONS + 1):
                nxt = known + wjj * f_at(i, xi)
                gap = float(np.abs(nxt - xi).max())
                xi = nxt
                if gap <= CORRECTOR_TOL * (1.0 + float(np.abs(xi).max())):
                    break
            else:
                failed += 1
            most_corrections = max(most_corrections, count)
            worst_gap = max(worst_gap, gap)
        values[i] = xi
        g[i] = f_at(i, xi)
        if dd is not None:
            dd.store(i, values[i : i + 1])
        k = impulse_at.get(i)
        if k is not None:
            inc = spec.impulses.apply(k, values[i])
            jsum = jsum + inc
            right_norms[i] = np.linalg.norm(values[i] + inc, axis=-1)

    return SolveReport(
        trajectory=_final_trajectory(spec, mesh, values),
        iterations=most_corrections,
        final_residual=worst_gap,
        converged=failed == 0,
        scheme=scheme,
        method="marching",
        residual_history=(),
        unconverged_nodes=failed,
    )


def jump_residual(traj: Trajectory, spec: ProblemSpec) -> float:
    """max_k | right_k - left_k - I_k(left_k) |, zero without impulses."""
    mesh = traj.mesh
    left = traj.values[list(mesh.impulse_idx)]
    gaps = traj.right_values - left - _increments(spec, mesh, traj.values)
    return float(np.max(np.abs(gaps), initial=0.0))


def split_component_integral(
    spec: ProblemSpec,
    traj: Trajectory,
    scheme: str = "trapezoid",
    component: int = 2,
) -> np.ndarray:
    """Fractional integral of one part of a split RHS along a trajectory.

    Returns the (N+1, d) array of (I^alpha f_component)(t_j) using the
    trajectory's left-limit node values and a weight table of the given
    scheme built on the trajectory's mesh.  Needed to observe the
    equicontinuity modulus of the compact part in isolation.
    """
    if spec.rhs.kind != "split":
        raise ProblemError("split_component_integral needs a split-kind rhs")
    if component not in (1, 2):
        raise ValueError("component must be 1 or 2")
    f = spec.rhs.f1 if component == 1 else spec.rhs.f2
    g = _Sampler(spec, traj.mesh, parts=(f,))(0, traj.values)
    return frac_integral(build_weights(traj.mesh, spec.alpha, scheme), g)
