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
diag, and sample f through one sampler: a Picard sweep samples every
node in one batch (one call of a vectorized RHS, see RhsSpec, with lags
sliced from the iterate and window sups from an O(N) sliding max), and
marching samples batches of one node.

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
    unconverged_nodes: int = 0


def _sliding_max(a: np.ndarray, width: int) -> np.ndarray:
    """out[i] = max(a[max(i - width + 1, 0) : i + 1]) in O(len(a)).

    van Herk / Gil-Werman: pad width - 1 entries of -inf in front, cut
    into blocks of width, and combine each block's suffix max at i with
    the next block's prefix max at i + width - 1.
    """
    n = a.size
    blocks = -(-(n + width - 1) // width)
    padded = np.full(blocks * width, -np.inf)
    padded[width - 1 : width - 1 + n] = a
    cut = padded.reshape(blocks, width)
    prefix = np.maximum.accumulate(cut, axis=1).ravel()
    suffix = np.maximum.accumulate(cut[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(suffix[:n], prefix[width - 1 : width - 1 + n])


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
        # the history part of window_sup at the nodes i < q, whose windows
        # reach below t = 0: a prefix max over the grid values and a
        # suffix max over the knots at or right of the window's left end
        j_hi = np.arange(q, q - min(q, mesh.n_nodes), -1)
        hist = np.maximum.accumulate(self.phi_norms[1:])[j_hi - 1]
        if self.knots.size:
            first = np.searchsorted(self.knots, -j_hi * (self.r / self.q) - 1e-12)
            suffix = np.maximum.accumulate(self.knot_norms[::-1])[::-1]
            hist = np.maximum(hist, np.append(suffix, -np.inf)[first])
        self.hist_sups = hist

    def lagged(self, i: int, values: np.ndarray) -> np.ndarray:
        """x(t_i - r): node value for t_i >= r, history value below."""
        if i >= self.q:
            return values[i - self.q]
        return self.phi_vals[self.q - i]

    def lagged_all(self, values: np.ndarray) -> np.ndarray:
        """lagged(i, values) for every node, as one (N, d) array."""
        n = values.shape[0]
        below = self.phi_vals[self.q : 0 : -1][:n]
        return np.concatenate([below, values[: max(n - self.q, 0)]])

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

    def window_sups(self, norms: np.ndarray, right_norms: dict[int, float]) -> np.ndarray:
        """window_sup at every node at once, in O(N), bitwise equal."""
        n, q = norms.size, self.q
        sup = _sliding_max(norms, min(q + 1, n))
        k = self.hist_sups.size
        sup[:k] = np.maximum(sup[:k], self.hist_sups)
        for idx, value in right_norms.items():  # right limit at the left endpoint
            if idx + q < n:
                sup[idx + q] = max(sup[idx + q], value)
        return sup


class _Sampler:
    """f at a run of consecutive nodes, as an (n, d) array.

    A vectorized RHS is called once per run; a per-node callable is
    called in a loop that writes straight into a preallocated array.
    Shape and finiteness are checked once per run.  Errors name the
    first offending node; for a vectorized RHS that node is found by
    re-scanning the run node by node, on the error path only.  parts
    are the callables whose sum is f (f1 and f2 for the split kind).
    """

    def __init__(self, spec: ProblemSpec, mesh: Mesh, parts: tuple | None = None):
        rhs = spec.rhs
        if parts is None:
            parts = (rhs.f1, rhs.f2) if rhs.kind == "split" else (rhs.f,)
        self.parts = parts
        self.vectorized = rhs.vectorized
        self.dim = spec.dim
        self.times = mesh.nodes
        self.delay = _DelayData(spec, mesh) if spec.delay is not None else None

    def sweep(self, values: np.ndarray, right_norms: dict[int, float]) -> np.ndarray:
        """f along a whole iterate, with batched lags and window sups."""
        dd = self.delay
        if dd is None:
            return self(0, values)
        norms = np.linalg.norm(values, axis=1)
        return self(0, values, dd.lagged_all(values), dd.window_sups(norms, right_norms))

    def __call__(self, start: int, x, x_lag=None, sups=None) -> np.ndarray:
        """f at nodes start .. start + n - 1 from (n, d) x and x_lag, (n,) sups."""
        t = self.times[start : start + x.shape[0]]
        args = (t, x) if x_lag is None else (t, x, x_lag, sups)
        g = self._batched(start, args) if self.vectorized else self._looped(start, args)
        self._check_finite(start, g)
        return g

    def _node_error(self, i: int, error: Exception) -> SolverError:
        t = float(self.times[i])
        return SolverError(f"rhs evaluation failed at node {i} (t={t!r}): {error}")

    def _check_finite(self, start: int, g: np.ndarray):
        if not np.isfinite(g).all():
            i = start + int(np.argmin(np.isfinite(g).all(axis=1)))
            t = float(self.times[i])
            raise SolverError(f"rhs at node {i} (t={t!r}) returned a non-finite value")

    def _split_sum(self, *row):
        f1, f2 = self.parts
        return np.atleast_1d(np.asarray(f1(*row), dtype=float)) + np.atleast_1d(
            np.asarray(f2(*row), dtype=float)
        )

    def _looped(self, start: int, args: tuple) -> np.ndarray:
        d = self.dim
        g = np.empty((args[0].size, d))
        accepted = ((), (1,)) if d == 1 else ((d,),)
        f = self.parts[0] if len(self.parts) == 1 else self._split_sum
        rows = zip(*(a.tolist() if a.ndim == 1 else a for a in args))
        i = 0
        try:
            for i, row in enumerate(rows):
                out = f(*row)
                if np.shape(out) not in accepted:
                    self._check_finite(start, g[:i])
                    shape = np.atleast_1d(np.asarray(out, dtype=float)).shape
                    raise SolverError(
                        f"rhs at node {start + i} (t={row[0]!r}) returned shape "
                        f"{shape}, expected ({d},)"
                    )
                g[i] = out
        except (ArithmeticError, ValueError) as e:
            self._check_finite(start, g[:i])
            raise self._node_error(start + i, e) from e
        return g

    def _call_parts(self, args: tuple) -> np.ndarray:
        g = None
        for f in self.parts:
            out = np.asarray(f(*args), dtype=float)
            if out.ndim == 1 and self.dim == 1:
                out = out[:, None]
            g = out if g is None else g + out
        return g

    def _batched(self, start: int, args: tuple) -> np.ndarray:
        n = args[0].size
        try:
            g = self._call_parts(args)
        except (ArithmeticError, ValueError) as e:
            for i in range(n):
                try:
                    one = self._call_parts(tuple(a[i : i + 1] for a in args))
                except (ArithmeticError, ValueError) as node_error:
                    raise self._node_error(start + i, node_error) from node_error
                self._check_finite(start + i, one)
            raise SolverError(
                f"rhs evaluation failed on nodes {start}..{start + n - 1}: {e}"
            ) from e
        if g.shape != (n, self.dim):
            raise SolverError(
                f"rhs on nodes {start}..{start + n - 1} returned shape {g.shape}, "
                f"expected ({n}, {self.dim})"
            )
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
    sampler = _Sampler(spec, mesh)

    values = _initial_iterate(spec, mesh)
    history: list[float] = []
    converged = False
    iterations = 0
    residual = math.inf
    for _ in range(max_iter):
        jsum, _, right_norms = _jump_data(spec, mesh, values)
        g = sampler.sweep(values, right_norms)
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
    final_residual; unconverged_nodes counts the nodes that used up
    max_corrections without meeting corrector_tol, and converged is
    False when there is one.
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
    sampler = _Sampler(spec, mesh)
    dd = sampler.delay
    impulse_at = {idx: k for k, idx in enumerate(mesh.impulse_idx)}

    n = mesh.n_nodes
    d = spec.dim
    values = np.tile(spec.x0, (n, 1))
    norms = np.zeros(n)
    g = np.zeros((n, d))
    jsum = np.zeros(d)
    right_norms: dict[int, float] = {}
    wdiag = table.diag()
    most_corrections = 0
    worst_gap = 0.0
    failed = 0

    def f_at(i: int, x: np.ndarray) -> np.ndarray:
        if dd is None:
            return sampler(i, x[None, :])[0]
        sup = max(rest, float(np.linalg.norm(x)))  # window_sup with |x| at node i
        return sampler(i, x[None, :], lag, np.array([sup]))[0]

    for i in range(n):
        if dd is not None:
            lag = dd.lagged(i, values)[None, :]
            norms[i] = 0.0
            rest = dd.window_sup(i, norms, right_norms)
        base = spec.x0 + jsum
        xi = base + rect.row(i)[:i] @ g[:i]  # the rectangle value predicts
        if scheme == "trapezoid":
            known = base + table.row(i)[:i] @ g[:i]
            wjj = wdiag[i]
            limit = 1 if corrections == "single" else max_corrections
            for count in range(1, limit + 1):
                nxt = known + wjj * f_at(i, xi)
                gap = float(np.abs(nxt - xi).max())
                xi = nxt
                if gap <= corrector_tol * (1.0 + float(np.abs(xi).max())):
                    break
            else:  # tolerance not met; the single corrector stops here by design
                failed += corrections == "converge"
            most_corrections = max(most_corrections, count)
            worst_gap = max(worst_gap, gap)
        values[i] = xi
        if dd is not None:
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
        unconverged_nodes=failed,
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
    g = _Sampler(spec, traj.mesh, parts=(f,))(0, traj.values)
    return frac_integral(table, g)
