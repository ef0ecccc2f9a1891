r"""Fixed-point solvers for the impulsive fractional integral equation.

Both solvers discretize

    x(t_j) = x0 + sum_{t_k < t_j} I_k(x(t_k-)) + (I^alpha f)(t_j)

on a problem mesh with a product-integration weight table.

solve_picard iterates the operator: each sweep evaluates it at the
previous iterate (jumps included, frozen at the previous iterate's left
limits) and a solve stops when the sup-norm update falls below tol.  It
sweeps the whole mesh while the observed residual ratios, which
approximate the operator's contraction factor, promise tol within
STALL_SWEEPS more sweeps (_stalls).  Once they do not, it solves the
rest left to right in windows of at most WINDOW nodes (each block of
fracquad.BLOCK nodes that WeightTable.windows yields is solved as its
halves), each swept to tol with the nodes to its left frozen:
restricted to a window of length tau the Volterra operator contracts
roughly like tau^alpha.  A per-node RHS on more than PER_NODE_WINDOWS
nodes starts in windows at the initial iterate and sweeps no whole
mesh: it pays per call, and windows call it about 1.3 times a node
where whole-mesh sweeps call it at least twice.
Every window but the first starts from a predictor, not from the
stalled iterate: the operator applied to samples of f extrapolated by
the cubic in (t - t_p)^alpha through the last solved samples of their
smooth piece, which starts at t_p, 0 or an impulse (the fractional
Adams-Bashforth predictor in the variable of the piece's series); it
costs no call of f.  A window that stalls the same way, or whose update
overflows, is halved, down to one node, where a sweep is marching's
corrector; when a one-node window's update grows three sweeps in a row
or overflows, the solve stops unconverged.

solve_marching computes nodes left to right in one pass.  The
rectangle scheme is fully explicit.  The trapezoid scheme predicts
with the rectangle value and then iterates the diagonal corrector
x -> known + w_jj f(t_j, x) to convergence (the map contracts with
factor w_jj * Lip(f), small for any usable step), so the marching
solution coincides with the Picard fixed point up to tolerances.  When
w_jj * Lip(f) is too large the corrector can fail to converge; the
report then says so (converged=False).  A corrector whose update grows
three iterations in a row stops marching at its node (stop_node), by
the rule that stops a one-node Picard window (_diverges).

Both solvers touch the weights only through WeightTable.apply and
windows (marching node by node, _rows), and sample f through one
sampler: a Picard sweep samples every node of the mesh or of its window
in one batch (one call of a vectorized RHS, see RhsSpec), and marching
samples batches of one node.  A per-node callable costs its
call plus a fraction of a microsecond per node: the outputs of a batch
are collected and assembled into one preallocated array 1024 nodes at
a time, so a sweep holds one chunk of Python outputs, not one per node.

Every sweep, of the mesh, of a window or of one corrector step, takes
its jumps from _Jumps and stores its iterate on one delay grid
(_DelayData) before it reads the lags and window sups of its nodes,
their own |x| included, with an O(N) range max (_Sampler.sweep).  The
delay grid fits any mesh: a lag t - r that is no node is the linear
interpolant of the nodes around it.

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
# Whole-mesh Picard sweeps give way to windows, and a window to its two
# halves, once the observed residual ratio would need more than this many
# further sweeps to reach tol.
STALL_SWEEPS = 64
# A Picard window starts from samples extrapolated by the Lagrange polynomial
# of at most this degree through the solved samples to its left
# (_Windows._extrapolate).
PREDICTOR_DEGREE = 3
# A Picard window stops once its update r <= tol and, at the last update
# ratio rho < 1, r rho / (1 - rho) <= tol / SETTLE (_Windows._window).
SETTLE = 4
# Picard windows hold at most this many nodes: a larger block of
# WeightTable.windows is solved as its halves (_Windows).
WINDOW = 32
# A per-node RHS on more than this many nodes starts Picard in windows at
# the initial iterate (solve_picard).
PER_NODE_WINDOWS = 4096


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
    stop_node: int | None = None  # where a diverging corrector or one-node window stopped the solve


def _norms(x: np.ndarray) -> np.ndarray:
    """|x| along the last axis: bitwise np.linalg.norm(x, axis=-1), without
    its dispatch (one row costs about two thirds as much)."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _residual(new: np.ndarray, old: np.ndarray) -> float:
    """The sup-norm update from old to new; inf once its squares pass ~1e308.
    Bitwise max(_norms(new - old)): sqrt is correctly rounded and monotone,
    so it is taken once, of the largest squared norm."""
    with np.errstate(over="ignore"):
        d = new - old
        d *= d
        if d.shape[1] > 1:
            d = np.add.reduce(d, axis=-1)
    return math.sqrt(np.maximum.reduce(d.ravel()))


def _stalls(history: list[float], tol: float) -> bool:
    """From the second sweep on, of the whole mesh or of one window, whether
    the last residual ratio rho cannot bring the last residual r (> tol) to
    tol within STALL_SWEEPS more sweeps: rho >= 1 or rho^STALL_SWEEPS > tol / r.
    At tol = 0 it holds whatever the data, so the switch does not depend on
    any node."""
    if len(history) < 2:
        return False
    prev, last = history[-2:]
    if tol == 0.0:
        return True
    return STALL_SWEEPS * (math.log(last) - math.log(prev)) > math.log(tol) - math.log(last)


def _diverges(updates: list[float]) -> bool:
    """Whether the last three updates grew in a row: a one-node Picard window,
    or marching's corrector, then stops the solve unconverged."""
    return len(updates) >= 3 and updates[-3] < updates[-2] < updates[-1]


def _range_max(a: np.ndarray, first: np.ndarray) -> np.ndarray:
    """out[k] = max(a[first[k] : m + k + 1]), m = len(a) - len(first), for a
    nondecreasing first with first[k] <= m + k: the maxima of the ranges
    that end at the last len(first) entries of a, in O(len(a) w / v) for
    ranges of widths v .. w.

    van Herk / Gil-Werman: pad the tail with -inf and cut into blocks of
    the narrowest range's width v.  A range is the suffix of first[k]'s
    block, the prefix of its last entry's block and the whole blocks
    between, at most w / v of them, each added in one pass over the
    ranges.  With first[k] = k this is the sliding max of width m + 1.
    """
    n = first.size
    m = a.size - n
    ends = np.arange(m, a.size)
    widths = ends - first
    width = int(widths.min()) + 1
    blocks = -(-a.size // width)
    padded = np.full(blocks * width, -np.inf)
    padded[: a.size] = a
    cut = padded.reshape(blocks, width)
    prefix = np.maximum.accumulate(cut, axis=1).ravel()
    suffix = np.maximum.accumulate(cut[:, ::-1], axis=1)[:, ::-1]
    out = np.maximum(suffix.ravel()[first], prefix[m : a.size])
    if widths.max() > width:
        lo, hi = first // width, ends // width
        for skip in range(1, int(np.max(hi - lo))):  # the whole blocks inside
            inside = lo + skip < hi
            out[inside] = np.maximum(out[inside], suffix[lo[inside] + skip, 0])
    return out


class _DelayData:
    """Delay grid: rows 0 .. p-1 hold the history, in time order, at the lags
    t_i - r < 0 of the nodes below r and at the declared knots below 0
    (sampled like the RHS), row p + i node i once stored; norms holds
    |row|, 0 until then.

    A node below r reads its lag x(t_j - r) from its own row.  Above, it
    reads row p + i when t_j - r is node i (to Mesh.node_index's slack),
    else the linear interpolant of nodes i and i + 1 around it, from node
    i's right limit when node i is an impulse node (Trajectory.evaluate's
    rule).  Node j's window [t_j - r, t_j] holds the rows first[j] .. p + j
    and, for an interpolated lag, the lag itself."""

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        delay, nodes, n = spec.delay, mesh.nodes, mesh.n_nodes
        lags = nodes - delay.r
        slack = 1e-12 * np.maximum(1.0, np.abs(lags))
        at = np.searchsorted(nodes, lags - slack)  # the first node at or right of each lag
        exact = nodes[at] <= lags + slack
        below = int(np.count_nonzero(~exact[at == 0]))  # the nodes whose lag is below 0
        times = np.sort(np.append(lags[:below], [s for s in delay.sample_times if s < 0.0]))
        self.p = p = times.size
        inside = ~exact & (np.arange(n) >= below)  # an interpolated lag, at and above 0
        self.first = np.append(np.searchsorted(times, lags[:below] - 1e-12), p + at[below:])
        self.lag_rows = np.append(np.searchsorted(times, lags[:below]), p + at[below:] - inside[below:])
        # the nodes whose lag starts from a right limit, or lies inside a
        # cell: after numbers the impulse at the lag's row (or is -1), and
        # the lag is (1 - w) times its row, or that impulse's right limit,
        # plus w times the next row (w = 0 on a node)
        impulse = np.full(p + n, -1)
        impulse[p + np.array(mesh.impulse_idx, dtype=int)] = np.arange(len(mesh.impulse_idx))
        after = impulse[self.lag_rows]
        special = inside | (after >= 0)
        self.special, self.count = np.flatnonzero(special), np.cumsum(np.append(0, special))
        self.after, self.moves = after[special], inside[special]
        left = self.lag_rows[special] - p
        w = (lags[special] - nodes[left]) / (nodes[left + 1] - nodes[left])
        self.w = np.where(self.moves, w, 0.0)[:, None]

        # sampled from t = 0 down, so an error names the failure nearest 0
        phi = _history_values(delay, np.append(0.0, times[::-1]), spec.dim)
        self.rows = np.zeros((p + n, spec.dim))
        self.norms = np.zeros(p + n)
        self.store(-p, phi[p:0:-1])  # the history rows

    def store(self, start: int, x: np.ndarray) -> None:
        """Write the (n, d) rows of nodes start .. start + n - 1 and their norms;
        a norm past ~1e154 is inf, which fails the RHS sample that reads it."""
        at = slice(self.p + start, self.p + start + len(x))
        self.rows[at] = x
        with np.errstate(over="ignore"):
            self.norms[at] = _norms(x)

    def window(self, start: int, stop: int, jumps: _Jumps):
        """Lags (n, d) and window sups (n,) of nodes start .. stop - 1.

        Node j's sup is the max of norms[first[j] : p + j + 1] (impulse
        nodes by their left limits, knots in the window included), of the
        right limit jumps.rights[k] when its lag is impulse k's node, and
        of |lag| when the lag is interpolated.  Declared knots widen the
        windows below r, so K knots cost _range_max K / q more passes.
        """
        p, first = self.p, self.first
        span = self.norms[first[start] : p + stop]
        if stop - start == 1:
            sups = span.max(keepdims=True)
        else:
            sups = _range_max(span, first[start:stop] - first[start])
        lags = self.rows[self.lag_rows[start:stop]]
        a, b = self.count[start], self.count[stop]
        if a < b:
            at = self.special[a:b]
            left = lags[at - start]
            after = self.after[a:b]
            left[after >= 0] = jumps.rights[after[after >= 0]]
            with np.errstate(over="ignore"):
                lag = (1.0 - self.w[a:b]) * left + self.w[a:b] * self.rows[self.first[at]]
                sups[at - start] = np.maximum(sups[at - start], _norms(lag))
            moves = self.moves[a:b]
            lags[at[moves] - start] = lag[moves]
        return lags, sups


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

    def sweep(self, start: int, x: np.ndarray, jumps: _Jumps) -> np.ndarray:
        """f at nodes start .. start + n - 1 from the (n, d) iterate x, which
        a delay RHS stores on the delay grid before it reads the lags and
        window sups of those nodes, their own |x| included, with the right
        limits of jumps."""
        dd = self.delay
        if dd is None:
            return self(start, x)
        dd.store(start, x)
        return self(start, x, *dd.window(start, start + x.shape[0], jumps))

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


class _Jumps:
    """The increments I_k at an iterate's left limits as of the last update
    of their nodes (0 before), and the right limits left + I_k that delay
    lags and sups read.  reach[j], for j = 0 .. N + 1, counts the impulses
    left of node j, and node j's offset is levels[reach[j]]: x0 plus the
    prefix sum of the increments of those impulses."""

    def __init__(self, spec: ProblemSpec, mesh: Mesh):
        self.spec, self.idx = spec, mesh.impulse_idx
        self.incs = np.zeros((len(self.idx), spec.dim))
        self.rights = np.zeros_like(self.incs)
        self.levels = spec.x0 + np.zeros((len(self.idx) + 1, spec.dim))
        self.reach = np.searchsorted(np.array(self.idx, dtype=int), np.arange(mesh.n_nodes + 1))

    def update(self, values: np.ndarray, lo: int, hi: int) -> None:
        """Recompute the jumps of the impulses at nodes lo .. hi - 1 from values."""
        first, stop = self.reach[lo], self.reach[hi]
        if first == stop:
            return
        for k in range(first, stop):
            idx = self.idx[k]
            self.incs[k] = self.spec.impulses.apply(k, values[idx])
            self.rights[k] = values[idx] + self.incs[k]
        self.levels[1:] = self.spec.x0 + np.cumsum(self.incs, axis=0)

    def offsets(self, lo: int, hi: int) -> np.ndarray:
        """x0 plus the jumps that reach nodes lo .. hi - 1, as an (n, d) array."""
        return self.levels[self.reach[lo:hi]]


def _rows(table, g: np.ndarray):
    """(j, history, w_jj) for the rows j = 1 .. N of W @ g in order, from
    table.windows: history is row j's product with g[:j] and w_jj its
    diagonal weight.  The caller writes g[j] before it asks for row j + 1."""
    for lo, base, near in table.windows(g):
        for k in range(base.shape[0]):
            yield lo + k, base[k] + near[k, :k] @ g[lo : lo + k], near[k, k]


def _initial_iterate(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Constant x0 with the declared jumps applied once, in order."""
    values = np.tile(spec.x0, (mesh.n_nodes, 1))
    for k, idx in enumerate(mesh.impulse_idx):
        inc = spec.impulses.apply(k, values[idx])
        values[idx + 1 :] += inc
    return values


def _final_trajectory(spec: ProblemSpec, mesh: Mesh, values: np.ndarray) -> Trajectory:
    jumps = _Jumps(spec, mesh)
    jumps.update(values, 0, mesh.n_nodes)
    return Trajectory(mesh=mesh, values=values, right_values=jumps.rights)


def _sweeps(spec, mesh, table, sampler, tol: float, max_iter: int):
    """Whole-mesh sweeps from the initial iterate until the update is at
    most tol, max_iter sweeps are done or they stall (_stalls): the last
    iterate and its samples, the updates and whether they stalled.
    Raises SolverError when an update overflows (a diverging iterate)."""
    values = _initial_iterate(spec, mesh)
    history: list[float] = []
    jumps = _Jumps(spec, mesh)
    while True:
        jumps.update(values, 0, mesh.n_nodes)
        g = sampler.sweep(0, values, jumps)
        new = jumps.offsets(0, mesh.n_nodes) + table.apply(g)
        residual = _residual(new, values)
        if residual == math.inf:
            raise SolverError(f"the iterate diverged at sweep {len(history) + 1}: residual overflow")
        history.append(residual)
        values = new
        stalled = residual > tol and _stalls(history, tol)
        if stalled or residual <= tol or len(history) == max_iter:
            return values, g, history, stalled


def solve_picard(
    spec: ProblemSpec,
    mesh: Mesh,
    scheme: str = "trapezoid",
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolveReport:
    """Fixed-point iteration of the integral operator: whole-mesh sweeps
    until they stall (_stalls), then windows of nodes left to right.  A
    per-node RHS (not spec.rhs.vectorized) on more than PER_NODE_WINDOWS
    nodes starts in windows at the initial iterate.

    Stops when every node's update between consecutive iterates is at
    most tol in the sup norm, and a window's updates also bound its
    distance to its own fixed point by tol / SETTLE; converged=False
    once some node has had max_iter sweeps with an update over tol.
    iterations is the most sweeps any node had, residual_history holds
    the largest update at each sweep index (whole-mesh sweeps, then
    window sweeps) and final_residual the largest last update.  A
    one-node window whose update grows three sweeps in a row, or
    overflows, ends the solve there, unconverged, with its node as
    stop_node.
    Raises SolverError when a whole-mesh update overflows (a diverging
    iterate).
    """
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    table = build_weights(mesh, spec.alpha, scheme)
    sampler = _Sampler(spec, mesh)
    # a per-node RHS pays per node: windows call it about 1.3 times a node,
    # whole-mesh sweeps at least twice; a vectorized one pays per batch
    if not spec.rhs.vectorized and mesh.n_nodes > PER_NODE_WINDOWS:
        values, history, stalled = _initial_iterate(spec, mesh), [], True
        g = np.zeros_like(values)  # node 0's sample; the windows sample the rest
        g[0] = sampler.sweep(0, values[:1], _Jumps(spec, mesh))[0]
    else:
        values, g, history, stalled = _sweeps(spec, mesh, table, sampler, tol, max_iter)
    stop_node = None
    if stalled and len(history) < max_iter:
        windows = _Windows(spec, mesh, sampler, values, g, tol)
        residual = windows.solve(table, max_iter - len(history))
        history += windows.history
        stop_node = windows.stop_node
    else:
        residual = history[-1]

    return SolveReport(
        trajectory=_final_trajectory(spec, mesh, values),
        iterations=len(history),
        final_residual=residual,
        converged=residual <= tol,
        scheme=scheme,
        method="picard",
        residual_history=tuple(history),
        stop_node=stop_node,
    )


def _lagrange(ts: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The Lagrange bases through the distinct points ts (..., p), evaluated
    at t (..., n), over any leading axes: basis[..., k, i] is the product
    over j != i of t[k] - ts[j], divided by the product of ts[i] - ts[j]."""
    p = ts.shape[-1]
    others = (np.arange(p)[:, None] + np.arange(1, p)) % p  # row i: every j != i
    num = np.multiply.reduce((t[..., :, None] - ts[..., None, :])[..., others], axis=-1)
    den = np.multiply.reduce(ts[..., :, None] - ts[..., others], axis=-1)
    return num / den[..., None, :]


class _Diverging(Exception):
    """A one-node window's update grew over three sweeps in a row or
    overflowed: marching's corrector diverges there."""


class _Windows:
    """The rest of a Picard solve, window by window from the left.

    table.windows gives each block of at most BLOCK nodes with the
    product of the frozen nodes to its left (base) and its own (n, n)
    block of weights (near); a block of more than WINDOW nodes is solved
    as its two halves, the right one with base + near @ g over the
    finished left one.  A sweep samples f at the window's current values
    (_Sampler.sweep) and sets them to offsets + base + near @ g, where
    offsets are x0 plus the jumps that reach the window (_Jumps):
    impulses to the left enter at their final values, impulses inside at
    the window's current values, as in a whole-mesh sweep, so only a
    window that holds an impulse recomputes them each sweep.
    Before its first sweep a window, except the first one at node 1,
    takes offsets + base + near @ g_hat, where g_hat extrapolates the
    samples of its smooth piece (_extrapolate); this costs no call of f.
    A window stops once its update is at most tol and, by the ratio of
    its last two updates, it lies within tol / SETTLE of its fixed point.
    A window whose own sweeps stall (_stalls), or whose update overflows,
    is solved again as its two halves, each predicted again (the right
    one off the finished left one), down to one node, where a sweep is
    marching's corrector.  A one-node window whose update grows three
    sweeps in a row (_diverges) or overflows stops the solve (_Diverging).
    """

    def __init__(self, spec, mesh, sampler, values, g, tol):
        self.mesh, self.sampler, self.values, self.tol = mesh, sampler, values, tol
        self.alpha = spec.alpha
        self.g = g.copy()  # node 0's sample stays; every other row is resampled
        self.jumps = _Jumps(spec, mesh)
        self.history: list[float] = []  # the largest update at each window sweep
        self.worst = 0.0  # the largest last update of a window
        self.stop_node = None  # the one-node window that diverged
        self.bases: dict[int, np.ndarray] = {}  # _extrapolate's, of full windows by lo

    def solve(self, table, budget: int) -> float:
        """Sweep every window to tol within budget sweeps a node; the largest last update."""
        try:
            for lo, base, near in table.windows(self.g):
                self._window(lo, base, near, budget, 0)
        except _Diverging:
            pass
        return self.worst

    def _window(self, lo: int, base, near, budget: int, done: int) -> int:
        """Sweep nodes lo .. lo + n - 1, which have had done window sweeps,
        to tol in at most budget sweeps; the sweeps a node had here."""
        hi = lo + base.shape[0]
        values, g, jumps, history = self.values, self.g, self.jumps, self.history
        hist: list[float] = []
        halve = hi - lo > WINDOW
        if not halve:
            inside = jumps.reach[hi] > jumps.reach[lo]
            known = jumps.offsets(lo, hi) + base
            if lo > 1 or done:  # the first window keeps the whole-mesh iterate
                values[lo:hi] = known + near @ self._extrapolate(lo, hi)
        while not halve and len(hist) < budget:
            if inside:
                jumps.update(values, lo, hi)
                known = jumps.offsets(lo, hi) + base
            x = values[lo:hi]
            g[lo:hi] = self.sampler.sweep(lo, x, jumps)
            new = known + near @ g[lo:hi]
            residual = _residual(new, x)
            hist.append(residual)
            sweep = done + len(hist) - 1
            if sweep < len(history):
                history[sweep] = max(history[sweep], residual)
            else:
                history.append(residual)
            values[lo:hi] = new
            rho = residual / hist[-2] if len(hist) > 1 else 0.0
            if residual <= self.tol and (rho >= 1.0 or SETTLE * residual * rho <= self.tol * (1.0 - rho)):
                break  # settled: its error is frozen into every window to its right
            if hi - lo == 1:
                if residual == math.inf or _diverges(hist):
                    self.worst = max(self.worst, residual)
                    self.stop_node = lo
                    raise _Diverging
            else:
                halve = len(hist) < budget and (residual == math.inf or _stalls(hist, self.tol))
        if halve:
            h = (hi - lo) // 2
            left = self._window(lo, base[:h], near[:h, :h], budget - len(hist), done + len(hist))
            base = base[h:] + near[h:, :h] @ g[lo : lo + h]
            right = self._window(lo + h, base, near[h:, h:], budget - len(hist), done + len(hist))
            return len(hist) + max(left, right)
        if inside:
            jumps.update(values, lo, hi)  # at the final values, for the windows to the right
        self.worst = max(self.worst, residual)
        return len(hist)

    def _extrapolate(self, lo: int, hi: int) -> np.ndarray:
        """Samples at nodes lo .. hi-1 from the Lagrange polynomial in
        s = (t - t_p)^alpha through the last PREDICTOR_DEGREE + 1 solved
        samples of the smooth piece of node lo, which starts at t_p: node 0,
        or the last impulse left of lo, whose own sample is a left limit and
        belongs to the piece before; g[lo - 1] as a constant when the piece
        has no solved sample.  On each piece the solution and its samples of
        f are series in s (Lubich 1986); the targets past an impulse inside
        the window keep lo's s, so no prediction reads a later impulse.

        A full window, of WINDOW nodes with PREDICTOR_DEGREE + 1 samples,
        that finds no basis builds the bases of every window of WINDOW
        nodes from it to the end of its piece in one call, so a piece's
        full windows share one call; any other window builds its own."""
        mesh, piece = self.mesh, self.jumps.reach[lo]
        start = mesh.impulse_idx[piece - 1] + 1 if piece else 0
        t_p = mesh.nodes[max(start - 1, 0)]
        first = min(max(start, lo - 1 - PREDICTOR_DEGREE), lo - 1)
        full = hi - lo == WINDOW and lo - first == PREDICTOR_DEGREE + 1
        if full and lo not in self.bases:  # the piece's full windows from lo on
            stop = min(mesh.boundary_idx[piece + 1] + 1, mesh.n_nodes - WINDOW + 1)
            los = np.arange(lo, stop, WINDOW)
            s = (mesh.nodes[los[:, None] + np.arange(first - lo, WINDOW)] - t_p) ** self.alpha
            self.bases.update(zip(los.tolist(), _lagrange(s[:, : lo - first], s[:, lo - first :])))
        if full:
            basis = self.bases[lo]
        else:  # a half, a shorter window or one near the piece's start
            s = (mesh.nodes[first:hi] - t_p) ** self.alpha
            basis = _lagrange(s[: lo - first], s[lo - first :])
        return basis @ self.g[first:lo]


def solve_marching(spec: ProblemSpec, mesh: Mesh, scheme: str = "trapezoid") -> SolveReport:
    """One-pass time stepping, left to right.

    rectangle is explicit.  trapezoid predicts each node with the
    rectangle row and then fixed-point iterates the diagonal corrector
    until the update is below CORRECTOR_TOL (relative).

    The report gives the largest corrector iteration count over the
    nodes as iterations and the largest final corrector update as
    final_residual; unconverged_nodes counts the nodes that used up
    MAX_CORRECTIONS without meeting CORRECTOR_TOL, and converged is
    False when there is one.  A corrector whose update grows three
    iterations in a row stops marching: its node counts as unconverged
    and is the report's stop_node, and the nodes to its right keep x0.
    """
    table = build_weights(mesh, spec.alpha, scheme)
    sampler = _Sampler(spec, mesh)
    jumps = _Jumps(spec, mesh)
    values = np.tile(spec.x0, (mesh.n_nodes, 1))
    g = np.zeros_like(values)
    g[0] = sampler.sweep(0, values[:1], jumps)[0]
    predictions = None
    if scheme == "trapezoid":  # the rectangle value predicts the corrector
        predictions = _rows(build_weights(mesh, spec.alpha, "rectangle"), g)
    most_corrections = 0
    worst_gap = 0.0
    failed = 0
    stop_node = None

    for j, history, wjj in _rows(table, g):
        offset = jumps.offsets(j, j + 1)[0]
        x = offset + history
        if predictions is not None:
            known, x = x, offset + next(predictions)[1]
            gaps: list[float] = []
            for count in range(1, MAX_CORRECTIONS + 1):
                nxt = known + wjj * sampler.sweep(j, x[None, :], jumps)[0]
                gaps.append(float(np.abs(nxt - x).max()))
                x = nxt
                met = gaps[-1] <= CORRECTOR_TOL * (1.0 + float(np.abs(x).max()))
                if met or _diverges(gaps):
                    break
            failed += not met
            most_corrections = max(most_corrections, count)
            worst_gap = max(worst_gap, gaps[-1])
            if not met and _diverges(gaps):
                stop_node = j
        values[j] = x
        if stop_node is not None:
            break  # the nodes to the right keep x0
        g[j] = sampler.sweep(j, values[j : j + 1], jumps)[0]
        jumps.update(values, j, j + 1)

    return SolveReport(
        trajectory=_final_trajectory(spec, mesh, values),
        iterations=most_corrections,
        final_residual=worst_gap,
        converged=failed == 0,
        scheme=scheme,
        method="marching",
        residual_history=(),
        unconverged_nodes=failed,
        stop_node=stop_node,
    )


def jump_residual(traj: Trajectory, spec: ProblemSpec) -> float:
    """max_k | right_k - left_k - I_k(left_k) |, zero without impulses."""
    mesh = traj.mesh
    jumps = _Jumps(spec, mesh)
    jumps.update(traj.values, 0, mesh.n_nodes)
    left = traj.values[list(mesh.impulse_idx)]
    gaps = traj.right_values - left - jumps.incs
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
