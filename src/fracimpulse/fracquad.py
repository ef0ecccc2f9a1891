r"""Product-integration weights for the fractional integral.

For mesh nodes 0 = t_0 < ... < t_N and order alpha in (0,1), row j of a
weight table discretizes

    (I^alpha g)(t_j) = (1/gamma(alpha)) int_0^{t_j} (t_j - s)^(alpha-1) g(s) ds

as sum_i w[j,i] * g(t_i).  Two schemes:

  rectangle   g frozen at each cell's left endpoint; cell [t_i, t_{i+1}]
              contributes ((t_j-t_i)^a - (t_j-t_{i+1})^a)/gamma(a+1) to
              column i.  Fully explicit (w[j,j] = 0).

  trapezoid   g replaced by its piecewise-linear interpolant; the cell
              integrals of the two hat functions against the kernel have
              closed forms in the node differences A = t_j - t_i,
              B = t_j - t_{i+1}:

                  left  = [ (A^{a+1}-B^{a+1})/(a+1) - B(A^a-B^a)/a ] / (h_i gamma(a))
                  right = [ A(A^a-B^a)/a - (A^{a+1}-B^{a+1})/(a+1) ] / (h_i gamma(a))

All weights are nonnegative (each is the integral of a nonnegative
function), rows sum to t_j^alpha / gamma(alpha+1) exactly for both
schemes, and the trapezoid rule is exact on linear integrands.  The
differences A^a - B^a are evaluated via expm1/log1p so row sums hold to
1e-12 relative even on fine meshes.

build_weights does not store the (N+1)^2 table.  Consecutive mesh
segments whose steps agree to a few ulps form a run (the node values
of one segment already deviate from k h by that much; 0.3/615 and
0.4/820, say, differ in the last bit).  Inside a run of step
h a cell's weights depend only on the node distance k = j - i, so the
run's diagonal block is the lower-triangular Toeplitz matrix of a
generator a[k], evaluated in closed form at A = k h, B = (k-1) h.  The
one exception is the run's first column, where the trapezoid hat has
only its right cell inside the run; a correction vector holds it (the
rectangle scheme needs none).  The weights of a run's rows on the cells
of earlier runs (cross-blocks) are generated densely from the nodes, so
they cost memory only on meshes whose segments have different steps.
A single-step mesh therefore needs O(N) weights.

WeightTable.apply writes row r = 1 .. m-1 of a run of m nodes as
a[0] g[r] plus row r-1 of the lower-triangular Toeplitz product with
generator a[1:] over the columns 0 .. m-2, so its index space holds the
m-1 rows and is padded to pad = BLOCK * 2^K >= m-1 (a run of 2^k + 1
nodes fits pad 2^k).  It multiplies that product by causal dyadic
blocking (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6,
1985): dense BLOCK x BLOCK lower triangles on the diagonal, only as
many as hold a row, and for each level b = BLOCK * 2^l < pad the square
blocks rows [(2q+1)b, (2q+2)b) x columns [2qb, (2q+1)b).  These share
their entries a[2 .. 2b] for every q, so one cached spectrum per level
applies all of them as FFT convolutions.  A run stores a[0 .. pad].
The layout depends only on the node index within the run, the spectra
come from the generator evaluated past N rather than from zero padding,
and every product has a shape that does not depend on N.  Node j
therefore reads only g[0..j], through the same arithmetic whatever N
is.  WeightTable.dense() builds the full table row by row from the
nodes; it is the reference the tests compare against.

WeightTable.windows is the same product online, for a solver that
finishes g left to right a row block of BLOCK nodes at a time.  It
yields each block with its rows' products with the final columns to its
left and its (BLOCK, BLOCK) lower-triangular Toeplitz block of gen.  A
run's cross-block and first-column terms enter when the run starts; a
far block of level b, rows [(2q+1)b, (2q+2)b) x columns [2qb, (2q+1)b),
is added with its cached spectrum as soon as column (2q+1)b - 1 is
final, which is before its first row is solved.  No weight is stored
beyond apply's.  A Picard window sweeps a block at once; marching reads
the block's row k as base[k] + near[k, :k] @ g[lo : lo + k] and its
diagonal weight near[k, k] once g[lo + k - 1] is final.  apply and
windows are the table's only products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprlang import Expr, compile_expr, monomial
from .problem import Mesh, MeshError
from .special import _pow_diff, gamma

__all__ = [
    "SCHEMES",
    "WEIGHT_BYTES_BUDGET",
    "WeightTable",
    "build_weights",
    "frac_integral",
    "power_integral",
    "OrderStudy",
    "convergence_order",
    "fit_order",
]

SCHEMES = ("rectangle", "trapezoid")

# Order of the dense diagonal blocks; far blocks are BLOCK * 2^l square.
BLOCK = 64
# Cross-blocks are multiplied in stacks of this many rows, so that the
# product shape, and with it the arithmetic of each row, does not depend
# on how many rows the run has.
CROSS_ROWS = 16
# Segment steps this many ulps apart share a run: a segment's linspace
# nodes already differ from k*h by that much.
STEP_ULPS = 4
# Largest weight storage build_weights or WeightTable.dense() allocates.
WEIGHT_BYTES_BUDGET = 2**30


def _cell_weights(A, B, h, alpha: float, scheme: str):
    """Weights that cell [t_i, t_{i+1}] gives row j at column i (left) and
    column i+1 (right), for A = t_j - t_i, B = t_j - t_{i+1} and
    h = t_{i+1} - t_i.  right is None for the rectangle scheme.  The
    arithmetic runs in place, so few temporaries of A's shape live."""
    d_a = _pow_diff(A, B, alpha)
    if scheme == "rectangle":
        d_a /= gamma(alpha + 1.0)
        return d_a, None
    P = _pow_diff(A, B, alpha + 1.0)
    P /= alpha + 1.0
    ga = gamma(alpha)
    left = B * d_a
    left /= alpha
    np.subtract(P, left, out=left)
    right = A * d_a
    right /= alpha
    right -= P
    for w in (left, right):
        w /= h
        w /= ga
    return left, right


def _check_budget(nbytes: int, what: str) -> None:
    if nbytes > WEIGHT_BYTES_BUDGET:
        raise MeshError(
            f"{what} needs {nbytes} bytes, over the {WEIGHT_BYTES_BUDGET}-byte "
            f"budget; enlarge target_h or use fewer distinct segment steps"
        )


@dataclass(frozen=True, eq=False)
class _Run:
    """Weights of rows start+1 .. stop, the nodes of consecutive segments
    that share one step (see the module docstring)."""

    start: int
    stop: int
    gen: np.ndarray  # a[k] for k <= pad, pad = BLOCK * 2^K >= stop - start
    tri: np.ndarray  # (BLOCK, BLOCK) lower-triangular Toeplitz matrix of gen[1:]
    spectra: tuple[np.ndarray, ...]  # rfft(gen[1 : 2b+1]) for b = BLOCK, 2 BLOCK, ... < pad
    col: np.ndarray | None  # w[start+k, start] - gen[k] for k <= pad
    cross: np.ndarray | None  # (chunks, CROSS_ROWS, start+1): rows on earlier cells

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Rows start+1 .. stop of W @ g, for g of shape (N+1, d)."""
        s, rows, pad = self.start, self.stop - self.start, self.gen.size - 1
        d = g.shape[1]
        blocks = -(-rows // BLOCK)
        gp = np.zeros((pad, d))
        gp[:rows] = g[s : self.stop]  # the columns start .. stop-1
        near = (self.tri @ gp[: blocks * BLOCK].reshape(blocks, BLOCK, d)).reshape(-1, d)
        gt = np.ascontiguousarray(gp.T)
        far = np.zeros((d, pad))
        b = BLOCK
        for spectrum in self.spectra:
            count = (rows - 1 - b) // (2 * b) + 1  # blocks whose first row is in the run
            if count <= 0:
                break
            src = gt.reshape(d, -1, 2 * b)[:, :count, :b]
            conv = np.fft.irfft(np.fft.rfft(src, n=2 * b) * spectrum, n=2 * b)
            far.reshape(d, -1, 2 * b)[:, :count, b:] += conv[..., b:]
            b *= 2
        y = near[:rows] + far.T[:rows]
        y += self.gen[0] * g[s + 1 : self.stop + 1]
        if self.col is not None:
            y += self.col[1 : rows + 1, None] * g[s]
        if self.cross is not None:
            y += (self.cross @ g[: s + 1]).reshape(-1, d)[:rows]
        return y

    def windows(self, g: np.ndarray):
        """apply's product for a caller that finishes g left to right: yields
        (lo, base, near) for the nodes lo .. lo + n - 1 of each row block,
        with base the rows' products with g[:lo] and near their (n, n)
        weights on the window's own nodes.  The caller writes the window's
        final samples into g before it asks for the next window."""
        s, rows, pad = self.start, self.stop - self.start, self.gen.size - 1
        d = g.shape[1]
        far = np.zeros((pad, d))
        if self.col is not None:
            far[:rows] += self.col[1 : rows + 1, None] * g[s]
        if self.cross is not None:
            far[:rows] += (self.cross @ g[: s + 1]).reshape(-1, d)[:rows]
        lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
        near = np.where(lag >= 0, self.gen[np.maximum(lag, 0)], 0.0)
        for lo in range(0, rows, BLOCK):
            n = min(BLOCK, rows - lo)
            # rows lo .. lo+n-1 on column lo, the node left of the window
            yield s + 1 + lo, far[lo : lo + n] + self.gen[1 : n + 1, None] * g[s + lo], near[:n, :n]
            # columns up to end - 1 are final: the far block of the level b
            # with end = (2q+1) b is added to its rows [end, end + b)
            end, b, level = lo + BLOCK, BLOCK, 0
            if end >= rows:
                break
            while end % (2 * b) == 0:
                b, level = 2 * b, level + 1
            src = g[s + end - b : s + end].T
            conv = np.fft.irfft(np.fft.rfft(src, n=2 * b) * self.spectra[level], n=2 * b)
            far[end : end + b] += conv[:, b:].T


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Lower-triangular weights for one mesh/order/scheme triple, held as
    per-run Toeplitz generators plus cross-blocks (see the module
    docstring).  weights is the one float64 buffer every stored array is
    a view of, so weights.nbytes is the memory the table holds."""

    scheme: str
    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    runs: tuple[_Run, ...]

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    def apply(self, g) -> np.ndarray:
        """W @ g for samples g of shape (N+1,) or (N+1, d)."""
        g = np.asarray(g, dtype=float)
        if g.ndim not in (1, 2) or g.shape[0] != self.n_nodes:
            raise ValueError(f"expected {self.n_nodes} samples, got shape {g.shape}")
        g2 = g.reshape(self.n_nodes, -1)
        out = np.zeros_like(g2)
        for run in self.runs:
            out[run.start + 1 : run.stop + 1] = run.apply(g2)
        return out.reshape(g.shape)

    def windows(self, g: np.ndarray):
        """W @ g online, for g of shape (N+1, d) whose rows a solver
        finishes left to right: yields (lo, base, near) for windows of at
        most BLOCK nodes covering nodes 1 .. N in order, where rows lo ..
        lo + n - 1 of W @ g are base + near @ g[lo : lo + n] once g[:lo]
        is final.  Before asking for the next window the caller writes the
        window's final samples into g (see _Run.windows)."""
        for run in self.runs:
            yield from run.windows(g)

    def dense(self) -> np.ndarray:
        """The full (N+1)^2 table, built row by row from the nodes."""
        t = self.nodes
        n = t.size
        _check_budget(8 * n * n, "dense weight table")
        W = np.zeros((n, n))
        for j in range(1, n):
            left, right = _cell_weights(
                t[j] - t[:j], t[j] - t[1 : j + 1], t[1 : j + 1] - t[:j], self.alpha, self.scheme
            )
            W[j, :j] += left
            if right is not None:
                W[j, 1 : j + 1] += right
        return W


def _runs(mesh: Mesh) -> list[tuple[int, int, float]]:
    """(start, stop, step) of each maximal stretch of segments whose steps
    agree to STEP_ULPS ulps; a run keeps the step of its first segment."""
    runs: list[tuple[int, int, float]] = []
    bounds = mesh.boundary_idx
    for lo, hi, h in zip(bounds, bounds[1:], mesh.seg_steps):
        if runs and abs(runs[-1][2] - h) <= STEP_ULPS * math.ulp(h):
            runs[-1] = (runs[-1][0], hi, runs[-1][2])
        else:
            runs.append((lo, hi, h))
    return runs


def _run_shape(start: int, stop: int, scheme: str):
    """pad, spectrum levels, column length and cross-block shape of a run."""
    rows = stop - start
    pad = BLOCK
    while pad < rows:
        pad *= 2
    levels = []
    b = BLOCK
    while b < pad:
        levels.append(b)
        b *= 2
    col = pad + 1 if scheme == "trapezoid" else 0
    chunks = -(-rows // CROSS_ROWS)
    cross = (chunks, CROSS_ROWS, start + 1) if start > 0 else None
    return pad, levels, col, cross


def _fill_cross(cross: np.ndarray, t: np.ndarray, start: int, stop: int, alpha: float, scheme: str):
    """Weights of rows start+1 .. stop on the cells before t_start, from
    the nodes, a few rows at a time so the temporaries stay small; the
    padding rows stay zero."""
    cross[:] = 0.0
    h = t[1 : start + 1] - t[:start]
    # about 2^12 weights a chunk: its temporaries stay near 0.3 MiB;
    # smaller chunks build slower, larger ones raise the peak
    step = max(1, 2**12 // start)
    for lo in range(start + 1, stop + 1, step):
        rows = t[lo : min(lo + step, stop + 1), None]
        left, right = _cell_weights(rows - t[:start], rows - t[1 : start + 1], h, alpha, scheme)
        block = cross[lo - start - 1 : lo - start - 1 + rows.shape[0]]
        block[:, :start] = left
        if right is not None:
            block[:, 1:] += right


def build_weights(mesh: Mesh, alpha: float, scheme: str) -> WeightTable:
    """Weight operator for all rows of the mesh at once.

    Raises MeshError, before allocating, when its storage would exceed
    WEIGHT_BYTES_BUDGET.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    t = np.asarray(mesh.nodes, dtype=float)
    runs = _runs(mesh)
    shapes = [_run_shape(start, stop, scheme) for start, stop, _ in runs]
    floats = sum(
        sum(2 * (b + 1) for b in levels) + pad + 1 + BLOCK * BLOCK + col + (math.prod(cross) if cross else 0)
        for pad, levels, col, cross in shapes
    )
    _check_budget(8 * floats, "weight operator")

    buf = np.empty(floats)
    used = 0

    def take(n: int) -> np.ndarray:
        nonlocal used
        used += n
        return buf[used - n : used]

    # spectra first, so every complex view starts on a 16-byte boundary
    spectra = [[take(2 * (b + 1)).view(np.complex128) for b in levels] for _, levels, _, _ in shapes]
    lag = np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK))
    built = []
    for (start, stop, h), (pad, levels, col_len, cross_shape), specs in zip(runs, shapes, spectra):
        gen = take(pad + 1)
        k = np.arange(1.0, pad + 2.0)
        left, right = _cell_weights(k * h, (k - 1.0) * h, h, alpha, scheme)  # cell k
        gen[0] = 0.0
        gen[1:] = left[:-1]
        col = None
        if right is not None:
            gen += right  # a[k] = left(cell k) + right(cell k+1)
            col = take(col_len)
            col[:] = -right
        tri = take(BLOCK * BLOCK).reshape(BLOCK, BLOCK)
        tri[:] = np.where(lag >= 0, gen[1 + np.maximum(lag, 0)], 0.0)
        for b, spectrum in zip(levels, specs):
            spectrum[:] = np.fft.rfft(gen[1 : 2 * b + 1])
        cross = None
        if cross_shape is not None:
            cross = take(math.prod(cross_shape)).reshape(cross_shape)
            _fill_cross(cross.reshape(-1, start + 1), t, start, stop, alpha, scheme)
        built.append(_Run(start, stop, gen, tri, tuple(specs), col, cross))
    return WeightTable(scheme=scheme, alpha=alpha, nodes=t, weights=buf, runs=tuple(built))


def frac_integral(table: WeightTable, samples: np.ndarray, j: int | None = None):
    """Apply the table to integrand samples at the mesh nodes.

    samples has shape (N+1,) or (N+1, d).  With j given, returns the
    value at node j only; otherwise the values at every node.
    """
    if j is not None and not 0 <= int(j) < table.n_nodes:
        raise ValueError(f"node index {j} out of range")
    out = table.apply(samples)
    return out if j is None else out[int(j)]


def power_integral(alpha: float, beta: float, t: float) -> float:
    """Closed form I^alpha[s^beta](t) = gamma(beta+1)/gamma(beta+1+alpha) t^(beta+alpha)."""
    if beta <= -1.0:
        raise ValueError(f"power rule needs beta > -1, got {beta!r}")
    return gamma(beta + 1.0) / gamma(beta + 1.0 + alpha) * t ** (beta + alpha)


@dataclass(frozen=True)
class OrderStudy:
    """Result of an empirical refinement study."""

    steps: tuple[float, ...]
    errors: tuple[float, ...]
    order: float | None
    exact: bool


def convergence_order(
    scheme: str,
    alpha: float,
    g: Expr,
    t: float,
    h_list,
) -> OrderStudy:
    """Empirical order of (I^alpha g)(t) under mesh refinement.

    g is an expression in the single variable t.  Monomials c*t^beta use
    the closed-form power rule as reference; anything else is compared
    against a trapezoid computation at h_ref = min(h_list)/8.  When all
    errors sit at roundoff the study reports exact=True and no slope.
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError("t must be positive")
    hs = sorted(float(h) for h in h_list)
    if len(hs) < 3:
        raise ValueError("need at least 3 step sizes")
    if hs[0] <= 0.0:
        raise ValueError("step sizes must be positive")

    sample = compile_expr(g)

    def value_at(h: float, use_scheme: str) -> tuple[float, float]:
        n = max(1, round(t / h))
        nodes = np.linspace(0.0, t, n + 1)
        mesh = Mesh(nodes=nodes, boundary_idx=(0, n), seg_steps=(t / n,))
        table = build_weights(mesh, alpha, use_scheme)
        samples = sample({"t": nodes})
        return float(frac_integral(table, samples, n)), t / n

    mono = monomial(g, "t")
    if mono is not None:
        coef, beta = mono
        reference = coef * power_integral(alpha, beta, t)
    else:
        reference, _ = value_at(hs[0] / 8.0, "trapezoid")

    errors, actual = [], []
    for h in hs:
        v, h_used = value_at(h, scheme)
        errors.append(abs(v - reference))
        actual.append(h_used)
    order = fit_order(actual, errors, reference)
    return OrderStudy(tuple(actual), tuple(errors), order, order is None)


def fit_order(steps, errors, reference) -> float | None:
    """Least-squares slope of log(error) against log(step), or None when
    the errors are exact.

    With scale = max(1, |reference|), |reference| the largest magnitude of
    a scalar or vector reference, the errors are exact when each is at
    most 1e-12 * scale; otherwise errors below 1e-16 * scale count as
    that floor, so a single exact error does not break the logarithm.
    """
    scale = max(1.0, float(np.max(np.abs(reference))))
    if all(e <= 1e-12 * scale for e in errors):
        return None
    floored = [max(e, 1e-16 * scale) for e in errors]
    return float(np.polyfit(np.log(steps), np.log(floored), 1)[0])
