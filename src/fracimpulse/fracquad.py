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
segments whose steps are bitwise equal form a run.  Inside a run of step
h a cell's weights depend only on the node distance k = j - i, so the
run's diagonal block is the lower-triangular Toeplitz matrix of a
generator a[k], evaluated in closed form at A = k h, B = (k-1) h.  The
one exception is the run's first column, where the trapezoid hat has
only its right cell inside the run; a correction vector holds it (the
rectangle scheme needs none).  The weights of a run's rows on the cells
of earlier runs (cross-blocks) are generated densely from the nodes, so
they cost memory only on meshes whose segments have different steps.
A single-step mesh therefore needs O(N) weights.

WeightTable.apply multiplies each Toeplitz block by causal dyadic
blocking (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6,
1985): dense BLOCK x BLOCK lower triangles on the diagonal, and for each
level b = BLOCK * 2^l the square blocks rows [(2q+1)b, (2q+2)b) x
columns [2qb, (2q+1)b).  These share their entries a[1 .. 2b-1] for
every q, so one cached spectrum per level applies all of them as FFT
convolutions.  The layout depends only on the node index within the run,
the spectra come from the generator evaluated past N rather than from
zero padding, and every product has a shape that does not depend on N.
Node j therefore reads only g[0..j], through the same arithmetic
whatever N is.  WeightTable.dense() builds the full table row by row
from the nodes; it is the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprlang import BinOp, Expr, Num, Unary, Var, compile_expr
from .problem import Mesh, MeshError
from .special import gamma

__all__ = [
    "SCHEMES",
    "WEIGHT_BYTES_BUDGET",
    "WeightTable",
    "build_weights",
    "frac_integral",
    "power_integral",
    "OrderStudy",
    "convergence_order",
]

SCHEMES = ("rectangle", "trapezoid")

# Order of the dense diagonal blocks; far blocks are BLOCK * 2^l square.
BLOCK = 64
# Cross-blocks are multiplied in stacks of this many rows, so that the
# product shape, and with it the arithmetic of each row, does not depend
# on how many rows the run has.
CROSS_ROWS = 16
# Largest weight storage build_weights or WeightTable.dense() allocates.
WEIGHT_BYTES_BUDGET = 2**30


def _pow_diff(A: np.ndarray, B: np.ndarray, expo: float) -> np.ndarray:
    """A**expo - B**expo for A >= B >= 0, stable when A is close to B."""
    out = np.empty_like(A)
    zero = B <= 0.0
    out[zero] = A[zero] ** expo
    nz = ~zero
    if np.any(nz):
        ratio = np.log1p((B[nz] - A[nz]) / A[nz])
        out[nz] = -(A[nz] ** expo) * np.expm1(expo * ratio)
    return out


def _cell_weights(A, B, h, alpha: float, scheme: str):
    """Weights that cell [t_i, t_{i+1}] gives row j at column i (left) and
    column i+1 (right), for A = t_j - t_i, B = t_j - t_{i+1} and
    h = t_{i+1} - t_i.  right is None for the rectangle scheme."""
    d_a = _pow_diff(A, B, alpha)
    if scheme == "rectangle":
        return d_a / gamma(alpha + 1.0), None
    P = _pow_diff(A, B, alpha + 1.0) / (alpha + 1.0)
    ga = gamma(alpha)
    return (P - B * d_a / alpha) / h / ga, (A * d_a / alpha - P) / h / ga


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
    gen: np.ndarray  # a[k] for k < pad, pad = BLOCK * 2^K >= stop - start + 1
    tri: np.ndarray  # (BLOCK, BLOCK) lower-triangular Toeplitz matrix of gen
    spectra: tuple[np.ndarray, ...]  # rfft(gen[:2b]) for b = BLOCK, 2 BLOCK, ... < pad
    col: np.ndarray | None  # w[start+k, start] - gen[k] from the run's own cells
    cross: np.ndarray | None  # (chunks, CROSS_ROWS, start+1): rows on earlier cells

    def apply(self, g: np.ndarray) -> np.ndarray:
        """Rows start+1 .. stop of W @ g, for g of shape (N+1, d)."""
        s, m, pad = self.start, self.stop - self.start + 1, self.gen.size
        d = g.shape[1]
        gp = np.zeros((pad, d))
        gp[:m] = g[s : self.stop + 1]
        near = (self.tri @ gp.reshape(-1, BLOCK, d)).reshape(pad, d)
        gt = np.ascontiguousarray(gp.T)
        far = np.zeros((d, pad))
        b = BLOCK
        for spectrum in self.spectra:
            count = (m - 1 - b) // (2 * b) + 1  # blocks whose first row is a node
            if count <= 0:
                break
            src = gt.reshape(d, -1, 2 * b)[:, :count, :b]
            conv = np.fft.irfft(np.fft.rfft(src, n=2 * b) * spectrum, n=2 * b)
            far.reshape(d, -1, 2 * b)[:, :count, b:] += conv[..., b:]
            b *= 2
        y = near[1:m] + far.T[1:m]
        if self.col is not None:
            y += self.col[1:m, None] * g[s]
        if self.cross is not None:
            y += (self.cross @ g[: s + 1]).reshape(-1, d)[: m - 1]
        return y

    def row(self, j: int) -> np.ndarray:
        k = j - self.start
        w = np.zeros(j + 1)
        if self.cross is not None:
            w[: self.start + 1] = self.cross.reshape(-1, self.start + 1)[k - 1]
        w[self.start :] += self.gen[k::-1]
        if self.col is not None:
            w[self.start] += self.col[k]
        return w


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

    def row(self, j: int) -> np.ndarray:
        """Row j of W: the weights of g(t_0) .. g(t_j), shape (j+1,)."""
        j = int(j)
        if not 0 <= j < self.n_nodes:
            raise ValueError(f"node index {j} out of range")
        return next(run for run in self.runs if j <= run.stop).row(j)

    def diag(self) -> np.ndarray:
        """The diagonal w[j, j] of every row."""
        out = np.zeros(self.n_nodes)
        for run in self.runs:
            out[run.start + 1 : run.stop + 1] = run.gen[0]
        return out

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
    are bitwise equal."""
    runs: list[tuple[int, int, float]] = []
    bounds = mesh.boundary_idx
    for lo, hi, h in zip(bounds, bounds[1:], mesh.seg_steps):
        if runs and runs[-1][2] == h:
            runs[-1] = (runs[-1][0], hi, h)
        else:
            runs.append((lo, hi, h))
    return runs


def _run_shape(start: int, stop: int, scheme: str):
    """pad, spectrum levels, column length and cross-block shape of a run."""
    m = stop - start + 1
    pad = BLOCK
    while pad < m:
        pad *= 2
    levels = []
    b = BLOCK
    while b < pad:
        levels.append(b)
        b *= 2
    col = m if scheme == "trapezoid" else 0
    chunks = -(-(stop - start) // CROSS_ROWS)
    cross = (chunks, CROSS_ROWS, start + 1) if start > 0 else None
    return pad, levels, col, cross


def _fill_cross(cross: np.ndarray, t: np.ndarray, start: int, stop: int, alpha: float, scheme: str):
    """Weights of rows start+1 .. stop on the cells before t_start, from
    the nodes, a few rows at a time so the temporaries stay small; the
    padding rows stay zero."""
    cross[:] = 0.0
    h = t[1 : start + 1] - t[:start]
    step = max(1, 2**14 // start)  # larger chunks raise peak memory, no faster
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
        sum(2 * (b + 1) for b in levels) + pad + BLOCK * BLOCK + col + (math.prod(cross) if cross else 0)
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
        gen = take(pad)
        k = np.arange(1.0, pad + 1.0)
        left, right = _cell_weights(k * h, (k - 1.0) * h, h, alpha, scheme)  # cell k
        gen[0] = 0.0
        gen[1:] = left[:-1]
        col = None
        if right is not None:
            gen += right  # a[k] = left(cell k) + right(cell k+1)
            col = take(col_len)
            col[:] = -right[:col_len]
        tri = take(BLOCK * BLOCK).reshape(BLOCK, BLOCK)
        tri[:] = np.where(lag >= 0, gen[np.maximum(lag, 0)], 0.0)
        for b, spectrum in zip(levels, specs):
            spectrum[:] = np.fft.rfft(gen[: 2 * b])
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
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != table.n_nodes:
        raise ValueError(
            f"expected {table.n_nodes} samples, got {samples.shape[0]}"
        )
    if j is None:
        return table.apply(samples)
    return table.row(j) @ samples[: int(j) + 1]


def power_integral(alpha: float, beta: float, t: float) -> float:
    """Closed form I^alpha[s^beta](t) = gamma(beta+1)/gamma(beta+1+alpha) t^(beta+alpha)."""
    if beta <= -1.0:
        raise ValueError(f"power rule needs beta > -1, got {beta!r}")
    return gamma(beta + 1.0) / gamma(beta + 1.0 + alpha) * t ** (beta + alpha)


def _monomial_of(expr: Expr) -> tuple[float, float] | None:
    """Match c, c*t^b, t^b, t, -t^b ... returning (coefficient, power)."""
    if isinstance(expr, Num):
        return expr.value, 0.0
    if isinstance(expr, Var) and expr.name == "t":
        return 1.0, 1.0
    if isinstance(expr, Unary) and expr.op == "-":
        inner = _monomial_of(expr.operand)
        if inner is not None:
            return -inner[0], inner[1]
        return None
    if isinstance(expr, BinOp):
        if expr.op == "^":
            base = _monomial_of(expr.left)
            if base is not None and base == (1.0, 1.0) and isinstance(expr.right, Num):
                return 1.0, expr.right.value
            return None
        if expr.op == "*":
            lhs = _monomial_of(expr.left)
            rhs = _monomial_of(expr.right)
            if lhs is not None and rhs is not None:
                if lhs[1] == 0.0 or rhs[1] == 0.0:
                    return lhs[0] * rhs[0], lhs[1] + rhs[1]
            return None
    return None


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

    mono = _monomial_of(g)
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

    scale = max(1.0, abs(reference))
    if all(e <= 1e-12 * scale for e in errors):
        return OrderStudy(tuple(actual), tuple(errors), None, True)
    floored = [max(e, 1e-16 * scale) for e in errors]
    slope = float(np.polyfit(np.log(actual), np.log(floored), 1)[0])
    return OrderStudy(tuple(actual), tuple(errors), slope, False)
