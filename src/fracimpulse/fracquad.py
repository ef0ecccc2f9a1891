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
differences A^a - B^a are evaluated via expm1 and log1p((B - A)/A), or
log(B/A) for B < A/2, so row sums hold to 1e-12 relative even on fine
meshes and next to a cell of 1e-12 h.

build_weights does not store the (N+1)^2 table.  Every mesh has one step
h (problem.Mesh): its nodes are the grid k h, k = 0 .. M, to a few ulps,
plus any nodes inserted at off-grid impulse times.  On the grid a cell's
weights depend only on k = j - i, so the grid rows on the grid columns
form the lower-triangular Toeplitz matrix of a generator a[k], evaluated
in closed form at A = k h, B = (k-1) h.  Correction columns (c, v),
adding v[r-1] g[c] to grid row r, hold the trapezoid's column 0, whose
hat has only its right cell, and, on the nodes of each grid cell cut by
inserted nodes, its pieces' weights less the whole cell's (three columns
for one inserted node with the trapezoid, two with the rectangle).  The
rows of each inserted node and of the grid node right of a cut cell are
built from the nodes.  So m inserted nodes cost O(N + mN) floats.

WeightTable.apply writes grid row r = 1 .. M as a[0] g[r] plus row r-1
of the lower-triangular Toeplitz product with generator a[1:] over the
grid columns 0 .. M-1, padded to pad = BLOCK * 2^K >= M rows (a grid of
2^k + 1 nodes fits pad 2^k).  It multiplies that product by causal
dyadic blocking (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput.
6, 1985): dense BLOCK x BLOCK lower triangles on the diagonal, only as
many as hold a row, and for each level b = BLOCK * 2^l < pad the square
blocks rows [(2q+1)b, (2q+2)b) x columns [2qb, (2q+1)b).  These share
their entries a[2 .. 2b] for every q, so one cached spectrum per level
applies all of them as FFT convolutions.  The layout depends only on
the grid index, the spectra come from the generator evaluated past N
rather than from zero padding, and every product has a shape that does
not depend on N.  Node j therefore reads only g[0..j], through the same
arithmetic whatever N is.  WeightTable.dense() builds the full table
row by row from the nodes, as the reference the tests compare against.

WeightTable.windows is the same product online, for a solver that
finishes g left to right a window at a time: the grid rows of a block of
BLOCK, split around the nodes with dense rows, and each of those alone.
It yields each window with its rows' products with the final columns to
its left and its lower-triangular block of weights on its own nodes.  A
correction enters the block while its column is in the window, and the
products of every row once its column is final; a far block of level b
is added with its cached spectrum as soon as column (2q+1)b - 1 is
final, before its first row is solved.  No weight is stored beyond
apply's.  A Picard window sweeps a block at once; marching reads row k
as base[k] + near[k, :k] @ g[lo : lo + k] and its diagonal weight
near[k, k] once g[lo + k - 1] is final.  apply and windows are the
table's only products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .exprlang import Expr, compile_expr, monomial
from .problem import Mesh, MeshError, _one_step
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
            f"budget; enlarge target_h or use fewer off-grid impulse times"
        )


@dataclass(frozen=True, eq=False)
class WeightTable:
    """Lower-triangular weights for one mesh/order/scheme triple (see the
    module docstring).  weights is the one float64 buffer every stored
    array is a view of, so weights.nbytes is the memory the table holds."""

    scheme: str
    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    grid: np.ndarray  # node index of grid node k = 0 .. M
    gen: np.ndarray  # a[k] for k <= pad, pad = BLOCK * 2^K >= M
    tri: np.ndarray  # (BLOCK, BLOCK) lower-triangular Toeplitz matrix of gen[1:]
    spectra: tuple[np.ndarray, ...]  # rfft(gen[1 : 2b+1]) for b = BLOCK, 2 BLOCK, ... < pad
    corrections: tuple[tuple[int, np.ndarray], ...]  # (column, v[r - 1] for grid row r), by column
    node_rows: tuple[tuple[int, np.ndarray], ...]  # (node q, w[q, :q+1]) of the rows built from the nodes

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    def apply(self, g) -> np.ndarray:
        """W @ g for samples g of shape (N+1,) or (N+1, d); an overflow gives
        inf or nan entries, without a warning."""
        g = np.asarray(g, dtype=float)
        if g.ndim not in (1, 2) or g.shape[0] != self.n_nodes:
            raise ValueError(f"expected {self.n_nodes} samples, got shape {g.shape}")
        g2 = g.reshape(self.n_nodes, -1)
        gg = g2[self.grid]
        rows, pad, d = self.grid.size - 1, self.gen.size - 1, g2.shape[1]
        blocks = -(-rows // BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
            gp = np.zeros((pad, d))
            gp[:rows] = gg[:rows]  # the grid columns 0 .. M-1
            near = (self.tri @ gp[: blocks * BLOCK].reshape(blocks, BLOCK, d)).reshape(-1, d)
            gt = np.ascontiguousarray(gp.T)
            far = np.zeros((d, pad))
            b = BLOCK
            for spectrum in self.spectra:
                count = (rows - 1 - b) // (2 * b) + 1  # blocks whose first row is a grid row
                if count <= 0:
                    break
                src = gt.reshape(d, -1, 2 * b)[:, :count, :b]
                conv = np.fft.irfft(np.fft.rfft(src, n=2 * b) * spectrum, n=2 * b)
                far.reshape(d, -1, 2 * b)[:, :count, b:] += conv[..., b:]
                b *= 2
            y = near[:rows] + far.T[:rows]
            y += self.gen[0] * gg[1:]
            for col, v in self.corrections:
                y += v[:rows, None] * g2[col]
            out = np.zeros_like(g2)
            out[self.grid[1:]] = y
            for q, w in self.node_rows:
                out[q] = w @ g2[: q + 1]
        return out.reshape(g.shape)

    def windows(self, g: np.ndarray):
        """W @ g online, for g of shape (N+1, d) whose rows a solver finishes
        left to right: yields (lo, base, near) for windows of at most BLOCK
        nodes covering nodes 1 .. N in order, rows lo .. lo + n - 1 of W @ g
        being base + near @ g[lo : lo + n] once g[:lo] is final.  The caller
        writes each window's final samples into g before asking for the next."""
        grid, gen, corrections, node_rows = self.grid, self.gen, self.corrections, self.node_rows
        rows, d = grid.size - 1, g.shape[1]
        far = np.zeros((gen.size - 1, d))
        gg = g[grid]  # the grid nodes' samples, copied as windows finish
        folded = m = o = 0  # the corrections in far, the inserted nodes and the dense rows solved

        def fold(final: int) -> None:  # add the corrections whose column is below final
            nonlocal folded
            while folded < len(corrections) and corrections[folded][0] < final:
                col, v = corrections[folded]
                far[:rows] += v[:rows, None] * g[col]
                folded += 1

        near = np.tril(gen[abs(np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK)))])
        for lo in range(0, rows, BLOCK):
            n, a = min(BLOCK, rows - lo), 0
            while a < n:
                # the grid rows lo + a .. lo + b - 1, nodes first .. first + b - a - 1,
                # lie left of the next dense row's node q, which has q - 1 - m grid rows left
                b = min(node_rows[o][0] - 1 - m - lo, n) if o < len(node_rows) else n
                if b > a:
                    first = lo + a + 1 + m
                    fold(first)
                    base = far[lo + a : lo + b] + gen[a + 1 : b + 1, None] * gg[lo]
                    if a:  # on the block's grid nodes left of the window, in a shape N does not set
                        base += (near[a:, :a] @ gg[lo + 1 : lo + a + 1])[: b - a]
                    block = near[a:b, a:b]
                    last = folded  # the corrections whose column is in the window
                    while last < len(corrections) and corrections[last][0] < first + b - a:
                        last += 1
                    if last > folded:
                        block = block.copy()
                        for col, v in corrections[folded:last]:
                            block[:, col - first] += v[lo + a : lo + b]
                    yield first, base, block
                    gg[lo + a + 1 : lo + b + 1] = g[first : first + b - a]
                    a = b
                if b < n:
                    (q, w), o = node_rows[o], o + 1
                    fold(q)
                    yield q, (w[:q] @ g[:q])[None], w[q:, None]
                    if grid[q - m] == q:  # a grid node, row lo + a
                        gg[q - m], a = g[q], a + 1
                    else:
                        m += 1
            # columns up to end - 1 are final: the far block of the level b
            # with end = (2q+1) b is added to its rows [end, end + b)
            end, b, level = lo + BLOCK, BLOCK, 0
            if end >= rows:
                break
            while end % (2 * b) == 0:
                b, level = 2 * b, level + 1
            src = gg[end - b : end].T
            conv = np.fft.irfft(np.fft.rfft(src, n=2 * b) * self.spectra[level], n=2 * b)
            far[end : end + b] += conv[:, b:].T

    def dense(self) -> np.ndarray:
        """The full (N+1)^2 table, built row by row from the nodes."""
        n = self.n_nodes
        _check_budget(8 * n * n, "dense weight table")
        W = np.zeros((n, n))
        for j in range(1, n):
            _row(self.nodes, j, self.alpha, self.scheme, W[j, : j + 1])
        return W


def _row(t: np.ndarray, j: int, alpha: float, scheme: str, out: np.ndarray) -> np.ndarray:
    """Add row j of the table on columns 0 .. j, from the nodes, to out."""
    left, right = _cell_weights(t[j] - t[:j], t[j] - t[1 : j + 1], t[1 : j + 1] - t[:j], alpha, scheme)
    out[:j] += left
    if right is not None:
        out[1:] += right
    return out


def _on_grid(nodes: np.ndarray, h: float) -> bool:
    """Whether each node k is k h to within 1e-12 times the last node."""
    return bool(np.all(np.abs(nodes - h * np.arange(nodes.size)) <= 1e-12 * nodes[-1]))


def _inserted(mesh: Mesh, h: float) -> list[int]:
    """The inserted nodes: the impulse nodes that are not grid nodes k h,
    where every other node must be k h to 1e-12 T, on every mesh."""
    t = mesh.nodes
    inserted: list[int] = []
    for q in mesh.impulse_idx:
        # a grid node k h is nearer to k h than the node after it
        x = (q - len(inserted)) * h
        if not abs(t[q] - x) <= min(1e-12 * t[-1], abs(t[q + 1] - x)):
            inserted.append(q)
    if not _on_grid(np.delete(t, inserted), h):
        raise MeshError("the mesh is neither one step nor a grid plus inserted nodes")
    return inserted


def build_weights(mesh: Mesh, alpha: float, scheme: str) -> WeightTable:
    """Weight operator for all rows of the mesh at once.

    Raises MeshError, before allocating, when the mesh is neither one
    step nor a grid plus inserted nodes (problem.Mesh) or its storage
    would exceed WEIGHT_BYTES_BUDGET.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not _one_step(mesh.seg_steps):
        raise MeshError(f"the mesh has more than one step: {mesh.seg_steps!r}")
    t, h = np.asarray(mesh.nodes, dtype=float), mesh.seg_steps[0]
    inserted = _inserted(mesh, h)
    grid = np.delete(np.arange(t.size), inserted)
    rows = grid.size - 1
    K = max(0, math.ceil(math.log2(rows / BLOCK)))
    pad, levels = BLOCK << K, [BLOCK << l for l in range(K)]
    # the nodes inside each cut grid cell c, from the inserted ones
    cuts: dict[int, list[int]] = {}
    for i, q in enumerate(inserted):
        cuts.setdefault(q - 1 - i, []).append(q)
    trapezoid = scheme == "trapezoid"
    entries = trapezoid + sum(len(qs) + 1 + trapezoid for qs in cuts.values())
    node_rows = sorted([*inserted, *(int(grid[c + 1]) for c in cuts)])
    # spectra first, so every complex view starts on a 16-byte boundary
    sizes = [2 * b + 2 for b in levels] + [pad + 1, BLOCK**2] + [pad] * entries + [q + 1 for q in node_rows]
    _check_budget(8 * sum(sizes), "weight operator")
    buf = np.zeros(sum(sizes))
    parts = (buf[b - n : b] for n, b in zip(sizes, accumulate(sizes)))
    spectra = [next(parts).view(np.complex128) for _ in levels]
    gen, tri = next(parts), next(parts).reshape(BLOCK, BLOCK)
    k = np.arange(1.0, pad + 2.0)
    left, right = _cell_weights(k * h, (k - 1.0) * h, h, alpha, scheme)  # cell k
    gen[1:] = left[:-1]
    corrections = []
    if trapezoid:
        gen += right  # a[k] = left(cell k) + right(cell k+1)
        corrections.append((0, np.negative(right[1:], out=next(parts))))
    tri[:] = np.tril(gen[1 + abs(np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK)))])
    for b, spectrum in zip(levels, spectra):
        spectrum[:] = np.fft.rfft(gen[1 : 2 * b + 1])

    tg = t[grid]
    for c, qs in cuts.items():
        # grid rows c+2 .. M on the cut cell's pieces, less the whole cell's weights
        cut = [int(grid[c]), *qs, int(grid[c + 1])]
        cols = [next(parts) for _ in cut[: len(cut) - (not trapezoid)]]
        for i, (u, w) in enumerate(zip(cut, cut[1:])):
            lw, rw = _cell_weights(tg[c + 2 :] - t[u], tg[c + 2 :] - t[w], t[w] - t[u], alpha, scheme)
            cols[i][c + 1 : rows] += lw
            if trapezoid:
                cols[i + 1][c + 1 : rows] += rw
        cols[0][c + 1 : rows] -= left[1 : rows - c]
        if trapezoid:
            cols[-1][c + 1 : rows] -= right[1 : rows - c]
        corrections += zip(cut, cols)
    node_rows = tuple((q, _row(t, q, alpha, scheme, next(parts))) for q in node_rows)
    corrections = tuple(sorted(corrections, key=lambda e: e[0]))
    return WeightTable(scheme, alpha, t, buf, grid, gen, tri, tuple(spectra), corrections, node_rows)


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
