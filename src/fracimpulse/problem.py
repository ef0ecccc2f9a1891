r"""Problem model: impulsive fractional IVPs, meshes, and trajectories.

A problem couples a Caputo order alpha in (0,1) on [0, T] with a
right-hand side f, impulse maps I_k applied at interior times
0 < t_1 < ... < t_m < T, and optionally a finite delay r with history
phi on [-r, 0].  Solvers work with the equivalent integral form

    x(t) = x0 + sum_{t_k < t} I_k(x(t_k-))
              + (1/gamma(alpha)) * int_0^t (t-s)^(alpha-1) f(s, ...) ds,

whose integral keeps lower limit 0 on every inter-impulse segment while
the jump sum accumulates.  Solutions are piecewise continuous with
left-continuous convention at impulse nodes: x(t_k) = x(t_k-), and the
right limit stored separately.

Meshes place every impulse time exactly on a node, with uniform spacing
inside each segment.  When a delay is present a single global step is
used and r must be an integer number of steps, so the delayed argument
x(t - r) always lands on a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .special import Envelope

__all__ = [
    "ProblemError",
    "MeshError",
    "ImpulseSchedule",
    "RhsSpec",
    "DelaySpec",
    "ProblemSpec",
    "Mesh",
    "Trajectory",
    "build_mesh",
    "history_sup_norm",
    "RHS_KINDS",
    "ENVELOPE_ROLES",
]

MAX_MESH_NODES = 2**15

RHS_KINDS = ("plain", "split", "delay", "general_delay")

# envelope slots a right-hand side of each kind may declare
ENVELOPE_ROLES: Mapping[str, tuple[str, ...]] = {
    "plain": ("bound", "lip"),
    "split": ("f1_bound", "f2_bound", "f1_lip"),
    "delay": ("bound", "growth", "lip"),
    "general_delay": ("bound", "growth", "state_lip", "history_lip"),
}


class ProblemError(ValueError):
    """Invalid problem data."""


class MeshError(ValueError):
    """Mesh construction failure (refinement or commensurability)."""


def _as_state(value, dim: int, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.shape != (dim,):
        raise ProblemError(f"{what} must have shape ({dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ProblemError(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class ImpulseSchedule:
    """Impulse times with their jump maps and declared bound certificates.

    jumps[k] maps the left limit x(t_k-) to the increment
    I_k(x(t_k-)); jump_bound / jump_lip are user-declared uniform bound
    and Lipschitz constants for all maps (they are certificates, not
    derived quantities).  jump_bound_star is the bound consumed by the
    a-priori existence route and falls back to jump_bound when unset.
    """

    times: tuple[float, ...] = ()
    jumps: tuple[Callable, ...] = ()
    jump_bound: float | None = None
    jump_lip: float | None = None
    jump_bound_star: float | None = None

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if len(times) != len(self.jumps):
            raise ProblemError(
                f"{len(times)} impulse times vs {len(self.jumps)} jump maps"
            )
        if any(t <= 0.0 for t in times):
            raise ProblemError("impulse times must be strictly positive")
        if any(b - a <= 0.0 for a, b in zip(times, times[1:])):
            raise ProblemError("impulse times must be strictly increasing")
        for name in ("jump_bound", "jump_lip", "jump_bound_star"):
            v = getattr(self, name)
            if v is not None:
                v = float(v)
                if v < 0.0 or not math.isfinite(v):
                    raise ProblemError(f"{name} must be finite and nonnegative")
                object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.times)

    def apply(self, k: int, x: np.ndarray) -> np.ndarray:
        """Increment I_k evaluated at state x."""
        return _as_state(self.jumps[k](x), x.shape[0], f"jump {k} value")

    def spot_check(self, radius: float, dim: int, rng=None, samples: int = 100):
        """Sample each jump map at random states |x| <= radius and verify the
        declared jump_bound / jump_lip hold there.

        Raises ProblemError naming the offending impulse.  This guards
        against gross misdeclaration only; it proves nothing globally.
        """
        if self.jump_bound is None and self.jump_lip is None:
            return
        if rng is None:
            rng = np.random.default_rng(20240801)
        radius = float(radius)
        for k in range(len(self.times)):
            direc = rng.standard_normal((samples, dim))
            direc /= np.maximum(np.linalg.norm(direc, axis=1, keepdims=True), 1e-300)
            radii = radius * rng.random((samples, 1)) ** (1.0 / dim)
            xs = direc * radii
            vals = np.stack([self.apply(k, x) for x in xs])
            if self.jump_bound is not None:
                worst = float(np.max(np.linalg.norm(vals, axis=1)))
                if worst > self.jump_bound * (1.0 + 1e-9) + 1e-12:
                    raise ProblemError(
                        f"impulse {k} at t={self.times[k]!r}: |I_k| reached "
                        f"{worst:.6g} > declared jump_bound {self.jump_bound:.6g}"
                    )
            if self.jump_lip is not None:
                ys = xs[rng.permutation(samples)]
                vals2 = np.stack([self.apply(k, y) for y in ys])
                gaps = np.linalg.norm(vals - vals2, axis=1)
                dists = np.linalg.norm(xs - ys, axis=1)
                bad = gaps > self.jump_lip * dists * (1.0 + 1e-9) + 1e-12
                if np.any(bad):
                    i = int(np.argmax(bad))
                    raise ProblemError(
                        f"impulse {k} at t={self.times[k]!r}: jump map moved "
                        f"{gaps[i]:.6g} over distance {dists[i]:.6g}, exceeding "
                        f"declared jump_lip {self.jump_lip:.6g}"
                    )


@dataclass(frozen=True)
class RhsSpec:
    """Right-hand side evaluators plus declared envelopes.

    Callable signatures by kind:
        plain:          f(t, x)
        split:          f1(t, x), f2(t, x)       with f = f1 + f2
        delay:          f(t, x, x_lag, hist_sup)
        general_delay:  f(t, x, x_lag, hist_sup)
    where x_lag = x(t - r) and hist_sup = sup norm of the history
    segment.  Envelope keys allowed per kind are in ENVELOPE_ROLES.

    With vectorized=False (the default) the solvers call each callable
    once per node, with t a float, x and x_lag (d,) arrays and hist_sup
    a float; it returns a (d,) array, or a scalar when d = 1.  With
    vectorized=True they call it once per batch of n nodes (a whole
    Picard sweep, or n = 1 when marching), with t (n,), x and x_lag
    (n, d) and hist_sup (n,) arrays; it returns an (n, d) array, or (n,)
    when d = 1.  A batched callable must evaluate row i from row i of
    its arguments alone.  The library cannot tell whether a callable
    broadcasts, so the flag is the caller's promise.  Callables built
    from a config file broadcast over any leading axes and set it.
    """

    kind: str
    f: Callable | None = None
    f1: Callable | None = None
    f2: Callable | None = None
    envelopes: Mapping[str, Envelope] = field(default_factory=dict)
    vectorized: bool = False

    def __post_init__(self):
        if self.kind not in RHS_KINDS:
            raise ProblemError(f"rhs kind must be one of {RHS_KINDS}, got {self.kind!r}")
        if self.kind == "split":
            if self.f1 is None or self.f2 is None:
                raise ProblemError("split rhs requires both f1 and f2")
            if self.f is not None:
                raise ProblemError("split rhs must not also set f")
        else:
            if self.f is None:
                raise ProblemError(f"{self.kind} rhs requires f")
            if self.f1 is not None or self.f2 is not None:
                raise ProblemError("f1/f2 are only valid for the split kind")
        allowed = ENVELOPE_ROLES[self.kind]
        env = dict(self.envelopes)
        for key, value in env.items():
            if key not in allowed:
                raise ProblemError(
                    f"envelope role {key!r} not valid for kind {self.kind!r}; "
                    f"allowed: {allowed}"
                )
            if not isinstance(value, Envelope):
                raise ProblemError(f"envelope {key!r} must be an Envelope")
        object.__setattr__(self, "envelopes", env)

    @property
    def is_delayed(self) -> bool:
        return self.kind in ("delay", "general_delay")


@dataclass(frozen=True)
class DelaySpec:
    """Finite delay r > 0 with history phi on [-r, 0].

    history maps s in [-r, 0] to the state; sample_times optionally
    lists the knots of a sampled history so the sup-norm window can
    include them.
    """

    r: float
    history: Callable
    sample_times: tuple[float, ...] = ()

    def __post_init__(self):
        r = float(self.r)
        if not (r > 0.0 and math.isfinite(r)):
            raise ProblemError(f"delay r must be positive and finite, got {r!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(
            self, "sample_times", tuple(float(s) for s in self.sample_times)
        )
        for s in self.sample_times:
            if s < -r - 1e-12 or s > 1e-12:
                raise ProblemError(f"history sample time {s!r} outside [-r, 0]")


@dataclass(frozen=True)
class ProblemSpec:
    """Complete impulsive fractional IVP on [0, T].

    For delay kinds x0 may be omitted (None); it is then taken from
    history(0).  If both are given they must agree exactly.
    """

    alpha: float
    T: float
    rhs: RhsSpec
    x0: np.ndarray | float | None = None
    impulses: ImpulseSchedule = field(default_factory=ImpulseSchedule)
    delay: DelaySpec | None = None

    def __post_init__(self):
        alpha = float(self.alpha)
        T = float(self.T)
        if not (0.0 < alpha < 1.0):
            raise ProblemError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
        if not (T > 0.0 and math.isfinite(T)):
            raise ProblemError(f"T must be positive and finite, got {T!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "T", T)

        if self.rhs.is_delayed != (self.delay is not None):
            raise ProblemError(
                "delay spec present iff rhs kind is delay/general_delay"
            )

        if self.x0 is None:
            if self.delay is None:
                raise ProblemError("x0 required for problems without history")
            x0 = np.atleast_1d(np.asarray(self.delay.history(0.0), dtype=float))
        else:
            x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1 or x0.size < 1 or not np.all(np.isfinite(x0)):
            raise ProblemError("x0 must be a finite 1-D state")
        object.__setattr__(self, "x0", x0)

        if self.delay is not None:
            phi0 = _as_state(self.delay.history(0.0), x0.size, "history(0)")
            if not np.array_equal(phi0, x0):
                raise ProblemError(
                    f"x0 must equal history(0): {x0!r} vs {phi0!r}"
                )
            # history must be evaluable across its domain
            _as_state(self.delay.history(-self.delay.r), x0.size, "history(-r)")

        if any(t >= self.T for t in self.impulses.times):
            raise ProblemError("impulse times must lie strictly inside (0, T)")

        for key, env in self.rhs.envelopes.items():
            vals = env(np.linspace(0.0, self.T, 100))
            if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
                raise ProblemError(f"envelope {key!r} must be nonnegative on [0, T]")

    @property
    def dim(self) -> int:
        return int(self.x0.size)


@dataclass(frozen=True)
class Mesh:
    """Node set for one problem: impulse times sit exactly on nodes.

    nodes[boundary_idx[j]] .. nodes[boundary_idx[j+1]] spans segment j
    with uniform step seg_steps[j].  impulse_idx = boundary_idx[1:-1].
    delay_steps is the integer r/h for delay problems (global uniform
    step), else None.
    """

    nodes: np.ndarray
    boundary_idx: tuple[int, ...]
    seg_steps: tuple[float, ...]
    delay_steps: int | None = None

    @property
    def impulse_idx(self) -> tuple[int, ...]:
        return self.boundary_idx[1:-1]

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    def node_index(self, t: float) -> int | None:
        """Index of the node bitwise equal to t, or None."""
        i = int(np.searchsorted(self.nodes, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.nodes.size and self.nodes[j] == t:
                return j
        return None


def _count_is_integral(ratio: float) -> int | None:
    k = round(ratio)
    if k >= 1 and abs(ratio - k) <= 1e-9 * max(1.0, abs(ratio)):
        return int(k)
    return None


def build_mesh(spec: ProblemSpec, target_h: float) -> Mesh:
    """Build the solver mesh for spec with steps no larger than target_h.

    Each inter-impulse segment gets the largest uniform step <= target_h
    that divides it evenly.  With a delay, one global step h = r/q is
    used so that both r and every segment are integer multiples of h;
    if no such step exists within the node cap, a MeshError explains
    the commensurability failure.
    """
    target_h = float(target_h)
    if not (target_h > 0.0 and math.isfinite(target_h)):
        raise MeshError(f"target_h must be positive and finite, got {target_h!r}")
    edges = [0.0, *spec.impulses.times, spec.T]
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    shortest = min(lengths)
    if target_h >= shortest:
        raise MeshError(
            f"target_h={target_h!r} must be smaller than the shortest "
            f"inter-impulse segment ({shortest!r}); refine the step"
        )

    if spec.delay is None:
        counts = [math.ceil(L / target_h - 1e-12) for L in lengths]
        delay_steps = None
    else:
        r = spec.delay.r
        q = max(1, math.ceil(r / target_h - 1e-12))
        q_cap = math.ceil(r * MAX_MESH_NODES / spec.T) + 1
        counts = None
        while q <= q_cap:
            h = r / q
            if h <= target_h * (1.0 + 1e-12):
                cand = [_count_is_integral(L / h) for L in lengths]
                if all(c is not None for c in cand):
                    if sum(cand) + 1 <= MAX_MESH_NODES:
                        counts = cand
                        delay_steps = q
                        break
                    raise MeshError(
                        f"delay-commensurate mesh needs {sum(cand) + 1} nodes, "
                        f"over the {MAX_MESH_NODES} cap; enlarge target_h or "
                        f"choose commensurate delay/impulse times"
                    )
            q += 1
        if counts is None:
            raise MeshError(
                f"no step h = r/q <= {target_h!r} divides every segment "
                f"{lengths!r} evenly within the {MAX_MESH_NODES}-node cap; "
                f"the delay r={r!r} and impulse layout are incommensurate"
            )

    if sum(counts) + 1 > MAX_MESH_NODES:
        raise MeshError(
            f"mesh would need {sum(counts) + 1} nodes, over the "
            f"{MAX_MESH_NODES} cap; enlarge target_h"
        )

    pieces = []
    boundary_idx = [0]
    for j, (a, b, n) in enumerate(zip(edges, edges[1:], counts)):
        seg = np.linspace(a, b, n + 1)
        pieces.append(seg if j == 0 else seg[1:])
        boundary_idx.append(boundary_idx[-1] + n)
    nodes = np.concatenate(pieces)
    seg_steps = tuple(L / n for L, n in zip(lengths, counts))

    for tk, idx in zip(spec.impulses.times, boundary_idx[1:-1]):
        if nodes[idx] != tk:
            raise MeshError(f"impulse time {tk!r} failed to land on a node")

    mesh = Mesh(
        nodes=nodes,
        boundary_idx=tuple(boundary_idx),
        seg_steps=seg_steps,
        delay_steps=delay_steps,
    )
    if spec.delay is not None:
        q = mesh.delay_steps
        back = nodes[q:] - spec.delay.r
        if not np.allclose(back, nodes[: nodes.size - q], rtol=0.0, atol=1e-9):
            raise MeshError("delayed argument fails to land on nodes")
    return mesh


@dataclass(frozen=True)
class Trajectory:
    """Node values of a piecewise-continuous solution.

    values[i] is x(t_i) with the left-limit convention at impulse
    nodes; right_values[k] is the right limit at the k-th impulse node.
    """

    mesh: Mesh
    values: np.ndarray
    right_values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        rights = np.asarray(self.right_values, dtype=float)
        m = len(self.mesh.impulse_idx)
        if rights.size == 0:
            rights = np.zeros((0, vals.shape[1]))
        elif rights.ndim == 1:
            rights = rights[:, None]
        if vals.shape[0] != self.mesh.n_nodes:
            raise ProblemError("values row count must match mesh nodes")
        if rights.shape != (m, vals.shape[1]):
            raise ProblemError("right_values must be (m, d)")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "right_values", rights)

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def left_limit(self, k: int) -> np.ndarray:
        return self.values[self.mesh.impulse_idx[k]]

    def right_limit(self, k: int) -> np.ndarray:
        return self.right_values[k]

    def _start_values(self) -> np.ndarray:
        """Node values with the right limit substituted at impulse nodes
        (the value relevant on the cell to the right of each node)."""
        out = self.values.copy()
        for k, idx in enumerate(self.mesh.impulse_idx):
            out[idx] = self.right_values[k]
        return out

    def evaluate(self, t: float, side: str = "left") -> np.ndarray:
        """Value at time t; side picks the limit at impulse nodes.

        Off impulse nodes both sides agree; inside a cell the value is
        the linear interpolant of the adjacent node values (using the
        right limit at a cell's left endpoint when that endpoint is an
        impulse node).
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        t = float(t)
        nodes = self.mesh.nodes
        if t < nodes[0] or t > nodes[-1]:
            raise ValueError(f"t={t!r} outside [{nodes[0]!r}, {nodes[-1]!r}]")
        exact = self.mesh.node_index(t)
        if exact is not None:
            impulse = self.mesh.impulse_idx
            if side == "right" and exact in impulse:
                return self.right_values[impulse.index(exact)].copy()
            return self.values[exact].copy()
        i = int(np.searchsorted(nodes, t)) - 1
        t0, t1 = nodes[i], nodes[i + 1]
        w = (t - t0) / (t1 - t0)
        start = self._start_values()
        return (1.0 - w) * start[i] + w * self.values[i + 1]


def history_sup_norm(traj: Trajectory, delay: DelaySpec, t: float) -> float:
    """Sup of |x(s)| (euclidean) for s in [t - r, t] on the discrete grid.

    Reads phi for s < 0 and the trajectory for s >= 0.  Sample points
    are the mesh nodes inside the window, the delay-aligned grid points
    in the negative part, any declared history sample times in the
    window, and both window endpoints.  Impulse nodes strictly inside
    the window contribute their left limit; an impulse node sitting
    exactly at the window's left endpoint contributes its right limit.
    """
    mesh = traj.mesh
    if mesh.delay_steps is None:
        raise ProblemError("history_sup_norm needs a mesh built with the delay")
    t = float(t)
    nodes = mesh.nodes
    if t < 0.0 or t > nodes[-1]:
        raise ValueError(f"t={t!r} outside [0, T]")
    r = delay.r
    lo = t - r
    h = r / mesh.delay_steps

    sup = 0.0
    # trajectory part: nodes in [max(lo, 0), t], left limits inside window
    i0 = int(np.searchsorted(nodes, max(lo, 0.0) - 1e-12 * max(1.0, abs(lo))))
    i1 = int(np.searchsorted(nodes, t + 1e-12 * max(1.0, abs(t)))) - 1
    if i1 >= i0:
        sup = float(np.max(np.linalg.norm(traj.values[i0 : i1 + 1], axis=1)))
    # right-limit rule at the window's left endpoint
    left_idx = mesh.node_index(lo)
    if left_idx is not None and left_idx in mesh.impulse_idx:
        k = mesh.impulse_idx.index(left_idx)
        sup = max(sup, float(np.linalg.norm(traj.right_values[k])))
    # endpoints not on nodes
    if lo >= 0.0 and left_idx is None:
        sup = max(sup, float(np.linalg.norm(traj.evaluate(lo, "left"))))
    if mesh.node_index(t) is None:
        sup = max(sup, float(np.linalg.norm(traj.evaluate(t, "left"))))

    # history part: delay-aligned grid offsets below zero, plus declared knots
    if lo < 0.0:
        j_hi = int(math.floor(-lo / h + 1e-9))
        ss = [lo + j * h for j in range(0, j_hi + 1)]
        ss = [s for s in ss if s < 0.0]
        ss.append(min(0.0, t))
        for s in delay.sample_times:
            if lo - 1e-12 <= s < 0.0:
                ss.append(s)
        for s in ss:
            v = np.atleast_1d(np.asarray(delay.history(min(s, 0.0)), dtype=float))
            sup = max(sup, float(np.linalg.norm(v)))
    return sup
