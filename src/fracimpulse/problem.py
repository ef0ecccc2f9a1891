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

Meshes place every impulse time exactly on a node and share one step h:
either each segment's own uniform step, when these agree, or the grid
k h with each off-grid impulse time inserted as a node.  A delay does
not shape the mesh: the solvers read the delayed argument x(t - r) off
the nodes, exactly where t - r is a node and by linear interpolation
elsewhere.
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
    "SolverError",
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
# Steps this many ulps apart are one step: linspace nodes already differ
# from k*h by that much (0.3/615 and 0.4/820 differ in the last bit).
STEP_ULPS = 4

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
    """Mesh construction failure (a bad target_h or too many nodes)."""


class SolverError(RuntimeError):
    """Right-hand side, history or jump evaluation failed, or solver misuse."""


def _check_finite(g: np.ndarray, what: str, where) -> None:
    """Raise for the first row of g that holds a non-finite value."""
    finite = np.isfinite(g)
    if np.count_nonzero(finite) < g.size:  # cheaper than .all() on a one-node run
        i = int(np.argmin(finite.all(axis=1)))
        raise SolverError(f"{what} at {where(i)} returned a non-finite value")


def _point_error(what: str, at: str, error: Exception) -> SolverError:
    return SolverError(f"{what} evaluation failed at {at}: {error}")


# a per-point callable is called, and its outputs assembled, this many
# points at a time: transient memory is one chunk of Python outputs
_CHUNK = 1024


def _assemble(outs: list, g: np.ndarray, start: int, what: str, where) -> None:
    """Write the outputs of a per-point callable into rows start ..
    start + len(outs) - 1 of the (n, dim) array g.

    Each output must have shape () or (1,) when dim = 1 and (dim,)
    otherwise.  One np.array call builds the block; only when it fails
    or gives another shape are the outputs walked in order, and the
    first bad one is reported, after a non-finite value at an earlier
    point (rows before start included).  what names the callable and
    where(i) point i in messages.
    """
    n, dim = len(outs), g.shape[1]
    try:
        block = np.array(outs, dtype=float)
    except (ArithmeticError, TypeError, ValueError):
        pass  # ragged or not numeric: the walk below finds the output
    else:
        if block.shape == (n, dim) or (dim == 1 and block.shape == (n,)):
            g[start : start + n] = block.reshape(n, dim)
            return
    accepted = ((), (1,)) if dim == 1 else ((dim,),)
    for i, out in enumerate(outs, start):
        try:
            if np.shape(out) not in accepted:
                _check_finite(g[:i], what, where)
                shape = np.atleast_1d(np.asarray(out, dtype=float)).shape
                raise SolverError(
                    f"{what} at {where(i)} returned shape {shape}, expected ({dim},)"
                )
            g[i] = out
        except (ArithmeticError, ValueError) as e:
            _check_finite(g[:i], what, where)
            raise _point_error(what, where(i), e) from e


def _looped(f, args: tuple, dim: int, what: str, where) -> np.ndarray:
    """f called once per point i on row i of args, as an (n, dim) array.

    The points go in order, _CHUNK at a time: the outputs of a chunk are
    collected in a list and assembled into the result at once
    (_assemble).  When f raises, the outputs of the earlier points are
    validated first; a ValueError or ArithmeticError then becomes the
    error of point i, any other exception propagates.
    """
    n = args[0].shape[0]
    g = np.empty((n, dim))
    for start in range(0, n, _CHUNK):
        chunk = [a[start : start + _CHUNK] for a in args]
        outs: list = []
        try:  # on a raise, outs holds the outputs of the earlier points
            outs.extend(map(f, *(a.tolist() if a.ndim == 1 else a for a in chunk)))
        except Exception as e:
            failure = e
        else:
            failure = None
        _assemble(outs, g, start, what, where)  # an earlier bad point comes first
        if failure is not None:
            stop = start + len(outs)
            if not isinstance(failure, (ArithmeticError, ValueError)):
                raise failure
            _check_finite(g[:stop], what, where)
            raise _point_error(what, where(stop), failure) from failure
    return g


def _batched(f, args: tuple, dim: int, what: str, where) -> np.ndarray:
    """f called once on all n rows of args, as an (n, dim) array; an
    (n,) output is accepted when dim = 1.  When f raises a ValueError or
    ArithmeticError, the points are re-run one at a time, on the error
    path only, to name the first that fails or is not finite."""
    n = args[0].shape[0]
    try:
        g = np.asarray(f(*args), dtype=float)
    except (ArithmeticError, ValueError) as e:
        for i in range(n):
            try:
                one = np.asarray(f(*(a[i : i + 1] for a in args)), dtype=float)
            except (ArithmeticError, ValueError) as point_error:
                raise _point_error(what, where(i), point_error) from point_error
            _check_finite(one.reshape(1, -1), what, lambda _: where(i))
        raise SolverError(f"{what} evaluation failed on {where(0)} .. {where(n - 1)}: {e}") from e
    if dim == 1 and g.shape == (n,):
        g = g.reshape(n, 1)
    if g.shape != (n, dim):
        raise SolverError(
            f"{what} on {where(0)} .. {where(n - 1)} returned shape {g.shape}, expected ({n}, {dim})"
        )
    return g


def _sample(f, vectorized: bool, args: tuple, dim: int, what: str, where) -> np.ndarray:
    """f on the n rows of args, as an (n, dim) array of finite values:
    one call when vectorized, else one per point.  Errors are
    SolverErrors that name the first offending point as where(i).

    This is the one sampling rule of the package: the solvers sample
    the right-hand side and the delay history with it, and
    ImpulseSchedule the jump maps."""
    g = (_batched if vectorized else _looped)(f, args, dim, what, where)
    _check_finite(g, what, where)
    return g


def _history_values(delay: "DelaySpec", times: np.ndarray, dim: int) -> np.ndarray:
    """history(s) for each s in times, as one (len(times), dim) array."""
    return _sample(
        delay.history, delay.vectorized, (times,), dim, "history",
        lambda i: f"t={float(times[i])!r}",
    )


@dataclass(frozen=True)
class ImpulseSchedule:
    """Impulse times with their jump maps and declared bound certificates.

    jumps[k] maps the left limit x(t_k-) to the increment
    I_k(x(t_k-)); jump_bound / jump_lip are user-declared uniform bound
    and Lipschitz constants for all maps (they are certificates, not
    derived quantities).  jump_bound_star is the bound consumed by the
    a-priori existence route and falls back to jump_bound when unset.

    vectorized has the meaning of RhsSpec.vectorized.  With False (the
    default) each map is called with one (d,) state and returns a (d,)
    array, or a scalar when d = 1.  With True, spot_check calls each
    map once on an (n, d) batch of states, and the map returns an
    (n, d) array, or (n,) when d = 1, row i from state i alone, and
    the solvers apply it to the (1, d) batch of one state, so a
    vectorized map only ever sees batches.  Jump maps built from a
    config file set it.
    """

    times: tuple[float, ...] = ()
    jumps: tuple[Callable, ...] = ()
    jump_bound: float | None = None
    jump_lip: float | None = None
    jump_bound_star: float | None = None
    vectorized: bool = False

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
        """Increment I_k at the (d,) state x, in one call (on x[None] when vectorized).

        The map is sampled by the rule of the right-hand side (_sample):
        a ValueError or ArithmeticError from it, a wrong shape or a
        non-finite value raises SolverError naming impulse k and t_k.
        """
        where = lambda _: f"impulse {k} (t={self.times[k]!r})"
        return _sample(self.jumps[k], self.vectorized, (x[None, :],), x.shape[0], "jump", where)[0]

    def spot_check(self, radius: float, dim: int, samples: int = 100):
        """Sample each jump map at random states |x| <= radius and verify the
        declared jump_bound / jump_lip hold there.

        The states come from a generator with a fixed seed, so a check
        passes or fails the same way on every run.  A vectorized map is
        called once on all the samples of its impulse, any other map
        once per sample; both are sampled by the rule of the right-hand
        side (_sample), so the verdict and the messages do not depend
        on the flag.  Raises ProblemError naming the offending impulse,
        and the sample when the map fails on it or returns a wrong shape
        or a non-finite value.  This guards against gross
        misdeclaration only; it proves nothing globally.
        """
        if self.jump_bound is None and self.jump_lip is None:
            return
        rng = np.random.default_rng(20240801)
        radius = float(radius)
        for k, tk in enumerate(self.times):
            direc = rng.standard_normal((samples, dim))
            direc /= np.maximum(np.linalg.norm(direc, axis=1, keepdims=True), 1e-300)
            radii = radius * rng.random((samples, 1)) ** (1.0 / dim)
            xs = direc * radii
            try:
                vals = _sample(
                    self.jumps[k], self.vectorized, (xs,), dim,
                    f"impulse {k} at t={tk!r}: jump",
                    lambda i: f"sample {i} (x={xs[i].tolist()!r})",
                )
            except SolverError as e:  # a misdeclared map is an input error here
                raise ProblemError(str(e)) from e
            if self.jump_bound is not None:
                worst = float(np.max(np.linalg.norm(vals, axis=1)))
                if worst > self.jump_bound * (1.0 + 1e-9) + 1e-12:
                    raise ProblemError(
                        f"impulse {k} at t={tk!r}: |I_k| reached "
                        f"{worst:.6g} > declared jump_bound {self.jump_bound:.6g}"
                    )
            if self.jump_lip is not None:
                perm = rng.permutation(samples)
                ys, vals2 = xs[perm], vals[perm]
                gaps = np.linalg.norm(vals - vals2, axis=1)
                dists = np.linalg.norm(xs - ys, axis=1)
                bad = gaps > self.jump_lip * dists * (1.0 + 1e-9) + 1e-12
                if np.any(bad):
                    i = int(np.argmax(bad))
                    raise ProblemError(
                        f"impulse {k} at t={tk!r}: jump map moved "
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
    """Finite delay r > 0 with history phi on [-r, 0]; r need not fit the mesh.

    history maps s in [-r, 0] to the state; sample_times optionally
    lists the knots of a sampled history so the sup-norm window can
    include them.

    vectorized has the meaning of RhsSpec.vectorized: with True the
    solvers sample the history grid in one call, with an (n,) array of
    times, and history returns an (n, d) array, or (n,) when d = 1,
    row i from time i alone; history_sup_norm samples its window the
    same way.  Problem validation samples history(0) and history(-r) by
    the same rule but one float at a time, so a vectorized history must
    accept a float too.  Histories built from a config file set it.
    """

    r: float
    history: Callable
    sample_times: tuple[float, ...] = ()
    vectorized: bool = False

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

        x0_given = self.x0 is not None
        if x0_given:
            x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        elif self.delay is None:
            raise ProblemError("x0 required for problems without history")
        else:  # history(0), called once; its errors read like the sampled ones
            try:
                x0 = np.atleast_1d(np.asarray(self.delay.history(0.0), dtype=float))
            except (ArithmeticError, ValueError) as e:
                raise ProblemError(str(_point_error("history", "t=0.0", e))) from e
        if x0.ndim != 1 or x0.size < 1 or not np.all(np.isfinite(x0)):
            raise ProblemError("x0 must be a finite 1-D state")
        object.__setattr__(self, "x0", x0)

        if self.delay is not None:
            # history must be evaluable across its domain; one float at a time
            times = np.array([0.0, -self.delay.r] if x0_given else [-self.delay.r])
            where = lambda i: f"t={float(times[i])!r}"
            try:
                phi = _sample(self.delay.history, False, (times,), x0.size, "history", where)
            except SolverError as e:
                raise ProblemError(str(e)) from e
            if x0_given and not np.array_equal(phi[0], x0):
                raise ProblemError(
                    f"x0 must equal history(0): {x0!r} vs {phi[0]!r}"
                )

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

    nodes[boundary_idx[j]] .. nodes[boundary_idx[j+1]] spans segment j,
    with step seg_steps[j], and impulse_idx = boundary_idx[1:-1].  The
    steps agree to STEP_ULPS ulps.  On a grid k h with inserted nodes
    each is h, and the cells cut by an off-grid impulse are shorter.
    Delay problems use the same meshes: r need not be a multiple of h.
    """

    nodes: np.ndarray
    boundary_idx: tuple[int, ...]
    seg_steps: tuple[float, ...]

    @property
    def impulse_idx(self) -> tuple[int, ...]:
        return self.boundary_idx[1:-1]

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    def node_index(self, t: float) -> int | None:
        """Index of the node within 1e-12 * max(1, |t|) of t, or None.

        The slack lets computed times such as 0.1 + 0.2 or t - r find
        the node they miss by an ulp or so.
        """
        slack = 1e-12 * max(1.0, abs(t))
        i = int(np.searchsorted(self.nodes, t - slack))
        return i if i < self.nodes.size and self.nodes[i] <= t + slack else None


def _one_step(steps) -> bool:
    """Whether the steps agree with the first to STEP_ULPS ulps."""
    return all(abs(steps[0] - h) <= STEP_ULPS * math.ulp(h) for h in steps)


def _check_nodes(n: int) -> None:
    if n > MAX_MESH_NODES:
        raise MeshError(f"mesh would need {n} nodes, over the {MAX_MESH_NODES} cap; enlarge target_h")


def build_mesh(spec: ProblemSpec, target_h: float) -> Mesh:
    """Build the solver mesh for spec with steps no larger than target_h.

    Each inter-impulse segment gets ceil(length / target_h) equal steps
    if these agree to STEP_ULPS ulps; otherwise the nodes are the grid
    k h, h = T / ceil(T / target_h), plus each impulse time that is not
    bitwise a grid node.  A delay r plays no part: any r and impulse
    layout get the mesh that the same problem without the delay gets.
    """
    target_h = float(target_h)
    if not (target_h > 0.0 and math.isfinite(target_h)):
        raise MeshError(f"target_h must be positive and finite, got {target_h!r}")
    if spec.T / target_h > MAX_MESH_NODES:  # any mesh goes over; the counts may overflow
        raise MeshError(
            f"mesh would need T / target_h = {spec.T / target_h:.6g} steps, over the "
            f"{MAX_MESH_NODES} cap; enlarge target_h"
        )
    edges = [0.0, *spec.impulses.times, spec.T]
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    counts = [max(1, math.ceil(L / target_h - 1e-12)) for L in lengths]
    seg_steps = tuple(L / n for L, n in zip(lengths, counts))
    if _one_step(seg_steps):
        _check_nodes(sum(counts) + 1)
        segments = zip(edges, edges[1:], counts)
        nodes = np.concatenate([np.linspace(a, b, n + 1)[j > 0 :] for j, (a, b, n) in enumerate(segments)])
        boundary_idx = [0, *np.cumsum(counts).tolist()]
    else:  # the grid k h with the off-grid impulse times inserted
        n = max(1, math.ceil(spec.T / target_h - 1e-12))
        _check_nodes(n + 1)
        grid = np.linspace(0.0, spec.T, n + 1)
        times = np.array(spec.impulses.times)
        off = times[grid[np.searchsorted(grid, times)] != times]
        nodes = np.insert(grid, np.searchsorted(grid, off), off)
        _check_nodes(nodes.size)
        boundary_idx = [0, *np.searchsorted(nodes, times).tolist(), nodes.size - 1]
        seg_steps = (spec.T / n,) * len(lengths)

    for tk, idx in zip(spec.impulses.times, boundary_idx[1:-1]):
        if nodes[idx] != tk:
            raise MeshError(f"impulse time {tk!r} failed to land on a node")
    return Mesh(nodes, tuple(boundary_idx), seg_steps)


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

    def evaluate(self, t: float, side: str = "left") -> np.ndarray:
        """Value at time t; side picks the limit at impulse nodes.

        A t that Mesh.node_index places on a node counts as that node.
        Off impulse nodes both sides agree; inside a cell the value is
        the linear interpolant of the adjacent node values (using the
        right limit at a cell's left endpoint when that endpoint is an
        impulse node).
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        t = float(t)
        nodes = self.mesh.nodes
        if not nodes[0] <= t <= nodes[-1]:  # nan fails too
            raise ValueError(f"t={t!r} outside [{float(nodes[0])!r}, {float(nodes[-1])!r}]")
        impulse = self.mesh.impulse_idx
        exact = self.mesh.node_index(t)
        if exact is not None:
            if side == "right" and exact in impulse:
                return self.right_values[impulse.index(exact)].copy()
            return self.values[exact].copy()
        i = int(np.searchsorted(nodes, t)) - 1
        t0, t1 = nodes[i], nodes[i + 1]
        w = (t - t0) / (t1 - t0)
        start = self.right_values[impulse.index(i)] if i in impulse else self.values[i]
        return (1.0 - w) * start + w * self.values[i + 1]


def history_sup_norm(traj: Trajectory, delay: DelaySpec, t: float) -> float:
    """Sup of |x(s)| (euclidean) for s in [t - r, t] on the discrete grid.

    Reads phi for s < 0 and the trajectory for s >= 0.  phi is sampled
    by the solvers' rule, so a history that fails or returns a
    non-finite value raises SolverError naming the time.  Sample points
    are the mesh nodes inside the window, t - r and the lags t_l - r
    below 0 of the nodes t_l > t (at a node t, where the solvers sample
    the history of its window), any declared history sample times in the
    window, and both window endpoints.  Impulse nodes strictly inside
    the window contribute their left limit; an impulse node at the
    window's left endpoint contributes its right limit, and a left
    endpoint inside a cell the interpolant of Trajectory.evaluate.  A
    node counts as on the window (and at an endpoint) to
    Mesh.node_index's 1e-12 relative, so t - r matches its node on
    non-dyadic steps too.
    """
    mesh, t = traj.mesh, float(t)
    nodes = mesh.nodes
    if not 0.0 <= t <= nodes[-1]:  # nan fails too
        raise ValueError(f"t={t!r} outside [0, T]")
    lo = t - delay.r

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

    # history part: t - r and the lags below zero of the nodes right of
    # t, plus declared knots
    if lo < 0.0:
        lags = nodes[nodes > t] - delay.r
        ss = [lo, *lags[lags < 0.0].tolist(), min(0.0, t)]
        ss += [s for s in delay.sample_times if lo - 1e-12 <= s < 0.0]
        vals = _history_values(delay, np.array(ss), traj.dim)
        sup = max(sup, float(np.max(np.linalg.norm(vals, axis=1))))
    return sup
