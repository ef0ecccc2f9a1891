"""The structured weight operator against its dense reference.

Properties are drawn over random orders, horizons, impulse layouts and
meshes whose segments share one step (a single Toeplitz run) or do not
(a grid with the off-grid impulse times inserted as nodes).
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fracimpulse.config import builtin_example, parse_config
from fracimpulse.fracquad import BLOCK, WEIGHT_BYTES_BUDGET, build_weights
from fracimpulse.problem import (
    ImpulseSchedule,
    Mesh,
    MeshError,
    ProblemSpec,
    RhsSpec,
    build_mesh,
)
from fracimpulse.solver import _rows
from fracimpulse.special import gamma

REL = 1e-12
PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _spec(T, times):
    return ProblemSpec(
        alpha=0.5,
        T=T,
        rhs=RhsSpec(kind="plain", f=lambda t, x: x),
        x0=np.array([1.0]),
        impulses=ImpulseSchedule(times=times, jumps=tuple(lambda x: x for _ in times)),
    )


@st.composite
def meshes(draw, max_steps=400):
    """A mesh of at most max_steps + 1 nodes on [0, T] with 0-3 impulses."""
    T = draw(st.floats(0.2, 4.0))
    n_imp = draw(st.integers(0, 3))
    if draw(st.booleans()):  # one step h for every segment
        n = draw(st.integers(8 * (n_imp + 1), max_steps))
        cuts = sorted(draw(st.sets(st.integers(4, n - 4), min_size=n_imp, max_size=n_imp)))
        h = T / n
        return Mesh(
            nodes=h * np.arange(n + 1.0),
            boundary_idx=(0, *cuts, n),
            seg_steps=(h,) * (n_imp + 1),
        )
    fracs = sorted(draw(st.sets(st.integers(1, 19), min_size=n_imp, max_size=n_imp)))
    times = tuple(T * f / 20.0 for f in fracs)
    target_h = T / draw(st.integers(max(40, 25 * n_imp), max_steps))
    return build_mesh(_spec(T, times), target_h)


def _extend(mesh, extra):
    """The same mesh with its last segment `extra` steps longer."""
    h = mesh.seg_steps[-1]
    nodes = np.concatenate([mesh.nodes, mesh.nodes[-1] + h * np.arange(1.0, extra + 1.0)])
    return Mesh(
        nodes=nodes,
        boundary_idx=(*mesh.boundary_idx[:-1], mesh.boundary_idx[-1] + extra),
        seg_steps=mesh.seg_steps,
    )


def _online(table, g):
    """W @ g through table.windows, with the rows of g that no window has
    finished yet set to nan, so a read ahead of the solver shows.  The
    windows must hold at most BLOCK nodes and cover 1 .. N in order."""
    g = g.reshape(table.n_nodes, -1)
    out = np.zeros_like(g)
    finished = np.full_like(g, np.nan)
    finished[0] = g[0]
    nxt = 1
    for lo, base, near in table.windows(finished):
        n = base.shape[0]
        assert lo == nxt and 1 <= n <= BLOCK and near.shape == (n, n)
        finished[lo : lo + n] = g[lo : lo + n]
        out[lo : lo + n] = base + near @ g[lo : lo + n]
        nxt = lo + n
    assert nxt == table.n_nodes
    return out


def _marching_reads(table, g):
    """Row j's product with g[:j] and its diagonal weight for every j, as
    marching reads them (solver._rows), with the rows of g right of j set
    to nan.  The rows must come in order 1 .. N."""
    g = g.reshape(table.n_nodes, -1)
    history, diag = np.zeros_like(g), np.zeros(table.n_nodes)
    finished = np.full_like(g, np.nan)
    finished[0] = g[0]
    nxt = 1
    for j, hist, wjj in _rows(table, finished):
        assert j == nxt
        history[j], diag[j] = hist, wjj
        finished[j] = g[j]
        nxt = j + 1
    assert nxt == table.n_nodes
    return history, diag


def _same_prefix(long_table, short_table, g):
    """Whether the long table's first rows read like the short one's, bitwise."""
    n = short_table.n_nodes
    pairs = zip(_marching_reads(long_table, g), _marching_reads(short_table, g[:n]))
    return all(np.array_equal(a[:n], b) for a, b in pairs)


alphas = st.floats(0.05, 0.95)
schemes = st.sampled_from(["rectangle", "trapezoid"])


@PROPERTY
@given(mesh=meshes(), alpha=alphas, scheme=schemes, d=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_apply_windows_and_marching_rows_match_dense(mesh, alpha, scheme, d, seed):
    table = build_weights(mesh, alpha, scheme)
    W = table.dense()
    g = np.random.default_rng(seed).standard_normal((mesh.n_nodes, d))
    scale = np.abs(W) @ np.abs(g)
    assert np.all(np.abs(table.apply(g) - W @ g) <= REL * scale)
    assert np.all(np.abs(_online(table, g) - W @ g) <= REL * scale)
    history, diag = _marching_reads(table, g)
    strict = np.tril(W, -1)
    assert np.all(np.abs(history - strict @ g) <= REL * (np.abs(strict) @ np.abs(g)))
    assert np.all(np.abs(diag - np.diag(W)) <= REL * np.abs(np.diag(W)))


@PROPERTY
@given(mesh=meshes(), alpha=alphas, scheme=schemes)
def test_rows_integrate_one_exactly(mesh, alpha, scheme):
    got = build_weights(mesh, alpha, scheme).apply(np.ones(mesh.n_nodes))
    exact = mesh.nodes**alpha / gamma(alpha + 1.0)
    assert got[0] == 0.0
    assert np.all(np.abs(got[1:] - exact[1:]) <= REL * exact[1:])


@PROPERTY
@given(mesh=meshes(), alpha=alphas)
def test_trapezoid_exact_on_linear(mesh, alpha):
    t = mesh.nodes
    got = build_weights(mesh, alpha, "trapezoid").apply(t)
    exact = gamma(2.0) / gamma(2.0 + alpha) * t ** (1.0 + alpha)
    assert got[0] == 0.0
    assert np.all(np.abs(got[1:] - exact[1:]) <= REL * exact[1:])


@PROPERTY
@given(mesh=meshes(), alpha=alphas, scheme=schemes, d=st.integers(1, 2), data=st.data())
def test_apply_is_causal_bitwise(mesh, alpha, scheme, d, data):
    table = build_weights(mesh, alpha, scheme)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((mesh.n_nodes, d))
    j = data.draw(st.integers(0, mesh.n_nodes - 2))
    changed = g.copy()
    changed[j + 1 :] = rng.standard_normal(changed[j + 1 :].shape)
    assert np.array_equal(table.apply(changed)[: j + 1], table.apply(g)[: j + 1])


@PROPERTY
@given(
    mesh=meshes(),
    alpha=alphas,
    scheme=schemes,
    extra=st.integers(1, 1500),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefix_bitwise_across_mesh_lengths(mesh, alpha, scheme, extra, seed):
    longer = _extend(mesh, extra)
    short_table = build_weights(mesh, alpha, scheme)
    long_table = build_weights(longer, alpha, scheme)
    g = np.random.default_rng(seed).standard_normal(longer.n_nodes)
    n = mesh.n_nodes
    assert np.array_equal(long_table.apply(g)[:n], short_table.apply(g[:n]))
    assert _same_prefix(long_table, short_table, g)


def test_far_blocks_match_dense_on_a_long_run():
    # 2049 nodes reach five FFT levels beyond the diagonal blocks
    mesh = build_mesh(_spec(1.0, ()), 2.0**-11)
    table = build_weights(mesh, 0.3, "trapezoid")
    W = table.dense()
    g = np.cos(7.0 * mesh.nodes)
    scale = np.abs(W) @ np.abs(g)
    assert np.all(np.abs(table.apply(g) - W @ g) <= REL * scale)
    assert np.all(np.abs(_online(table, g)[:, 0] - W @ g) <= REL * scale)


def test_near_equal_steps_form_one_run():
    # the builtin logistic mesh at 2^-11: segment steps 0.3/615 and
    # 0.4/820 are both 1/2050 but differ in the last bit
    mesh = build_mesh(parse_config(builtin_example("logistic")).problem, 2.0**-11)
    assert len(set(mesh.seg_steps)) > 1
    for scheme in ("rectangle", "trapezoid"):
        table = build_weights(mesh, 0.5, scheme)
        assert table.node_rows == () and table.grid.size == mesh.n_nodes
        assert table.weights.nbytes <= 64 * 8 * mesh.n_nodes
        W = table.dense()
        g = np.cos(7.0 * mesh.nodes)
        assert np.all(np.abs(table.apply(g) - W @ g) <= REL * (np.abs(W) @ np.abs(g)))


def test_two_step_mesh_is_refused():
    # steps 1% apart are neither one step nor a grid plus inserted nodes
    n1, n2 = 100, 101
    nodes = np.concatenate([np.linspace(0.0, 0.5, n1 + 1), np.linspace(0.5, 1.0, n2 + 1)[1:]])
    mesh = Mesh(nodes=nodes, boundary_idx=(0, n1, n1 + n2), seg_steps=(0.5 / n1, 0.5 / n2))
    with pytest.raises(MeshError, match="more than one step"):
        build_weights(mesh, 0.5, "trapezoid")
    # one step, but a node off the grid that is no impulse node
    nodes = np.linspace(0.0, 1.0, 101)
    nodes = np.insert(nodes, 30, 0.2951)
    mesh = Mesh(nodes=nodes, boundary_idx=(0, 101), seg_steps=(0.01,))
    with pytest.raises(MeshError, match="neither one step nor a grid"):
        build_weights(mesh, 0.5, "trapezoid")
    # one step and T / h cells, but the nodes of a segment 1e-10 too long
    # lie up to 1e-10 off the grid, which the Toeplitz weights assume
    nodes = np.concatenate([np.linspace(0.0, 0.3 + 1e-10, 7), np.linspace(0.3 + 1e-10, 1.0, 15)[1:]])
    for idx in ((0, 6, 20), (0, 20)):
        mesh = Mesh(nodes=nodes, boundary_idx=idx, seg_steps=(0.05,) * (len(idx) - 1))
        with pytest.raises(MeshError, match="neither one step nor a grid"):
            build_weights(mesh, 0.5, "trapezoid")


def test_single_step_storage_is_linear():
    mesh = build_mesh(_spec(1.0, (0.5,)), 2.0**-14)
    assert len(mesh.seg_steps) == 2 and mesh.seg_steps[0] == mesh.seg_steps[1]
    for scheme in ("rectangle", "trapezoid"):
        table = build_weights(mesh, 0.5, scheme)
        assert table.weights.nbytes <= 64 * 8 * mesh.n_nodes


def test_inserted_node_storage_is_linear():
    # a jump at 0.3 on the grid of step 2^-14: one inserted node, its row
    # and the correction columns of its cut cell
    mesh = build_mesh(_spec(1.0, (0.3,)), 2.0**-14)
    assert mesh.n_nodes == 2**14 + 2 and mesh.seg_steps == (2.0**-14,) * 2
    for scheme in ("rectangle", "trapezoid"):
        table = build_weights(mesh, 0.5, scheme)
        assert [q for q, _ in table.node_rows] == [mesh.impulse_idx[0], mesh.impulse_idx[0] + 1]
        assert table.weights.nbytes <= 2**21


def test_inserted_node_build_keeps_temporaries_small():
    # the builtin logistic mesh at 2^-10: its segment steps 0.3/308 and
    # 0.4/410 differ, so 0.3 and 0.6 are inserted into the grid k 2^-10
    mesh = build_mesh(parse_config(builtin_example("logistic")).problem, 2.0**-10)
    assert mesh.n_nodes == 1027 and mesh.seg_steps == (2.0**-10,) * 3
    tracemalloc.start()
    try:
        table = build_weights(mesh, 0.5, "trapezoid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.node_rows) == 4 and table.weights.nbytes <= 2**17
    assert peak - table.weights.nbytes < 2**19


def test_budget_refuses_many_inserted_nodes_before_allocating():
    # 1500 off-grid jumps on the grid of step 1/30000: 4501 correction
    # columns of 2^15 floats each would take about 1.2 GB
    times = tuple((np.arange(1500) + 0.37) / 1500.0)
    mesh = build_mesh(_spec(1.0, times), 1.0 / 30000.0)
    assert mesh.n_nodes == 30001 + 1500
    tracemalloc.start()
    try:
        with pytest.raises(MeshError, match=r"needs \d+ bytes") as err:
            build_weights(mesh, 0.5, "trapezoid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(re.search(r"needs (\d+) bytes", str(err.value)).group(1)) > WEIGHT_BYTES_BUDGET
    assert peak < 2**24


def test_dense_reference_refuses_over_budget():
    n = math.isqrt(WEIGHT_BYTES_BUDGET // 8) + 1
    mesh = Mesh(nodes=np.linspace(0.0, 1.0, n), boundary_idx=(0, n - 1), seg_steps=(1.0 / (n - 1),))
    table = build_weights(mesh, 0.5, "trapezoid")
    tracemalloc.start()
    try:
        with pytest.raises(MeshError, match=f"needs {8 * n * n} bytes"):
            table.dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _run_mesh(n, cut=False):
    """n grid nodes of step 2^-11, and with cut a node inserted at 5.3
    steps, as the impulse node of a jump there."""
    h = 2.0**-11
    nodes = h * np.arange(n)
    if not cut:
        return Mesh(nodes=nodes, boundary_idx=(0, n - 1), seg_steps=(h,))
    return Mesh(nodes=np.insert(nodes, 6, 5.3 * h), boundary_idx=(0, 6, n), seg_steps=(h, h))


class TestRunLengthsAroundPowersOfTwo:
    """Grids of 2^k, 2^k + 1 and 2^k + 2 nodes: the index space holds the
    grid rows, so 2^k + 1 nodes still fit a 2^k pad."""

    LENGTHS = [64, 65, 66, 2048, 2049, 2050]

    @pytest.mark.parametrize("scheme", ["rectangle", "trapezoid"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_apply_matches_dense(self, n, scheme):
        for cut in (False, True) if n < 100 else (False,):
            mesh = _run_mesh(n, cut)
            table = build_weights(mesh, 0.4, scheme)
            W = table.dense()
            g = np.stack([np.cos(7.0 * mesh.nodes), 1.0 - mesh.nodes], axis=1)
            scale = np.abs(W) @ np.abs(g)
            assert np.all(np.abs(table.apply(g) - W @ g) <= REL * scale)
            assert np.all(np.abs(_online(table, g) - W @ g) <= REL * scale)

    @pytest.mark.parametrize("scheme", ["rectangle", "trapezoid"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_apply_is_causal_bitwise(self, n, scheme):
        for cut in (False, True):
            mesh = _run_mesh(n, cut)
            table = build_weights(mesh, 0.4, scheme)
            rng = np.random.default_rng(n)
            g = rng.standard_normal((mesh.n_nodes, 1))
            full = table.apply(g)
            for j in {1, 63, 64, mesh.n_nodes - 3, mesh.n_nodes - 2}:
                changed = g.copy()
                changed[j + 1 :] = rng.standard_normal(changed[j + 1 :].shape)
                assert np.array_equal(table.apply(changed)[: j + 1], full[: j + 1])

    @pytest.mark.parametrize("scheme", ["rectangle", "trapezoid"])
    @pytest.mark.parametrize("n", [64, 65, 2048, 2049])
    def test_prefix_bitwise_across_the_length_boundary(self, n, scheme):
        for cut in (False, True):
            short, longer = _run_mesh(n, cut), _run_mesh(n + 1, cut)
            short_table = build_weights(short, 0.4, scheme)
            long_table = build_weights(longer, 0.4, scheme)
            g = np.random.default_rng(n).standard_normal(longer.n_nodes)
            assert np.array_equal(long_table.apply(g)[:-1], short_table.apply(g[:-1]))
            assert _same_prefix(long_table, short_table, g)

    @pytest.mark.parametrize("scheme", ["rectangle", "trapezoid"])
    @pytest.mark.parametrize("k", [6, 11])
    def test_one_node_past_a_power_of_two_stores_the_same_bytes(self, k, scheme):
        tables = [build_weights(_run_mesh(2**k + extra), 0.4, scheme) for extra in (0, 1, 2)]
        assert tables[0].gen.size == tables[1].gen.size == 2**k + 1
        assert tables[0].weights.tobytes() == tables[1].weights.tobytes()
        assert tables[2].weights.nbytes > tables[1].weights.nbytes  # the pad doubles


@pytest.mark.parametrize("scheme", ["rectangle", "trapezoid"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("times", [(), (0.3, 0.6)])
def test_added_correction_entries_match_dense(times, d, scheme):
    # entries at random columns, at the last node of the first block of
    # BLOCK grid rows, the first of the next one and the last column: apply
    # adds each, windows once its column is final or inside the window
    mesh = build_mesh(_spec(1.0, times), 1.0 / 150.0)
    table = build_weights(mesh, 0.4, scheme)
    n = mesh.n_nodes - 1
    rng = np.random.default_rng(n + d)
    grid, rows = table.grid, table.grid.size - 1
    W = table.dense()
    added = []
    for col in sorted({*rng.integers(0, n + 1, 4).tolist(), int(grid[BLOCK]), int(grid[BLOCK + 1]), n}):
        v = np.zeros(table.gen.size - 1)
        v[:rows] = np.where(grid[1:] >= col, rng.standard_normal(rows), 0.0)
        W[grid[1:], col] += v[:rows]
        added.append((col, v))
    table = dataclasses.replace(table, corrections=tuple(sorted(table.corrections + tuple(added), key=lambda e: e[0])))
    g = rng.standard_normal((mesh.n_nodes, d))
    scale = np.abs(W) @ np.abs(g)
    assert np.all(np.abs(table.apply(g) - W @ g) <= REL * scale)
    assert np.all(np.abs(_online(table, g) - W @ g) <= REL * scale)
    history, diag = _marching_reads(table, g)
    strict = np.tril(W, -1)
    assert np.all(np.abs(history - strict @ g) <= REL * (np.abs(strict) @ np.abs(g)))
    assert np.all(np.abs(diag - np.diag(W)) <= REL * np.abs(np.diag(W)))


def _check_off_grid(mesh, times, alpha, d, seed, extra):
    """The weight invariants on a mesh of a plain problem with jumps at times."""
    assert np.array_equal(mesh.nodes[list(mesh.impulse_idx)], times)
    t = mesh.nodes
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((mesh.n_nodes, d))
    longer = _extend(mesh, extra)
    g_long = rng.standard_normal(longer.n_nodes)
    for scheme in ("rectangle", "trapezoid"):
        table = build_weights(mesh, alpha, scheme)
        exact = t**alpha / gamma(alpha + 1.0)
        got = table.apply(np.ones(mesh.n_nodes))
        assert got[0] == 0.0 and np.all(np.abs(got[1:] - exact[1:]) <= 1e-12 * exact[1:])
        if scheme == "trapezoid":
            exact = gamma(2.0) / gamma(2.0 + alpha) * t ** (1.0 + alpha)
            got = table.apply(t)
            assert np.all(np.abs(got[1:] - exact[1:]) <= 1e-10 * exact[1:])
        W = table.dense()
        scale = np.abs(W) @ np.abs(g)
        assert np.all(np.abs(table.apply(g) - W @ g) <= REL * scale)
        assert np.all(np.abs(_online(table, g) - W @ g) <= REL * scale)
        long_table = build_weights(longer, alpha, scheme)
        n = mesh.n_nodes
        assert np.array_equal(long_table.apply(g_long)[:n], table.apply(g_long[:n]))
        assert _same_prefix(long_table, table, g_long)


@PROPERTY
@given(
    T=st.floats(0.2, 4.0),
    fracs=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=3, unique=True),
    cells=st.floats(20.0, 300.0),
    alpha=alphas,
    d=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    extra=st.integers(1, 200),
)
def test_off_grid_layouts_keep_the_weight_invariants(T, fracs, cells, alpha, d, seed, extra):
    # 1-3 jumps at uniform random times and a random target_h: the
    # impulse times that miss the grid k h are inserted nodes
    times = tuple(sorted(T * f for f in fracs))
    assume(all(b > a for a, b in zip(times, times[1:])))
    mesh = build_mesh(_spec(T, times), T / cells)
    _check_off_grid(mesh, times, alpha, d, seed, extra)


@pytest.mark.parametrize(
    "times, inserted",
    [
        ((0.5 + 1e-12 / 64.0,), 1),  # 1e-12 h right of the grid node 0.5
        ((0.25 - 1e-6 / 64.0, 0.5 + 1e-12 / 64.0), 2),  # and 1e-6 h left of 0.25
        ((0.3, 0.5), 1),  # 0.5 is on the grid and inserts no node
        ((0.3, math.nextafter(0.3, 1.0)), 2),  # one cut cell of three pieces, one an ulp wide
    ],
)
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_inserted_nodes_next_to_grid_nodes(times, inserted, alpha):
    mesh = build_mesh(_spec(1.0, times), 2.0**-6)
    assert mesh.n_nodes == 65 + inserted and mesh.seg_steps == (2.0**-6,) * (len(times) + 1)
    assert build_weights(mesh, alpha, "trapezoid").grid.size == 65
    for d in (1, 2):
        _check_off_grid(mesh, times, alpha, d, seed=d, extra=70)
