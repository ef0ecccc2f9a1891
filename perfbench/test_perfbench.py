"""Tests of the benchmark itself: oracle, span arithmetic, input generator."""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402

from fracimpulse import build_mesh, solve_picard  # noqa: E402
from fracimpulse.special import mittag_leffler  # noqa: E402


def test_oracle_matches_mittag_leffler_series():
    case = harness.LinearCase(lam=1.7, x0=0.9, c=-0.6, t1=0.25, n_nodes=65)
    series = case.x0 * mittag_leffler(0.5, -case.lam) + case.c * mittag_leffler(
        0.5, -case.lam * (1.0 - case.t1) ** 0.5
    )
    assert harness.oracle_xT(case) == pytest.approx(series, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("t1", harness.T1_CHOICES)
def test_oracle_agrees_with_picard_to_discretisation_error(t1):
    errs = []
    for n in (257, 513):
        case = harness.LinearCase(lam=2.0, x0=1.2, c=0.8, t1=t1, n_nodes=n)
        spec = harness.linear_spec(case)
        report = solve_picard(spec, build_mesh(spec, case.h))
        assert report.converged
        err = abs(report.trajectory.values[-1, 0] - harness.oracle_xT(case))
        assert err <= harness.oracle_tol(case)
        errs.append(err)
    # first order: halving h halves the error, so it is discretisation error
    assert 1.7 <= errs[0] / errs[1] <= 2.3


def test_self_times_of_synthetic_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]; second root [20, 21]
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 21.0]
    parent = [-1, 0, 1, 0, -1]
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0, 1.0])
    secs, calls, top = layer_totals(["root", "a", "b", "c"], [0, 1, 2, 3, 0], start, end, parent)
    assert secs == {"root": 4.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert calls == {"root": 2, "a": 1, "b": 1, "c": 1}
    assert top == 11.0 == sum(secs.values())


def test_recursive_function_counts_and_times_only_outermost_call():
    # a module whose function recurses through its own global name, as
    # exprlang.evaluate does
    mod = SimpleNamespace()

    def evaluate(depth):
        return 0 if depth == 0 else 1 + mod.evaluate(depth - 1)

    mod.evaluate = evaluate
    tracer = Tracer()
    tracer.patch(mod, "evaluate", "exprlang.evaluate", outermost_only=True)
    rhs = tracer.wrap("problem.rhs", lambda: mod.evaluate(5) + mod.evaluate(3))
    with tracer.top_call():
        assert rhs() == 8
    tracer.uninstall()
    assert mod.evaluate is evaluate

    a = tracer.arrays()
    secs, calls, top = layer_totals(tracer.names, a["name"], a["start"], a["end"], a["parent"])
    assert calls == {"bench.call": 1, "problem.rhs": 1, "exprlang.evaluate": 2}
    assert set(a["top"]) == {0}
    assert sum(secs.values()) == pytest.approx(top, rel=1e-12)
    assert all(v >= 0.0 for v in secs.values())


def test_traced_library_call_adds_up():
    workload = harness.make_workload("marching-shared")
    case = harness.LinearCase(lam=1.0, x0=1.0, c=0.5, t1=0.5, n_nodes=65)
    ctx = harness.TraceContext()
    outcomes = [harness.execute(call, c) for call in workload.calls(case) for c in (None, ctx)]
    assert [o.error for o in outcomes] == [None] * 4
    metrics, error = harness.per_layer(ctx, outcomes)
    assert error is None
    assert metrics["fracquad.build_weights.calls"] == 2.0
    assert metrics["problem.rhs.calls_per_node"] >= 1.0
    assert metrics["exprlang.evaluate.calls"] == 0.0


def test_generator_is_deterministic():
    for make in (harness.dense_picard_round, harness.marching_shared_round, harness.config_cli_round):
        assert [make(7, r) for r in range(4)] == [make(7, r) for r in range(4)]
        assert make(7, 0) != make(8, 0)


def test_dense_picard_meshes_are_pairwise_distinct_and_single_step():
    for seed in range(5):
        cases = [c for r in range(30) for c in harness.dense_picard_round(seed, r)]
        assert harness.dense_picard_round(seed, 30) is None
        sizes = [c.n_nodes for c in cases]
        assert len(set(sizes)) == len(sizes)
        assert min(sizes) == 6145 and max(sizes) == 8193
        assert all(n % 4 == 1 and 0.5 <= c.lam <= 2.0 for n, c in zip(sizes, cases))
    case = cases[0]
    mesh = build_mesh(harness.linear_spec(case), case.h)
    assert mesh.n_nodes == case.n_nodes
    assert max(mesh.seg_steps) - min(mesh.seg_steps) <= 1e-15


def test_dense_picard_median_solve_is_a_middle_one():
    # time rises with N and lam: any whole number of rounds puts the
    # three round-0 solves in the middle
    for seed in range(5):
        middle = harness.dense_picard_round(seed, 0)
        run = [c for r in range(8) for c in harness.dense_picard_round(seed, r)]
        for n in range(1, len(run) + 1):  # a run may stop after any solve
            by_size = sorted(run[:n], key=lambda c: c.n_nodes)
            assert by_size == sorted(run[:n], key=lambda c: c.lam)
            assert by_size[(n - 1) // 2] in middle and by_size[n // 2] in middle


def test_marching_shared_uses_one_mesh():
    cases = [c for r in range(6) for c in harness.marching_shared_round(3, r)]
    assert {(c.n_nodes, c.t1) for c in cases} == {(harness.MARCH_NODES, harness.MARCH_T1)}
    assert len({c.lam for c in cases}) == len(cases)
    meshes = [build_mesh(harness.linear_spec(c), c.h) for c in cases[:3]]
    assert all(np.array_equal(m.nodes, meshes[0].nodes) for m in meshes)


def test_config_edits_keep_declared_jump_bounds(tmp_path):
    workload = harness.make_workload("config-cli")
    workload.setup(tmp_path)
    cases = harness.config_cli_round(5, 0)
    kinds = [(c.example, c.target_h) for c in cases]
    assert sorted(kinds[1::2]) == sorted(harness.CLI_OTHERS)
    assert set(kinds[::2]) == {harness.DOMINANT}
    for case in cases:
        data = workload.config(case)
        bound = data["certificate"].get("jump_bound", data["certificate"].get("jump_bound_star"))
        assert all(0.0 < float(imp["jump"]) <= bound for imp in data["problem"]["impulses"])
        assert harness.expected_nodes(data) in (1025, 1027, 2049, 2051)
