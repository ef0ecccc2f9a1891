"""End-to-end CLI scenarios as data: each row is one config and the
commands run on it in-process, with the exit code and the checks that
their output must pass.

A row solves with each of its methods, runs an order study with each of
its order methods and, when asked, check; every command must exit with
the row's code.  To add a scenario, add a row to SCENARIOS: a config
(a builtin example, edited or not, or a dict from plain or delay) and
the fields of Row that it asserts.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from fracimpulse import build_mesh, builtin_example, load_config
from fracimpulse.cli import main
from fracimpulse.fracquad import build_weights

BOTH = ("picard", "marching")
BUILTIN_H_LIST = "0.0625,0.03125,0.015625"


def plain(f: str, alpha=0.5, T=1.0, impulses=(), target_h=None) -> dict:
    """A plain problem with x0 = 1: rhs f and impulses (time, jump)."""
    problem = {"alpha": alpha, "T": T, "x0": 1.0, "rhs": {"kind": "plain", "f": f}}
    if impulses:
        problem["impulses"] = [{"time": t, "jump": jump} for t, jump in impulses]
    return {"problem": problem, **({"numerics": {"target_h": target_h}} if target_h else {})}


def delay(f, r, history, impulses=(), target_h=0.0078125) -> dict:
    """A delay problem, alpha 0.5 on [0, 1], with lag r."""
    problem = {"alpha": 0.5, "T": 1.0, "rhs": {"kind": "delay", "f": f}, "delay": {"r": r, "history": history}}
    if impulses:
        problem["impulses"] = [{"time": t, "jump": jump} for t, jump in impulses]
    return {"problem": problem, "numerics": {"target_h": target_h}}


@dataclass(frozen=True)
class Row:
    config: dict
    solve: tuple = ()  # solve --method m for each m
    order: tuple = ()  # order --method m for each m; None for the config's method
    check: bool = False  # run check
    code: int = 0  # the exit code of every command
    repeat: bool = False  # a second solve with each method writes the same bytes
    gap: float | None = None  # max |picard - marching| over the CSV cells
    rows: int | None = None  # CSV rows below the header
    out: str | None = None  # in the stdout of every command
    err: str | None = None  # the one stderr line of every command starts with it
    h_list: str = BUILTIN_H_LIST
    slope: float | None = None  # the order study's estimated order is at least this
    weights: tuple = ()  # (nodes, bytes): the mesh's nodes; every scheme's weight bytes at most


DELAY_F = "-x + 0.5*xr + 0.3*xtsup/(1 + xtsup)"
HUGE_HISTORY = builtin_example("delay-exp")
HUGE_HISTORY["problem"]["delay"]["history"] = "1e308"

SCENARIOS = {
    # the builtins: order studies with both methods; the logistic's own
    # mesh inserts its jumps at 0.3 and 0.6 into the grid k 2^-10
    "logistic": Row(builtin_example("logistic"), solve=BOTH, order=BOTH, repeat=True, gap=1e-9),
    "delay-exp": Row(builtin_example("delay-exp"), solve=("picard",), order=BOTH, repeat=True),
    "delay-plain": Row(builtin_example("delay-plain"), solve=("picard",), order=BOTH, repeat=True),
    # lam T^alpha = -32: the Mittag-Leffler contour sum is the reference
    "decay-order": Row(
        plain("-32*x", alpha=0.8), order=("marching",),
        h_list="0.0078125,0.00390625,0.001953125", out="closed-form reference",
    ),
    # |lam| T^alpha / Gamma(alpha + 1) = 6.4: whole-mesh sweeps stall and
    # Picard finishes in windows
    "fast-decay": Row(plain("-4*x", T=2.0), solve=BOTH, gap=1e-9, out="converged=yes"),
    # two components, transcendental f and jumps; the window's left end hits
    # the impulse node at t = 0.75
    "two-d-delay": Row(
        delay(
            ["-x1 + 0.1*sin(xr2)", "-0.5*x2 + 0.1*exp(-t)*xtsup/(1 + xtsup)"], 0.25, ["cos(3*t)", "1 + t/3"],
            [(0.5, ["0.1*sin(x2)", "0.05*exp(-x1*x1)"])],
        ),
        solve=BOTH, repeat=True, gap=1e-9,
    ),
    # whole-mesh sweeps stall; windows from the iterate at the switch
    # diverge, predicted windows converge
    "nonlinear-delay": Row(
        delay("-6*x + 0.5*xr - 0.3*xtsup*x", 0.25, "1 + t", [(0.5, "0.3 - 0.2*x")], target_h=0.0009765625),
        solve=BOTH, gap=1e-9, out="converged=yes",
    ),
    # no step divides r, so lags above 0 are interpolated between nodes;
    # the order at T is at least 1 + alpha - 0.15
    "delay-pi": Row(
        delay(DELAY_F, 0.3183098861837907, "1 + t"), solve=BOTH, repeat=True, gap=1e-9,
        order=(None,), h_list="0.0078125,0.00390625,0.001953125", slope=1.35,
    ),
    # numpy seed 0's first layout, r ~ U(0.1, 0.9), t1 ~ U(0.05, 0.95):
    # the lag reads the right limit in the cell after the jump
    "delay-layout": Row(
        delay(DELAY_F, 0.6095693498571635, "1 + t", [(0.29280804238748326, "0.5*x + 0.2")]),
        solve=BOTH, repeat=True, gap=1e-9,
    ),
    # 0.6 is inserted into the grid k 2^-9; Picard's windows split the
    # block of grid nodes around it
    "windowed-inserted-node": Row(
        plain("-4*x", T=2.0, impulses=[(0.6, "0.1")], target_h=0.001953125), solve=BOTH, gap=1e-9, rows=1027,
    ),
    # one inserted node keeps the weights of the grid 2^-14 within 2 MiB
    "off-grid-fine": Row(
        plain("-x", impulses=[(0.3, "0.1")], target_h=0.00006103515625),
        solve=BOTH, gap=1e-9, rows=16387, weights=(16386, 2**21),
    ),
    # whole-mesh sweeps of -1.25 x stall at sweep 2, windows solve the rest
    "stalled-fine": Row(
        plain("-1.25*x", impulses=[(0.5, "0.5")], target_h=0.0001220703125), solve=BOTH, gap=1e-9, rows=8194,
    ),
    # x0 = history(0) = 1e308: the working radius is inf, which the spot
    # check refuses, and so are the history's norms, which the RHS refuses
    "overflowing-ball-check": Row(HUGE_HISTORY, check=True, code=1, err="problem error:"),
    "overflowing-history-solve": Row(HUGE_HISTORY, solve=BOTH, code=2, err="solver error:"),
    # the weight products of samples 1e308 overflow before the RHS does
    "overflowing-product": Row(plain("1e308*x", target_h=2.0**-9), solve=BOTH, code=2, err="solver error:"),
}


def cells(path: str) -> tuple[list, np.ndarray]:
    """The (t, side) keys and the state values of a trajectory CSV's rows."""
    rows = [line.split(",") for line in Path(path).read_text().splitlines()[1:]]
    return [r[:2] for r in rows], np.array([r[2:] for r in rows], dtype=float)


@pytest.mark.parametrize("row", SCENARIOS.values(), ids=SCENARIOS.keys())
def test_scenario(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # configs name relative output files
    Path("run.json").write_text(json.dumps(row.config))

    def run(command, *options):
        code = main([command, "--config", "run.json", *options])
        out, err = capsys.readouterr()
        assert code == row.code, (command, options, out, err)
        if row.out is not None:
            assert row.out in out, out
        if row.err is not None:
            assert err.startswith(row.err) and err.count("\n") == 1, err
        return out

    for method in row.solve:
        for copy in range(1 + row.repeat):
            run("solve", "--method", method, "--out", f"{method}-{copy}.csv")
        if row.repeat:
            assert Path(f"{method}-0.csv").read_bytes() == Path(f"{method}-1.csv").read_bytes()
        if row.rows is not None:
            assert len(cells(f"{method}-0.csv")[0]) == row.rows
    if row.gap is not None:
        (keys, pic), (marching_keys, mar) = cells("picard-0.csv"), cells("marching-0.csv")
        assert keys == marching_keys
        assert np.max(np.abs(pic - mar)) <= row.gap
    for method in row.order:
        out = run("order", "--h-list", row.h_list, *(("--method", method) if method else ()))
        if row.slope is not None:
            assert float(out.split("estimated order = ")[1].split()[0]) >= row.slope, out
    if row.check:
        run("check")
    if row.weights:
        nodes, limit = row.weights
        cfg = load_config("run.json")
        mesh = build_mesh(cfg.problem, cfg.target_h)
        assert mesh.n_nodes == nodes
        for scheme in ("rectangle", "trapezoid"):
            assert build_weights(mesh, cfg.problem.alpha, scheme).weights.nbytes <= limit
