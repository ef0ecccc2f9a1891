"""Workloads, output checks and metrics of the fracimpulse benchmark.

The benchmark drives the package only through its public entry points
(``build_mesh``, ``solve_picard``, ``solve_marching``, ``certify`` and
``cli.main``) from one process, in a closed loop: the next call starts
when the previous one has returned.  Inputs are generated from the
seed, round by round, so the same seed gives the same inputs however
many rounds a run completes.  See README.md for why each workload
exists and which metric each layer should move.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import io
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import fracimpulse  # noqa: E402
from fracimpulse import (  # noqa: E402
    Envelope,
    ImpulseSchedule,
    ProblemSpec,
    RhsSpec,
    build_mesh,
    certify,
    cli,
    solve_marching,
    solve_picard,
)

from spans import Tracer, layer_totals  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("dense-picard", "config-cli", "marching-shared")

ALPHA, T_END = 0.5, 1.0
T1_CHOICES = (0.25, 0.5, 0.75)
# dense-picard: N = 4k + 1 with k = K_MID + s, |s| <= K_HALF, so N spans
# [6145, 8193]; lam = LAM_MID + LAM_HALF * s / K_HALF rises with N.
K_MID, K_HALF = 1792, 256
LAM_MID, LAM_HALF = 1.25, 0.75
INTERIOR_STRATA, STRATUM_WIDTH, INNER_GAP = 28, 8, 16
# marching-shared: one mesh for every solve, lam in LAM_STRATA strata
MARCH_NODES, MARCH_T1, LAM_STRATA = 4097, 0.5, 5
# The jump cell limits the trapezoid solution of the linear test problem
# to first order: |x(T) - exact| / (h (|x0| + |c|)) measured at most 0.28
# over lam in [0.5, 2] and t1 in {0.25, 0.5, 0.75}.
ORACLE_TOL_COEF = 0.5

EXAMPLES = ("logistic", "delay-exp", "delay-plain")
# config-cli round: DOMINANT six times, alternating with every other
# example and step once.  DOMINANT then makes more than half of the
# solves (and delay-exp of the checks) in any run that holds a whole
# round, so the medians fall inside its group however the other configs'
# times order around it.
FINE_STEP = 2.0**-11
DOMINANT = ("delay-exp", FINE_STEP)
CLI_OTHERS = [(e, h) for e in EXAMPLES for h in (2.0**-10, FINE_STEP) if (e, h) != DOMINANT]
CHECK_EXIT = {"logistic": 3, "delay-exp": 0, "delay-plain": 3}
AGREE_FACTOR = 10.0  # Picard vs marching within 10 * tol (acceptance criterion 8)
DEFAULT_TOL = 1e-10

SETUP_REPEATS = 5
TAIL_BEYOND, TAIL_MIN_SAMPLES = 10, 20
MIB = 2.0**20


class CheckFailed(Exception):
    """A call returned, but its output is wrong."""


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class LinearCase:
    """x' = -lam x (Caputo, alpha = 1/2) on [0, 1], one constant jump c at t1."""

    lam: float
    x0: float
    c: float
    t1: float
    n_nodes: int

    @property
    def h(self) -> float:
        return T_END / (self.n_nodes - 1)


@dataclass(frozen=True)
class ConfigCase:
    """A builtin example at one target_h with edited x0/history and jumps."""

    example: str
    target_h: float
    start: float  # x0, or the constant history for the delay examples
    jumps: tuple[float, ...]


STREAM_CENTER, STREAM_STRATA = 1_000_000, 1_000_001  # rounds use streams 0, 1, ...


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _amplitudes(rng: np.random.Generator) -> tuple[float, float]:
    x0 = float(rng.uniform(0.5, 1.5))
    c = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 1.0))
    return x0, c


def dense_picard_round(seed: int, r: int) -> list[LinearCase] | None:
    """Round 0: three solves at the middle size; round 1: the two extreme
    sizes; later rounds: one pair of sizes symmetric about the middle.

    Solve time rises with N and with lam, and every later round adds one
    solve below and then one above the middle, so the median solve of
    any run that starts with round 0 is one of the three middle ones.
    """
    rng = _rng(seed, r)
    j0 = int(_rng(seed, STREAM_CENTER).integers(-4, 5))
    if r == 0:
        offsets = [j0 - 1, j0, j0 + 1]
    elif r == 1:
        offsets = [-K_HALF, K_HALF]
    elif r - 2 < INTERIOR_STRATA:
        stratum = int(_rng(seed, STREAM_STRATA).permutation(INTERIOR_STRATA)[r - 2])
        d = INNER_GAP + STRATUM_WIDTH * stratum + int(rng.integers(0, STRATUM_WIDTH))
        offsets = [j0 - d, j0 + d]
    else:
        return None
    cases = []
    for s in offsets:
        x0, c = _amplitudes(rng)
        cases.append(
            LinearCase(
                lam=LAM_MID + LAM_HALF * s / K_HALF,
                x0=x0,
                c=c,
                t1=float(rng.choice(T1_CHOICES)),
                n_nodes=4 * (K_MID + s) + 1,
            )
        )
    return cases


def marching_shared_round(seed: int, r: int) -> list[LinearCase]:
    """LAM_STRATA solves on the shared mesh, one lam from each stratum of
    [0.5, 2], in a seed-drawn order."""
    rng = _rng(seed, r)
    cases = []
    for stratum in rng.permutation(LAM_STRATA):
        u = (int(stratum) + float(rng.random())) / LAM_STRATA
        x0, c = _amplitudes(rng)
        cases.append(
            LinearCase(
                lam=LAM_MID - LAM_HALF + 2.0 * LAM_HALF * u,
                x0=x0,
                c=c,
                t1=MARCH_T1,
                n_nodes=MARCH_NODES,
            )
        )
    return cases


def config_cli_round(seed: int, r: int) -> list[ConfigCase]:
    """DOMINANT, then the other configs in a seed-drawn order with
    DOMINANT after each, with seed-drawn x0 (or constant history) and
    jumps.  Jumps stay within the declared bounds (0.05 for logistic, 0.5
    for the delay examples), so each expected exit code holds."""
    rng = _rng(seed, r)
    mix = [DOMINANT]
    for i in rng.permutation(len(CLI_OTHERS)):
        mix += [CLI_OTHERS[i], DOMINANT]
    cases = []
    for example, h in mix:
        if example == "logistic":
            start = float(rng.uniform(0.05, 0.2))
            jumps = tuple(float(v) for v in rng.uniform(0.01, 0.05, size=2))
        else:
            start = float(rng.uniform(0.0, 0.2))
            jumps = (float(rng.uniform(0.1, 0.5)),)
        cases.append(ConfigCase(example, h, start, jumps))
    return cases


def edited_config(base: dict, case: ConfigCase, out: Path) -> dict:
    data = copy.deepcopy(base)
    prob = data["problem"]
    if "delay" in prob:
        prob["delay"]["history"] = repr(case.start)
    else:
        prob["x0"] = case.start
    for imp, jump in zip(prob["impulses"], case.jumps, strict=True):
        imp["jump"] = repr(jump)
    data["numerics"]["target_h"] = case.target_h
    data["output"] = {"csv": str(out / "solve.csv"), "report": str(out / "check.txt")}
    return data


def expected_nodes(data: dict) -> int:
    """Node count of the config's mesh: each inter-impulse segment gets
    ceil(length / target_h) uniform steps (the delay examples' r = 0.5
    divides every segment, so the same count holds for them)."""
    prob = data["problem"]
    h = data["numerics"]["target_h"]
    edges = [0.0, *(imp["time"] for imp in prob["impulses"]), prob["T"]]
    return 1 + sum(math.ceil((b - a) / h - 1e-12) for a, b in zip(edges, edges[1:]))


# ---------------------------------------------------------------- oracle


def oracle_xT(case: LinearCase) -> float:
    """x(T) = x0 E(-lam T^a) + c E(-lam (T - t1)^a), using
    E_{1/2}(-z) = exp(z^2) erfc(z)."""

    def e_half(z: float) -> float:
        return math.exp(z * z) * math.erfc(z)

    return case.x0 * e_half(case.lam * math.sqrt(T_END)) + case.c * e_half(
        case.lam * math.sqrt(T_END - case.t1)
    )


def oracle_tol(case: LinearCase) -> float:
    return ORACLE_TOL_COEF * case.h * (abs(case.x0) + abs(case.c))


def expected_gamma_stated(lam: float, p: float) -> float:
    """Contraction constant of f = -lam x with constant Lipschitz envelope
    lam and jump Lipschitz 0: c(p) lam T^a / Gamma(a + 1)."""
    holder = ((1.0 - p) / (ALPHA - p)) ** (1.0 - p)
    return holder * lam * T_END**ALPHA / math.gamma(ALPHA + 1.0)


def linear_spec(case: LinearCase, wrap: Callable | None = None) -> ProblemSpec:
    lam, c = case.lam, case.c

    def rhs(t, x):
        return -lam * x

    def jump(x):
        return np.full_like(x, c)

    return ProblemSpec(
        alpha=ALPHA,
        T=T_END,
        rhs=RhsSpec(
            kind="plain",
            f=rhs if wrap is None else wrap(rhs),
            envelopes={"lip": Envelope.constant(lam)},
        ),
        x0=case.x0,
        impulses=ImpulseSchedule(
            times=(case.t1,), jumps=(jump,), jump_bound=abs(c), jump_lip=0.0
        ),
    )


# ---------------------------------------------------------------- tracing


class TraceContext:
    """A Tracer plus the wrappers and counters of the traced run."""

    def __init__(self):
        self.tracer = Tracer()
        self.tables: list[int] = []  # weights stored per table built in the open solve

    def rhs(self, fn: Callable) -> Callable:
        return self.tracer.wrap("problem.rhs", fn)

    def install(self):
        """Wrap each traced function under the name its caller looks it up by."""
        from fracimpulse import certificates, exprlang, solver

        t = self.tracer
        t.patch(solver, "build_weights", "fracquad.build_weights", on_result=self.on_table)
        t.patch(cli, "load_config", "config.load_config", on_result=self.on_config)
        t.patch(cli, "build_mesh", "problem.build_mesh")
        t.patch(cli, "solve_picard", "solver.solve", on_result=self.on_report("picard"))
        t.patch(cli, "solve_marching", "solver.solve", on_result=self.on_report("marching"))
        t.patch(cli, "certify", "certificates.certify")
        t.patch(cli, "trajectory_csv", "cli.trajectory_csv")
        t.patch(certificates, "lp_seminorm", "special.lp_seminorm")
        t.patch(exprlang, "evaluate", "exprlang.evaluate", outermost_only=True)
        t.patch(ImpulseSchedule, "apply", "problem.jump")
        t.patch(ImpulseSchedule, "spot_check", "problem.spot_check")

    def uninstall(self):
        self.tracer.uninstall()

    def on_table(self, table):
        self.tracer.add("weights_bytes", table.weights.nbytes)
        self.tables.append(table.weights.size)

    def on_config(self, cfg):
        rhs = cfg.problem.rhs  # frozen dataclass: swap in traced callables
        for attr in ("f", "f1", "f2"):
            fn = getattr(rhs, attr)
            if fn is not None:
                object.__setattr__(rhs, attr, self.rhs(fn))

    def on_report(self, method: str) -> Callable:
        """Counts from a finished solve: sweeps, node visits (the RHS-call
        denominator) and the computed flops of applying the weights."""

        def hook(report):
            n = report.trajectory.mesh.n_nodes
            d = report.trajectory.dim
            sweeps = report.iterations
            self.tracer.add("sweeps", sweeps)
            if method == "picard":  # one dense product per sweep
                self.tracer.add("node_visits", n * sweeps)
                self.tracer.add("apply_flop", 2.0 * sweeps * self.tables[0] * d)
            else:  # row j of each table is read once
                self.tracer.add("node_visits", n)
                self.tracer.add("apply_flop", 2.0 * len(self.tables) * n * (n - 1) / 2 * d)
            self.tables.clear()

        return hook


# ---------------------------------------------------------------- calls


@dataclass
class Call:
    """One top-level call.  prepare(ctx) does the untimed preparation and
    returns the thunk that is timed; check(output) raises CheckFailed."""

    kind: str  # "solve" or "check"
    prepare: Callable[[TraceContext | None], Callable[[], object]]
    check: Callable[[object], None]
    oracle_err: float | None = None
    reference: tuple | None = None


class LibraryWorkload:
    """dense-picard and marching-shared: build_mesh + solve, then certify."""

    def __init__(self, name: str):
        self.method = "picard" if name == "dense-picard" else "marching"
        self.solve = solve_picard if self.method == "picard" else solve_marching

    def setup(self, workdir: Path):
        pass

    def dense_bytes(self, seed: int) -> int:
        if self.method == "picard":
            n = 4 * (K_MID + K_HALF) + 1
            return 8 * n * n
        return 2 * 8 * MARCH_NODES * MARCH_NODES  # trapezoid plus predictor table

    def warm_up(self):
        case = LinearCase(lam=1.0, x0=1.0, c=0.5, t1=0.5, n_nodes=257)
        for call in self.calls(case):
            call.check(call.prepare(None)())

    def round(self, seed: int, r: int) -> list[Call] | None:
        if self.method == "picard":
            cases = dense_picard_round(seed, r)
        else:
            cases = marching_shared_round(seed, r)
        if cases is None:
            return None
        return [call for case in cases for call in self.calls(case)]

    def calls(self, case: LinearCase) -> list[Call]:
        solve_call = Call("solve", None, None)

        def prepare_solve(ctx):
            if ctx is None:
                spec = linear_spec(case)
                return lambda: self.solve(spec, build_mesh(spec, case.h), scheme="trapezoid")
            spec = linear_spec(case, wrap=ctx.rhs)
            mesh_fn = ctx.tracer.wrap("problem.build_mesh", build_mesh)
            solve_fn = ctx.tracer.wrap("solver.solve", self.solve, on_result=ctx.on_report(self.method))

            def traced():
                with ctx.tracer.top_call():
                    return solve_fn(spec, mesh_fn(spec, case.h), scheme="trapezoid")

            return traced

        def check_solve(report):
            mesh = report.trajectory.mesh
            if mesh.n_nodes != case.n_nodes:
                raise CheckFailed(f"mesh has {mesh.n_nodes} nodes, expected {case.n_nodes}")
            if self.method == "picard" and not report.converged:
                raise CheckFailed(f"Picard did not converge in {report.iterations} sweeps")
            # marching's converged flag is not trusted: the values are checked
            err = abs(float(report.trajectory.values[-1, 0]) - oracle_xT(case))
            solve_call.oracle_err = err
            if not err <= oracle_tol(case):
                raise CheckFailed(f"|x(T) - exact| = {err:.3e} > {oracle_tol(case):.3e} for {case}")
            jump = float(report.trajectory.right_values[0, 0] - report.trajectory.left_limit(0)[0])
            if not abs(jump - case.c) <= 1e-12 * (1.0 + abs(case.c)):
                raise CheckFailed(f"jump at t1 is {jump!r}, expected {case.c!r}")

        def prepare_check(ctx):
            spec = linear_spec(case)
            if ctx is None:
                return lambda: certify(spec)
            certify_fn = ctx.tracer.wrap("certificates.certify", certify)

            def traced():
                with ctx.tracer.top_call():
                    return certify_fn(spec)

            return traced

        def check_cert(cert):
            want = expected_gamma_stated(case.lam, cert.p)
            if not (0.0 < cert.p < ALPHA and abs(cert.gamma_stated - want) <= 1e-9 * want):
                raise CheckFailed(f"gamma_stated {cert.gamma_stated!r} at p={cert.p!r}, expected {want!r}")
            verdict = "contraction_holds" if want < 1.0 else "contraction_fails"
            if cert.verdict != verdict:
                raise CheckFailed(f"verdict {cert.verdict!r}, expected {verdict!r}")

        solve_call.prepare, solve_call.check = prepare_solve, check_solve
        return [solve_call, Call("check", prepare_check, check_cert)]

    def finish(self, calls: list[Call]) -> dict[int, str]:
        return {}


def run_cli(argv: list[str], ctx: TraceContext | None = None) -> tuple[int, str, str]:
    """cli.main in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if ctx is None:
            code = cli.main(argv)
        else:
            with ctx.tracer.top_call():
                code = ctx.tracer.wrap("cli.main", cli.main)(argv)
    return code, out.getvalue(), err.getvalue()


def read_csv(path: Path) -> tuple[list[tuple[str, str]], np.ndarray]:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(row[0], row[1]) for row in rows], np.array([[float(v) for v in row[2:]] for row in rows])


class ConfigCliWorkload:
    """config-cli: in-process CLI solve and check on edited examples."""

    def __init__(self):
        self.base: dict[str, dict] = {}
        self.workdir = Path()

    def setup(self, workdir: Path):
        """Write the builtin examples through the CLI and keep them as bases."""
        self.workdir = workdir
        for name in EXAMPLES:
            path = workdir / f"{name}.json"
            code, _, err = run_cli(["example", name, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"fracimpulse example {name} exited {code}: {err}")
            self.base[name] = json.loads(path.read_text())

    def dense_bytes(self, seed: int) -> int:
        n = max(expected_nodes(self.config(case)) for case in config_cli_round(seed, 0))
        return 2 * 8 * n * n  # the marching reference builds two tables

    def warm_up(self):
        for call in self.calls(ConfigCase("delay-exp", 2.0**-6, 0.1, (0.5,)), keep=False):
            call.check(call.prepare(None)())

    def round(self, seed: int, r: int) -> list[Call]:
        """Round 0 keeps the Picard output of each example's first config
        at the finer step for the marching comparison; its two tables set
        the run's peak RSS."""
        seen = set()
        calls = []
        for case in config_cli_round(seed, r):
            keep = r == 0 and case.target_h == FINE_STEP and case.example not in seen
            calls += self.calls(case, keep)
            if keep:
                seen.add(case.example)
        return calls

    def config(self, case: ConfigCase) -> dict:
        return edited_config(self.base[case.example], case, self.workdir)

    def calls(self, case: ConfigCase, keep: bool) -> list[Call]:
        data = self.config(case)
        path = self.workdir / "case.json"
        nodes = expected_nodes(data)
        rows = nodes + len(data["problem"]["impulses"])
        solve_call = Call("solve", None, None)

        def prepare(argv):
            def prep(ctx):
                path.write_text(json.dumps(data))
                return lambda: run_cli(argv, ctx)

            return prep

        def check_solve(result):
            code, out, err = result
            if code != 0:
                raise CheckFailed(f"solve {case} exited {code}: {err.strip()}")
            if f"nodes={nodes} " not in out or "converged=yes" not in out:
                raise CheckFailed(f"solve {case}: unexpected report {out!r}")
            keys, values = read_csv(self.workdir / "solve.csv")
            if len(keys) != rows:
                raise CheckFailed(f"solve {case}: {len(keys)} CSV rows, expected {rows}")
            if keep:
                solve_call.reference = (data, keys, values)

        def check_check(result):
            code, out, err = result
            want = CHECK_EXIT[case.example]
            if code != want:
                raise CheckFailed(f"check {case} exited {code}, expected {want}: {err.strip()}")
            if ("verdict: contraction_holds" in out) != (code == 0):
                raise CheckFailed(f"check {case}: verdict does not match exit code {code}")

        solve_call.prepare = prepare(["solve", "--config", str(path)])
        solve_call.check = check_solve
        return [solve_call, Call("check", prepare(["check", "--config", str(path)]), check_check)]

    def finish(self, calls: list[Call]) -> dict[int, str]:
        """Marching solves of the kept configs, outside the timed loop:
        Picard must agree with them to 10 * tol on every node value
        and right limit.  Returns failures by index into calls."""
        failures = {}
        path, csv = self.workdir / "reference.json", self.workdir / "reference.csv"
        for index, call in enumerate(calls):
            if call.reference is None:
                continue
            data, keys, values = call.reference
            path.write_text(json.dumps(data))
            code, _, err = run_cli(["solve", "--config", str(path), "--method", "marching", "--out", str(csv)])
            if code != 0:
                failures[index] = f"marching reference exited {code}: {err.strip()}"
                continue
            ref_keys, ref_values = read_csv(csv)
            gap = float(np.max(np.abs(values - ref_values))) if ref_keys == keys else math.inf
            limit = AGREE_FACTOR * data["numerics"].get("tol", DEFAULT_TOL)
            if not gap <= limit:
                failures[index] = f"Picard vs marching gap {gap:.3e} > {limit:.1e}"
        return failures


def make_workload(name: str):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return ConfigCliWorkload() if name == "config-cli" else LibraryWorkload(name)


# ---------------------------------------------------------------- running


class MemoryRefused(RuntimeError):
    """The dense weight tables of the largest mesh would not fit."""


def mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, None where unreadable."""
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def prepare_workload(name: str, seed: int, workdir: Path):
    """Set-up shared by the timed run and the set-up measurement: input
    bases, the memory guard, then one small warm-up solve and check."""
    workload = make_workload(name)
    workload.setup(workdir)
    need, avail = workload.dense_bytes(seed), mem_available()
    if avail is not None and need > avail:
        raise MemoryRefused(
            f"{name}: dense weight tables of the largest mesh need {need / MIB:.0f} MiB, "
            f"MemAvailable is {avail / MIB:.0f} MiB"
        )
    workload.round(seed, 0)  # inputs are made round by round; count the first in set-up
    workload.warm_up()
    return workload


def measure_setup(name: str, seed: int, run_py: Path) -> list[float]:
    """Wall time of SETUP_REPEATS fresh processes that start Python, import
    the package, generate the inputs and warm up, then exit."""
    cmd = [sys.executable, str(run_py), "--setup-only", "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return samples


@dataclass
class Outcome:
    call: Call
    traced: bool
    seconds: float
    error: str | None


def execute(call: Call, ctx: TraceContext | None) -> Outcome:
    thunk = call.prepare(ctx)
    error, output = None, None
    if ctx is not None:
        ctx.install()
    start = time.perf_counter()
    try:
        output = thunk()
    except Exception:  # a raising call counts as failed; the run goes on
        error = traceback.format_exc(limit=-3)
    finally:
        seconds = time.perf_counter() - start
        if ctx is not None:
            ctx.uninstall()
    if error is None:
        try:
            call.check(output)
        except CheckFailed as e:
            error = str(e)
    return Outcome(call, ctx is not None, seconds, error)


def run_rounds(workload, seed: int, seconds: float, ctx: TraceContext | None) -> list[Outcome]:
    """Calls in round order until `seconds` have passed; the last solve
    started still gets its check.  Traced runs make every call twice,
    untraced and then traced, for the overhead estimate."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    for r in itertools.count():
        batch = workload.round(seed, r)
        if batch is None:
            break
        for call in batch:
            if call.kind == "solve" and time.perf_counter() - start >= seconds:
                return outcomes
            outcomes.append(execute(call, None))
            if ctx is not None:
                outcomes.append(execute(call, ctx))
    return outcomes


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    return {
        "value": sorted(values)[n - TAIL_BEYOND - 1],
        "percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "samples": n,
    }


def end_to_end(outcomes: list[Outcome]) -> dict:
    solves = [o.seconds for o in outcomes if o.call.kind == "solve"]
    checks = [o.seconds for o in outcomes if o.call.kind == "check"]
    errs = [o.call.oracle_err for o in outcomes if o.call.oracle_err is not None]
    return {
        "solve_s_p50": statistics.median(solves),
        "check_s_p50": statistics.median(checks),
        "solve_s_tail": tail(solves),
        "err_vs_oracle": max(errs) if errs else None,
        "solves": len(solves),
        "checks": len(checks),
        "solve_s_samples": solves,
        "check_s_samples": checks,
    }


# per-layer self time: metric -> span name; together they cover every span
SELF_TIME = {
    "bench.self_s": "bench.call",
    "cli.self_s": "cli.main",
    "config.load_config.s": "config.load_config",
    "problem.build_mesh.s": "problem.build_mesh",
    "solver.self_s": "solver.solve",
    "fracquad.build_weights.s": "fracquad.build_weights",
    "problem.rhs.s": "problem.rhs",
    "problem.jump.s": "problem.jump",
    "problem.spot_check.s": "problem.spot_check",
    "exprlang.evaluate.s": "exprlang.evaluate",
    "certificates.certify.s": "certificates.certify",
    "special.lp_seminorm.s": "special.lp_seminorm",
    "cli.trajectory_csv.s": "cli.trajectory_csv",
}
CALLS = {
    "fracquad.build_weights.calls": "fracquad.build_weights",
    "problem.rhs.calls": "problem.rhs",
    "problem.jump.calls": "problem.jump",
    "exprlang.evaluate.calls": "exprlang.evaluate",
    "special.lp_seminorm.calls": "special.lp_seminorm",
}
E2E_UNITS = {"solve_s_p50": "s", "check_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    **{key: "s" for key in SELF_TIME},
    **{key: "count" for key in CALLS},
    "fracquad.weights_mb": "MiB",
    "fracquad.apply_gflop": "GFLOP",
    "solver.sweeps": "count",
    "problem.rhs.calls_per_node": "ratio",
    "trace.top_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(ctx: TraceContext, outcomes: list[Outcome]) -> tuple[dict, str | None]:
    """Per-layer metrics per traced solve (each solve is paired with one
    check, whose spans count too), and an error when the self times do
    not add up to the top-level spans."""
    t = ctx.tracer
    a = t.arrays()
    secs, calls, top = layer_totals(t.names, a["name"], a["start"], a["end"], a["parent"])
    n = sum(1 for o in outcomes if o.traced and o.call.kind == "solve")
    c = t.counters
    m = {key: secs.get(span, 0.0) / n for key, span in SELF_TIME.items()}
    m.update({key: calls.get(span, 0) / n for key, span in CALLS.items()})
    m["fracquad.weights_mb"] = c.get("weights_bytes", 0.0) / MIB / n
    m["fracquad.apply_gflop"] = c.get("apply_flop", 0.0) / 1e9 / n
    m["solver.sweeps"] = c.get("sweeps", 0.0) / n
    m["problem.rhs.calls_per_node"] = calls.get("problem.rhs", 0) / c["node_visits"]
    m["trace.top_s"] = top / n
    untraced = sum(o.seconds for o in outcomes if not o.traced)
    traced = sum(o.seconds for o in outcomes if o.traced)
    m["trace.overhead_frac"] = traced / untraced - 1.0
    error = None
    unknown = set(t.names) - set(SELF_TIME.values())
    added = sum(m[key] for key in SELF_TIME)
    if unknown:
        error = f"spans without a layer metric: {sorted(unknown)}"
    elif not (np.all(np.isfinite(a["end"])) and abs(added - m["trace.top_s"]) <= 1e-9 * m["trace.top_s"]):
        error = f"self times add up to {added!r} s, top-level spans to {m['trace.top_s']!r} s"
    return m, error


# ---------------------------------------------------------------- environment


def blas_info() -> dict:
    """BLAS name and version from numpy's build record, and the thread
    count OpenBLAS reports through its C API where it can be found."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit(root: Path = ROOT) -> str | None:
    """HEAD's commit read from .git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int) -> dict:
    import platform

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fracimpulse": fracimpulse.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
