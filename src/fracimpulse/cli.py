"""Command line front end.

Subcommands:
    solve    solve the configured problem, write the trajectory CSV
    check    compute the existence/uniqueness certificate
    order    empirical convergence study on the configured problem
    example  write one of the builtin example configs

Exit codes: 0 success, 1 configuration or input error, 2 solver did
not produce a converged solution (for order: any of its solves), 3
certificate not established.
All output is deterministic for a fixed config (repr'd floats, no
timestamps), so files can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import Certificate, CertificateError, certify
from .config import (
    BUILTIN_EXAMPLES,
    ConfigError,
    RunConfig,
    builtin_example,
    load_config,
    parse_config,
)
from .exprlang import monomial
from .fracquad import SCHEMES, fit_order
from .problem import MeshError, ProblemError, Trajectory, build_mesh
from .solver import METHODS, SolverError, solve_marching, solve_picard
from .special import mittag_leffler

__all__ = ["main", "trajectory_csv", "certificate_report"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_NO_CERTIFICATE = 3


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors, not solver failures;
    # argparse's default exit status 2 would collide with the contract
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _rows(a: np.ndarray) -> list[str]:
    """The CSV cells of each row of a 2-d float array, comma joined.

    The whole array is formatted in one pass over its flat list of
    Python floats, whose repr is _fmt's; rows of one value need no join."""
    cells = list(map(repr, a.ravel().tolist()))
    d = a.shape[1]
    if d == 1:
        return cells
    return [",".join(cells[k : k + d]) for k in range(0, len(cells), d)]


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text: header t,side,x1..xd; impulse nodes get a left and a
    right row, every other node a single row with side=both."""
    header = "t,side," + ",".join(f"x{i + 1}" for i in range(traj.dim))
    times = _rows(traj.mesh.nodes[:, None])
    lefts = _rows(traj.values)
    lines = [f"{t},both,{x}" for t, x in zip(times, lefts)]
    impulses = zip(traj.mesh.impulse_idx, _rows(traj.right_values))
    for i, right in reversed(list(impulses)):  # later rows first: indices stay valid
        lines[i : i + 1] = [f"{times[i]},left,{lefts[i]}", f"{times[i]},right,{right}"]
    return "\n".join([header, *lines]) + "\n"


def _opt(value: float | None) -> str:
    return "n/a" if value is None else _fmt(value)


def certificate_report(cert: Certificate) -> str:
    p_origin = "auto" if cert.p_auto else "configured"
    lines = [
        "certificate report",
        "==================",
        f"rhs kind: {cert.kind}",
        f"alpha = {_fmt(cert.alpha)}   horizon T = {_fmt(cert.T)}   impulses m = {cert.m}",
        f"holder exponent p = {_fmt(cert.p)} ({p_origin})",
        f"holder constant c = {_fmt(cert.holder_c)}",
        "contraction constant:",
        f"  stated normalization (Gamma(alpha+1) denominator): {_opt(cert.gamma_stated)}",
        f"  proof normalization  (Gamma(alpha) denominator):   {_opt(cert.gamma_proof)}",
    ]
    if cert.radii is None:
        lines.append("a-priori radii: n/a (no bound envelope declared)")
    else:
        lines.append(
            "a-priori radii by impulse count: "
            + ", ".join(_fmt(r) for r in cert.radii)
        )
        lines.append(f"working ball radius = {_opt(cert.radius)}")
    lines.append(f"schaefer growth factor q = {_opt(cert.schaefer_q)}")
    if cert.schaefer_q is not None and cert.schaefer_bound is None:
        lines.append("schaefer a-priori bound = n/a (growth factor q >= 1)")
    else:
        lines.append(f"schaefer a-priori bound = {_opt(cert.schaefer_bound)}")
    lines.append(f"equicontinuity coefficient = {_opt(cert.equicontinuity_coeff)}")
    lines.append(f"verdict: {cert.verdict}")
    return "\n".join(lines) + "\n"


def _solve(cfg: RunConfig, method: str | None, scheme: str | None, target_h=None):
    scheme = scheme or cfg.scheme
    mesh = build_mesh(cfg.problem, cfg.target_h if target_h is None else target_h)
    if (method or cfg.method) == "picard":
        return solve_picard(
            cfg.problem, mesh, scheme=scheme, tol=cfg.tol, max_iter=cfg.max_iter
        )
    return solve_marching(cfg.problem, mesh, scheme=scheme)


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    csv_path = args.out or cfg.csv_path
    if csv_path is None:
        raise ConfigError("output.csv: required for solve (or pass --out)")
    report = _solve(cfg, args.method, args.scheme)
    Path(csv_path).write_text(trajectory_csv(report.trajectory))
    print(
        f"solve: method={report.method} scheme={report.scheme} "
        f"nodes={report.trajectory.mesh.n_nodes} "
        f"impulses={len(report.trajectory.mesh.impulse_idx)}"
    )
    print(
        f"iterations={report.iterations} "
        f"final_residual={_fmt(report.final_residual)} "
        f"converged={'yes' if report.converged else 'no'}"
    )
    print(f"csv written to {csv_path}")
    if _warn_if_not_converged(cfg, report):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _warn_if_not_converged(cfg: RunConfig, report) -> bool:
    """Print solve's warning on stderr when report did not converge; True then."""
    if report.converged:
        return False
    mesh, stop = report.trajectory.mesh, report.stop_node
    at = None if stop is None else f"node {stop} (t={_fmt(mesh.nodes[stop])})"
    tol = f"(tol {_fmt(cfg.tol)})"
    worst = f"(worst update {_fmt(report.final_residual)})"
    nodes = f"at {report.unconverged_nodes} of {mesh.n_nodes} nodes {worst}"
    if report.method == "picard" and at is None:
        detail = f" within {cfg.max_iter} sweeps {tol}"
    elif report.method == "picard":  # a diverging one-node window ended the solve
        detail = f": stopped at {at} after {report.iterations} of {cfg.max_iter} sweeps {tol}"
    elif at is None:
        detail = f" within {report.iterations} corrector iterations {nodes}"
    else:
        detail = f": stopped at {at}, whose corrector diverged, with the nodes to its right at x0; "
        detail += f"unconverged {nodes}"
    print(f"warning: no convergence{detail}", file=sys.stderr)
    return True


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    cert = certify(cfg.problem, p=cfg.certificate_p)
    text = certificate_report(cert)
    sys.stdout.write(text)
    report_path = args.report or cfg.report_path
    if report_path is not None:
        Path(report_path).write_text(text)
        print(f"report written to {report_path}")
    return EXIT_OK if cert.verdict == "contraction_holds" else EXIT_NO_CERTIFICATE


def _linear_coefficient(cfg: RunConfig) -> float | None:
    """lam when the problem is exactly x' (fractional) = lam * x with
    no impulses in one dimension, else None."""
    prob = cfg.problem
    if prob.rhs.kind != "plain" or prob.dim != 1 or len(prob.impulses.times) > 0:
        return None
    trees = cfg.asts.get("rhs.f")
    if trees is None or len(trees) != 1:
        return None
    mono = monomial(trees[0], "x")
    return mono[0] if mono is not None and mono[1] == 1.0 else None


def _parse_h_list(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            h = float(piece)
        except ValueError:
            raise ConfigError(f"--h-list: not a number: {piece!r}") from None
        if not (h > 0.0 and math.isfinite(h)):
            raise ConfigError(f"--h-list: steps must be positive and finite, got {piece!r}")
        out.append(h)
    if len(out) < 3:
        raise ConfigError("--h-list: need at least three step sizes")
    if sorted(out, reverse=True) != out:
        raise ConfigError("--h-list: list step sizes in decreasing order")
    return out


def cmd_order(args) -> int:
    cfg = load_config(args.config)
    h_list = _parse_h_list(args.h_list)
    method = args.method or cfg.method
    scheme = args.scheme or cfg.scheme

    lam = _linear_coefficient(cfg)
    ref = None
    if lam is not None:
        try:
            ref = cfg.problem.x0 * mittag_leffler(
                cfg.problem.alpha, lam * cfg.problem.T ** cfg.problem.alpha
            )
            ref_label = "closed-form reference (Mittag-Leffler)"
        except (ValueError, ArithmeticError):
            ref = None  # growth past the series' range; use a fine grid
    unconverged = False
    if ref is None:
        fine = _solve(cfg, method, scheme, min(h_list) / 8.0)
        unconverged = _warn_if_not_converged(cfg, fine)
        ref = fine.trajectory.values[-1]
        ref_label = f"fine-grid reference (target_h = {_fmt(min(h_list) / 8.0)})"

    print(f"order study: method={method} scheme={scheme}")
    print(f"reference: {ref_label}")
    errors, steps = [], []
    for h in h_list:
        rep = _solve(cfg, method, scheme, h)
        unconverged |= _warn_if_not_converged(cfg, rep)
        err = float(np.max(np.abs(rep.trajectory.values[-1] - ref)))
        errors.append(err)
        mesh = rep.trajectory.mesh
        steps.append(max(mesh.seg_steps))  # the grid step, which the slope is fit to
        print(f"h = {_fmt(h)}   mesh step = {_fmt(steps[-1])}   error at T = {_fmt(err)}")
        if mesh.n_nodes - 1 > round(cfg.problem.T / steps[-1]):  # impulse nodes inserted off the grid
            print(f"warning: at h = {_fmt(h)} impulses cut grid cells; the slope may mislead", file=sys.stderr)

    slope = fit_order(steps, errors, ref)
    if slope is None:
        print("estimated order = exact (all errors at roundoff level)")
    else:
        print(f"estimated order = {_fmt(slope)}")
    return EXIT_NOT_CONVERGED if unconverged else EXIT_OK


def cmd_example(args) -> int:
    data = builtin_example(args.name)
    parse_config(data)  # shipped examples must always validate
    out = args.out or f"{args.name}.json"
    import json

    Path(out).write_text(json.dumps(data, indent=2) + "\n")
    print(f"example config written to {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (about 1 ms, a large part
    of a check) and shared by every main() call; parsing leaves it
    unchanged."""
    parser = _Parser(
        prog="fracimpulse",
        description="impulsive fractional initial value problems: "
        "solve, certify, study convergence",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and write the trajectory CSV")
    p_solve.add_argument("--config", required=True, help="JSON config file")
    p_solve.add_argument("--out", help="CSV destination (overrides output.csv)")
    p_solve.add_argument("--method", choices=METHODS)
    p_solve.add_argument("--scheme", choices=SCHEMES)
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="compute the certificate")
    p_check.add_argument("--config", required=True, help="JSON config file")
    p_check.add_argument("--report", help="also write the report to this file")
    p_check.set_defaults(func=cmd_check)

    p_order = sub.add_parser("order", help="empirical convergence study")
    p_order.add_argument("--config", required=True, help="JSON config file")
    p_order.add_argument(
        "--h-list",
        required=True,
        help="comma separated target steps, decreasing (e.g. 0.02,0.01,0.005)",
    )
    p_order.add_argument("--method", choices=METHODS)
    p_order.add_argument("--scheme", choices=SCHEMES)
    p_order.set_defaults(func=cmd_order)

    p_example = sub.add_parser("example", help="write a builtin example config")
    p_example.add_argument("name", choices=BUILTIN_EXAMPLES)
    p_example.add_argument("--out", help="destination (default NAME.json)")
    p_example.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse --help/--version or usage error
        code = e.code
        return code if isinstance(code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProblemError, MeshError) as e:
        print(f"problem error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificateError as e:
        print(f"certificate error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
