"""Command line front end.

Subcommands:
    solve    solve the configured problem, write the trajectory CSV
    check    compute the existence/uniqueness certificate
    order    empirical convergence study on the configured problem
    example  write one of the builtin example configs

Exit codes: 0 success, 1 configuration or input error, 2 solver did
not produce a converged solution, 3 certificate not established.
All output is deterministic for a fixed config (repr'd floats, no
timestamps), so files can be compared byte for byte.
"""

from __future__ import annotations

import argparse
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
from .exprlang import BinOp, Num, Unary, Var
from .problem import MeshError, ProblemError, Trajectory, build_mesh
from .solver import SolverError, solve_marching, solve_picard
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


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text: header t,side,x1..xd; impulse nodes get a left and a
    right row, every other node a single row with side=both."""
    dim = traj.dim
    header = "t,side," + ",".join(f"x{i + 1}" for i in range(dim))
    lines = [header]
    impulse_at = {idx: k for k, idx in enumerate(traj.mesh.impulse_idx)}
    for i, t in enumerate(traj.mesh.nodes):
        row = ",".join(_fmt(v) for v in traj.values[i])
        if i in impulse_at:
            lines.append(f"{_fmt(t)},left,{row}")
            right = ",".join(_fmt(v) for v in traj.right_values[impulse_at[i]])
            lines.append(f"{_fmt(t)},right,{right}")
        else:
            lines.append(f"{_fmt(t)},both,{row}")
    return "\n".join(lines) + "\n"


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


def _solve(cfg: RunConfig, method: str | None, scheme: str | None):
    method = method or cfg.method
    scheme = scheme or cfg.scheme
    mesh = build_mesh(cfg.problem, cfg.target_h)
    if method == "picard":
        report = solve_picard(
            cfg.problem, mesh, scheme=scheme, tol=cfg.tol, max_iter=cfg.max_iter
        )
    else:
        report = solve_marching(cfg.problem, mesh, scheme=scheme)
    return report


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
    if not report.converged:
        if report.method == "picard":
            detail = f"{cfg.max_iter} sweeps (tol {_fmt(cfg.tol)})"
        else:
            detail = (
                f"{report.iterations} corrector iterations at "
                f"{report.unconverged_nodes} of {report.trajectory.mesh.n_nodes} nodes "
                f"(worst update {_fmt(report.final_residual)})"
            )
        print(f"warning: no convergence within {detail}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


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

    def coeff(node) -> float | None:
        if isinstance(node, Var) and node.name == "x":
            return 1.0
        if isinstance(node, Unary):
            inner = coeff(node.operand)
            return None if inner is None else -inner
        if isinstance(node, BinOp):
            if node.op == "*":
                if isinstance(node.left, Num):
                    inner = coeff(node.right)
                    return None if inner is None else node.left.value * inner
                if isinstance(node.right, Num):
                    inner = coeff(node.left)
                    return None if inner is None else inner * node.right.value
            if node.op == "/" and isinstance(node.right, Num) and node.right.value != 0:
                inner = coeff(node.left)
                return None if inner is None else inner / node.right.value
        return None

    return coeff(trees[0])


def _parse_h_list(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            h = float(piece)
        except ValueError:
            raise ConfigError(f"--h-list: not a number: {piece!r}") from None
        if h <= 0:
            raise ConfigError(f"--h-list: steps must be positive, got {piece!r}")
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
    if lam is not None and abs(lam) * cfg.problem.T ** cfg.problem.alpha <= 30.0:
        try:
            ref = cfg.problem.x0 * mittag_leffler(
                cfg.problem.alpha, lam * cfg.problem.T ** cfg.problem.alpha
            )
            ref_label = "closed-form reference (Mittag-Leffler)"
        except (ValueError, OverflowError, ArithmeticError):
            ref = None  # oracle declined (cancellation); use a fine grid
    if ref is None:
        fine_mesh = build_mesh(cfg.problem, min(h_list) / 8.0)
        if method == "picard":
            fine = solve_picard(
                cfg.problem, fine_mesh, scheme=scheme, tol=cfg.tol, max_iter=cfg.max_iter
            )
        else:
            fine = solve_marching(cfg.problem, fine_mesh, scheme=scheme)
        ref = fine.trajectory.values[-1]
        ref_label = f"fine-grid reference (target_h = {_fmt(min(h_list) / 8.0)})"

    print(f"order study: method={method} scheme={scheme}")
    print(f"reference: {ref_label}")
    errors = []
    for h in h_list:
        mesh = build_mesh(cfg.problem, h)
        if method == "picard":
            rep = solve_picard(
                cfg.problem, mesh, scheme=scheme, tol=cfg.tol, max_iter=cfg.max_iter
            )
        else:
            rep = solve_marching(cfg.problem, mesh, scheme=scheme)
        err = float(np.max(np.abs(rep.trajectory.values[-1] - ref)))
        errors.append(err)
        print(f"h = {_fmt(h)}   error at T = {_fmt(err)}")

    scale = float(np.max(np.abs(np.atleast_1d(ref))))
    if all(e <= 1e-12 * (1.0 + scale) for e in errors):
        print("estimated order = exact (all errors at roundoff level)")
        return EXIT_OK
    floored = np.maximum(errors, 1e-16)
    slope = float(np.polyfit(np.log(h_list), np.log(floored), 1)[0])
    print(f"estimated order = {_fmt(slope)}")
    return EXIT_OK


def cmd_example(args) -> int:
    data = builtin_example(args.name)
    parse_config(data)  # shipped examples must always validate
    out = args.out or f"{args.name}.json"
    import json

    Path(out).write_text(json.dumps(data, indent=2) + "\n")
    print(f"example config written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_solve.add_argument("--method", choices=("picard", "marching"))
    p_solve.add_argument("--scheme", choices=("rectangle", "trapezoid"))
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
    p_order.add_argument("--method", choices=("picard", "marching"))
    p_order.add_argument("--scheme", choices=("rectangle", "trapezoid"))
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
