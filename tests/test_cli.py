"""Command line contract: exit codes, CSV shape, determinism, reports."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

from fracimpulse import build_mesh, builtin_example, certify, parse_config
from fracimpulse.cli import build_parser, main, trajectory_csv
from fracimpulse.problem import Mesh, Trajectory

H_COARSE = 2.0**-6


@pytest.fixture(autouse=True)
def _run_in_tmp(monkeypatch, tmp_path):
    # configs name relative output files; keep them out of the repo tree
    monkeypatch.chdir(tmp_path)


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return path


def coarse(name: str) -> dict:
    data = builtin_example(name)
    data["numerics"]["target_h"] = H_COARSE
    return data


def step_profile_config() -> dict:
    # quiescent rhs with one impulse: exactly representable trajectory
    return {
        "problem": {
            "alpha": 0.5,
            "T": 1.0,
            "x0": 1.0,
            "rhs": {"kind": "plain", "f": "0"},
            "impulses": [{"time": 0.5, "jump": "0.5"}],
        },
        "numerics": {"target_h": 0.25},
        "output": {"csv": "step.csv"},
    }


class TestExitCodes:
    def test_solve_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coarse("logistic"))
        out = tmp_path / "traj.csv"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "solve: method=picard scheme=trapezoid" in captured.out
        assert "converged=yes" in captured.out

    def test_solve_not_converged_exits_2(self, tmp_path, capsys):
        data = coarse("logistic")
        data["numerics"]["tol"] = 1e-15
        data["numerics"]["max_iter"] = 2
        cfg = write_config(tmp_path, data)
        out = tmp_path / "traj.csv"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "converged=no" in captured.out
        assert "no convergence" in captured.err
        # trajectory still written for inspection
        assert out.exists()

    @pytest.mark.parametrize("max_iter, code", [(None, 0), (10, 2)])
    def test_fast_decay_solve(self, tmp_path, capsys, max_iter, code):
        # whole-mesh sweeps stall at sweep 2 and windows converge within
        # the default 200 sweeps; given 10, a stalled window runs out
        data = {"problem": {"alpha": 0.5, "T": 2.0, "x0": 1.0, "rhs": {"kind": "plain", "f": "-4*x"}}}
        if max_iter is not None:
            data["numerics"] = {"max_iter": max_iter}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "traj.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == code
        captured = capsys.readouterr()
        iterations = int(captured.out.split("iterations=")[1].split()[0])
        assert iterations <= (max_iter or 200)
        assert ("converged=yes" in captured.out) is (code == 0)
        assert captured.err == ("" if code == 0 else "warning: no convergence within 10 sweeps (tol 1e-10)\n")

    def test_diverging_one_node_window_writes_its_csv(self, tmp_path, capsys):
        # x' = x^2 blows up before T, where a one-node window (marching's
        # corrector) diverges: an unconverged report, not a solver error
        data = {
            "problem": {"alpha": 0.6, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": "x*x"}},
            "numerics": {"target_h": 0.0015625},
        }
        cfg = write_config(tmp_path, data)
        out = tmp_path / "traj.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "converged=no" in captured.out and out.exists()
        iterations = int(captured.out.split("iterations=")[1].split()[0])
        assert iterations < 200
        stop = re.fullmatch(
            rf"warning: no convergence: stopped at node (\d+) \(t=(\S+)\) "
            rf"after {iterations} of 200 sweeps \(tol 1e-10\)\n",
            captured.err,
        )
        assert stop is not None  # and its t is the node's row of the CSV
        assert stop[2] == out.read_text().splitlines()[1 + int(stop[1])].split(",")[0]

    @pytest.mark.parametrize(
        "method, warning",
        [
            (
                "picard",
                "warning: no convergence: stopped at node 1 (t=0.0078125) after 15 of 200 sweeps (tol 1e-10)\n",
            ),
            (
                "marching",
                "warning: no convergence: stopped at node 1 (t=0.0078125), whose corrector diverged, "
                "with the nodes to its right at x0; unconverged at 1 of 129 nodes (worst update ",
            ),
        ],
    )
    def test_stiff_config_writes_its_csv_with_both_methods(self, tmp_path, capsys, method, warning):
        # h^alpha 8 / Gamma(2.2) = 2.9: marching's corrector does not
        # contract at node 1, so both methods stop there unconverged, say
        # where, and still write their CSVs
        data = {
            "problem": {"alpha": 0.2, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": "-8*x"}},
            "numerics": {"target_h": 0.0078125},
        }
        cfg = write_config(tmp_path, data)
        out = tmp_path / "traj.csv"
        assert main(["solve", "--config", str(cfg), "--method", method, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "converged=no" in captured.out and out.exists()
        assert captured.err.startswith(warning) and captured.err.count("\n") == 1

    def test_history_domain_error_exits_2_naming_the_time(self, tmp_path, capsys):
        # history(0) and history(-r) are fine; the grid point -0.25 divides by zero
        data = coarse("delay-plain")
        data["problem"]["delay"]["history"] = "1/(t+0.25)"
        data["numerics"]["target_h"] = 0.125
        cfg = write_config(tmp_path, data)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "traj.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "solver error: history evaluation failed at t=-0.25: "
            "division by zero in subexpression '1.0/(t + 0.25)'\n"
        )

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_history_failing_at_minus_r_exits_1_naming_the_time(self, tmp_path, capsys, command):
        # history(0) = 2 gives x0; history(-r) divides by zero, so the problem is invalid
        data = coarse("delay-plain")
        data["problem"]["delay"]["history"] = "1/(t+0.5)"
        cfg = write_config(tmp_path, data)
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "config error: problem: history evaluation failed at t=-0.5: "
            "division by zero in subexpression '1.0/(t + 0.5)'\n"
        )

    @pytest.mark.parametrize("x0", [None, 1.0])
    def test_history_failing_at_zero_exits_1_naming_the_time(self, tmp_path, capsys, x0):
        # without x0 the history at 0 supplies it; with or without, the error names t = 0
        data = coarse("delay-plain")
        data["problem"]["delay"]["history"] = "1/t"
        if x0 is not None:
            data["problem"]["x0"] = x0
        assert main(["check", "--config", str(write_config(tmp_path, data))]) == 1
        assert capsys.readouterr().err == (
            "config error: problem: history evaluation failed at t=0.0: "
            "division by zero in subexpression '1.0/t'\n"
        )

    @pytest.mark.parametrize("method", ["picard", "marching"])
    def test_jump_domain_error_exits_2_naming_the_impulse(self, tmp_path, capsys, method):
        # the history -1 makes x(0.5-) negative, where x^0.5 is undefined
        data = coarse("delay-plain")
        data["problem"]["delay"]["history"] = "-1"
        data["problem"]["impulses"][0]["jump"] = "x^0.5"
        cfg = write_config(tmp_path, data)
        code = main(["solve", "--config", str(cfg), "--out", "traj.csv", "--method", method])
        assert code == 2
        assert capsys.readouterr().err == (
            "solver error: jump evaluation failed at impulse 0 (t=0.5): negative "
            "base with non-integer exponent in subexpression 'x^0.5'\n"
        )

    def test_jump_domain_error_in_the_spot_check_exits_1(self, tmp_path, capsys):
        # the spot check samples negative states, where x^0.5 is undefined
        data = coarse("delay-exp")
        data["problem"]["impulses"][0]["jump"] = "x^0.5"
        code = main(["check", "--config", str(write_config(tmp_path, data))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "problem error: impulse 0 at t=0.5: jump evaluation failed at sample 2 "
            "(x=[-0.8543598446917474]): negative base with non-integer exponent "
            "in subexpression 'x^0.5'\n"
        )

    def test_check_seminorm_overflow_exits_1(self, tmp_path, capsys):
        # 1.7e308 * T^p exceeds a double from the grid exponent 11 * 0.5 / 65
        data = builtin_example("delay-exp")
        data["problem"]["T"] = 2
        data["certificate"]["envelopes"]["lip"] = {"form": "constant", "value": 1.7e308}
        code = main(["check", "--config", str(write_config(tmp_path, data))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "certificate error: envelope 'lip': lp_seminorm of "
            "Envelope.constant(value=1.7e+308) over [0, 2.0] at "
            "p=0.08461538461538462 overflows a double\n"
        )

    def test_check_kinked_samples_certify(self, tmp_path, capsys):
        # kinks off the dyadic panel edges: a quadrature of the seminorm did
        # not converge at p = alpha/65; the closed form gives a verdict
        data = step_profile_config()
        data["problem"]["T"] = 2.0
        data["certificate"] = {
            "jump_lipschitz": 0.0,
            "envelopes": {
                "lip": {
                    "form": "samples",
                    "times": [0.0, 2 / 3, 4 / 3, 2.0],
                    "values": [0.1, 10.0, 0.1, 5.0],
                }
            },
        }
        code = main(["check", "--config", str(write_config(tmp_path, data))])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert "verdict: contraction_fails" in captured.out

    def test_check_without_a_finite_gamma_exits_1(self, tmp_path, capsys):
        # each seminorm is 1.5e308; the Hölder constant times it overflows
        data = step_profile_config()
        data["certificate"] = {
            "jump_lipschitz": 0.0,
            "envelopes": {"lip": {"form": "constant", "value": 1.5e308}},
        }
        code = main(["check", "--config", str(write_config(tmp_path, data))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "certificate error: no exponent of the p-grid on (0, 0.5) gives a "
            "finite gamma_stated from envelope 'lip'\n"
        )

    def test_marching_corrector_failure_exits_2(self, tmp_path, capsys):
        # w_jj * 32 is about 3 at h = 2^-6: the trapezoid corrector stalls
        data = {
            "problem": {
                "alpha": 0.5,
                "T": 1.0,
                "x0": 1.0,
                "rhs": {"kind": "plain", "f": "-32*sin(x)"},
            },
            "numerics": {"target_h": H_COARSE, "method": "marching"},
            "output": {"csv": "stall.csv"},
        }
        code = main(["solve", "--config", str(write_config(tmp_path, data))])
        captured = capsys.readouterr()
        assert code == 2
        assert "converged=no" in captured.out
        assert "no convergence" in captured.err
        stalled = re.search(r"at (\d+) of 65 nodes", captured.err)
        assert stalled and int(stalled.group(1)) > 0

    def test_check_contraction_holds_exits_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coarse("delay-exp"))
        code = main(["check", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 0
        assert "verdict: contraction_holds" in captured.out

    def test_check_without_lipschitz_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coarse("delay-plain"))
        code = main(["check", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 3
        assert "verdict: not_applicable" in captured.out
        # the linear-growth route still reports its numbers
        assert "schaefer growth factor q = 0." in captured.out

    def test_check_contraction_fails_exits_3(self, tmp_path, capsys):
        data = coarse("delay-exp")
        data["certificate"]["jump_lipschitz"] = 1.0
        cfg = write_config(tmp_path, data)
        code = main(["check", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 3
        assert "verdict: contraction_fails" in captured.out

    def test_config_error_exits_1(self, tmp_path, capsys):
        data = coarse("logistic")
        data["problem"]["alpha"] = 1.2
        cfg = write_config(tmp_path, data)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err
        assert "(0, 1)" in captured.err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        data = coarse("logistic")
        data["problem"]["alfa"] = 0.5
        cfg = write_config(tmp_path, data)
        code = main(["check", "--config", str(cfg)])
        assert code == 1
        assert "alfa" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        code = main(["solve", "--config", str(tmp_path / "none.json")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_solve_without_csv_destination_exits_1(self, tmp_path, capsys):
        data = coarse("logistic")
        del data["output"]
        cfg = write_config(tmp_path, data)
        code = main(["solve", "--config", str(cfg)])
        assert code == 1
        assert "output.csv" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["solve"]) == 1
        capsys.readouterr()

    def test_unknown_example_name_exits_1(self, capsys):
        assert main(["example", "lorenz"]) == 1
        capsys.readouterr()

    def test_h_list_too_short_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coarse("logistic"))
        code = main(["order", "--config", str(cfg), "--h-list", "0.1,0.05"])
        assert code == 1
        assert "three step sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_h_list_rejects_non_finite_steps_before_any_solve(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, coarse("logistic"))
        code = main(["order", "--config", str(cfg), "--h-list", f"0.1,{bad},0.05"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"config error: --h-list: steps must be positive and finite, got {bad!r}\n"
        )

    @pytest.mark.parametrize("command", ["solve", "order"])
    @pytest.mark.parametrize("tiny", [5e-324, 1e-310])
    def test_step_too_small_to_count_is_a_problem_error(self, tmp_path, capsys, command, tiny):
        # T / target_h overflows: the node cap, not an OverflowError traceback
        data = {
            "problem": {"alpha": 0.5, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": "-x"}},
            "numerics": {"target_h": tiny if command == "solve" else 0.25},
        }
        cfg = write_config(tmp_path, data)
        if command == "solve":
            args = ["--out", str(tmp_path / "x.csv")]
        else:
            args = ["--h-list", f"0.25,0.125,{tiny!r}"]
        code = main([command, "--config", str(cfg), *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("problem error: mesh would need T / target_h = inf steps")
        assert "Traceback" not in captured.err

    def test_step_longer_than_the_horizon_solves(self, tmp_path, capsys):
        # the logistic's segments differ, so its mesh is the grid k h with
        # the impulses inserted: one step, not an IndexError traceback
        data = builtin_example("logistic")
        data["numerics"]["target_h"] = 1e300
        cfg = write_config(tmp_path, data)
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert "nodes=4 impulses=2" in captured.out
        assert captured.err == ""
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 1 + 4 + 2

    def test_h_list_must_decrease_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coarse("logistic"))
        code = main(["order", "--config", str(cfg), "--h-list", "0.05,0.1,0.2"])
        assert code == 1
        assert "decreasing" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_options_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = write_config(tmp_path, coarse("delay-exp"))
    report = tmp_path / "report.txt"
    assert main(["check", "--config", str(cfg), "--report", str(report)]) == 0
    first = capsys.readouterr().out
    report.unlink()
    assert main(["check", "--config", str(cfg)]) == 0
    second = capsys.readouterr().out
    assert second.splitlines()[:-1] == first.splitlines()[:-1]
    assert str(report) in first and str(report) not in second
    assert not report.exists()


class TestTrajectoryCsv:
    def test_header_and_row_count(self, tmp_path, capsys):
        data = coarse("logistic")
        cfg_path = write_config(tmp_path, data)
        out = tmp_path / "traj.csv"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "t,side,x1"
        mesh = build_mesh(parse_config(data).problem, H_COARSE)
        # one row per node, plus one extra (right limit) per impulse
        assert len(lines) == 1 + mesh.n_nodes + len(mesh.impulse_idx)

    def test_impulse_rows_and_sides(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, step_profile_config())
        out = tmp_path / "step.csv"
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        at_impulse = [r for r in rows if r[0] == "0.5"]
        assert [r[1] for r in at_impulse] == ["left", "right"]
        assert float(at_impulse[0][2]) == 1.0
        assert float(at_impulse[1][2]) == 1.5
        elsewhere = [r for r in rows if r[0] != "0.5"]
        assert all(r[1] == "both" for r in elsewhere)
        assert float(rows[0][2]) == 1.0
        assert float(rows[-1][2]) == 1.5

    def test_csv_bytes_deterministic(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, coarse("delay-exp"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["solve", "--config", str(cfg_path), "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_method_and_scheme_overrides(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, coarse("logistic"))
        out = tmp_path / "traj.csv"
        code = main(
            [
                "solve",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--method",
                "marching",
                "--scheme",
                "rectangle",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "method=marching scheme=rectangle" in captured.out

    def test_exact_text_of_a_two_dimensional_trajectory(self):
        mesh = Mesh(
            nodes=np.array([0.0, 0.5, 1.0]), boundary_idx=(0, 1, 2), seg_steps=(0.5, 0.5)
        )
        traj = Trajectory(
            mesh=mesh,
            values=np.array([[-0.0, 1e-310], [1.5e300, 0.1], [0.1, -0.0]]),
            right_values=np.array([[0.1, 1.5e300]]),
        )
        assert trajectory_csv(traj) == (
            "t,side,x1,x2\n"
            "0.0,both,-0.0,1e-310\n"
            "0.5,left,1.5e+300,0.1\n"
            "0.5,right,0.1,1.5e+300\n"
            "1.0,both,0.1,-0.0\n"
        )

    def test_frozen_bytes_with_two_impulses(self):
        # impulses on consecutive nodes 1 and 2; the values cover a
        # negative zero, the smallest subnormal, an exponent-form integer
        # and a sum whose repr needs 17 digits
        mesh = Mesh(
            nodes=np.array([0.0, 0.25, 0.5, 1.0]),
            boundary_idx=(0, 1, 2, 3),
            seg_steps=(0.25, 0.25, 0.5),
        )
        traj = Trajectory(
            mesh=mesh,
            values=np.array([[-0.0, 5e-324], [1e22, 0.1 + 0.2], [-1.5, 2.0], [0.1, -0.0]]),
            right_values=np.array([[0.1 + 0.2, -0.0], [5e-324, -1e22]]),
        )
        assert trajectory_csv(traj).encode() == (
            b"t,side,x1,x2\n"
            b"0.0,both,-0.0,5e-324\n"
            b"0.25,left,1e+22,0.30000000000000004\n"
            b"0.25,right,0.30000000000000004,-0.0\n"
            b"0.5,left,-1.5,2.0\n"
            b"0.5,right,5e-324,-1e+22\n"
            b"1.0,both,0.1,-0.0\n"
        )


class TestCheckReport:
    def test_report_file_matches_stdout(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, coarse("delay-exp"))
        report = tmp_path / "cert.txt"
        code = main(["check", "--config", str(cfg_path), "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 0
        text = report.read_text()
        assert captured.out.startswith(text)
        assert f"report written to {report}" in captured.out

    def test_report_agrees_with_library(self, tmp_path, capsys):
        from fracimpulse.cli import certificate_report

        data = coarse("delay-exp")
        del data["output"]
        cfg_path = write_config(tmp_path, data)
        assert main(["check", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        cfg = parse_config(data)
        cert = certify(cfg.problem, p=cfg.certificate_p)
        assert captured.out == certificate_report(cert)

    def test_report_fields(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, coarse("delay-exp"))
        main(["check", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert "rhs kind: delay" in out
        assert "alpha = 0.5   horizon T = 1.0   impulses m = 1" in out
        assert "(auto)" in out
        gamma_line = next(
            line for line in out.splitlines() if "stated normalization" in line
        )
        gamma = float(gamma_line.split(":")[-1])
        assert 0.0 < gamma < 1.0
        assert "a-priori radii by impulse count: " in out

    def test_configured_p_reported(self, tmp_path, capsys):
        data = coarse("delay-exp")
        data["certificate"]["p"] = 0.25
        cfg_path = write_config(tmp_path, data)
        main(["check", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert "holder exponent p = 0.25 (configured)" in out


class TestOrderStudy:
    def test_linear_problem_uses_closed_form(self, tmp_path, capsys):
        data = {
            "problem": {
                "alpha": 0.5,
                "T": 1.0,
                "x0": 1.0,
                "rhs": {"kind": "plain", "f": "-x"},
            },
        }
        cfg_path = write_config(tmp_path, data)
        code = main(
            [
                "order",
                "--config",
                str(cfg_path),
                "--h-list",
                "0.0625,0.03125,0.015625",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "closed-form reference (Mittag-Leffler)" in out
        assert out.count("error at T = ") == 3
        order_line = next(
            line for line in out.splitlines() if line.startswith("estimated order = ")
        )
        slope = float(order_line.split("=")[1])
        assert 0.5 < slope < 3.0

    @pytest.mark.parametrize("f", ["(2*3)*x", "-2*x"])
    def test_constant_product_factor_uses_closed_form(self, tmp_path, capsys, f):
        # marching converges at every step for both factors; Picard's
        # sweeps diverge for lam = 6 on [0, 1]
        data = {
            "problem": {"alpha": 0.5, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": f}},
        }
        cfg_path = write_config(tmp_path, data)
        code = main(
            [
                "order",
                "--config",
                str(cfg_path),
                "--h-list",
                "0.015625,0.0078125,0.00390625",
                "--method",
                "marching",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "closed-form reference (Mittag-Leffler)" in out

    def test_nonlinear_rhs_falls_back_to_fine_grid(self, tmp_path, capsys):
        # -3x plus a forcing term has no Mittag-Leffler closed form, so the
        # study uses a fine grid; marching converges at every step and on it
        data = {
            "problem": {
                "alpha": 0.3,
                "T": 0.5,
                "x0": 1.0,
                "rhs": {"kind": "plain", "f": "-3*x + 0.1*sin(t)"},
            },
        }
        cfg_path = write_config(tmp_path, data)
        code = main(
            [
                "order",
                "--config",
                str(cfg_path),
                "--h-list",
                "0.0078125,0.00390625,0.001953125",
                "--method",
                "marching",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fine-grid reference (target_h = 0.000244140625)" in out
        assert "estimated order = " in out

    def test_fast_decay_uses_closed_form(self, tmp_path, capsys):
        # lam T^alpha = -32, a decay no alternating series resolves in
        # doubles: the contour oracle is the reference, and marching
        # shows order 1 + alpha
        data = {
            "problem": {"alpha": 0.8, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": "-32*x"}},
        }
        cfg_path = write_config(tmp_path, data)
        code = main(
            [
                "order",
                "--config",
                str(cfg_path),
                "--h-list",
                "0.0078125,0.00390625,0.001953125",
                "--method",
                "marching",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reference: closed-form reference (Mittag-Leffler)" in out
        order_line = next(
            line for line in out.splitlines() if line.startswith("estimated order = ")
        )
        assert abs(float(order_line.split("=")[1]) - 1.8) <= 0.15

    def test_unconverged_study_solve_is_reported(self, tmp_path, capsys):
        # every solve stops unconverged after max_iter = 20 sweeps, and
        # their errors alone give "estimated order = 3.17455...", digits
        # that follow the windows' predictor
        data = {
            "problem": {"alpha": 0.6, "T": 1.0, "x0": 1.0, "rhs": {"kind": "plain", "f": "6*x"}},
            "numerics": {"max_iter": 20},
        }
        cfg_path = write_config(tmp_path, data)
        code = main(["order", "--config", str(cfg_path), "--h-list", "0.05,0.025,0.0125"])
        captured = capsys.readouterr()
        assert code == 2
        assert "estimated order = 3.17455" in captured.out
        assert captured.err == "warning: no convergence within 20 sweeps (tol 1e-10)\n" * 3

    def test_unconverged_fine_grid_reference_is_reported(self, tmp_path, capsys):
        # no closed form for the forced decay, and every solve, the
        # fine-grid reference first, stops after max_iter = 3 sweeps
        data = {
            "problem": {
                "alpha": 0.3,
                "T": 1.0,
                "x0": 1.0,
                "rhs": {"kind": "plain", "f": "-4*x + 0.1*sin(t)"},
            },
            "numerics": {"max_iter": 3},
        }
        cfg_path = write_config(tmp_path, data)
        code = main(["order", "--config", str(cfg_path), "--h-list", "0.125,0.0625,0.03125"])
        captured = capsys.readouterr()
        assert code == 2
        assert "fine-grid reference" in captured.out
        assert captured.err == "warning: no convergence within 3 sweeps (tol 1e-10)\n" * 4

    def test_logistic_study_output_is_frozen(self, tmp_path, capsys):
        # the full stdout, frozen; the text must match exactly and the
        # numbers to 1e-9 relative, as their last bits depend on the FFT
        # and LAPACK builds.  The impulses at 0.3 and 0.6 are nodes inserted
        # into the grid k h, whose step the slope is fit to; where they cut
        # their cells changes with h, which a warning says for each h
        expected = (
            "order study: method=picard scheme=trapezoid\n"
            "reference: fine-grid reference (target_h = 0.001953125)\n"
            "h = 0.0625   mesh step = 0.0625   error at T = 0.0007602137801560604\n"
            "h = 0.03125   mesh step = 0.03125   error at T = 0.0005298332657850402\n"
            "h = 0.015625   mesh step = 0.015625   error at T = 0.0003020979370368382\n"
            "estimated order = 0.6656944222385341\n"
        )
        cfg_path = write_config(tmp_path, builtin_example("logistic"))
        code = main(["order", "--config", str(cfg_path), "--h-list", "0.0625,0.03125,0.015625"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == "".join(
            f"warning: at h = {h} impulses cut grid cells; the slope may mislead\n"
            for h in ("0.0625", "0.03125", "0.015625")
        )
        number = re.compile(r"\d+\.\d+(?:e[+-]?\d+)?")
        assert number.sub("#", out) == number.sub("#", expected)
        got = [float(v) for v in number.findall(out)]
        assert got == pytest.approx([float(v) for v in number.findall(expected)], rel=1e-9)

    def test_quiescent_problem_reports_exact(self, tmp_path, capsys):
        data = {
            "problem": {
                "alpha": 0.5,
                "T": 1.0,
                "x0": 1.0,
                "rhs": {"kind": "plain", "f": "0"},
            },
        }
        cfg_path = write_config(tmp_path, data)
        code = main(
            ["order", "--config", str(cfg_path), "--h-list", "0.25,0.125,0.0625"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fine-grid reference" in out
        assert "estimated order = exact (all errors at roundoff level)" in out


class TestExampleCommand:
    @pytest.mark.parametrize("name", ("logistic", "delay-exp", "delay-plain"))
    def test_written_file_is_valid_and_verbatim(self, tmp_path, capsys, name):
        dest = tmp_path / "cfg.json"
        assert main(["example", name, "--out", str(dest)]) == 0
        capsys.readouterr()
        assert json.loads(dest.read_text()) == builtin_example(name)
        parse_config(json.loads(dest.read_text()))

    def test_default_destination(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["example", "logistic"]) == 0
        capsys.readouterr()
        assert (tmp_path / "logistic.json").exists()

    def test_example_solve_check_flow(self, tmp_path, capsys, monkeypatch):
        """The shipped examples drive the full pipeline end to end."""
        monkeypatch.chdir(tmp_path)
        expected_check = {"logistic": 3, "delay-exp": 0, "delay-plain": 3}
        for name, check_code in expected_check.items():
            cfg = tmp_path / f"{name}.json"
            assert main(["example", name, "--out", str(cfg)]) == 0
            data = json.loads(cfg.read_text())
            data["numerics"]["target_h"] = H_COARSE
            cfg.write_text(json.dumps(data))
            assert main(["solve", "--config", str(cfg)]) == 0
            assert main(["check", "--config", str(cfg)]) == check_code
            assert (tmp_path / data["output"]["csv"]).exists()
        capsys.readouterr()


class TestEntryPoint:
    def test_module_invocation_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracimpulse", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("fracimpulse ")

    def test_module_invocation_solve(self, tmp_path):
        cfg = write_config(tmp_path, step_profile_config())
        proc = subprocess.run(
            [sys.executable, "-m", "fracimpulse", "solve", "--config", str(cfg)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert (tmp_path / "step.csv").exists()

    def test_usage_error_statuses(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fracimpulse", "frobnicate"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert proc.returncode == 1

    def test_help_exits_0(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracimpulse", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "check" in proc.stdout
