"""Command line contract: exit codes, CSV shape, determinism, reports."""

import json
import re
import subprocess
import sys

import pytest

from fracimpulse import build_mesh, builtin_example, certify, parse_config
from fracimpulse.cli import main

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

    def test_h_list_must_decrease_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coarse("logistic"))
        code = main(["order", "--config", str(cfg), "--h-list", "0.05,0.1,0.2"])
        assert code == 1
        assert "decreasing" in capsys.readouterr().err


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

    def test_cancellation_prone_oracle_falls_back(self, tmp_path, capsys):
        # linear with lam = -4 at alpha = 0.3: the series oracle refuses
        # (double-precision cancellation), so the study uses a fine grid
        data = {
            "problem": {
                "alpha": 0.3,
                "T": 1.0,
                "x0": 1.0,
                "rhs": {"kind": "plain", "f": "-x*4"},
            },
        }
        cfg_path = write_config(tmp_path, data)
        code = main(
            ["order", "--config", str(cfg_path), "--h-list", "0.125,0.0625,0.03125"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fine-grid reference" in out
        assert "estimated order = " in out

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
