"""Config schema: strict validation, field-path errors, round-trips, builtins."""

import copy
import json

import numpy as np
import pytest

from fracimpulse import (
    BUILTIN_EXAMPLES,
    ConfigError,
    ProblemError,
    builtin_example,
    certify,
    load_config,
    parse_config,
)
from fracimpulse.cli import main


def plain_config() -> dict:
    return {
        "problem": {
            "alpha": 0.5,
            "T": 1.0,
            "x0": 1.0,
            "rhs": {"kind": "plain", "f": "-x"},
        }
    }


def delay_config() -> dict:
    return {
        "problem": {
            "alpha": 0.5,
            "T": 1.0,
            "rhs": {"kind": "delay", "f": "xr - x"},
            "delay": {"r": 0.25, "history": "1 + t"},
        }
    }


class TestDefaults:
    def test_minimal_plain(self):
        cfg = parse_config(plain_config())
        assert cfg.problem.alpha == 0.5
        assert cfg.problem.T == 1.0
        assert cfg.problem.dim == 1
        assert cfg.target_h == 1.0 / 256.0
        assert cfg.scheme == "trapezoid"
        assert cfg.method == "picard"
        assert cfg.tol == 1e-10
        assert cfg.max_iter == 200
        assert cfg.certificate_p == "auto"
        assert cfg.csv_path is None
        assert cfg.report_path is None
        assert cfg.notes == ()

    def test_rhs_is_callable(self):
        cfg = parse_config(plain_config())
        out = cfg.problem.rhs.f(0.0, np.array([3.0]))
        assert out.shape == (1,)
        assert out[0] == -3.0

    def test_notes_carried(self):
        data = plain_config()
        data["notes"] = ["a", "b"]
        assert parse_config(data).notes == ("a", "b")


class TestFieldPathErrors:
    """Every rejection names the offending field."""

    def _err(self, data) -> str:
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        return str(exc.value)

    def test_unknown_top_level_key(self):
        data = plain_config()
        data["solver"] = {}
        msg = self._err(data)
        assert "config.solver" in msg and "unknown key" in msg

    def test_missing_problem(self):
        assert "problem" in self._err({})

    def test_alpha_out_of_range(self):
        data = plain_config()
        data["problem"]["alpha"] = 1.2
        msg = self._err(data)
        assert "problem.alpha" in msg and "(0, 1)" in msg

    def test_alpha_at_endpoint(self):
        data = plain_config()
        data["problem"]["alpha"] = 1.0
        assert "problem.alpha" in self._err(data)

    def test_alpha_not_number(self):
        data = plain_config()
        data["problem"]["alpha"] = True
        msg = self._err(data)
        assert "problem.alpha" in msg and "number" in msg

    def test_T_nonpositive(self):
        data = plain_config()
        data["problem"]["T"] = 0.0
        assert "problem.T" in self._err(data)

    def test_bad_rhs_kind(self):
        data = plain_config()
        data["problem"]["rhs"]["kind"] = "quadratic"
        msg = self._err(data)
        assert "problem.rhs.kind" in msg and "must be one of" in msg

    def test_split_rejects_f(self):
        data = plain_config()
        data["problem"]["rhs"] = {"kind": "split", "f": "x", "f1": "x", "f2": "x"}
        assert "problem.rhs.f" in self._err(data)

    def test_split_requires_both_parts(self):
        data = plain_config()
        data["problem"]["rhs"] = {"kind": "split", "f1": "x"}
        assert "'f2'" in self._err(data)

    def test_plain_rejects_f1(self):
        data = plain_config()
        data["problem"]["rhs"]["f1"] = "x"
        msg = self._err(data)
        assert "problem.rhs.f1" in msg and "split" in msg

    def test_plain_requires_f(self):
        data = plain_config()
        del data["problem"]["rhs"]["f"]
        assert "'f'" in self._err(data)

    @pytest.mark.parametrize(
        "rhs, message",
        [
            ({"kind": "split", "f2": "x"}, "problem.rhs: split kind requires 'f1'"),
            ({"kind": "split", "f1": "x"}, "problem.rhs: split kind requires 'f2'"),
            (
                {"kind": "split", "f": "x", "f1": "x", "f2": "x"},
                "problem.rhs.f: split kind uses f1/f2, not f",
            ),
            ({"kind": "plain"}, "problem.rhs: kind 'plain' requires 'f'"),
            ({"kind": "plain", "f": "x", "f1": "x"}, "problem.rhs.f1: only valid for the split kind"),
            ({"kind": "plain", "f": "x", "f2": "x"}, "problem.rhs.f2: only valid for the split kind"),
        ],
    )
    def test_rhs_part_messages_are_pinned(self, rhs, message):
        data = plain_config()
        data["problem"]["rhs"] = rhs
        assert self._err(data) == message

    def test_delay_block_needs_delay_kind(self):
        data = plain_config()
        data["problem"]["delay"] = {"r": 0.5, "history": "0"}
        msg = self._err(data)
        assert "problem.delay" in msg

    def test_delay_kind_needs_delay_block(self):
        data = delay_config()
        del data["problem"]["delay"]
        assert "problem.delay" in self._err(data)

    def test_plain_rhs_rejects_lag_variables(self):
        data = plain_config()
        data["problem"]["rhs"]["f"] = "xr"
        msg = self._err(data)
        assert "problem.rhs.f" in msg and "xr" in msg

    def test_plain_rhs_rejects_window_sup(self):
        data = plain_config()
        data["problem"]["rhs"]["f"] = "xtsup"
        assert "xtsup" in self._err(data)

    def test_jump_must_depend_on_state_only(self):
        data = plain_config()
        data["problem"]["impulses"] = [{"time": 0.5, "jump": "t*x"}]
        msg = self._err(data)
        assert "problem.impulses[0].jump" in msg and "'t'" in msg

    def test_history_depends_on_time_only(self):
        data = delay_config()
        data["problem"]["delay"]["history"] = "x"
        msg = self._err(data)
        assert "problem.delay.history" in msg

    def test_impulse_time_at_origin(self):
        data = plain_config()
        data["problem"]["impulses"] = [{"time": 0.0, "jump": "0.1"}]
        msg = self._err(data)
        assert "problem.impulses[0].time" in msg and "strictly inside" in msg

    def test_impulse_time_at_horizon(self):
        data = plain_config()
        data["problem"]["impulses"] = [{"time": 1.0, "jump": "0.1"}]
        assert "problem.impulses[0].time" in self._err(data)

    def test_impulse_times_must_increase(self):
        data = plain_config()
        data["problem"]["impulses"] = [
            {"time": 0.6, "jump": "0.1"},
            {"time": 0.3, "jump": "0.1"},
        ]
        msg = self._err(data)
        assert "problem.impulses" in msg and "increasing" in msg

    def test_x0_required_without_history(self):
        data = plain_config()
        del data["problem"]["x0"]
        assert "problem.x0" in self._err(data)

    def test_x0_empty_list(self):
        data = plain_config()
        data["problem"]["x0"] = []
        assert "problem.x0" in self._err(data)

    def test_x0_component_not_number(self):
        data = plain_config()
        data["problem"]["x0"] = [1.0, "two"]
        # second component flagged, but then f must also be a 2-list
        assert "problem.x0[1]" in self._err(data)

    def test_bad_expression_reports_position(self):
        data = plain_config()
        data["problem"]["rhs"]["f"] = "2 +"
        msg = self._err(data)
        assert "problem.rhs.f" in msg and "bad expression" in msg

    def test_certificate_p_above_alpha(self):
        data = plain_config()
        data["certificate"] = {"p": 0.7}
        msg = self._err(data)
        assert "certificate.p" in msg and "(0, alpha)" in msg

    def test_certificate_p_at_alpha(self):
        data = plain_config()
        data["certificate"] = {"p": 0.5}
        assert "certificate.p" in self._err(data)

    def test_negative_jump_bound(self):
        data = plain_config()
        data["certificate"] = {"jump_bound": -0.1}
        msg = self._err(data)
        assert "certificate.jump_bound" in msg and "nonnegative" in msg

    def test_envelope_role_checked_against_kind(self):
        data = plain_config()
        data["certificate"] = {
            "envelopes": {"growth": {"form": "constant", "value": 1.0}}
        }
        msg = self._err(data)
        assert "certificate.envelopes.growth" in msg and "plain" in msg

    def test_envelope_missing_parameters(self):
        data = plain_config()
        data["certificate"] = {"envelopes": {"bound": {"form": "constant"}}}
        msg = self._err(data)
        assert "certificate.envelopes.bound" in msg

    @pytest.mark.parametrize(
        "desc",
        [
            {"form": "constant", "value": float("nan")},
            {"form": "exp_decay", "scale": 1.0, "rate": float("inf")},
            {"form": "samples", "times": [0.0, 1.0], "values": [1.0, float("nan")]},
        ],
    )
    def test_envelope_non_finite_parameter(self, desc, tmp_path, capsys):
        data = plain_config()
        data["certificate"] = {"envelopes": {"lip": desc}}
        msg = self._err(data)
        assert msg.startswith("certificate.envelopes.lip: bad envelope: envelope ")
        assert "must be finite" in msg
        # JSON's NaN and Infinity reach the same error through the CLI
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {msg}\n"

    def test_envelope_unknown_form(self):
        data = plain_config()
        data["certificate"] = {
            "envelopes": {"bound": {"form": "parabola", "value": 1.0}}
        }
        assert "certificate.envelopes.bound" in self._err(data)

    def test_numerics_unknown_key(self):
        data = plain_config()
        data["numerics"] = {"step": 0.1}
        msg = self._err(data)
        assert "numerics.step" in msg

    def test_numerics_bad_scheme(self):
        data = plain_config()
        data["numerics"] = {"scheme": "simpson"}
        msg = self._err(data)
        assert "numerics.scheme" in msg and "rectangle" in msg

    def test_numerics_tol_positive(self):
        data = plain_config()
        data["numerics"] = {"tol": 0.0}
        assert "numerics.tol" in self._err(data)

    def test_numerics_max_iter_integer(self):
        data = plain_config()
        data["numerics"] = {"max_iter": 2.5}
        msg = self._err(data)
        assert "numerics.max_iter" in msg and "integer" in msg

    def test_output_csv_string(self):
        data = plain_config()
        data["output"] = {"csv": 7}
        assert "output.csv" in self._err(data)

    def test_notes_must_be_strings(self):
        data = plain_config()
        data["notes"] = ["ok", 3]
        assert "notes" in self._err(data)


class TestVectorState:
    def test_two_dimensional_round(self):
        data = {
            "problem": {
                "alpha": 0.4,
                "T": 2.0,
                "x0": [1.0, -1.0],
                "rhs": {"kind": "plain", "f": ["-x2", "x1"]},
                "impulses": [{"time": 1.0, "jump": ["0.1*x1", "0.0"]}],
            }
        }
        cfg = parse_config(data)
        assert cfg.problem.dim == 2
        out = cfg.problem.rhs.f(0.0, np.array([2.0, 3.0]))
        assert out.tolist() == [-3.0, 2.0]
        jump = cfg.problem.impulses.jumps[0](np.array([2.0, 3.0]))
        assert jump.tolist() == [0.2, 0.0]

    def test_dimension_mismatch_in_f(self):
        data = {
            "problem": {
                "alpha": 0.4,
                "T": 2.0,
                "x0": [1.0, -1.0],
                "rhs": {"kind": "plain", "f": "-x1"},
            }
        }
        with pytest.raises(ConfigError, match=r"problem\.rhs\.f"):
            parse_config(data)

    def test_scalar_state_uses_x_not_x1(self):
        data = plain_config()
        data["problem"]["rhs"]["f"] = "-x1"
        with pytest.raises(ConfigError, match="x1"):
            parse_config(data)


class TestDelayConfigs:
    def test_x0_taken_from_history(self):
        cfg = parse_config(delay_config())
        assert cfg.problem.x0.tolist() == [1.0]

    def test_explicit_x0_must_match_history(self):
        data = delay_config()
        data["problem"]["x0"] = 2.0
        with pytest.raises(ConfigError, match="history"):
            parse_config(data)

    def test_lag_and_window_variables_allowed(self):
        data = delay_config()
        data["problem"]["rhs"]["f"] = "xr + xtsup - x"
        cfg = parse_config(data)
        out = cfg.problem.rhs.f(0.0, np.array([1.0]), np.array([2.0]), 5.0)
        assert out[0] == 6.0

    def test_history_is_evaluated(self):
        cfg = parse_config(delay_config())
        assert cfg.problem.delay.history(-0.25).tolist() == [0.75]


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_EXAMPLES)
    def test_builtin_source_round_trips(self, name):
        data = builtin_example(name)
        cfg = parse_config(data)
        again = parse_config(cfg.to_dict())
        assert again.problem.alpha == cfg.problem.alpha
        assert again.problem.T == cfg.problem.T
        assert again.problem.impulses.times == cfg.problem.impulses.times
        assert again.target_h == cfg.target_h
        assert again.scheme == cfg.scheme
        assert again.certificate_p == cfg.certificate_p
        assert again.csv_path == cfg.csv_path
        # parsed expression trees compare structurally
        assert set(again.asts) == set(cfg.asts)
        for key in cfg.asts:
            assert again.asts[key] == cfg.asts[key]

    def test_to_dict_is_a_copy(self):
        cfg = parse_config(plain_config())
        d = cfg.to_dict()
        d["problem"]["alpha"] = 0.9
        assert cfg.problem.alpha == 0.5
        assert cfg.to_dict()["problem"]["alpha"] == 0.5

    def test_dump_then_load(self, tmp_path):
        cfg = parse_config(builtin_example("logistic"))
        path = tmp_path / "run.json"
        cfg.dump(path)
        loaded = load_config(path)
        assert loaded.source == cfg.source


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(plain_config()))
        cfg = load_config(path)
        assert cfg.problem.alpha == 0.5


class TestBuiltinExamples:
    def test_all_names_parse(self):
        for name in BUILTIN_EXAMPLES:
            cfg = parse_config(builtin_example(name))
            assert cfg.problem.T == 1.0

    def test_logistic_shape(self):
        cfg = parse_config(builtin_example("logistic"))
        assert cfg.problem.rhs.kind == "split"
        assert cfg.problem.impulses.times == (0.3, 0.6)
        assert cfg.problem.impulses.jump_bound == 0.05
        assert cfg.csv_path == "logistic_solution.csv"

    def test_delay_examples_shape(self):
        exp = parse_config(builtin_example("delay-exp"))
        assert exp.problem.rhs.kind == "delay"
        assert exp.problem.delay.r == 0.5
        assert set(exp.problem.rhs.envelopes) == {"lip", "bound"}
        plain = parse_config(builtin_example("delay-plain"))
        assert set(plain.problem.rhs.envelopes) == {"growth"}
        assert plain.problem.impulses.jump_bound_star == 0.5

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="delay-exp"):
            builtin_example("lotka")

    def test_returns_fresh_dicts(self):
        a = builtin_example("logistic")
        b = builtin_example("logistic")
        assert a == b
        a["problem"]["alpha"] = 0.9
        assert b["problem"]["alpha"] == 0.5


class TestSpotCheckThroughConfig:
    """Declared jump bounds are sampled once a working ball radius exists."""

    def _data(self, declared: float) -> dict:
        data = plain_config()
        data["problem"]["impulses"] = [{"time": 0.5, "jump": "2.0"}]
        data["certificate"] = {
            "jump_bound": declared,
            "envelopes": {"bound": {"form": "constant", "value": 1.0}},
        }
        return data

    def test_dishonest_jump_bound_rejected(self):
        cfg = parse_config(self._data(0.1))
        with pytest.raises(ProblemError, match="jump_bound"):
            certify(cfg.problem, p=cfg.certificate_p)

    def test_honest_jump_bound_accepted(self):
        cfg = parse_config(self._data(2.0))
        assert cfg.problem.impulses.jump_bound == 2.0
        cert = certify(cfg.problem, p=cfg.certificate_p)
        assert cert.radii is not None
