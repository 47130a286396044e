"""Suite runner, report determinism, CLI, and exit-code contract tests."""

import argparse
import json
import math
import re
from pathlib import Path

import pytest

from lckgeo.cli import CONFIG_KEYS, build_parser, main as cli_main
from lckgeo.errors import ParameterError
from lckgeo.report import (Report, ResidualTable, SuiteConfig, emit,
                           exit_code, parse_selector, resolve_manifold, run)


class TestSelector:
    def test_parse_forms(self):
        assert parse_selector("hopf") == ("hopf", {})
        name, params = parse_selector("calabi{ell=sin, b=pi}")
        assert name == "calabi"
        assert params["ell"] == "sin"
        assert abs(params["b"] - math.pi) < 1e-15
        assert parse_selector("hopf{n=3}")[1]["n"] == 3

    def test_malformed_rejected(self):
        with pytest.raises(ParameterError):
            parse_selector("hopf{n=2")
        with pytest.raises(ParameterError):
            parse_selector("hopf{n}")
        with pytest.raises(ParameterError):
            resolve_manifold("torus{}")

    def test_resolution(self):
        assert resolve_manifold("hopf{n=2,circumference=6.0}").params[
            "circumference"] == 6.0
        assert resolve_manifold("flat_inversion{n=3}").n == 3
        assert resolve_manifold("warped{c=sin,base=cp1}").expected_kind == "gcK"
        assert resolve_manifold("euclidean{m=4}").label == "euclidean_4"

    def test_unknown_profile(self):
        with pytest.raises(ParameterError):
            resolve_manifold("warped{c=tan}")

    @pytest.mark.parametrize("selector", [
        "hopf{nn=3}", "hopf{n=2,m=4}", "flat_inversion{circumference=6}",
        "calabi{c=sin}", "hopf{n=2,n=3}", "hopf{n=abc}", "hopf{n=2.7}",
        "hopf{n=pi}", "flat_inversion{n=2.0}", "euclidean{m=x}",
        "hopf{circumference=abc}", "hopf{circumference=nan}", "calabi{b=inf}",
        "euclidean{m=0}"])
    def test_bad_parameter_rejected(self, selector):
        with pytest.raises(ParameterError):
            resolve_manifold(selector)


class TestSuiteConfig:
    def test_unknown_suite_rejected_eagerly(self):
        with pytest.raises(ParameterError):
            SuiteConfig(manifold="hopf{n=2}", suites=("nonsense",))

    def test_mode_dependent_tol_id(self):
        c_fd = SuiteConfig(manifold="x", suites=(), mode="fd")
        c_an = SuiteConfig(manifold="x", suites=(), mode="analytic")
        assert c_fd.tol_id == 1e-4
        assert c_an.tol_id == 1e-8

    def test_validation(self):
        with pytest.raises(ParameterError):
            SuiteConfig(manifold="x", suites=(), samples=0)
        with pytest.raises(ParameterError):
            SuiteConfig(manifold="x", suites=(), tol_ode=-1.0)
        with pytest.raises(ParameterError):
            SuiteConfig(manifold="x", suites=(), mode="magic")


class TestRun:
    def test_empty_suite_list_passes(self):
        config = SuiteConfig(manifold="euclidean{m=4}", suites=())
        report = run(config)
        assert report.passed and not report.suites
        payload = json.loads(emit(report, "json"))
        assert payload["pass"] is True
        assert payload["config"]["manifold"] == "euclidean{m=4}"

    def test_deterministic_json(self):
        config = SuiteConfig(manifold="flat_inversion{n=2}",
                             suites=("classify", "lck-identities"),
                             samples=6, seed=11)
        blob1 = emit(run(config), "json")
        blob2 = emit(run(config), "json")
        assert blob1 == blob2

    def test_forced_failure_exit_code(self):
        config = SuiteConfig(manifold="flat_inversion{n=2}",
                             suites=("lck-identities",), samples=4, seed=5,
                             tol_id=1e-20)
        report = run(config)
        assert not report.passed
        assert exit_code(report) == 1

    def test_at_point_overrides_sampling(self):
        p = [0.5, 0.5, 0.5, 0.5]
        config = SuiteConfig(manifold="flat_inversion{n=2}",
                             suites=("einstein-chain",), samples=50, seed=1,
                             at=tuple(p))
        report = run(config)
        res = report.suites[0].residuals
        assert all(rec["count"] == 1 for rec in res.values())
        assert res["eqf"]["worst_point"] == p

    def test_at_point_of_wrong_length_rejected(self):
        config = SuiteConfig(manifold="hopf{n=2}", suites=("lck-identities",),
                             at=(1.0, 2.0))
        with pytest.raises(ParameterError, match="dimension 4"):
            run(config)

    def test_at_point_rejected_by_holonomy(self):
        config = SuiteConfig(manifold="hopf{n=2}", suites=("holonomy",),
                             at=(3.0, 1.5, 1.5, 3.0))
        with pytest.raises(ParameterError, match="at does not apply"):
            run(config)

    def test_suite_applicability_errors(self):
        with pytest.raises(ParameterError):
            run(SuiteConfig(manifold="hopf{n=2}", suites=("commuting-pair",),
                            samples=2))
        with pytest.raises(ParameterError):
            run(SuiteConfig(manifold="hopf{n=2}", suites=("einstein-chain",),
                            samples=2))

    def test_nan_residual_fails(self):
        """A NaN value becomes the maximum and stays it, so the residual
        fails; later finite values do not move it or its worst point."""
        table = ResidualTable()
        table.add("r", 1e-9, [0.0], 1e-4)
        table.add("r", math.nan, [1.0], 1e-4)
        table.add("r", 1e-3, [2.0], 1e-4)
        table.add("r", math.nan, [3.0], 1e-4)
        rec = table.summarize()["r"]
        assert math.isnan(rec["max"]) and rec["worst_point"] == [1.0]
        assert rec["pass"] is False and not table.all_pass()
        only_nan = ResidualTable()
        only_nan.add("r", math.nan, [0.0], 1e-4)
        assert not only_nan.all_pass()

    def test_json_schema_fields(self):
        config = SuiteConfig(manifold="flat_inversion{n=2}",
                             suites=("classify",), samples=4, seed=2)
        payload = json.loads(emit(run(config), "json"))
        assert payload["schema_version"] == 3
        assert set(payload["config"]) == {
            "manifold", "suites", "samples", "seed", "mode",
            "tol_id", "tol_chain", "tol_ode", "at"}
        suite = payload["suites"][0]
        assert suite["suite"] == "classify"
        for rec in suite["residuals"].values():
            assert set(rec) >= {"max", "mean", "count", "worst_point",
                                "tolerance", "pass"}
        assert suite["classification"]["kind"] == "gcK"
        assert isinstance(payload["pass"], bool)

    def test_inconclusive_exit_code(self):
        report = Report(config={}, suites=[], passed=True, inconclusive=True,
                        wall_time=0.0)
        assert exit_code(report) == 3

    def test_text_render(self):
        config = SuiteConfig(manifold="euclidean{m=4}", suites=("classify",),
                             samples=4, seed=2)
        text = emit(run(config), "text").decode()
        assert "suite classify" in text
        assert "wall time" in text
        assert "Kahler" in text


class TestCli:
    def test_basic_run_and_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli_main(["run", "--manifold", "flat_inversion{n=2}",
                         "--suite", "classify", "--samples", "5",
                         "--seed", "2", "--json", str(out), "--text"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["suites"][0]["pass"] is True
        assert "classify" in capsys.readouterr().out

    def test_config_error_exit_two(self, capsys):
        assert cli_main(["run", "--manifold", "nope{}",
                         "--suite", "classify"]) == 2
        assert cli_main(["run", "--manifold", "hopf{n=2}",
                         "--suite", "not-a-suite"]) == 2
        # applicability failures are configuration errors too
        assert cli_main(["run", "--manifold", "hopf{n=2}",
                         "--suite", "commuting-pair", "--samples", "2"]) == 2

    @pytest.mark.parametrize("selector, message", [
        ("hopf{n=abc}", "must be an integer"),
        ("hopf{nn=3}", "takes no parameter 'nn'"),
        ("hopf{n=2.7}", "must be an integer")])
    def test_bad_selector_parameter_exit_two(self, capsys, selector, message):
        assert cli_main(["run", "--manifold", selector,
                         "--suite", "lck-identities", "--samples", "1"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["lck-identities", "classify",
                                       "holonomy"])
    def test_odd_euclidean_structure_suite_exit_two(self, capsys, suite):
        assert cli_main(["run", "--manifold", "euclidean{m=3}",
                         "--suite", suite, "--samples", "1"]) == 2
        assert "euclidean_3 has no Hermitian structure" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("suite, code", [
        ("lck-identities", 2), ("einstein-chain", 2), ("classify", 2),
        ("holonomy", 0)])
    def test_complex_dimension_one_exit_codes(self, capsys, suite, code):
        """euclidean{m=2} has n = 1: every Lee-form suite is a
        configuration error, and holonomy, which takes no Lee form, runs."""
        assert cli_main(["run", "--manifold", "euclidean{m=2}",
                         "--suite", suite, "--samples", "1"]) == code
        if code == 2:
            assert "NotLcKError" in capsys.readouterr().err

    def test_failure_exit_one(self):
        code = cli_main(["run", "--manifold", "flat_inversion{n=2}",
                         "--suite", "lck-identities", "--samples", "3",
                         "--seed", "4", "--tol-id", "1e-20"])
        assert code == 1

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "manifold = flat_inversion{n=2}\n"
            "suites = classify\n"
            "samples = 4\n"
            "seed = 9\n"
            "tol_ode = 1e-6\n"
            "# comment line\n")
        code = cli_main(["run", "--config", str(cfg), "--json", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["samples"] == 4
        # flag overrides the file
        code = cli_main(["run", "--config", str(cfg), "--samples", "2",
                         "--json", "-"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["config"]["samples"] == 2

    def test_at_flag(self, capsys):
        code = cli_main(["run", "--manifold", "flat_inversion{n=2}",
                         "--suite", "classify",
                         "--at", "0.5,0.5,0.5,0.5", "--json", "-"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["at"] == [0.5, 0.5, 0.5, 0.5]

    def test_at_flag_of_wrong_length_exit_two(self, capsys):
        code = cli_main(["run", "--manifold", "hopf{n=2}",
                         "--suite", "lck-identities", "--at", "1,2"])
        assert code == 2
        assert "dimension 4" in capsys.readouterr().err

    @pytest.mark.parametrize("at", ["1,2", "3,1.5,1.5,3"])
    def test_at_flag_with_holonomy_exit_two(self, capsys, at):
        code = cli_main(["run", "--manifold", "hopf{n=2}",
                         "--suite", "holonomy", "--at", at])
        assert code == 2
        assert "at does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["sampels = 3", "tol_fd = 1e-9",
                                      "parallel = true", "fd_step = 1e-4"])
    def test_unknown_config_key_exit_two(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifold = flat_inversion{n=2}\n"
                       "suites = classify\n" + line + "\n")
        assert cli_main(["run", "--config", str(cfg)]) == 2
        key = line.split("=")[0].strip()
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--parallel"], ["--fd-step", "1e-4"]])
    def test_retired_flags_exit_two(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--manifold", "flat_inversion{n=2}",
                      "--suite", "classify"] + flag)
        assert exc.value.code == 2

    def test_cli_surface_matches_readme_and_config_keys(self):
        """The README flag list names exactly the run options, and a config
        file takes exactly their destinations less the outputs."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices["run"]._actions
                   if not isinstance(a, argparse._HelpAction)]
        options = {opt for a in actions for opt in a.option_strings}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        flags_line = re.search(r"^Flags: (.*?)\.$", readme, re.M | re.S).group(1)
        assert set(re.findall(r"--[a-z-]+", flags_line)) == options
        dests = {"suites" if a.dest == "suite" else a.dest for a in actions}
        assert set(CONFIG_KEYS) == dests - {"config", "json", "text"}
