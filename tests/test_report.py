"""Suite runner, report determinism, CLI, and exit-code contract tests."""

import argparse
import dataclasses
import importlib.util
import json
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from lckgeo import fd, identities as idn, report, zoo
from lckgeo.cli import CONFIG_KEYS, build_parser, main as cli_main
from lckgeo.errors import MetricError, ParameterError, PreconditionError
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

    @pytest.mark.parametrize("key, value", [
        ("samples", 2.5), ("seed", 1.5), ("samples", True), ("seed", False),
        ("samples", "3")])
    def test_non_integer_count_or_seed_rejected(self, key, value):
        """Each would fail deep inside the run as a bare numpy error."""
        with pytest.raises(ParameterError, match=f"{key} must be an integer"):
            SuiteConfig(manifold="hopf{n=2}", suites=(), **{key: value})
        assert SuiteConfig(manifold="x", suites=(),
                           **{key: np.int64(3)}).as_dict()[key] == 3

    def test_mode_dependent_tol_id(self):
        c_fd = SuiteConfig(manifold="x", suites=(), mode="fd")
        c_an = SuiteConfig(manifold="x", suites=(), mode="analytic")
        assert c_fd.tol_id == 1e-4
        assert c_an.tol_id == 1e-8

    @pytest.mark.parametrize("at", [
        (float("nan"), 1.0, 1.0, 1.0), (1.0, float("inf"), 1.0, 1.0),
        (1.0, 1.0, -float("inf"), 1.0), ("1", 1.0, 1.0, 1.0)],
        ids=["nan", "inf", "-inf", "text"])
    def test_non_finite_point_rejected(self, at):
        """Each would pass the config and fail at run time, outside the
        chart or as a bare numpy error."""
        with pytest.raises(ParameterError, match="at must be finite numbers"):
            SuiteConfig(manifold="hopf{n=2}", suites=("classify",), at=at)

    def test_non_finite_point_exits_2(self, capsys):
        assert cli_main(["run", "--manifold", "hopf{n=2}", "--suite",
                         "classify", "--at=nan,1,1,1"]) == 2
        assert "at must be finite numbers" in capsys.readouterr().err

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
        assert rec["pass"] is False
        assert report._suite_result("s", table).passed is False
        only_nan = ResidualTable()
        only_nan.add("r", math.nan, [0.0], 1e-4)
        assert report._suite_result("s", only_nan).passed is False

    def test_an_unknown_residual_raises(self, monkeypatch):
        """Every residual a check returns has a tolerance tier; a name with
        none raises, and is not tabulated at the suite's usual tier."""
        chain = idn.einstein_chain_residuals
        monkeypatch.setattr(idn, "einstein_chain_residuals",
                            lambda H, p, lam: {**chain(H, p, lam), "extra": 0.0})
        with pytest.raises(KeyError, match="extra"):
            run(SuiteConfig(manifold="flat_inversion{n=2}",
                            suites=("einstein-chain",), samples=1))

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
        ("hopf{n=2.7}", "must be an integer"),
        ("calabi{ell=sin,b=0.5}", "r-interval (0.35, 0.15) empty")])
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

    def test_negative_seed_exit_two(self, capsys):
        assert cli_main(["run", "--manifold", "hopf{n=2}",
                         "--suite", "classify", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["tol_id", "tol_chain", "tol_ode"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-4"])
    def test_tolerance_not_finite_positive_exit_two(self, tmp_path, capsys,
                                                    key, value):
        """From a flag and from a config file alike; NaN would fail every
        residual (or pass a gate) and inf would pass every check."""
        message = f"{key} must be a finite positive number"
        flag = "--" + key.replace("_", "-")
        assert cli_main(["run", "--manifold", "hopf{n=2}", "--suite",
                         "classify", f"{flag}={value}"]) == 2
        assert message in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("manifold = hopf{n=2}\nsuites = classify\n"
                       f"{key} = {value}\n")
        assert cli_main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

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

    def test_at_flag_replays_a_worst_point_with_a_negative_coordinate(
            self, capsys):
        """As ``--at=x1,...``: a separate value with a leading minus sign
        would be read as a flag."""
        args = ["run", "--manifold", "warped{c=sin,base=cp1}",
                "--suite", "lck-identities", "--json", "-"]

        def d_omega(extra):
            assert cli_main(args + extra) == 0
            payload = json.loads(capsys.readouterr().out)
            return payload["suites"][0]["residuals"]["dOmega"]

        sampled = d_omega(["--samples", "3", "--seed", "1"])
        worst = sampled["worst_point"]
        assert worst[0] < 0
        replayed = d_omega(["--at=" + ",".join(repr(x) for x in worst)])
        assert replayed["max"] == sampled["max"]

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

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_at_exit_two(self, tmp_path, capsys, where):
        """An empty point is a configuration error, as every other empty
        value is, and not a request to sample."""
        args = ["run", "--manifold", "hopf{n=2}", "--suite", "lck-identities",
                "--samples", "3"]
        if where == "flag":
            args.append("--at=")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("at =\n")
            args += ["--config", str(cfg)]
        assert cli_main(args) == 2
        assert "at is empty" in capsys.readouterr().err

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

    def test_every_family_is_documented_and_exercised(self):
        """The README zoo table and the drift tool's selectors each name
        every family of the selector table (the startup test runs each
        family at its defaults)."""
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        table = readme.split("## The manifold zoo", 1)[1].split("\n\n")[1]
        documented = set(re.findall(r"^\| `(\w+)[{`]", table, re.M))
        spec = importlib.util.spec_from_file_location(
            "drift", root / "tools" / "drift.py")
        drift = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(drift)
        named = {parse_selector(sel)[0] for sel in drift.SELECTORS}
        assert named >= set(report._FAMILIES)
        assert documented == set(report._FAMILIES)


class TestEvaluationCounts:
    """Field evaluations per request do not depend on the machine, so they
    are pinned exactly: a change that adds evaluations shows here first.
    The suites of :meth:`test_each_point_is_evaluated_once` also evaluate
    each field once per point: they evaluate as many points as are
    distinct.  hamiltonian-form is pinned with its repeats."""

    @staticmethod
    def counting_run(monkeypatch, manifold: str, suite: str, mode: str = "fd",
                     kinds=("metric_fn", "J_fn"), at=None) -> tuple:
        """Points at which one request (two samples, or the one point
        ``at``) evaluates each field of ``kinds``
        (metric_fn, metric_derivative_fn, J_fn), and per wrapped field
        function, named ``<label>.<kind>``, its evaluated and its distinct
        points.  The second counts leave out the calls made inside another
        field's call (the calabi pair metric rescales g_ell), which the
        first count includes."""
        counts = dict.fromkeys(kinds, 0)
        fields = {}
        depth = [0]
        resolve = report.resolve_manifold

        def counted(kind, fn, name):
            seen = fields.setdefault(name, [0, set()])

            def wrapper(q):
                points = np.asarray(q)
                counts[kind] += points[..., 0].size
                if not depth[0]:
                    rows = points.reshape(-1, points.shape[-1])
                    seen[0] += len(rows)
                    seen[1].update(row.tobytes() for row in rows)
                depth[0] += 1
                try:
                    return fn(q)
                finally:
                    depth[0] -= 1
            return wrapper

        def wrap(obj, kind):
            fn = getattr(obj, kind)
            if kind in counts and fn is not None:
                object.__setattr__(obj, kind,
                                   counted(kind, fn, f"{obj.label}.{kind}"))

        def resolve_counted(selector):
            entry = resolve(selector)
            for H in entry.structures.values():
                wrap(H, "J_fn")
            charts = {id(H.chart): H.chart for H in entry.structures.values()}
            for chart in charts.values():
                wrap(chart, "metric_fn")
                wrap(chart, "metric_derivative_fn")
            return entry

        monkeypatch.setattr(report, "resolve_manifold", resolve_counted)
        report.run(SuiteConfig(manifold=manifold, suites=(suite,), samples=2,
                               seed=1, mode=mode, at=at))
        return counts, {name: (evaluated, len(distinct))
                        for name, (evaluated, distinct) in fields.items()
                        if evaluated}

    @classmethod
    def counted_run(cls, monkeypatch, manifold: str, suite: str,
                    *args) -> dict:
        """The first counts of :meth:`counting_run`."""
        return cls.counting_run(monkeypatch, manifold, suite, *args)[0]

    def test_pinned_counts(self, monkeypatch):
        """classify: the loop periods take nine J and nine metric points per
        node, 33 nodes on each of the 5 smooth pieces of the two loops, and
        each sample the 153 points of lck-identities.  lck-identities: each
        sample reads J and g at p and its DIRECT stencil (9 points) and at
        the 16 NESTED stencil points around p and theirs (144)."""
        assert self.counted_run(monkeypatch, "hopf{n=2}", "classify") == {
            "metric_fn": 165 * 9 + 2 * 153, "J_fn": 165 * 9 + 2 * 153}
        assert self.counted_run(monkeypatch, "hopf{n=2}",
                                "lck-identities") == {
            "metric_fn": 2 * 153, "J_fn": 2 * 153}

    @pytest.mark.parametrize("manifold, suite, metric_fn, J_fn", [
        ("flat_inversion{n=2}", "einstein-chain", 2754, 2754),
        ("calabi{ell=sin,b=pi}", "average-metric", 342, 324),
        ("calabi{ell=sin,b=pi}", "commuting-pair", 612, 324),
        ("hopf{n=2}", "parallel-field", 18, 18)])
    def test_pinned_suite_counts(self, monkeypatch, manifold, suite,
                                 metric_fn, J_fn):
        """The suites that read the Lee-form parts.
        einstein-chain evaluates J and g at the same 1,377 points per sample:
        p, its NESTED stencil and the DEEP stencil, each with its own DIRECT
        stencil, and the NESTED stencil around each DEEP point.
        parallel-field differences the J and g values of the Lee-form pass,
        so it evaluates them at p and its DIRECT stencil only (9 points), and
        commuting-pair evaluates I there once besides.  On calabi the pair
        metric is a rescaling of the counted g_ell, so each of its points
        counts twice."""
        assert self.counted_run(monkeypatch, manifold, suite) == {
            "metric_fn": metric_fn, "J_fn": J_fn}

    def test_holonomy_transports_each_shared_edge_once(self, monkeypatch):
        """The default rectangles share edges (per loop size 18 distinct of
        the 24 loop edges), and a loop bundle evaluates the symbols of each
        distinct edge once.  Of the 1,342 repeated metric points, one is the
        base point, which each estimator reads.  The other 1,341 are the
        9-point stencils (the node and its DIRECT stencil) of 149 RK4 nodes
        that two loop edges through the corner, here the base point, reach
        with the same bits although the bundle keeps the edges apart: 94
        where one rectangle returns along an axis on which another leaves
        (opposite velocities), 33 where the 0.09 and the 0.15 edge leave or
        return along one axis (different lengths), and 22 where both
        happen.  J is read at the base only."""
        assert self.counting_run(monkeypatch, "hopf{n=2}", "holonomy") == (
            {"metric_fn": 45362, "J_fn": 2},
            {"hopf_2.metric_fn": (45362, 44020), "hopf_2.J_fn": (2, 1)})

    @pytest.mark.parametrize("manifold, suite", [
        ("hopf{n=2}", "lck-identities"),
        ("flat_inversion{n=2}", "einstein-chain"),
        ("hopf{n=2}", "parallel-field"),
        ("calabi{ell=sin,b=pi}", "commuting-pair"),
        ("calabi{ell=sin,b=pi}", "average-metric"),
        ("hopf{n=2}", "classify")])
    def test_each_point_is_evaluated_once(self, monkeypatch, manifold, suite):
        """Every field function is evaluated at as many points as it has
        distinct ones: no check evaluates a field again where it, or the
        Lee-form pass it reads, has its values."""
        fields = self.counting_run(monkeypatch, manifold, suite)[1]
        assert fields
        for name, (evaluated, distinct) in fields.items():
            assert evaluated == distinct, (name, evaluated, distinct)

    def test_hamiltonian_form_evaluates_the_shared_nodes_twice(
            self, monkeypatch):
        """The one exception.  The potential increments integrate the Lee
        form over the segments from p to its DIRECT stencil points, and the
        Gauss-Legendre nodes are symmetric: on each axis the DIRECT stencil
        of a node of the +h segment holds a node of the -h segment, bitwise,
        and the other way round.  So the metric and J are evaluated twice at
        those 32 points per sample."""
        assert self.counting_run(monkeypatch, "calabi{ell=sin,b=pi}",
                                 "hamiltonian-form")[1] == {
            "calabi_gplus_sin.metric_fn": (1170, 1106),
            "g+,J-.J_fn": (1170, 1106), "g+,J+.J_fn": (18, 18)}

    def test_hamiltonian_form_takes_no_zero_length_segment(self, monkeypatch):
        """sigma~ at the sample itself is e^phi(p) sigma, with no Lee-form
        integral over the segment from p to p (4 nodes of 9 points each).
        The trace of sigma~ and the Christoffel symbols read the metric and
        I on the DIRECT stencil where sigma~ does, and sigma at p is built
        from the metric and I held there."""
        assert self.counted_run(monkeypatch, "calabi{ell=sin,b=pi}",
                                "hamiltonian-form") == {
            "metric_fn": 2340, "J_fn": 1188}

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_potential_is_zero_at_its_base_point(self, monkeypatch, mode):
        """At the chart centre, the potential's base point, phi is 0.0
        without a Lee-form integral over the segment from the centre to
        itself, which took 32 nodes of 9 points each (585 g+ metric and J-
        points).  What is left is p and its DIRECT stencil and the 4-node
        increments to the 8 stencil points, whose 32 shared nodes repeat
        (see above)."""
        calabi = "calabi{ell=sin,b=pi}"
        centre = tuple(report.resolve_manifold(calabi).pair.J.chart.center())
        fields = self.counting_run(monkeypatch, calabi, "hamiltonian-form",
                                   mode, at=centre)[1]
        assert fields["calabi_gplus_sin.metric_fn"] == (9 + 8 * 4 * 9, 265)
        assert fields["g+,J-.J_fn"] == (297, 265)
        assert fields["g+,J+.J_fn"] == (9, 9)

    @pytest.mark.parametrize("manifold", ["hopf{n=2}", "calabi{ell=sin,b=pi}"])
    def test_fd_mode_never_evaluates_metric_derivatives(self, monkeypatch,
                                                        manifold):
        """fd runs on zoo.stencil_only of the entry, so every applicable
        suite differences the metrics; analytic runs read the derivative
        functions."""
        ran = []
        for suite in report.SUITE_NAMES:
            try:
                fd_counts = self.counted_run(monkeypatch, manifold, suite,
                                             "fd", ("metric_derivative_fn",))
            except ParameterError:      # the suite does not apply
                continue
            ran.append(suite)
            assert fd_counts == {"metric_derivative_fn": 0}, suite
            analytic = self.counted_run(monkeypatch, manifold, suite,
                                        "analytic", ("metric_derivative_fn",))
            assert analytic["metric_derivative_fn"] > 0, suite
        assert {"lck-identities", "holonomy", "classify"} <= set(ran)


class TestSampleStacks:
    """Each sampled suite evaluates all its samples as one stack: one check
    call per suite, whose residuals are tabulated in sample order, and on an
    error the first sample's error, as a loop over the samples gives."""

    SAMPLED = [("hopf{n=2}", "lck-identities"),
               ("flat_inversion{n=2}", "einstein-chain"),
               ("hopf{n=2}", "parallel-field"),
               ("calabi{ell=sin,b=pi}", "commuting-pair"),
               ("calabi{ell=sin,b=pi}", "hamiltonian-form"),
               ("calabi{ell=sin,b=pi}", "average-metric"),
               ("hopf{n=2}", "classify")]

    @staticmethod
    def field_calls(monkeypatch, manifold: str, suite: str, samples: int,
                    mode: str) -> dict:
        """Calls of the metric_fn and J_fn of the entry in one request."""
        calls = {"metric_fn": 0, "J_fn": 0}
        resolve = report.resolve_manifold

        def counted(kind, fn):
            def wrapper(q):
                calls[kind] += 1
                return fn(q)
            return wrapper

        def resolve_counted(selector):
            entry = resolve(selector)
            for H in entry.structures.values():
                object.__setattr__(H, "J_fn", counted("J_fn", H.J_fn))
            charts = {id(H.chart): H.chart for H in entry.structures.values()}
            for chart in charts.values():
                object.__setattr__(chart, "metric_fn",
                                   counted("metric_fn", chart.metric_fn))
            return entry

        with monkeypatch.context() as patch:
            patch.setattr(report, "resolve_manifold", resolve_counted)
            report.run(SuiteConfig(manifold=manifold, suites=(suite,),
                                   samples=samples, seed=1, mode=mode))
        return calls

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("manifold, suite", SAMPLED)
    def test_field_calls_do_not_grow_with_the_samples(self, monkeypatch,
                                                      manifold, suite, mode):
        """A request makes as many field calls at 5 samples as at 1: each
        call takes the stack of every sample's points."""
        calls = [self.field_calls(monkeypatch, manifold, suite, n, mode)
                 for n in (1, 2, 5)]
        assert calls[0]["metric_fn"] > 0 and calls[0]["J_fn"] > 0
        assert calls[0] == calls[1] == calls[2]

    @pytest.mark.parametrize("manifold, suite", [
        ("hopf{n=2}", "lck-identities"), ("hopf{n=2}", "parallel-field")])
    def test_blocks_of_samples_report_as_one_stack(self, monkeypatch,
                                                   manifold, suite):
        """A run longer than SAMPLE_BLOCK is checked block by block; its
        report is byte-identical to that of one stack, the constancy of a
        over every sample included."""
        config = SuiteConfig(manifold=manifold, suites=(suite,), samples=5,
                             seed=1)
        whole = emit(run(config), "json")
        monkeypatch.setattr(report, "SAMPLE_BLOCK", 2)
        assert emit(run(config), "json") == whole

    def test_the_first_samples_error_is_raised(self, monkeypatch):
        """Sample 2's metric is off the SPD cone at one point of its DIRECT
        stencil, so the stacked call fails in the Lee-form pass, with sample
        2's MetricError.  Sample 1 passes that pass and fails later, at the
        Einstein gate: the entry declares lambda = 1 where Ric = 0.  A loop
        over the samples raises sample 1's error, and so does the run."""
        selector, suite = "flat_inversion{n=2}", "einstein-chain"
        entry = report.resolve_manifold(selector)
        H = entry.main_structure
        rng = np.random.default_rng((1, zlib.crc32(suite.encode())))
        p1, p2 = H.chart.sample_points(rng, 2)
        bad = fd.stencil_points(p2, fd.DIRECT)[1, 0]        # p2 + h e_1
        metric_fn = H.chart.metric_fn

        def off_the_cone(q):
            g = np.array(metric_fn(q), dtype=float)
            g[(np.asarray(q) == bad).all(axis=-1)] *= -1.0
            return g

        chart = dataclasses.replace(H.chart, metric_fn=off_the_cone)
        defective = dataclasses.replace(
            entry, einstein_lambda=1.0,
            charts={key: chart for key in entry.charts},
            structures={entry.main: dataclasses.replace(H, chart=chart)})
        checked = zoo.stencil_only(defective).main_structure
        with pytest.raises(MetricError, match="positive definite"):
            idn.einstein_chain_residuals(checked, np.array([p1, p2]), 1.0)
        with pytest.raises(MetricError, match="positive definite"):
            idn.einstein_chain_residuals(checked, p2, 1.0)
        with pytest.raises(PreconditionError) as first:
            idn.einstein_chain_residuals(checked, p1, 1.0)

        monkeypatch.setattr(report, "resolve_manifold",
                            lambda selector: defective)
        with pytest.raises(PreconditionError) as err:
            run(SuiteConfig(manifold=selector, suites=(suite,), samples=2,
                            seed=1))
        assert str(err.value) == str(first.value)
        assert str(err.value).endswith(f"at {p1}")

    @pytest.mark.parametrize("case", ["pairwise", "ties", "nan"])
    def test_stacked_values_tabulate_as_single_values(self, case):
        """A residual's values added from a stacked array give the summary
        that per-value adds of floats give, bit for bit: the mean is the
        sequential sum (which differs from numpy's pairwise sum on these 100
        values), ties keep the first worst point, and the first NaN becomes
        the max and keeps its point."""
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1e-4, 100)
        points = rng.uniform(-1.0, 1.0, (100, 4))
        if case == "ties":
            values[[20, 60]] = 2e-4
        if case == "nan":
            values[[30, 80]] = np.nan
            values[50] = 1.0
        stacked, single = ResidualTable(), ResidualTable()
        stacked.add_each("r", values, points, 1e-4)
        total = 0.0
        for value, point in zip(values.tolist(), points.tolist()):
            single.add("r", value, point, 1e-4)
            total += value
        summary = stacked.summarize()
        assert json.dumps(summary) == json.dumps(single.summarize())
        rec = summary["r"]
        assert rec["count"] == 100
        if case == "pairwise":
            assert float(np.sum(values)) != total
            assert rec["mean"] == total / 100
            assert rec["worst_point"] == points[np.argmax(values)].tolist()
        if case == "ties":
            assert rec["max"] == 2e-4
            assert rec["worst_point"] == points[20].tolist()
        if case == "nan":
            assert math.isnan(rec["max"])
            assert rec["worst_point"] == points[30].tolist()
