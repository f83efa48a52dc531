"""Command-line front end: config parsing, subcommands, exit codes, CSV output."""

import contextlib
import copy
import functools
import io
import math
import operator
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import varbounds
from varbounds.cli import RunConfig, list_models, load_config, main
from varbounds.errors import ConfigurationError

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

GAUSSIAN_RUN = {
    "model": {"family": "gaussian-mean"},
    "mean_function": {"builtin": "identity"},
    "x0": [0.0],
    "methods": [
        {"name": "crb"},
        {"name": "hcrb", "points": [[1.0]]},
        {"name": "expfam_moment", "indices": [[1]]},
    ],
    "mc": {"samples": 100000, "seed": 1234},
    "output": {"format": "pretty"},
}


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestConfigParsing:
    def test_round_trip_identity(self):
        cfg = RunConfig.from_dict(GAUSSIAN_RUN)
        again = RunConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="extra"):
            RunConfig.from_dict({**GAUSSIAN_RUN, "extra": 1})

    def test_unknown_model_key_rejected(self):
        doc = {**GAUSSIAN_RUN, "model": {"family": "gaussian-mean", "scale": 2}}
        with pytest.raises(ConfigurationError, match="model"):
            RunConfig.from_dict(doc)

    def test_unknown_method_option_rejected(self):
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "crb", "points": [[1.0]]}]}
        with pytest.raises(ConfigurationError, match="methods"):
            RunConfig.from_dict(doc)

    def test_grid_spec_round_trip(self):
        doc = {**GAUSSIAN_RUN, "x0": {"grid": {"start": -2.0, "stop": 2.0, "count": 41}}}
        cfg = RunConfig.from_dict(doc)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert len(cfg.points()) == 41

    def test_missing_model_rejected(self):
        with pytest.raises(ConfigurationError, match="model"):
            RunConfig.from_dict({"x0": [0.0]})

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_example_configs_load(self, path):
        assert load_config(str(path)).methods

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_libyaml_and_python_loaders_agree(self, path):
        fast = getattr(yaml, "CSafeLoader", None)
        if fast is None:
            pytest.skip("PyYAML was built without libyaml")
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=fast) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_invalid_yaml_reports_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("model:\n  family: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="line"):
            load_config(str(path))


class TestRunCommand:
    def test_oracle_values_in_csv(self, tmp_path):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        rows = read_rows(out)
        values = {r["method"]: float(r["value"]) for r in rows}
        assert values["crb"] == pytest.approx(1.0, abs=1e-9)
        assert values["hcrb"] == pytest.approx(1.0 / (math.e - 1.0), abs=1e-6)
        assert values["expfam_moment"] == pytest.approx(1.0, abs=1e-9)

    def test_constant_mean_gives_all_zero_table(self, tmp_path):
        doc = {**GAUSSIAN_RUN,
               "mean_function": {"builtin": "constant", "constant": 2.0}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert all(float(r["value"]) == 0.0 for r in read_rows(out))

    def test_natural_space_failure_exits_3(self, tmp_path, capsys):
        doc = {**GAUSSIAN_RUN, "model": {"family": "exponential-rate"}, "x0": [0.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "crb" in err and "natural" in err

    @pytest.mark.parametrize("method", [
        {"name": "hcrb", "points": [[3.0]]},
        {"name": "barankin_approx", "restarts": 1, "halvings": 2},
    ], ids=lambda m: m["name"])
    def test_non_finite_mean_at_a_test_point_exits_3(self, tmp_path, capsys, method):
        # gamma(3) overflows to inf: hcrb used to print inf, the search 0, exit 0
        doc = {**GAUSSIAN_RUN, "mean_function": {"polynomial": [0.0, 1.0e308, 1.0e308]},
               "methods": [method]}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert method["name"] in captured.err and "right-hand side" in captured.err

    @pytest.mark.parametrize("methods, x0, code, model", [
        ([{"name": "bhattacharyya"}], [0.0], 2, None),
        ([{"name": "expfam_moment"}], [0.0], 2, None),
        ([{"name": "hcrb"}], [0.0], 2, None),
        ([{"name": "bhattacharyya", "indices": [[5]]}], [0.0], 2, None),
        ([{"name": "hcrb", "points": [[0.5]]}], {"grid": {"start": 0.0, "stop": 0.5,
                                                          "count": 2}}, 3, None),
        ([{"name": "bhattacharyya", "indices": [[1], [1]]}], [0.0], 2, None),
        ([{"name": "expfam_moment", "indices": [[1], [1]]}], [0.0], 2, None),
        ([{"name": "bhattacharyya", "indices": [[0]]}], [0.0], 2, None),
        ([{"name": "hcrb", "points": [[1.0], [1.0]]}], [0.0], 2, None),
        ([{"name": "hcrb", "points": [[1.0, 2.0]]}], [0.0], 2, None),
        ([{"name": "expfam_moment", "indices": [[1, 0]]}], [0.0], 2, None),
        ([{"name": "constrained_crb", "constraint": [[1.0, 2.0]]}], [0.0], 2, None),
        ([{"name": "barankin_approx", "initial_points": [[1.0], [1.0]]}], [0.0], 2, None),
        ([{"name": "barankin_approx", "max_points": 0}], [0.0], 2, None),
        ([{"name": "barankin_approx", "initial_step": 0}], [0.0], 2, None),
        ([{"name": "bhattacharyya", "indices": []}], [0.0], 2, None),
        ([{"name": "bhattacharyya", "indices": [[1.5]]}], [0.0], 2, None),
        ([{"name": "hcrb", "points": []}], [0.0], 2, None),
        ([{"name": "crb"}], [0.0, 0.0], 2, {"family": "gaussian-mean-nd", "dim": 0}),
        ([{"name": "crb"}], [0.0, 0.0], 2, {"family": "gaussian-mean-nd", "dim": "x"}),
        ([{"name": "crb"}], [0.0], 2, {"family": "gaussian-iid", "n_obs": -1}),
    ], ids=["bhattacharyya-no-indices", "expfam_moment-no-indices", "hcrb-no-points",
            "order-5-index", "hcrb-point-at-grid-x0", "bhattacharyya-duplicate-indices",
            "expfam_moment-duplicate-indices", "bhattacharyya-order-0-index",
            "hcrb-duplicate-points", "hcrb-point-of-wrong-length",
            "expfam_moment-index-of-wrong-length", "constrained_crb-wrong-width",
            "barankin-duplicate-initial-points", "barankin-max-points-0",
            "barankin-initial-step-0", "empty-indices", "fractional-index",
            "hcrb-empty-points", "nd-dim-0", "nd-dim-string", "iid-negative-n-obs"])
    def test_bad_method_configs_exit_cleanly(self, tmp_path, capsys, methods, x0, code,
                                             model):
        doc = {**GAUSSIAN_RUN, "methods": methods, "x0": x0}
        if model is not None:
            doc["model"] = model
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert (methods[0]["name"] if model is None else "model") in captured.err
        if code == 3:
            assert "x0=[0.5]" in captured.err

    @pytest.mark.parametrize("options", [{"restarts": 0}, {"radius": 1.0e-7},
                                         {"lower": [1.0], "upper": [-1.0]}],
                             ids=["no-restarts", "radius-below-min-distance", "lower-above-upper"])
    def test_search_with_nothing_to_search_exits_2(self, tmp_path, capsys, options):
        # the first two used to print a value of 0 after 0 evaluations, with
        # exit 0; the empty box exited 3 as a numerical failure
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", **options}]}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: methods[0]: barankin_approx: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, doc, where", [
        ("run", {**GAUSSIAN_RUN, "methods": [
            {"name": "crb"}, {"name": "barankin_approx", "radius": 1.0,
                              "initial_points": [[5.0]], "restarts": 0, "halvings": 0}]},
         "methods[1]"),
        ("scan", {"model": {"family": "gaussian-mean"},
                  "x0": {"grid": {"start": -1.0, "stop": 1.0, "count": 3}},
                  "methods": [{"name": "barankin_approx", "initial_points": [[0.0]]}]},
         "methods[0]"),
        ("reduce", {"model": {"family": "gaussian-mean"}, "x0": [0.0], "radii": [2.0, 0.5],
                    "methods": [{"name": "barankin_approx", "initial_points": [[1.0]]}]},
         "radii"),
    ], ids=["run-beyond-radius", "scan-at-a-grid-point", "reduce-beyond-a-radius"])
    def test_initial_point_outside_the_search_region_exits_2(self, tmp_path, capsys,
                                                              command, doc, where):
        # such a start used to be searched from, and its point reported
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {where}: barankin_approx: initial point")
        assert "Traceback" not in err

    #: exponential-rate leaves its natural space at x0 = 0, where every
    #: method fails; hcrb at a point p leaves it where x0 <= 2 p (2 p - x0 >= 0)
    @pytest.mark.parametrize("start, stop, methods", [
        # the second hcrb fails first, at -0.6; the first only at -1.1
        (-0.1, -1.6, [("hcrb", -0.45), ("hcrb", -0.2)]),
        (-0.1, -1.6, [("crb", None), ("expfam_moment", None), ("hcrb", -0.45),
                      ("barankin_approx", None), ("hcrb", -0.2)]),
        # hcrb fails at the first point, crb at the third
        (-1.0, 0.5, [("crb", None), ("hcrb", -0.2)]),
        # both fail at the first point: the first listed is reported
        (0.0, 1.5, [("hcrb", -0.2), ("crb", None)]),
        (0.0, 1.5, [("barankin_approx", None), ("crb", None)]),
    ])
    def test_first_failure_in_x0_major_order(self, tmp_path, capsys, start, stop, methods):
        # each method runs over the whole grid at once; the error is still
        # the first one a loop over x0, then methods, meets
        options = {"hcrb": lambda p: {"points": [[p]]}, "crb": lambda _: {},
                   "expfam_moment": lambda _: {"indices": [[0], [1]]},
                   "barankin_approx": lambda _: {"restarts": 1, "halvings": 1, "upper": [-2.0]}}
        specs = [varbounds.MethodSpec(name, options[name](p)) for name, p in methods]
        doc = {"model": {"family": "exponential-rate"},
               "mean_function": {"builtin": "identity"},
               "x0": {"grid": {"start": start, "stop": stop, "count": 4}},
               "methods": [{"name": spec.name, **spec.options} for spec in specs]}
        model, gamma = varbounds.exponential_rate(), varbounds.identity_mean()
        expected = None
        for x0 in load_config(write_config(tmp_path, doc)).points():
            for spec in specs:
                try:
                    varbounds.evaluate_bound(model, gamma, list(x0), spec, mc_samples=100_000,
                                             seed=1234)
                except varbounds.VarBoundsError as exc:
                    expected = expected or (f"error: numerical failure in method "
                                            f"{spec.name!r} at x0={list(x0)}: {exc}\n")
        assert expected is not None
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.err == expected and captured.out == ""

    def test_search_that_draws_no_start_exits_3(self, tmp_path, capsys):
        # the box meets the ball around x0 only in [0.99999, 1]
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", "restarts": 2,
                                            "radius": 1.0, "lower": [0.99999],
                                            "upper": [10.0]}]}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert "no start drawn" in err and "x0=[0.0]" in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_output_in_missing_directory_exits_2_before_any_bound(
            self, tmp_path, capsys, monkeypatch, where):
        target = str(tmp_path / "missing" / "run.csv")
        doc = {**GAUSSIAN_RUN, "output": {"format": "csv"}}
        argv = ["run", "--config", None, "--output", target]
        if where == "config":
            doc["output"]["path"] = target
            argv = argv[:3]
        argv[2] = write_config(tmp_path, doc)

        def no_bound(*args, **kwargs):
            raise AssertionError("a bound was computed")

        monkeypatch.setattr("varbounds.cli._evaluate_grid", no_bound)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert captured.err.startswith("configuration error: output.path")
        assert not (tmp_path / "missing").exists()

    def test_unwritable_output_prints_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        # the directory exists, but the path names it rather than a file in it
        assert main(["run", "--config", cfg, "--output", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output.path") and err.count("\n") == 1

    @pytest.mark.parametrize("command, overrides, section", [
        ("run", {"mc": {"samples": "abc"}}, "mc"),
        ("run", {"mc": {"seed": -1}}, "mc.seed"),
        ("run", {"x0": ["a"]}, "x0"),
        ("run", {"x0": [None]}, "x0"),
        ("run", {"x0": [float("inf")]}, "x0"),
        ("run", {"x0": {"grid": {"start": 0.0, "stop": 1.0, "count": "z"}}}, "x0"),
        ("reduce", {"radii": ["a"]}, "radii"),
        ("run", {"mean_function": {"builtin": "identity", "component": "x"}},
         "mean_function"),
        ("run", {"mean_function": {"builtin": "identity", "component": 1}},
         "mean_function"),
        ("validate", {"estimator": {"builtin": "constant", "value": "abc"}}, "estimator"),
        ("validate", {"estimator": {"builtin": "suffstat", "component": 2}}, "estimator"),
        ("validate", {"estimator": {"builtin": "suffstat"}, "mc": {"samples": 50}},
         "mc.samples"),
        ("run", {"output": {"path": 5}}, "output.path"),
        ("run", {"mean_function": {"builtin": "constant", "constant": float("nan")}},
         "mean_function.constant"),
        ("validate", {"estimator": {"builtin": "constant", "value": float("inf")}},
         "estimator.value"),
    ])
    def test_bad_scalar_fields_exit_2(self, tmp_path, capsys, command, overrides,
                                      section):
        cfg = write_config(tmp_path, {**GAUSSIAN_RUN, **overrides})
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert f"configuration error: {section}" in captured.err

    @pytest.mark.parametrize("command, doc, where", [
        ("run", {**GAUSSIAN_RUN, "mean_function": {"builtin": "identity",
                                                   "polynomial": [0.0, 1.0]}},
         "mean_function: give either builtin or polynomial"),
        ("run", {**GAUSSIAN_RUN, "model": {"family": "gaussian-mean-nd"}, "x0": [0.0, 0.0],
                 "mean_function": {"polynomial": [0.0, 1.0]}, "methods": [{"name": "crb"}]},
         "mean_function.polynomial: only available for scalar parameters"),
        ("run", {**GAUSSIAN_RUN, "model": {"family": "gaussian-mean-nd"},
                 "x0": {"grid": {"start": 0.0, "stop": 1.0, "count": 2}},
                 "methods": [{"name": "crb"}]},
         "x0.grid: only available for scalar parameters"),
        ("run", {**GAUSSIAN_RUN, "methods": {"name": "crb"}}, "methods: expected a list"),
        ("run", None, "cannot read config"),
        ("run", "", "config "),
        ("run", {**GAUSSIAN_RUN, "methods": []}, "methods: at least one method"),
        ("reduce", {**GAUSSIAN_RUN, "x0": {"grid": {"start": 0.0, "stop": 1.0, "count": 2}},
                    "radii": [1.0]}, "x0: reduce requires a single parameter vector"),
    ], ids=["builtin-and-polynomial", "polynomial-of-two-parameters",
            "grid-of-two-parameters", "methods-as-a-mapping", "unreadable-config",
            "empty-config", "run-without-methods", "reduce-on-a-grid"])
    def test_rejected_config_exits_2_with_one_line(self, tmp_path, capsys, command, doc,
                                                   where):
        # doc: the config, its text, or None for no file at all
        path = tmp_path / "cfg.yaml"
        if isinstance(doc, str):
            path.write_text(doc, encoding="utf-8")
        elif doc is not None:
            path = write_config(tmp_path, doc)
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {where}")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        assert main(["run", "--config", cfg, "--seed", "-1"]) == 2
        assert "mc.seed" in capsys.readouterr().err

    def test_all_barankin_search_options_accepted(self, tmp_path):
        search = {"seed": 5, "max_sweeps_per_level": 2, "min_distance": 1e-3,
                  "restarts": 1, "halvings": 2, "max_points": 2}
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", **search}]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        import varbounds as vb
        exact = vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                                   vb.BarankinSearch(**search)).value
        assert float(read_rows(out)[0]["value"]) == exact

    def test_null_radius_is_an_unbounded_search(self, tmp_path):
        search = {"restarts": 1, "halvings": 2}
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", "radius": None,
                                            **search}]}
        cfg = write_config(tmp_path, doc)
        assert load_config(cfg).methods[0].options["radius"] is None
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        unbounded = varbounds.BarankinSearch(radius=None, seed=1234, **search)
        exact = varbounds.barankin_approx(varbounds.gaussian_mean(), varbounds.identity_mean(),
                                          [0.0], unbounded).value
        assert float(read_rows(out)[0]["value"]) == exact

    @pytest.mark.parametrize("command, doc, where", [
        # math.exp and rate ** k overflow, rate ** p underflows to 0
        ("run", {"model": {"family": "poisson"}, "x0": [800.0], "methods": [{"name": "crb"}]},
         "in method 'crb' at x0=[800.0]"),
        ("run", {"model": {"family": "poisson"}, "x0": [200.0],
                 "methods": [{"name": "expfam_moment", "indices": [[0], [1], [2], [3]]}]},
         "in method 'expfam_moment' at x0=[200.0]"),
        ("run", {"model": {"family": "exponential-rate"}, "x0": [-1e-320],
                 "methods": [{"name": "crb"}]}, "in method 'crb' at x0=[-1e-320]"),
        ("run", {"model": {"family": "exponential-rate"}, "x0": [-1e-200],
                 "methods": [{"name": "bhattacharyya", "indices": [[1], [2]]}]},
         "in method 'bhattacharyya' at x0=[-1e-200]"),
        # numpy overflows in log_lambda and in the search's squared distance
        ("reduce", {"model": {"family": "gaussian-mean"}, "x0": [1e300], "radii": [1.0]},
         "in method 'barankin_approx' at x0=[1e+300]"),
        ("run", {"model": {"family": "gaussian-mean"},
                 "methods": [{"name": "hcrb", "points": [[1e300]]}]},
         "in method 'hcrb' at x0=[0.0]"),
        ("reduce", {"model": {"family": "gaussian-mean"}, "radii": [1e300]},
         "in method 'barankin_approx' at x0=[0.0]"),
        ("run", {"model": {"family": "poisson"}, "x0": [800.0],
                 "methods": [{"name": "hcrb", "points": [[1.0]]}]},
         "in method 'hcrb' at x0=[800.0]"),
    ], ids=["poisson-crb", "poisson-moments", "exponential-crb", "exponential-bhattacharyya",
            "gaussian-reduce-x0", "gaussian-hcrb-point", "reduce-radius", "poisson-hcrb"])
    def test_overflow_at_extreme_parameters_exits_3_with_one_line(self, tmp_path, capsys,
                                                                   command, doc, where):
        # these ended in an OverflowError or ZeroDivisionError traceback (exit 1),
        # or printed a numpy RuntimeWarning (an error here) ahead of the error line
        assert main([command, "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: numerical failure {where}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, doc, message", [
        ("reduce", {"model": {"family": "poisson"}, "mean_function": {"builtin": "expfam-mean"},
                    "methods": [{"name": "barankin_approx", "restarts": 2, "halvings": 2}],
                    "radii": [500.0]}, "kernel or mean undefined at all 34 configurations"),
        ("run", {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", "restarts": 1,
                                              "halvings": 2, "initial_step": 1e300}]},
         "with initial_step 1e+300 too wide to measure"),
        # a box empty only around this x0: it ends at the radius, below `lower`
        ("run", {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", "lower": [5.0]}]},
         "empty sampling box from [5.0] to [3.0] within radius 3.0"),
    ], ids=["no-defined-configuration", "huge-initial-step", "box-empty-at-x0"])
    def test_search_without_an_answer_exits_3_with_one_line(self, tmp_path, capsys,
                                                            command, doc, message):
        # both exited 0 with a numpy RuntimeWarning on stderr, the first with
        # the value 0
        assert main([command, "--config", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure in method 'barankin_approx' at "
                              "x0=[0.0]: ") and err.count("\n") == 1 and message in err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"familly": "gaussian-mean"}})
        assert main(["run", "--config", cfg]) == 2
        assert "familly" in capsys.readouterr().err

    def test_csv_is_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--output", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_printed_values_appear_in_csv_at_full_precision(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "hcrb" in printed  # pretty table was emitted
        hcrb_row = next(r for r in read_rows(out) if r["method"] == "hcrb")
        # the CSV value round-trips to the exact double
        import varbounds as vb
        exact = vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                        vb.TestPointSet([[1.0]])).value
        assert float(hcrb_row["value"]) == exact

    def test_seed_override_changes_nothing_for_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", cfg, "--output", str(out1), "--seed", "1"])
        main(["run", "--config", cfg, "--output", str(out2), "--seed", "2"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_run(self, tmp_path):
        doc = {**GAUSSIAN_RUN, "x0": {"grid": {"start": -1.0, "stop": 1.0, "count": 3}},
               "methods": [{"name": "crb"}]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert len(read_rows(out)) == 3

    def test_constrained_crb_through_config(self, tmp_path):
        doc = {"model": {"family": "gaussian-mean-nd", "dim": 2},
               "mean_function": {"builtin": "identity"},
               "x0": [0.5, 0.5],
               "methods": [{"name": "constrained_crb", "constraint": [[1.0, -1.0]]}],
               "mc": {"seed": 1}, "output": {"format": "pretty"}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert float(read_rows(out)[0]["value"]) == pytest.approx(0.5, abs=1e-10)

    def test_polynomial_mean_through_config(self, tmp_path):
        # gamma(x) = x^2 on the unit Gaussian: the bound is (2 x0)^2
        doc = {**GAUSSIAN_RUN, "x0": [1.0],
               "mean_function": {"polynomial": [0.0, 0.0, 1.0]},
               "methods": [{"name": "crb"}]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        assert float(read_rows(out)[0]["value"]) == pytest.approx(4.0, abs=1e-10)

    def test_csv_format_without_path_streams_to_stdout(self, tmp_path, capsys):
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "crb"}]}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("x0,method,value")
        assert out[1].split(",")[1] == "crb"

    def test_exponential_rate_family_in_space(self, tmp_path):
        doc = {**GAUSSIAN_RUN, "model": {"family": "exponential-rate"},
               "x0": [-2.0], "methods": [{"name": "crb"}]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main(["run", "--config", cfg, "--output", str(out)]) == 0
        # Fisher information is 1/x0^2 = 1/4, so the bound for gamma(x)=x is 4
        assert float(read_rows(out)[0]["value"]) == pytest.approx(4.0, rel=1e-9)


class TestScanCommand:
    def test_scan_summary_and_csv(self, tmp_path, capsys):
        doc = {**GAUSSIAN_RUN,
               "x0": {"grid": {"start": -1.0, "stop": 1.0, "count": 3}},
               "methods": [{"name": "barankin_approx", "restarts": 1, "halvings": 4}]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--config", cfg, "--output", str(out)]) == 0
        assert "largest downward jump" in capsys.readouterr().out
        rows = read_rows(out)
        assert len(rows) == 3
        for r in rows:
            assert float(r["value"]) == pytest.approx(1.0, abs=1e-2)

    def test_scan_requires_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        assert main(["scan", "--config", cfg]) == 2
        assert "grid" in capsys.readouterr().err


class TestReduceCommand:
    def test_reduce_reports_spread(self, tmp_path, capsys):
        doc = {**GAUSSIAN_RUN,
               "methods": [{"name": "barankin_approx", "restarts": 2, "halvings": 6}],
               "radii": [0.25, 1.0]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "reduce.csv"
        assert main(["reduce", "--config", cfg, "--output", str(out)]) == 0
        assert "spread across radii" in capsys.readouterr().out
        rows = read_rows(out)
        assert [float(r["radius"]) for r in rows] == [0.25, 1.0]

    def test_radius_below_min_distance_exits_2(self, tmp_path, capsys):
        # no test point fits between min_distance and the radius
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", "restarts": 1}],
               "radii": [0.25, 1.0e-7]}
        assert main(["reduce", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: radii") and "Traceback" not in err

    @pytest.mark.parametrize("seed", [5, 6])
    def test_seed_option_exits_2_naming_mc_seed(self, tmp_path, capsys, seed):
        # radius j searches with seed mc.seed + j, so the option used to be
        # dropped without a word: seeds 5 and 6 gave byte-identical CSVs
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", "restarts": 1,
                                            "halvings": 2, "seed": seed}],
               "radii": [0.5, 1.0]}
        assert main(["reduce", "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: methods[0].seed: ")
        assert "mc.seed" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_radius_option_exits_2_naming_radii(self, tmp_path, capsys):
        # each radius of radii replaced the option without a word: a radius of
        # 0.1 searched balls of 0.5 and 1.0 and exited 0
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "barankin_approx", "restarts": 1,
                                            "halvings": 2, "radius": 0.1}],
               "radii": [0.5, 1.0]}
        assert main(["reduce", "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: methods[0].radius: ")
        assert "radii" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_reduce_requires_radii(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        assert main(["reduce", "--config", cfg]) == 2
        assert "radii" in capsys.readouterr().err


_SEARCH = {"name": "barankin_approx", "restarts": 1, "halvings": 4}
SCAN = {**GAUSSIAN_RUN, "x0": {"grid": {"start": -1.0, "stop": 1.0, "count": 3}},
        "methods": [_SEARCH]}
REDUCE = {**GAUSSIAN_RUN, "methods": [_SEARCH], "radii": [0.25, 1.0]}


class TestOneMethodCommands:
    @pytest.mark.parametrize("command, doc", [("scan", SCAN), ("reduce", REDUCE)])
    def test_csv_format_without_path_streams_the_file_to_stdout(self, tmp_path, capsys,
                                                                 command, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--output", str(out), "--format", "csv"]) == 0
        assert capsys.readouterr().out.count("\n") == 1  # the summary line alone
        assert main([command, "--config", cfg, "--format", "csv"]) == 0
        *printed, summary = capsys.readouterr().out.splitlines()
        assert printed == out.read_text(encoding="utf-8").splitlines()
        assert summary.startswith(("largest downward jump", "spread across radii"))

    @pytest.mark.parametrize("command, doc, where, dropped", [
        ("scan", {**SCAN, "methods": [_SEARCH, {"name": "crb"}]}, "methods[1]", "crb"),
        ("reduce", {**REDUCE, "methods": [_SEARCH, {"name": "crb"}]}, "methods[1]", "crb"),
        ("reduce", {**REDUCE, "methods": [{"name": "crb"}, _SEARCH]}, "methods[0]", "crb"),
        ("reduce", {**REDUCE, "methods": [_SEARCH, _SEARCH]}, "methods[1]",
         "barankin_approx"),
    ], ids=["scan-second", "reduce-second", "reduce-not-a-search", "reduce-second-search"])
    def test_a_method_left_out_exits_2(self, tmp_path, capsys, command, doc, where, dropped):
        # such a method used to be dropped without a word, with exit 0
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"configuration error: {where}")
        assert repr(dropped) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_csv_on_stdout_is_the_file_the_config_writes(tmp_path, capsys, monkeypatch, path):
    doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    # the command is the file name's last part: ..._scan.yaml runs scan
    command = path.stem.rpartition("_")[2]
    command = command if command in ("scan", "reduce", "validate") else "run"
    monkeypatch.chdir(tmp_path)  # the config's relative output path lands here
    assert main([command, "--config", str(path), "--format", "csv"]) == 0
    written = (tmp_path / doc["output"]["path"]).read_text(encoding="utf-8")
    doc["output"] = {"format": "csv"}
    capsys.readouterr()
    assert main([command, "--config", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert out[:len(written)] == written and out[len(written):].count("\n") <= 1


class TestValidateCommand:
    def test_suffstat_estimator_dominates(self, tmp_path, capsys):
        doc = {**GAUSSIAN_RUN,
               "methods": [{"name": "crb"}, {"name": "expfam_crb"}],
               "estimator": {"builtin": "suffstat"},
               "mc": {"samples": 50000, "seed": 21}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "val.csv"
        assert main(["validate", "--config", cfg, "--output", str(out)]) == 0
        assert "all bounds dominated" in capsys.readouterr().out
        rows = read_rows(out)
        assert all(r["satisfied"] == "True" for r in rows)

    def test_constant_estimator_at_a_large_value_dominates(self, tmp_path, capsys):
        doc = {"model": {"family": "bernoulli"}, "mean_function": {"builtin": "identity"},
               "x0": [0.2], "estimator": {"builtin": "constant", "value": 1.0e300},
               "methods": [{"name": "bhattacharyya", "indices": [[1]]}],
               "mc": {"samples": 200, "seed": 1}, "output": {"format": "csv"}}
        assert main(["validate", "--config", write_config(tmp_path, doc)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "x0,method,bound,variance,se_variance,margin,satisfied",
            "0.20000000000000001,bhattacharyya,0,0,0,0,True", "all bounds dominated"]
        assert captured.err == ""

    def test_validate_requires_estimator(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GAUSSIAN_RUN)
        assert main(["validate", "--config", cfg]) == 2
        assert "estimator" in capsys.readouterr().err


class TestParser:
    def test_built_on_the_first_main_not_at_import(self):
        src = str(Path(varbounds.__file__).resolve().parent.parent)
        code = ("import varbounds.cli as cli; n = cli._parser.cache_info().currsize; "
                "cli.main(['models']); cli.main(['models']); "
                "print(n, cli._parser.cache_info().misses)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True).stdout
        assert out.splitlines()[-1] == "0 1"

    def test_options_do_not_leak_between_calls(self, tmp_path):
        doc = {**GAUSSIAN_RUN, "methods": [{"name": "crb"}],
               "estimator": {"builtin": "suffstat"},
               "mc": {"samples": 2000, "seed": 21},
               "output": {"path": str(tmp_path / "config.csv"), "format": "csv"}}
        cfg = write_config(tmp_path, doc)
        flagged = tmp_path / "flagged.csv"
        assert main(["validate", "--config", cfg, "--output", str(flagged),
                     "--seed", "5"]) == 0
        assert main(["validate", "--config", cfg]) == 0
        plain = (tmp_path / "config.csv").read_bytes()
        assert main(["validate", "--config", cfg, "--output", str(tmp_path / "b.csv")]) == 0
        assert main(["validate", "--config", cfg, "--seed", "5",
                     "--output", str(tmp_path / "c.csv")]) == 0
        # the config's seed and path apply whenever no flag overrides them
        assert (tmp_path / "b.csv").read_bytes() == plain
        assert (tmp_path / "c.csv").read_bytes() == flagged.read_bytes() != plain


class TestModelsCommand:
    def test_listing_contents(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gaussian-mean" in out
        assert "poisson" in out
        assert "x < 0" in out

    def test_closed_stdout_exits_3_with_one_error_line(self):
        # the read end of the pipe is closed before the listing is written
        src = str(Path(varbounds.__file__).resolve().parent.parent)
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run([sys.executable, "-m", "varbounds", "models"], stdout=write,
                                 stderr=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(write)
        assert out.returncode == 3
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")

    def test_listing_function(self):
        assert list_models() == "\n".join([
            "built-in families:",
            "  gaussian-mean      hyperparameters: none                     "
            "natural space: all of R     closed-form moments: yes",
            "  poisson            hyperparameters: none                     "
            "natural space: all of R     closed-form moments: yes",
            "  bernoulli          hyperparameters: none                     "
            "natural space: all of R     closed-form moments: yes",
            "  exponential-rate   hyperparameters: none                     "
            "natural space: x < 0        closed-form moments: yes",
            "  gaussian-mean-nd   hyperparameters: dim (default 2)          "
            "natural space: all of R^2   closed-form moments: yes",
            "  gaussian-iid       hyperparameters: n_obs (default 3)        "
            "natural space: all of R     closed-form moments: yes",
            "  gaussian-sum       hyperparameters: n_obs (default 3)        "
            "natural space: all of R     closed-form moments: yes"])


# ---------------------------------------------------------------------------
# Config fuzzing: mutated known-good configs end in a clean exit code
# ---------------------------------------------------------------------------

_SMALL_SEARCH = {"name": "barankin_approx", "restarts": 1, "halvings": 1, "max_points": 1,
                 "max_sweeps_per_level": 1}

FUZZ_BASES = [
    ("run", {"model": {"family": "gaussian-mean"}, "x0": [0.5],
             "methods": [{"name": "crb"}, {"name": "expfam_crb"},
                         {"name": "constrained_crb", "constraint": []},
                         {"name": "bhattacharyya", "indices": [[1], [2]]},
                         {"name": "expfam_moment", "indices": [[0], [1]]},
                         {"name": "hcrb", "points": [[1.0]]}],
             "mc": {"samples": 200, "seed": 1},
             "output": {"format": "csv", "path": "out.csv"}}),
    ("run", {"model": {"family": "gaussian-mean-nd", "dim": 2}, "x0": [0.1, -0.2],
             "mean_function": {"builtin": "identity", "component": 1},
             "methods": [{"name": "constrained_crb", "constraint": [[1.0, -1.0]]},
                         {"name": "hcrb", "points": [[0.5, 0.5]]},
                         {**_SMALL_SEARCH, "lower": [-1.0, -1.0]}]}),
    ("validate", {"model": {"family": "poisson"}, "x0": [0.0],
                  "mean_function": {"builtin": "expfam-mean"},
                  "estimator": {"builtin": "suffstat", "component": 0},
                  "methods": [{"name": "crb"}, {"name": "expfam_moment", "indices": [[1]]}],
                  "mc": {"samples": 200, "seed": 3}}),
    ("validate", {"model": {"family": "bernoulli"}, "x0": [0.2],
                  "mean_function": {"builtin": "constant", "constant": 0.5},
                  "estimator": {"builtin": "constant", "value": 0.5},
                  "methods": [{"name": "bhattacharyya", "indices": [[1]]}],
                  "mc": {"samples": 200, "seed": 3}}),
    ("scan", {"model": {"family": "gaussian-mean"},
              "x0": {"grid": {"start": -0.5, "stop": 0.5, "count": 2}},
              "methods": [{**_SMALL_SEARCH, "initial_points": [[1.0]]}]}),
    ("reduce", {"model": {"family": "exponential-rate"}, "x0": [-1.0],
                "mean_function": {"polynomial": [0.0, 1.0]}, "radii": [0.25],
                "methods": [{**_SMALL_SEARCH, "upper": [-0.6]}]}),
]

FUZZ_VALUES = [None, "x", "", -1, 0, 1, 2, 0.5, 1.5, -2.5, 1e300, math.nan, math.inf, True,
               [], [[]], [1.0], [[1.0]], [[1.0, 2.0]], [[1.5]], [[0], [0]], {}, {"a": 1}]

#: output paths, taken inside a temporary directory: a file, a file in a
#: directory that does not exist, and the directory itself
FUZZ_OUTPUT_PATHS = ["out.csv", "missing/out.csv", ""]


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


def _main_in_process(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        output = config.get("output")
        if isinstance(output, dict) and isinstance(output.get("path"), str):
            # an output path is taken inside the temporary directory
            config = {**config, "output": {**output, "path": os.path.join(tmp, output["path"])}}
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
    return code, out.getvalue() + err.getvalue()


def test_fuzz_bases_succeed():
    for command, config in FUZZ_BASES:
        assert _main_in_process(command, config)[0] == 0, (command, config)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_configs_exit_cleanly(data):
    command, base = data.draw(st.sampled_from(FUZZ_BASES))
    config = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = _paths(config)
        if not paths:
            break
        *head, key = data.draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, head, config)
        op = data.draw(st.sampled_from(["set", "delete", "grow", "output"]))
        if op == "output":
            config["output"] = {"path": data.draw(st.sampled_from(FUZZ_OUTPUT_PATHS))}
        elif op == "set":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent[key], dict):
            parent[key]["extra"] = 1
        elif isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(parent[key][-1]) if parent[key] else 1)
        else:
            parent[key] = [parent[key]]
    code, output = _main_in_process(command, config)
    assert code in (0, 2, 3), (command, config, output)
    assert "Traceback" not in output
