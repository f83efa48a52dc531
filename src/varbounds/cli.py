"""Config-driven command line: declare a model, mean function, reference
parameters, and bound methods in a YAML file; run computations; emit pretty
tables and CSV.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure (the
message names the failing method and parameter point) or an output file that
cannot be written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Sequence

import numpy as np
import yaml

from .bounds import _REQUIRED, MethodSpec, _evaluate_grid, _fields, _result, barankin_search, \
    method_options
from .calculus import _named, _number, _vector
from .errors import ConfigurationError, ConstraintRankError, DataError, DomainError, \
    KernelEvaluationError, NaturalSpaceError, StencilError, VarBoundsError
from .harness import MIN_DRAWS, phi_estimator, constant_estimator, \
    reduction_experiment, semicontinuity_scan, validate_bounds, write_csv
from .models import BUILTIN_FAMILIES, MeanFunction, constant_mean, expfam_mean, \
    identity_mean, make_model, polynomial_mean

#: libyaml's loader where PyYAML was built with it: the same documents and
#: error marks as the pure-Python SafeLoader, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_NUMERICAL_ERRORS = (NaturalSpaceError, KernelEvaluationError, StencilError,
                     ConstraintRankError, DataError, DomainError, np.linalg.LinAlgError,
                     ArithmeticError)


def _numerically(where: str, call, *args, **kwargs):
    """call(*args, **kwargs), reporting a numerical failure as an error at `where`."""
    try:
        return call(*args, **kwargs)
    except _NUMERICAL_ERRORS as exc:
        raise VarBoundsError(f"numerical failure {where}: {exc}") from exc


# Config checks beside those of `bounds`, with the family's dimension as context

def _reals(values, *_, above: float = -math.inf) -> tuple:
    """A nonempty list of finite numbers above a bound, as floats."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"expected a nonempty list of numbers, got {values!r}")
    return tuple(map(_number(float, above, strict=True), values))


def _one_of(*choices):
    def check(value, *_):
        if value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value
    return check


def _component(value, dim: int) -> int:
    return _number(int, 0, below=dim)(value)


def _model(section) -> dict:
    """The family and its hyperparameters, each defaulting to the family's own."""
    family = section.get("family") if isinstance(section, dict) else None
    hyper = BUILTIN_FAMILIES.get(family, (None, {}))[1] if isinstance(family, str) else {}
    return _fields(section, "model", {"family": (_one_of(*BUILTIN_FAMILIES), _REQUIRED),
                                      **{key: (_number(int, 1), v) for key, v in hyper.items()}})


_MEAN = {"builtin": (_one_of("identity", "constant", "expfam-mean"), None),
         "component": (_component, 0), "constant": (_number(float), 0.0),
         "polynomial": (_reals, None)}


def _mean_function(section, dim: int) -> dict:
    mean = _fields(section, "mean_function", _MEAN, dim)
    if "polynomial" not in mean:
        mean.setdefault("builtin", "identity")
    elif "builtin" in mean:
        raise ConfigurationError("mean_function: give either builtin or polynomial, not both")
    elif dim != 1:
        raise ConfigurationError("mean_function.polynomial: only available for scalar parameters")
    return mean


_GRID = {"start": (_number(float), _REQUIRED), "stop": (_number(float), _REQUIRED),
         "count": (_number(int, 2), _REQUIRED)}


def _x0(value, dim: int) -> tuple | dict:
    """A list of `dim` numbers, or {"grid": {start, stop, count}} for a scalar parameter."""
    if not isinstance(value, dict):
        return _vector(_reals(value), dim)
    if dim != 1:
        raise ConfigurationError("x0.grid: only available for scalar parameters")
    return _fields(value, "x0", {"grid": (_GRID, _REQUIRED)})


def _method(d, dim: int) -> MethodSpec:
    if not isinstance(d, dict) or "name" not in d:
        raise ValueError("expected a mapping with a name")
    options = {k: v for k, v in d.items() if k != "name"}
    return MethodSpec(d["name"], method_options(d["name"], options, dim))


def _methods(value, dim: int) -> tuple:
    if not isinstance(value, list):
        raise ValueError("expected a list")
    return tuple(_named(f"methods[{i}]", _method, m, dim) for i, m in enumerate(value))


def _output_path(path, *_) -> str:
    # checked at load, so that the --output override is checked too, and
    # before any bound is computed
    if not isinstance(path, str):
        raise TypeError("expected a file name")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise ValueError(f"{path!r} lies in {folder!r}, which is not an existing directory")
    return path


#: Every section but `model`, checked against the family's dimension
_CONFIG = {
    "mean_function": (_mean_function, {}),
    "x0": (_x0, [0.0]),
    "methods": (_methods, []),
    "mc": ({"samples": (_number(int, 2), 100_000), "seed": (_number(int, 0), 1234)}, {}),
    "output": ({"path": (_output_path, None),
                "format": (_one_of("pretty", "csv"), "pretty")}, {}),
    "radii": (partial(_reals, above=0.0), None),
    "estimator": ({"builtin": (_one_of("suffstat", "constant"), _REQUIRED),
                   "component": (_component, 0), "value": (_number(float), 0.0)}, None),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document: each field holds its section's
    normalised document.  Unknown keys are rejected everywhere and
    to_dict/from_dict round-trips to the identity."""

    model: dict
    mean_function: dict
    x0: tuple | dict
    methods: tuple
    mc: dict
    output: dict
    radii: tuple | None = None
    estimator: dict | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        # the model first: the other sections are checked against its dimension
        model = _fields(d, "", {"model": (_model, _REQUIRED),
                                **dict.fromkeys(_CONFIG, (lambda v: v, None))})["model"]
        dim = _named("model", lambda: make_model(**model)).param_dim
        cfg = cls(**_fields(d, "", {"model": (lambda *_: model, _REQUIRED), **_CONFIG}, dim))
        for i, spec in enumerate(cfg.methods):
            if spec.name == "barankin_approx" and spec.options.get("initial_points"):
                search = barankin_search(spec.options)
                for point in cfg.points():
                    _named(f"methods[{i}]", search.region, np.asarray(point, dtype=float))
        return cfg

    def to_dict(self) -> dict:
        d = {key: value for key, value in vars(self).items() if value is not None}
        d["methods"] = [{"name": m.name, **m.options} for m in self.methods]
        return d

    def points(self) -> list[tuple]:
        """The reference parameters: x0, or the points of its grid."""
        if isinstance(self.x0, tuple):
            return [self.x0]
        grid = self.x0["grid"]
        return [(float(v),) for v in np.linspace(grid["start"], grid["stop"], grid["count"])]


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigurationError(f"invalid YAML in {path!r}{where}: {exc}") from exc
    if raw is None:
        raise ConfigurationError(f"config {path!r} is empty")
    return RunConfig.from_dict(raw)


def build_mean(cfg: RunConfig, model) -> MeanFunction:
    mean = cfg.mean_function
    if "polynomial" in mean:
        return polynomial_mean(mean["polynomial"])
    if mean["builtin"] == "identity":
        return identity_mean(mean["component"])
    if mean["builtin"] == "constant":
        return constant_mean(mean["constant"])
    return expfam_mean(model, mean["component"])


def _print_table(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    cells = [[f"{v:.6g}" if isinstance(v, float) else str(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _emit(cfg: RunConfig, header, rows) -> None:
    path = cfg.output.get("path")
    if path:
        try:
            write_csv(path, header, rows)
        except OSError as exc:
            raise VarBoundsError(f"cannot write output.path {path!r}: {exc}") from exc
    if cfg.output["format"] == "pretty":
        _print_table(header, rows)
    elif not path:
        write_csv(sys.stdout, header, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_run(cfg: RunConfig, model, gamma: MeanFunction) -> int:
    if not cfg.methods:
        raise ConfigurationError("methods: at least one method is required for run")
    header = [f"x{k}" for k in range(model.param_dim)] + \
        ["method", "value", "gram_rank", "condition_number", "mc_standard_error"]
    grid = cfg.points()
    outcomes = [_evaluate_grid(model, gamma, [np.asarray(x0) for x0 in grid], spec,
                               [cfg.mc["seed"]] * len(grid), cfg.mc["samples"])
                for spec in cfg.methods]
    rows = []
    for i, x0 in enumerate(grid):  # a method's outcomes end at the first failure it raises
        for spec, results in zip(cfg.methods, outcomes):
            res = _numerically(f"in method {spec.name!r} at x0={list(x0)}", _result, results[i])
            rows.append(list(x0) + [spec.name, res.value,
                                    res.diagnostics.get("gram_rank", ""),
                                    res.diagnostics.get("condition_number", ""),
                                    res.diagnostics.get("mc_standard_error", "")])
    _emit(cfg, header, rows)
    return 0


def _single_method(cfg: RunConfig, command: str, only: str | None = None) -> MethodSpec:
    """The one method `command` evaluates (barankin_approx when none is
    given); a method it would leave out is a configuration error."""
    for i, spec in enumerate(cfg.methods):
        if i or only not in (None, spec.name):
            raise ConfigurationError(f"methods[{i}]: {command} evaluates one "
                                     f"{only or 'bound'} method, not also {spec.name!r}")
    return cfg.methods[0] if cfg.methods else MethodSpec("barankin_approx", {})


def _cmd_scan(cfg: RunConfig, model, gamma: MeanFunction) -> int:
    if not isinstance(cfg.x0, dict):
        raise ConfigurationError("x0: scan requires a grid spec")
    spec = _single_method(cfg, "scan")
    report = _numerically(f"in method {spec.name!r} during scan", semicontinuity_scan,
                          model, gamma, [np.asarray(x) for x in cfg.points()], spec.name,
                          spec.options, mc_samples=cfg.mc["samples"], seed=cfg.mc["seed"])
    _emit(cfg, *report.table())
    print(f"largest downward jump: {report.largest_downward_jump:.6g}")
    return 0


def _cmd_reduce(cfg: RunConfig, model, gamma: MeanFunction) -> int:
    if cfg.radii is None:
        raise ConfigurationError("radii: required for reduce")
    if isinstance(cfg.x0, dict):
        raise ConfigurationError("x0: reduce requires a single parameter vector")
    options = _single_method(cfg, "reduce", "barankin_approx").options
    if "seed" in options:
        raise ConfigurationError("methods[0].seed: reduce seeds radius j with mc.seed + j")
    if "radius" in options:
        raise ConfigurationError("methods[0].radius: reduce searches the balls of radii")
    search = barankin_search(options)
    # each radius must leave room for test points beyond min_distance, and
    # hold the initial points
    x0 = np.asarray(cfg.x0, dtype=float)
    _named("radii", lambda: [replace(search, radius=r).region(x0) for r in cfg.radii])
    report = _numerically(f"in method 'barankin_approx' at x0={list(cfg.x0)}",
                          reduction_experiment, model, gamma, x0, cfg.radii, search,
                          mc_samples=cfg.mc["samples"], seed=cfg.mc["seed"])
    _emit(cfg, *report.table())
    print(f"spread across radii: {report.spread:.6g}")
    return 0


def _cmd_validate(cfg: RunConfig, model, _gamma: MeanFunction) -> int:
    if cfg.estimator is None:
        raise ConfigurationError("estimator: required for validate")
    if cfg.mc["samples"] < MIN_DRAWS:
        raise ConfigurationError(f"mc.samples: validate needs at least {MIN_DRAWS} draws")
    if cfg.estimator["builtin"] == "suffstat":
        est = phi_estimator(model, cfg.estimator["component"])
    else:
        est = constant_estimator(cfg.estimator["value"])
    if not cfg.methods:
        raise ConfigurationError("methods: at least one method is required for validate")
    header = [f"x{k}" for k in range(model.param_dim)] + \
        ["method", "bound", "variance", "se_variance", "margin", "satisfied"]
    rows = []
    ok = True
    for x0 in cfg.points():
        report = _numerically(f"during validate at x0={list(x0)}", validate_bounds, model,
                              est, np.asarray(x0), cfg.methods, n=cfg.mc["samples"],
                              seed=cfg.mc["seed"])
        ok = ok and report.all_satisfied
        for r in report.rows():
            rows.append(list(x0) + [r["method"], r["bound"], r["variance"],
                                    r["se_variance"], r["margin"], r["satisfied"]])
    _emit(cfg, header, rows)
    print("all bounds dominated" if ok else "DOMINANCE VIOLATION", flush=True)
    return 0 if ok else 3


def list_models() -> str:
    lines = ["built-in families:"]
    for name, (factory, params) in BUILTIN_FAMILIES.items():
        model = factory()
        hyper = ", ".join(f"{k} (default {v})" for k, v in params.items()) or "none"
        closed = "yes" if model.closed_moments is not None else "no"
        lines.append(f"  {name:<18} hyperparameters: {hyper:<24} "
                     f"natural space: {model.natural_space_desc:<12} "
                     f"closed-form moments: {closed}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varbounds",
        description="Lower bounds on estimator variance via likelihood-ratio "
                    "kernel projections")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("run", "evaluate configured bounds at the reference parameter(s)"),
            ("scan", "evaluate a bound over a reference-parameter grid"),
            ("reduce", "search with test points confined to balls of several radii"),
            ("validate", "check bounds against Monte Carlo estimator variance")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a YAML config file")
        p.add_argument("--output", help="override output.path")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--format", choices=("csv", "pretty"), help="override output.format")
    sub.add_parser("models", help="list built-in model families")
    return parser


_parser = lru_cache(maxsize=1)(build_parser)  # built on the first main, not at import


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "models":
            print(list_models())
            code = 0
        else:
            cfg = load_config(args.config)
            flags = {("mc", "seed"): args.seed, ("output", "path"): args.output,
                     ("output", "format"): args.format}
            if any(value is not None for value in flags.values()):
                # the config again with the flags' values, checked as the file's are
                d = cfg.to_dict()
                for (section, key), value in flags.items():
                    if value is not None:
                        d[section] = {**d[section], key: value}
                cfg = RunConfig.from_dict(d)
            handler = {"run": _cmd_run, "scan": _cmd_scan, "reduce": _cmd_reduce,
                       "validate": _cmd_validate}[args.command]
            model = make_model(**cfg.model)
            code = handler(cfg, model, build_mean(cfg, model))
        sys.stdout.flush()  # a closed stdout raises here, not in the exit flush
        return code
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:  # so that the exit flush cannot raise again
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("error: standard output closed before the output was written", file=sys.stderr)
        return 3
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VarBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
