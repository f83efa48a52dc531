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
import operator
import os
import sys
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
import yaml

from .bounds import MethodSpec, barankin_search, evaluate_bound, method_options
from .errors import ConfigurationError, ConstraintRankError, DataError, DomainError, \
    KernelEvaluationError, NaturalSpaceError, StencilError, VarBoundsError
from .harness import MIN_DRAWS, format_float, phi_estimator, constant_estimator, \
    reduction_experiment, semicontinuity_scan, validate_bounds, write_csv
from .models import BUILTIN_FAMILIES, MeanFunction, constant_mean, expfam_mean, \
    identity_mean, make_model, polynomial_mean

#: libyaml's loader where PyYAML was built with it: the same documents and
#: error marks as the pure-Python SafeLoader, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_NUMERICAL_ERRORS = (NaturalSpaceError, KernelEvaluationError, StencilError,
                     ConstraintRankError, DataError, DomainError, np.linalg.LinAlgError,
                     FloatingPointError)


def _numerically(where: str, call, *args, **kwargs):
    """call(*args, **kwargs), reporting a numerical failure as an error at `where`."""
    try:
        return call(*args, **kwargs)
    except _NUMERICAL_ERRORS as exc:
        raise VarBoundsError(f"numerical failure {where}: {exc}") from exc


def _section(name: str, parse, *args):
    """parse(*args); a TypeError or ValueError is a configuration error in `name`."""
    try:
        return parse(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


def _finite(values, above: float = -math.inf) -> tuple:
    """A nonempty list of finite numbers above a bound, as floats."""
    if not isinstance(values, (list, tuple)) or not values:
        raise ValueError(f"expected a nonempty list of numbers, got {values!r}")
    out = tuple(float(v) for v in values)
    if not all(above < v < math.inf for v in out):
        raise ValueError(f"expected finite numbers above {above}, got {values!r}")
    return out


def _component(value, dim: int) -> int:
    k = operator.index(value)
    if not 0 <= k < dim:
        raise ValueError(f"component {k} is outside 0..{dim - 1}")
    return k


def _require_keys(section: dict, allowed: set[str], path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown, key=str)}")


@dataclass(frozen=True)
class ModelConfig:
    family: str
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        _require_keys(d, {"family"} | {k for _, p in BUILTIN_FAMILIES.values() for k in p},
                      "model")
        if "family" not in d:
            raise ConfigurationError("model.family: required")
        return cls(family=d["family"], params={k: v for k, v in d.items() if k != "family"})

    def to_dict(self) -> dict:
        return {"family": self.family, **self.params}

    def build(self):
        """The model; make_model checks the family and its parameters."""
        return make_model(self.family, **self.params)


_MEAN_BUILTINS = ("identity", "constant", "expfam-mean")


@dataclass(frozen=True)
class MeanConfig:
    builtin: str | None = "identity"
    component: int = 0
    constant: float = 0.0
    polynomial: tuple | None = None

    @classmethod
    def from_dict(cls, d: dict, dim: int) -> "MeanConfig":
        _require_keys(d, {"builtin", "component", "constant", "polynomial"}, "mean_function")
        poly = d.get("polynomial")
        builtin = d.get("builtin")
        if poly is not None and builtin is not None:
            raise ConfigurationError(
                "mean_function: give either builtin or polynomial, not both")
        if poly is None and builtin is None:
            builtin = "identity"
        if builtin is not None and builtin not in _MEAN_BUILTINS:
            raise ConfigurationError(
                f"mean_function.builtin: unknown {builtin!r}; known: {_MEAN_BUILTINS}")
        if poly is not None and dim != 1:
            raise ConfigurationError(
                "mean_function.polynomial: only available for scalar parameters")
        return cls(builtin=builtin, component=_component(d.get("component", 0), dim),
                   constant=float(d.get("constant", 0.0)),
                   polynomial=_finite(poly) if poly is not None else None)

    def to_dict(self) -> dict:
        if self.polynomial is not None:
            d: dict = {"polynomial": list(self.polynomial)}
        else:
            d = {"builtin": self.builtin}
        if self.component:
            d["component"] = self.component
        if self.builtin == "constant":
            d["constant"] = self.constant
        return d


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int

    def expand(self) -> list[tuple]:
        return [(float(v),) for v in np.linspace(self.start, self.stop, self.count)]


def _x0_from_raw(raw, dim: int) -> tuple | GridSpec:
    if isinstance(raw, dict):
        if dim != 1:
            raise ConfigurationError("x0.grid: only available for scalar parameters")
        _require_keys(raw, {"grid"}, "x0")
        grid = raw.get("grid")
        _require_keys(grid, {"start", "stop", "count"}, "x0.grid")
        for key in ("start", "stop", "count"):
            if key not in grid:
                raise ConfigurationError(f"x0.grid.{key}: required")
        count = operator.index(grid["count"])
        if count < 2:
            raise ConfigurationError("x0.grid.count: must be >= 2")
        return GridSpec(*_finite((grid["start"], grid["stop"])), count)
    x0 = _finite(raw)
    if len(x0) != dim:
        raise ConfigurationError(f"x0: length {len(x0)} does not match the family dimension {dim}")
    return x0


@dataclass(frozen=True)
class MCConfig:
    samples: int = 100_000
    seed: int = 1234

    def __post_init__(self):
        if self.samples < 2:
            raise ConfigurationError("mc.samples: must be >= 2")
        if self.seed < 0:
            raise ConfigurationError("mc.seed: must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "MCConfig":
        _require_keys(d, {"samples", "seed"}, "mc")
        return cls(samples=operator.index(d.get("samples", 100_000)),
                   seed=operator.index(d.get("seed", 1234)))

    def to_dict(self) -> dict:
        return {"samples": self.samples, "seed": self.seed}


@dataclass(frozen=True)
class OutputConfig:
    path: str | None = None
    format: str = "pretty"

    def __post_init__(self):
        # checked here so that the --output override is checked too, and
        # before any bound is computed
        folder = os.path.dirname(self.path) if self.path else ""
        if folder and not os.path.isdir(folder):
            raise ConfigurationError(
                f"output.path: {self.path!r} lies in {folder!r}, which is not an "
                f"existing directory")

    @classmethod
    def from_dict(cls, d: dict) -> "OutputConfig":
        _require_keys(d, {"path", "format"}, "output")
        fmt = d.get("format", "pretty")
        if fmt not in ("pretty", "csv"):
            raise ConfigurationError(f"output.format: must be csv or pretty, got {fmt!r}")
        if not isinstance(d.get("path", ""), (str, type(None))):
            raise ConfigurationError("output.path: expected a file name")
        return cls(path=d.get("path"), format=fmt)

    def to_dict(self) -> dict:
        d: dict = {"format": self.format}
        if self.path is not None:
            d["path"] = self.path
        return d


def _method_from_dict(d: dict, pos: int, dim: int) -> MethodSpec:
    path = f"methods[{pos}]"
    if not isinstance(d, dict) or "name" not in d:
        raise ConfigurationError(f"{path}: expected a mapping with a name")
    options = {k: v for k, v in d.items() if k != "name"}
    return _section(path, lambda: MethodSpec(d["name"], method_options(d["name"], options, dim)))


def _estimator_from_dict(d: dict, dim: int) -> dict:
    _require_keys(d, {"builtin", "component", "value"}, "estimator")
    if d.get("builtin") not in ("suffstat", "constant"):
        raise ConfigurationError("estimator.builtin: must be 'suffstat' or 'constant'")
    return {"builtin": d["builtin"], "component": _component(d.get("component", 0), dim),
            "value": float(d.get("value", 0.0))}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document.  Unknown keys are rejected everywhere
    and to_dict/from_dict round-trips to the identity."""

    model: ModelConfig
    mean_function: MeanConfig = MeanConfig()
    x0: tuple | GridSpec = (0.0,)
    methods: tuple = ()
    mc: MCConfig = MCConfig()
    output: OutputConfig = OutputConfig()
    radii: tuple | None = None
    estimator: dict | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _require_keys(d, {"model", "mean_function", "x0", "methods", "mc", "output",
                          "radii", "estimator"}, "config")
        if "model" not in d:
            raise ConfigurationError("model: required section")
        model = _section("model", ModelConfig.from_dict, d["model"])
        dim = _section("model", model.build).param_dim
        mean = _section("mean_function", MeanConfig.from_dict,
                        d.get("mean_function", {"builtin": "identity"}), dim)
        x0 = _section("x0", _x0_from_raw, d.get("x0", [0.0]), dim)
        raw_methods = d.get("methods", [])
        if not isinstance(raw_methods, list):
            raise ConfigurationError("methods: expected a list")
        methods = tuple(_method_from_dict(m, i, dim) for i, m in enumerate(raw_methods))
        for i, spec in enumerate(methods):
            if spec.name == "barankin_approx" and spec.options.get("initial_points"):
                search = barankin_search(spec.options)
                for point in x0.expand() if isinstance(x0, GridSpec) else [x0]:
                    _section(f"methods[{i}]", search.region, np.asarray(point, dtype=float))
        mc = _section("mc", MCConfig.from_dict, d.get("mc", {}))
        output = _section("output", OutputConfig.from_dict, d.get("output", {}))
        radii = None if d.get("radii") is None else _section("radii", _finite, d["radii"], 0.0)
        estimator = None if d.get("estimator") is None else \
            _section("estimator", _estimator_from_dict, d["estimator"], dim)
        return cls(model=model, mean_function=mean, x0=x0, methods=methods, mc=mc,
                   output=output, radii=radii, estimator=estimator)

    def to_dict(self) -> dict:
        d: dict = {"model": self.model.to_dict(),
                   "mean_function": self.mean_function.to_dict()}
        if isinstance(self.x0, GridSpec):
            d["x0"] = {"grid": {"start": self.x0.start, "stop": self.x0.stop,
                                "count": self.x0.count}}
        else:
            d["x0"] = list(self.x0)
        d["methods"] = [{"name": m.name, **m.options} for m in self.methods]
        d["mc"] = self.mc.to_dict()
        d["output"] = self.output.to_dict()
        if self.radii is not None:
            d["radii"] = list(self.radii)
        if self.estimator is not None:
            d["estimator"] = dict(self.estimator)
        return d


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
    mc = cfg.mean_function
    if mc.polynomial is not None:
        return polynomial_mean(mc.polynomial)
    if mc.builtin == "identity":
        return identity_mean(mc.component)
    if mc.builtin == "constant":
        return constant_mean(mc.constant)
    return expfam_mean(model, mc.component)


def _print_table(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    cells = [[f"{v:.6g}" if isinstance(v, float) else str(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _write(path: str, write, *args) -> None:
    """write(path, *args); a file-system failure is an error naming the path."""
    try:
        write(path, *args)
    except OSError as exc:
        raise VarBoundsError(f"cannot write output.path {path!r}: {exc}") from exc


def _emit(cfg: RunConfig, header, rows) -> None:
    if cfg.output.path:
        _write(cfg.output.path, write_csv, header, rows)
    if cfg.output.format == "pretty":
        _print_table(header, rows)
    elif not cfg.output.path:
        # csv format with no path: write csv text to stdout
        print(",".join(header))
        for row in rows:
            print(",".join(format_float(v) if isinstance(v, (int, float))
                           and not isinstance(v, bool) else str(v) for v in row))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_run(cfg: RunConfig) -> int:
    model = cfg.model.build()
    gamma = build_mean(cfg, model)
    if not cfg.methods:
        raise ConfigurationError("methods: at least one method is required for run")
    points = cfg.x0.expand() if isinstance(cfg.x0, GridSpec) else [cfg.x0]
    dim = model.param_dim
    header = [f"x{k}" for k in range(dim)] + ["method", "value", "gram_rank",
                                              "condition_number", "mc_standard_error"]
    rows = []
    for x0 in points:
        for spec in cfg.methods:
            res = _numerically(f"in method {spec.name!r} at x0={list(x0)}", evaluate_bound,
                               model, gamma, np.asarray(x0), spec,
                               mc_samples=cfg.mc.samples, seed=cfg.mc.seed)
            rows.append(list(x0) + [spec.name, res.value,
                                    res.diagnostics.get("gram_rank", ""),
                                    res.diagnostics.get("condition_number", ""),
                                    res.diagnostics.get("mc_standard_error", "")])
    _emit(cfg, header, rows)
    return 0


def _cmd_scan(cfg: RunConfig) -> int:
    model = cfg.model.build()
    gamma = build_mean(cfg, model)
    if not isinstance(cfg.x0, GridSpec):
        raise ConfigurationError("x0: scan requires a grid spec")
    spec = cfg.methods[0] if cfg.methods else MethodSpec("barankin_approx", {})
    grid = [np.asarray(x) for x in cfg.x0.expand()]
    report = _numerically(f"in method {spec.name!r} during scan", semicontinuity_scan,
                          model, gamma, grid, spec.name, spec.options,
                          mc_samples=cfg.mc.samples, seed=cfg.mc.seed)
    if cfg.output.path:
        _write(cfg.output.path, report.write_csv)
    header = ["x0", "value"]
    rows = [[x[0], v] for x, v in zip(report.grid, report.values)]
    if cfg.output.format == "pretty":
        _print_table(header, rows)
    print(f"largest downward jump: {report.largest_downward_jump:.6g}")
    return 0


def _cmd_reduce(cfg: RunConfig) -> int:
    model = cfg.model.build()
    gamma = build_mean(cfg, model)
    if cfg.radii is None:
        raise ConfigurationError("radii: required for reduce")
    if isinstance(cfg.x0, GridSpec):
        raise ConfigurationError("x0: reduce requires a single parameter vector")
    options = next((spec.options for spec in cfg.methods
                    if spec.name == "barankin_approx"), {})
    search = barankin_search(options)
    # each radius must leave room for test points beyond min_distance, and
    # hold the initial points
    x0 = np.asarray(cfg.x0, dtype=float)
    _section("radii", lambda: [replace(search, radius=r).region(x0) for r in cfg.radii])
    report = _numerically(f"in method 'barankin_approx' at x0={list(cfg.x0)}",
                          reduction_experiment, model, gamma, x0, cfg.radii,
                          search, mc_samples=cfg.mc.samples, seed=cfg.mc.seed)
    if cfg.output.path:
        _write(cfg.output.path, report.write_csv)
    if cfg.output.format == "pretty":
        _print_table(["radius", "value"], [[r, v] for r, v in
                                           zip(report.radii, report.values)])
    print(f"spread across radii: {report.spread:.6g}")
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    model = cfg.model.build()
    if cfg.estimator is None:
        raise ConfigurationError("estimator: required for validate")
    if cfg.mc.samples < MIN_DRAWS:
        raise ConfigurationError(f"mc.samples: validate needs at least {MIN_DRAWS} draws")
    if cfg.estimator["builtin"] == "suffstat":
        est = phi_estimator(model, cfg.estimator["component"])
    else:
        est = constant_estimator(cfg.estimator["value"])
    if not cfg.methods:
        raise ConfigurationError("methods: at least one method is required for validate")
    points = cfg.x0.expand() if isinstance(cfg.x0, GridSpec) else [cfg.x0]
    header = [f"x{k}" for k in range(model.param_dim)] + \
        ["method", "bound", "variance", "se_variance", "margin", "satisfied"]
    rows = []
    ok = True
    for x0 in points:
        report = _numerically(f"during validate at x0={list(x0)}", validate_bounds, model,
                              est, np.asarray(x0), cfg.methods, n=cfg.mc.samples,
                              seed=cfg.mc.seed)
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
    if args.command == "models":
        print(list_models())
        return 0
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, mc=replace(cfg.mc, seed=args.seed))
        if args.output is not None:
            cfg = replace(cfg, output=replace(cfg.output, path=args.output))
        if args.format is not None:
            cfg = replace(cfg, output=replace(cfg.output, format=args.format))
        handler = {"run": _cmd_run, "scan": _cmd_scan, "reduce": _cmd_reduce,
                   "validate": _cmd_validate}[args.command]
        return handler(cfg)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VarBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
