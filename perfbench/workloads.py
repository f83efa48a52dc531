"""The benchmark workloads.  Each is a fixed list of public-API calls whose
inputs are drawn from the workload seed; NOTES.md says why each exists.

A `Call` separates the timed public call (`run`) from the untimed extraction
of its bound values and their reference checks (`checks`).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import yaml

import varbounds as vb
import varbounds.cli as vb_cli

from reference import Check, closed_check, mc_check, min_variance

FAMILIES = ("gaussian-mean", "poisson", "bernoulli", "exponential-rate")
MC_SAMPLES = 100_000
RADII = (0.25, 1.0, 4.0)
#: Seeded single searches per family, lighter than the default search so
#: the call list holds enough calls for a latency tail; they still reach
#: the minimum variance to about 1e-9.
SEARCHES_PER_FAMILY = 12
SEARCH = {"restarts": 2, "halvings": 6, "max_points": 3}
GRIDS_PER_FAMILY = 8


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[], object]
    checks: Callable[[object], list[Check]]


def _api(name: str, *args, **kwargs) -> Callable[[], object]:
    """A public varbounds call that looks the function up when it runs, so a
    traced run reaches the wrapper bound in the package namespace."""
    def call():
        return getattr(vb, name)(*args, **kwargs)
    return call


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _mean(family: str):
    model = vb.make_model(family)
    return model, vb.expfam_mean(model)


def _stratified(rng, lo: float, hi: float, count: int) -> list[float]:
    """One seed-drawn point in each of `count` equal slices of [lo, hi], so
    the spread of x0, and of the work it causes, differs little by seed."""
    width = (hi - lo) / count
    return [float(lo + (k + rng.uniform()) * width) for k in range(count)]


def _exp_box(x0: float, lower: float) -> dict:
    # every pair sum x1 + x2 - x0 of points <= x0/2 stays in the natural
    # space x < 0 of exponential-rate, so no kernel evaluation is undefined
    return {"lower": (x0 - lower,), "upper": (x0 / 2.0,)}


# ---------------------------------------------------------------------------
# closed_search: closed-form Barankin searches
# ---------------------------------------------------------------------------

def _scan_checks(report) -> list[Check]:
    return [closed_check(f"scan:x0={x[0]:+.2f}", 1.0, v, "scan")
            for x, v in zip(report.grid, report.values)]


def _reduction_checks(family: str, report) -> list[Check]:
    ref = min_variance(family, [0.0])
    return [closed_check(f"reduction:{family}:r={r:g}", ref, v, f"reduction:{family}")
            for r, v in zip(report.radii, report.values)]


def _single_check(case: str, reference: float, kind: str, result) -> list[Check]:
    return [closed_check(case, reference, result.value, kind)]


def closed_search(rng, tmpdir: str) -> list[Call]:
    gauss, identity = vb.gaussian_mean(), vb.identity_mean()
    # acceptance 9 and 7 exactly as the tests state them
    grid = [np.array([v]) for v in np.linspace(-2.0, 2.0, 41)]
    calls = [Call("scan:gaussian-mean",
                  _api("semicontinuity_scan", gauss, identity, grid, seed=0),
                  _scan_checks)]
    pois, pois_mean = _mean("poisson")
    for family, model, gamma in (("gaussian-mean", gauss, identity),
                                 ("poisson", pois, pois_mean)):
        calls.append(Call(f"reduction:{family}",
                          _api("reduction_experiment", model, gamma, [0.0], RADII, seed=3),
                          partial(_reduction_checks, family)))
    ranges = {"gaussian-mean": (-2.0, 2.0), "poisson": (-1.5, 1.5),
              "bernoulli": (-2.0, 2.0), "exponential-rate": (-2.0, -0.5)}
    for family in FAMILIES:
        model, gamma = _mean(family)
        for k, x0 in enumerate(_stratified(rng, *ranges[family], SEARCHES_PER_FAMILY)):
            box = _exp_box(x0, 2.0) if family == "exponential-rate" else {}
            search = vb.BarankinSearch(seed=_seed(rng), **SEARCH, **box)
            case = f"barankin:{family}:{k}:x0={x0:+.4f}"
            calls.append(Call(case, _api("barankin_approx", model, gamma, [x0], search),
                              partial(_single_check, case, min_variance(family, [x0]),
                                      "barankin_approx")))
    return calls


# ---------------------------------------------------------------------------
# mc_route: the same bounds through as_generic and Monte Carlo kernels
# ---------------------------------------------------------------------------

def _mc_single(case: str, reference: float, result) -> list[Check]:
    return [mc_check(case, reference, result.value)]


def mc_route(rng, tmpdir: str) -> list[Call]:
    # the two ROADMAP item-3 repros of the Poisson overestimate, at fixed
    # inputs so the known defect is counted at every workload seed
    pois, pois_mean = _mean("poisson")
    generic = vb.as_generic(pois)
    calls = [
        Call("mc:poisson:repro-barankin:x0=+0.0000",
             _api("barankin_approx", generic, pois_mean, [0.0],
                  vb.BarankinSearch(restarts=1, halvings=3, max_points=2),
                  mc_samples=MC_SAMPLES, seed=1),
             partial(_mc_single, "mc:poisson:repro-barankin:x0=+0.0000", 1.0)),
        Call("mc:poisson:repro-hcrb:x0=+0.0000",
             _api("hcrb", generic, pois_mean, [0.0], vb.TestPointSet([[3.0]]),
                  mc_samples=MC_SAMPLES),
             partial(_mc_single, "mc:poisson:repro-hcrb:x0=+0.0000", 1.0)),
    ]
    for family in FAMILIES:
        model, gamma = _mean(family)
        generic = vb.as_generic(model)
        centre = -1.0 if family == "exponential-rate" else 0.0
        x0 = float(centre + rng.uniform(-0.3, 0.3))
        ref = min_variance(family, [x0])
        box = _exp_box(x0, 1.5) if family == "exponential-rate" else {}
        # the ROADMAP item-3 repro shape, one sweep per step size so that the
        # number of objective evaluations, and the run time, varies little
        # with the seed
        search = vb.BarankinSearch(restarts=1, halvings=3, max_points=2,
                                   max_sweeps_per_level=1, seed=_seed(rng), **box)
        entries = [("barankin", _api("barankin_approx", generic, gamma, [x0], search,
                                     mc_samples=MC_SAMPLES))]
        # six one-point and two two-point test sets, at stratified distances
        offsets = np.array(_stratified(rng, 0.1, 1.0, 6)) * np.array([1, -1] * 3)
        if family == "exponential-rate":
            offsets = np.where(offsets > 0, offsets * 0.45 * abs(x0), offsets)
        points = [[x0 + float(d)] for d in offsets]
        sets = [[p] for p in points] + [points[0:2], points[2:4]]
        for j, pts in enumerate(sets):
            entries.append((f"hcrb{j}", _api("hcrb", generic, gamma, [x0],
                                             vb.TestPointSet(pts),
                                             mc_samples=MC_SAMPLES, seed=_seed(rng))))
        entries.append(("crb", _api("crb", generic, gamma, [x0], n_mc=MC_SAMPLES,
                                    seed=_seed(rng))))
        entries.append(("bhattacharyya", _api("bhattacharyya", generic, gamma, [x0],
                                              [(1,), (2,)], n_mc=MC_SAMPLES,
                                              seed=_seed(rng))))
        for name, fn in entries:
            case = f"mc:{family}:{name}:x0={x0:+.4f}"
            calls.append(Call(case, fn, partial(_mc_single, case, ref)))
    return calls


# ---------------------------------------------------------------------------
# cli_batch: in-process CLI invocations
# ---------------------------------------------------------------------------

class ExitCodeError(Exception):
    """The CLI returned a non-zero exit code."""


def _run_cli(argv: list[str]) -> None:
    code = vb_cli.main(argv)
    if code != 0:
        raise ExitCodeError(f"exit code {code}")


def _cli_checks(family: str, value_column: str, reference, csv_path: str,
                _result) -> list[Check]:
    out = []
    with open(csv_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            x0 = [float(v) for k, v in row.items() if k.startswith("x") and k[1:].isdigit()]
            method = row["method"]
            case = f"cli:{family}:x0={','.join(f'{v:+.4f}' for v in x0)}:{method}"
            ref = reference(method, x0)
            out.append(closed_check(case, ref, float(row[value_column]), method))
    return out


def _write_config(tmpdir: str, name: str, config: dict) -> tuple[str, str]:
    cfg_path = os.path.join(tmpdir, f"{name}.yaml")
    csv_path = os.path.join(tmpdir, f"{name}.csv")
    config["output"] = {"path": csv_path, "format": "csv"}
    with open(cfg_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh)
    return cfg_path, csv_path


def _cli_call(tmpdir: str, command: str, family: str, name: str, config: dict,
              value_column: str, reference) -> Call:
    cfg_path, csv_path = _write_config(tmpdir, name, config)
    return Call(f"cli:{command}:{name}", partial(_run_cli, [command, "--config", cfg_path]),
                partial(_cli_checks, family, value_column, reference, csv_path))


def _expfam_reference(family: str, method: str, x0) -> float:
    return min_variance(family, x0)


def _nd_reference(method: str, x0) -> float:
    # identity mean of component 0 under the constraint x_0 = x_1 (acceptance 4)
    return 0.5 if method == "constrained_crb" else 1.0


def cli_batch(rng, tmpdir: str) -> list[Call]:
    starts = {"gaussian-mean": (-2.0, 1.0), "poisson": (-1.5, 0.0),
              "bernoulli": (-2.0, 1.0), "exponential-rate": (-2.5, -2.0)}
    calls = []
    for family in FAMILIES:
        for g, a in enumerate(_stratified(rng, *starts[family], GRIDS_PER_FAMILY)):
            # two test points at midpoints between grid values: off the grid,
            # and for exponential-rate below every x0/2, so every kernel pair
            # exists
            mids = sorted(a + 0.125 + 0.25 * int(k) for k in rng.choice(4, 2, replace=False))
            config = {
                "model": {"family": family},
                "mean_function": {"builtin": "expfam-mean"},
                "x0": {"grid": {"start": a, "stop": a + 1.0, "count": 5}},
                "methods": [{"name": "crb"}, {"name": "expfam_crb"},
                            {"name": "expfam_moment", "indices": [[0], [1], [2], [3]]},
                            {"name": "bhattacharyya", "indices": [[1], [2], [3], [4]]},
                            {"name": "hcrb", "points": [[m] for m in mids]}],
            }
            calls.append(_cli_call(tmpdir, "run", family, f"run-{family}-{g}", config,
                                   "value", partial(_expfam_reference, family)))
    for g in range(4):
        x0 = [float(v) for v in rng.uniform(-1.0, 1.0, size=2)]
        config = {"model": {"family": "gaussian-mean-nd"},
                  "mean_function": {"builtin": "identity"}, "x0": x0,
                  "methods": [{"name": "constrained_crb", "constraint": [[1.0, -1.0]]},
                              {"name": "crb"}]}
        calls.append(_cli_call(tmpdir, "run", "gaussian-mean-nd",
                               f"run-gaussian-mean-nd-{g}", config, "value", _nd_reference))
    for family in ("gaussian-mean", "poisson"):
        for g, x0 in enumerate(_stratified(rng, -0.5, 0.7, 2)):
            config = {"model": {"family": family}, "x0": [x0],
                      "estimator": {"builtin": "suffstat"},
                      "mc": {"samples": MC_SAMPLES, "seed": _seed(rng)},
                      "methods": [{"name": "crb"}, {"name": "expfam_crb"},
                                  {"name": "expfam_moment", "indices": [[1]]},
                                  {"name": "bhattacharyya", "indices": [[1], [2]]},
                                  {"name": "hcrb", "points": [[x0 + 0.01]]}]}
            calls.append(_cli_call(tmpdir, "validate", family, f"validate-{family}-{g}",
                                   config, "bound", partial(_expfam_reference, family)))
    return calls


WORKLOADS = {"closed_search": closed_search, "mc_route": mc_route, "cli_batch": cli_batch}


def build(name: str, seed: int, tmpdir: str) -> list[Call]:
    """The call list of one workload; the same seed gives the same inputs."""
    return WORKLOADS[name](np.random.default_rng(seed), tmpdir)
