"""Monte Carlo validation of bounds against real estimators, reference-point
scans, and the shrinking-search-region experiment.

All Monte Carlo work takes explicit integer seeds; grid points and radii get
deterministic per-task seeds so results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .bounds import BarankinSearch, MethodSpec, _evaluate_grid, _lockstep, _result, \
    evaluate_bound
from .calculus import _named, _number
from .errors import ConfigurationError, DataError
from .models import ExponentialFamilyModel, MeanFunction, Model, constant_mean, \
    expfam_mean, sample


@dataclass(frozen=True)
class EstimatorSpec:
    """A deterministic estimator: a name, a batched observation map, and the
    mean function it is declared to have (needed by derivative-based bounds).

    map receives a (count, M) batch and must return a (count,) array.
    """

    name: str
    map: Callable[[np.ndarray], np.ndarray]
    declared_mean: MeanFunction | None = None


def phi_estimator(model: ExponentialFamilyModel, component: int = 0) -> EstimatorSpec:
    """The sufficient-statistic estimator, efficient for its own mean function."""
    return EstimatorSpec(
        name=f"phi[{component}]",
        map=lambda Y: np.asarray(model.phi(Y), dtype=float)[:, component],
        declared_mean=expfam_mean(model, component),
    )


def constant_estimator(c: float) -> EstimatorSpec:
    c = float(c)
    return EstimatorSpec(name=f"const[{c}]",
                         map=lambda Y: np.full(len(Y), c),
                         declared_mean=constant_mean(c))


@dataclass(frozen=True)
class EstimatorMoments:
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    n: int
    seed: int


#: Fewest draws estimator_variance_mc accepts.
MIN_DRAWS = 100


def estimator_variance_mc(model: Model, est: EstimatorSpec, x0,
                          n: int = 100_000, seed: int = 0) -> EstimatorMoments:
    """Sample mean and unbiased variance of the estimator over n draws at x0,
    with jackknife standard errors."""
    n = _named("n", _number(int, MIN_DRAWS), n)
    Y = sample(model, x0, seed, n)
    g = np.asarray(est.map(Y), dtype=float)
    if g.shape != (n,):
        raise DataError(f"estimator map returned shape {g.shape}, expected ({n},)")
    if not np.all(np.isfinite(g)):
        bad = np.where(~np.isfinite(g))[0][:10]
        raise DataError(f"non-finite estimator output at draws {bad.tolist()}")

    # equal outputs: their float mean need not be their value
    m = float(g[0]) if g.min() == g.max() else float(g.mean())
    dev = g - m
    ss = float(dev @ dev)
    variance = ss / (n - 1)
    se_mean = math.sqrt(variance / n)

    # leave-one-out variances in closed form, then the jackknife spread
    loo_ss = ss - dev ** 2 * (n / (n - 1))
    loo_var = loo_ss / (n - 2)
    se_variance = math.sqrt((n - 1) / n * float(np.sum((loo_var - loo_var.mean()) ** 2)))
    return EstimatorMoments(mean=m, variance=variance, se_mean=se_mean,
                            se_variance=se_variance, n=n, seed=seed)


@dataclass(frozen=True)
class BoundCheck:
    method: str
    bound: float
    margin: float
    threshold: float
    satisfied: bool
    diagnostics: dict


@dataclass(frozen=True)
class ValidationReport:
    estimator: str
    x0: tuple
    moments: EstimatorMoments
    checks: list[BoundCheck]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def rows(self) -> list[dict]:
        return [{"method": c.method, "bound": c.bound,
                 "variance": self.moments.variance,
                 "se_variance": self.moments.se_variance,
                 "margin": c.margin, "satisfied": c.satisfied}
                for c in self.checks]


def validate_bounds(model: Model, est: EstimatorSpec, x0,
                    bounds_config: Sequence[MethodSpec],
                    n: int = 100_000, seed: int = 0,
                    se_multiplier: float = 4.0) -> ValidationReport:
    """Check that the empirical estimator variance dominates every configured
    bound up to se_multiplier jackknife standard errors."""
    if est.declared_mean is None:
        raise ConfigurationError(
            f"estimator {est.name!r} has no declared mean function; "
            "derivative-based bounds cannot be evaluated")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    moments = estimator_variance_mc(model, est, x0, n, seed)
    checks = []
    for spec in bounds_config:
        res = evaluate_bound(model, est.declared_mean, x0, spec,
                             mc_samples=n, seed=seed)
        margin = moments.variance - res.value
        threshold = se_multiplier * moments.se_variance
        checks.append(BoundCheck(method=spec.name, bound=res.value, margin=margin,
                                 threshold=threshold, satisfied=margin >= -threshold,
                                 diagnostics=res.diagnostics))
    return ValidationReport(estimator=est.name, x0=tuple(x0), moments=moments,
                            checks=checks)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def format_float(v) -> str:
    """Full double precision: 17 significant digits."""
    return f"{float(v):.17g}"


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """UTF-8 CSV with a header row, '.' decimal separator, '\\n' line ends,
    to a file path or an open text stream (left open)."""
    with nullcontext(path) if hasattr(path, "write") else \
            open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, (int, float, np.floating))
                             and not isinstance(v, bool) else str(v) for v in row])


_DIAG_COLUMNS = ("gram_rank", "condition_number", "evaluations")


def _diag_cells(diag: dict) -> list:
    return [diag.get(k, "") for k in _DIAG_COLUMNS]


# ---------------------------------------------------------------------------
# Reference-point scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """Bound values over a grid of reference parameters."""

    grid: tuple
    values: tuple
    diagnostics: tuple
    method: str

    @property
    def largest_downward_jump(self) -> float:
        drops = [self.values[i] - self.values[i + 1] for i in range(len(self.values) - 1)]
        return max([0.0] + drops)

    def table(self) -> tuple[list, list]:
        """The CSV header and rows."""
        dim = len(self.grid[0]) if self.grid else 1
        header = [f"x{k}" for k in range(dim)] + ["value", *_DIAG_COLUMNS]
        return header, [list(x) + [v] + _diag_cells(d)
                        for x, v, d in zip(self.grid, self.values, self.diagnostics)]

    def write_csv(self, path) -> None:
        write_csv(path, *self.table())


def semicontinuity_scan(model: Model, gamma: MeanFunction, grid: Sequence,
                        bound_method: str = "barankin_approx",
                        options: dict | None = None, *,
                        mc_samples: int = 100_000, seed: int = 0) -> ScanReport:
    """Evaluate the chosen bound at each grid point taken as the reference
    parameter.  The report records values and, through
    largest_downward_jump, the worst drop between adjacent grid points.

    Grid point i uses seed `seed + i`.  The grid goes to `_evaluate_grid`
    whole: `barankin_approx` searches up to 8 grid points side by side with
    shared Gram solves (Monte Carlo: one at a time), and any other bound
    solves all its points with one stacked Gram solve; values, diagnostics
    and errors are those of each point alone.

    This illustrates how the bound varies with the reference point; it is a
    numerical scan, not a certificate of continuity.
    """
    grid_pts = tuple(np.atleast_1d(np.asarray(x, dtype=float)) for x in grid)
    results = map(_result, _evaluate_grid(model, gamma, grid_pts, MethodSpec(
        bound_method, options or {}), range(seed, seed + len(grid_pts)), mc_samples))
    values, diagnostics = [], []
    for x, res in zip(grid_pts, results):
        if not math.isfinite(res.value) or res.value < 0:
            raise DataError(f"scan produced invalid value {res.value} at grid point {x}")
        values.append(res.value)
        diagnostics.append(res.diagnostics)
    return ScanReport(grid=tuple(tuple(x) for x in grid_pts), values=tuple(values),
                      diagnostics=tuple(diagnostics), method=bound_method)


# ---------------------------------------------------------------------------
# Shrinking search-region experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    """Best test-point projections when the search is confined to balls of
    several radii around x0, plus the spread across radii."""

    x0: tuple
    radii: tuple
    values: tuple
    diagnostics: tuple

    @property
    def spread(self) -> float:
        return max(self.values) - min(self.values) if self.values else 0.0

    def table(self) -> tuple[list, list]:
        """The CSV header and rows."""
        return ["radius", "value", *_DIAG_COLUMNS], [
            [r, v] + _diag_cells(d)
            for r, v, d in zip(self.radii, self.values, self.diagnostics)]

    def write_csv(self, path) -> None:
        write_csv(path, *self.table())


def reduction_experiment(model: Model, gamma: MeanFunction, x0,
                         radii: Sequence[float],
                         search: BarankinSearch | None = None, *,
                         mc_samples: int = 100_000, seed: int = 0) -> ReductionReport:
    """Run the test-point search with points confined to balls of each radius.

    Radius j uses seed `seed + j`.  Up to 8 radii are searched side by side
    with shared Gram solves (Monte Carlo: one at a time); values, diagnostics
    and errors are those of each radius alone.

    When the best achievable projection is attained by test points arbitrarily
    close to x0, every radius gives the same value and the spread is small.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    base = search if search is not None else BarankinSearch()

    results = list(map(_result, _lockstep(model, gamma, (
        (x0, replace(base, radius=r, seed=seed + j)) for j, r in enumerate(radii)), mc_samples)))
    return ReductionReport(x0=tuple(x0), radii=tuple(float(r) for r in radii),
                           values=tuple(res.value for res in results),
                           diagnostics=tuple(res.diagnostics for res in results))
