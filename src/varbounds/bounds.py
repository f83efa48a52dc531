"""Variance lower bounds realized as orthogonal projections onto subspaces
spanned by kernel evaluations, kernel differences, or kernel derivatives.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .calculus import FDConfig, MultiIndex, _leibniz_terms, _named, _number, _vector, \
    as_index, moment_table
from .errors import ConfigurationError, ConstraintRankError, DomainError, \
    KernelEvaluationError, NaturalSpaceError
from .kernel import DerivBasis, DiffBasis, KernelEvaluator, _dot_matrix, _make_evaluator, _result, \
    _solve, difference_block, gram, gram_rhs
from .models import ExponentialFamilyModel, MeanFunction, Model, as_param, mean_partial

#: Largest total order of a derivative multi-index.
MAX_INDEX_ORDER = 4


@dataclass(frozen=True)
class BoundResult:
    """A variance lower bound with its method tag and numerical diagnostics."""

    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.value >= 0.0:
            raise ValueError(f"bound value must be nonnegative, got {self.value}")


@dataclass(frozen=True)
class TestPointSet:
    """Finite, distinct parameter vectors of one length, other than x0, for difference bases."""

    __test__ = False  # not a pytest case despite the name

    points: tuple

    def __init__(self, points: Sequence):
        pts: list[np.ndarray] = []
        for p in points:
            pts.append(np.array(_named("points", _vector, p, len(pts[0]) if pts else None)))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.max(np.abs(pts[i] - pts[j]), initial=0.0) < 1e-12:
                    raise ValueError(f"duplicate test points at positions {i} and {j}")
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self) -> int:
        return len(self.points)


def _clamped(value: float, rank: int, condition_number: float,
             min_eigenvalue: float) -> tuple[float, dict]:
    """A projection value clamped at zero, with the Gram diagnostics every
    bound reports."""
    diagnostics = {"gram_rank": rank, "condition_number": condition_number,
                   "min_eigenvalue": min_eigenvalue}
    if value < 0.0:
        diagnostics["clamped_negative"] = True
        value = 0.0
    return value, diagnostics


#: A quadratic bound up to its solve: rhs' matrix^+ rhs - offset, and the
#: diagnostics it reports beside the Gram ones
_System = namedtuple("_System", "matrix rhs extra offset", defaults=({}, 0.0))


def _quadratic_bounds(method: str, systems: Sequence[_System], pinv_tol) -> list:
    """The BoundResult of each system, or the exception it raises alone; the
    systems of a grid share one `_solve`."""
    outcomes = []
    solved = _solve([s.matrix for s in systems], [s.rhs for s in systems], pinv_tol)
    for (_, _, extra, offset), solution in zip(systems, solved):
        try:
            value, diagnostics = _clamped(_result(solution)[0] - offset, *solution[1:])
            outcomes.append(BoundResult(value, method, {**diagnostics, **extra}))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _quadratic_bound(method: str, system: _System, pinv_tol) -> BoundResult:
    return _result(_quadratic_bounds(method, [system], pinv_tol)[0])


# ---------------------------------------------------------------------------
# Kernel-derivative bounds: Cramer-Rao, constrained Cramer-Rao, Bhattacharyya
# ---------------------------------------------------------------------------

def _validate_indices(indices, N, min_order=1) -> list[MultiIndex]:
    idxs = [as_index(p, dim=N) for p in indices]
    if not idxs:
        raise ValueError("at least one multi-index is required")
    if len(set(idxs)) != len(idxs):
        raise ValueError("multi-indices must be distinct")
    for p in idxs:
        if not min_order <= p.order <= MAX_INDEX_ORDER:
            raise ValueError(f"multi-index {tuple(p)} has order {p.order}, outside "
                             f"{min_order}..{MAX_INDEX_ORDER}")
    return idxs


def _unit_indices(N: int) -> list[MultiIndex]:
    return [MultiIndex.unit(N, k) for k in range(N)]


def _deriv_system(model: Model, gamma: MeanFunction, x0, indices=None, F=None, *,
                  n_mc: int = 100_000, seed: int = 0, cfg: FDConfig | None = None,
                  expfam: str | None = None) -> _System:
    """a' B^+ a with a the mean-function partials and B the `gram` of the
    derivative basis at the indices (None: the unit ones), restricted to the
    null space of the constraint Jacobian F when F has rows; tagged with the
    evaluator's route.  TypeError naming the method `expfam` unless the model
    is an exponential family."""
    if expfam and not isinstance(model, ExponentialFamilyModel):
        raise TypeError(f"{expfam} requires an ExponentialFamilyModel")
    x0 = as_param(model, x0)
    basis = [DerivBasis(p) for p in (_unit_indices(model.param_dim) if indices is None else
                                      _named("indices", _validate_indices, indices,
                                             model.param_dim))]
    evaluator = _make_evaluator(model, x0, n_mc, seed)
    a, B = gram_rhs(evaluator, basis, gamma), gram(evaluator, basis, cfg)
    extra = evaluator.diagnostics()
    if isinstance(model, ExponentialFamilyModel) and model.closed_moments is None:
        extra["moment_fd_fallback"] = True
    if F is not None and np.size(F) != 0:
        U = null_space_onb(F)
        B, a, extra = U.T @ B @ U, U.T @ a, {"null_space_dim": U.shape[1], **extra}
    return _System(B, a, extra)


def fisher_info(model: Model, x0, n_mc: int = 100_000, seed: int = 0,
                cfg: FDConfig | None = None) -> np.ndarray:
    """Fisher information matrix at x0: the derivative Gram over the unit
    indices.

    For a canonical exponential family that is the covariance of the
    sufficient statistic, exact from moments.  Otherwise it is the Monte
    Carlo mean of the outer products of the likelihood-ratio gradients.
    """
    evaluator = _make_evaluator(model, as_param(model, x0), n_mc, seed)
    return gram(evaluator, [DerivBasis(p) for p in _unit_indices(model.param_dim)], cfg)


def crb(model: Model, gamma: MeanFunction, x0, *, n_mc: int = 100_000, seed: int = 0,
        pinv_tol: float = 1e-10) -> BoundResult:
    """Cramer-Rao bound b' J^+ b with b the mean-function gradient."""
    return _quadratic_bound("crb", _deriv_system(model, gamma, x0, n_mc=n_mc, seed=seed),
                            pinv_tol)


def null_space_onb(F) -> np.ndarray:
    """Orthonormal basis of the null space of a full-row-rank constraint Jacobian."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Q, N = F.shape
    if Q > N:
        raise ConstraintRankError(f"more constraints ({Q}) than parameters ({N})")
    _, s, vt = np.linalg.svd(F)
    if s[-1] <= 1e-10 * s[0]:
        raise ConstraintRankError(
            "constraint Jacobian is rank deficient; constraints are redundant")
    return vt[Q:].T


def constrained_crb(model: Model, gamma: MeanFunction, x0, F=None, *,
                    n_mc: int = 100_000, seed: int = 0,
                    pinv_tol: float = 1e-10) -> BoundResult:
    """Cramer-Rao bound restricted to the null space of the constraint Jacobian F.

    F=None (or zero rows) means no constraints and reduces to the plain bound.
    """
    return _quadratic_bound("constrained_crb", _deriv_system(model, gamma, x0, None, F,
                                                             n_mc=n_mc, seed=seed), pinv_tol)


def bhattacharyya(model: Model, gamma: MeanFunction, x0, indices, *,
                  n_mc: int = 100_000, seed: int = 0,
                  pinv_tol: float = 1e-10) -> BoundResult:
    """Higher-order derivative bound a' B^+ a.

    a stacks partial derivatives of the mean function at x0; B collects the
    inner products of the kernel derivative functions, exact from moments for
    exponential families with closed-form moments.  For other models B is
    estimated by Monte Carlo from finite-difference likelihood-ratio
    derivatives, which caps usable orders at 2 per index.
    """
    return _quadratic_bound("bhattacharyya", _deriv_system(model, gamma, x0, indices, n_mc=n_mc,
                                                           seed=seed), pinv_tol)


# ---------------------------------------------------------------------------
# Hammersley-Chapman-Robbins and Barankin
# ---------------------------------------------------------------------------

def _kernel_rows(evaluator: KernelEvaluator, gamma: MeanFunction,
                 configurations: Sequence) -> list:
    """Per configuration, what projecting the centered mean onto the kernel
    differences R(., x) - R(., x0) at its rows x takes: the kernel over [x0,
    *points] and the centered mean gamma(x) - gamma(x0) at the points, or
    None where kernel or gamma is undefined (NaturalSpaceError,
    KernelEvaluationError); an overflow on the way to that answer is not
    warned about.  One `pairwise` per configuration, not one stacked kernel:
    `perfbench/selfcheck.py`, a CI step, requires
    `kernel.expfam_pairwise.calls >= bounds.objective_evals`.  The bounds
    without a search solve a whole grid of reference points at once
    instead, through `_evaluate_grid`."""
    evaluator.reserve(sum(map(len, configurations)) + len(configurations))
    x0, first = evaluator.x0, evaluator.x0[None]
    g0 = None
    rows = []
    with np.errstate(over="ignore"):
        for points in configurations:
            points = np.asarray(points, dtype=float)
            try:
                K = evaluator.pairwise(np.concatenate((first, points)))
                if g0 is None:
                    g0 = float(gamma.value(x0))
                rows.append((K, [float(gamma.value(x)) - g0 for x in points]))
            except (NaturalSpaceError, KernelEvaluationError):
                rows.append(None)
    return rows


def _solve_rows(rows: Sequence, pinv_tol: float) -> list:
    """The `_solve` outcome of each row of `_kernel_rows`, in order (None for
    None): per point count, the block formula and one `_solve` over its rows."""
    outcomes = [None] * len(rows)
    counts: dict[int, list[int]] = {}  # point count -> positions of its rows
    for i, row in enumerate(rows):
        if row is not None:
            counts.setdefault(len(row[1]), []).append(i)
    for at in counts.values():
        for i, outcome in zip(at, _solve(difference_block(np.array([rows[i][0] for i in at])),
                                         [rows[i][1] for i in at], pinv_tol)):
            outcomes[i] = outcome
    return outcomes


def hcrb(model: Model, gamma: MeanFunction, x0, tps: TestPointSet, *,
         mc_samples: int = 100_000, seed: int = 0,
         pinv_tol: float = 1e-10) -> BoundResult:
    """Test-point bound m' V^+ m built from the difference basis at the
    supplied test points."""
    return _quadratic_bound("hcrb", _hcrb_system(model, gamma, x0, tps, mc_samples=mc_samples,
                                                 seed=seed, pinv_tol=pinv_tol), pinv_tol)


def _hcrb_system(model: Model, gamma: MeanFunction, x0, tps: TestPointSet, *,
                 mc_samples: int, seed: int, pinv_tol: float) -> _System:
    x0 = as_param(model, x0)
    _named("points", _points, tps, len(x0))  # as the CLI checks them: one or more, x0's length
    for p in tps.points:
        if np.max(np.abs(p - x0), initial=0.0) < 1e-12:
            raise DomainError(f"hcrb: test point {p.tolist()} equals "
                              f"the reference parameter x0={x0.tolist()}")
    evaluator = _make_evaluator(model, x0, mc_samples, seed)
    basis = [DiffBasis(p) for p in tps.points]
    with np.errstate(over="ignore"):  # a point outside the natural space raises below
        G, rhs = gram(evaluator, basis), gram_rhs(evaluator, basis, gamma)
        return _System(G, rhs, {"n_test_points": len(tps),
                                **evaluator.diagnostics(gamma, tps.points, pinv_tol)})


@dataclass(frozen=True)
class BarankinSearch:
    """Search configuration for the test-point supremum.

    The search hill-climbs each test-point coordinate with an absolute step
    that halves after every stalled sweep level, restarting from random point
    sets.  `halvings` is the most step levels a start runs; a start that has
    converged ends earlier (see `barankin_approx`).  Points closer than
    min_distance to x0 are rejected, as are points outside the ball of the
    given radius around x0 or the optional box.
    """

    initial_points: TestPointSet | None = None
    max_points: int = 4
    restarts: int = 5
    initial_step: float = 0.5
    halvings: int = 8
    max_sweeps_per_level: int = 40
    seed: int = 0
    radius: float | None = 3.0
    lower: tuple | None = None
    upper: tuple | None = None
    min_distance: float = 1e-6

    def __post_init__(self):
        for key, (check, _) in _SEARCH_OPTIONS.items():  # each as the option of its name
            if key != "initial_points" and getattr(self, key) is not None:
                object.__setattr__(self, key, _named(key, check, getattr(self, key), None))
        if self.restarts < 1 and not self.initial_points:
            raise ConfigurationError("restarts must be >= 1 when no initial_points are given")
        if self.radius is not None and self.radius < self.min_distance:
            raise ConfigurationError(f"radius {self.radius} is below min_distance "
                                     f"{self.min_distance}, so no test point is allowed")
        if self.lower is not None and self.upper is not None and np.greater(
                self.lower, _named("upper", _vector, self.upper, len(self.lower))).any():
            raise ConfigurationError(f"lower {self.lower} exceeds upper {self.upper}: empty box")

    def region(self, x0: np.ndarray) -> Callable[[np.ndarray], bool]:
        """Whether a point may be a test point of this search around x0: at
        least min_distance from x0, within the radius and inside the box.
        ConfigurationError if the box or an initial point is not as long as
        x0, DomainError if an initial point may not be a test point."""
        lower, upper = (b if b is None else np.array(_named(key, _vector, b, len(x0)))
                        for key, b in (("lower", self.lower), ("upper", self.upper)))
        min_distance, radius = self.min_distance, self.radius

        def in_domain(pt: np.ndarray) -> bool:
            dx = pt - x0
            distance = math.sqrt(dx.dot(dx))  # bitwise np.linalg.norm(dx)
            return not (distance < min_distance or radius is not None and distance > radius
                        or lower is not None and (pt < lower).any()
                        or upper is not None and (pt > upper).any())

        with np.errstate(over="ignore"):  # a distance too large to measure is beyond any radius
            for p in self.initial_points.points if self.initial_points else ():
                _named("initial_points", _vector, p, len(x0))
                if not in_domain(p):
                    raise DomainError(
                        f"barankin_approx: initial point {p.tolist()} lies outside the search "
                        f"region (min_distance {min_distance}, radius {radius}, lower "
                        f"{self.lower}, upper {self.upper}) at x0={x0.tolist()}")
        return in_domain


def _remembering_values(gamma: MeanFunction) -> MeanFunction:
    """gamma with each value computed once per point, for one search."""
    values: dict[bytes, float] = {}

    def value(x: np.ndarray):
        key = x.tobytes()
        v = values.get(key)
        if v is None:
            v = values[key] = gamma.value(x)
        return v

    return MeanFunction(value=value, derivative=gamma.derivative)


def barankin_approx(model: Model, gamma: MeanFunction, x0,
                    search: BarankinSearch | None = None, *,
                    mc_samples: int = 100_000, seed: int | None = None,
                    pinv_tol: float = 1e-10) -> BoundResult:
    """Best test-point projection found by coordinate search with restarts.

    Each start (the initial points, then one random point set per restart)
    climbs on its own: it moves each coordinate of each point by +step and
    then -step, keeps the first proposal that beats its current value, and
    halves the step after a sweep that kept none.  It runs at most
    `search.halvings` step levels, and ends earlier once a level and the
    last earlier level that raised its value each raised it by at most
    `_CONVERGED` (1e-9) of the value, so a start at value 0 never ends early.
    That is far below the ~1e-7 rounding of the projections the search
    maximises; the value can be up to about 1e-9 (relative) below that of
    running every level.  `diagnostics["search_trace"]` gives each start's
    final value and the step `levels` it ran.  The starts run in lockstep.
    A proposal of a configuration the search has computed is answered at
    once; the distinct new configurations the starts propose next are
    computed together, their rows of each point count in one stacked Gram
    solve (`diagnostics["gram_stacks"]` counts them).  So each distinct
    configuration is computed once: `diagnostics["evaluations"]` counts the
    computed ones and `diagnostics["revisits"]` the other proposals.

    The reported value is the largest value of any proposal, so it never
    decreases as the search proceeds.  A start keeps only a proposal that
    beats its value, and the best is the configuration the first start of
    the largest value kept, so the value, `best_points` and the Gram
    diagnostics are those of running the starts one after the other.  An
    initial point outside `search.region(x0)` is a DomainError; a failed
    solve's error names x0 and the test points.
    """
    cfg = search if search is not None else BarankinSearch()
    cfg = cfg if seed is None else replace(cfg, seed=seed)
    return _result(next(_lockstep(model, gamma, [(x0, cfg)], mc_samples, pinv_tol)))


#: Most closed-form searches `_lockstep` runs at once; each holds its memo.
_WINDOW = 8

#: Largest gain per step level, as a share of its value, of a converged start.
_CONVERGED = 1e-9


def _lockstep(model: Model, gamma: MeanFunction, problems: Iterable,
              mc_samples: int = 100_000, pinv_tol: float = 1e-10):
    """Yields `barankin_approx(model, gamma, x0, search)` for each `(x0,
    search)` of `problems` in order, bit for bit, or the error the serial
    loop raises where it raises it, and then ends.  Up to `_WINDOW`
    closed-form searches (Monte Carlo: one) climb side by side, the rows of
    each step solved together in `_solve_rows`; a search whose solve failed
    raises that configuration's own error, and after a failure no further
    search starts."""
    window = _WINDOW if isinstance(model, ExponentialFamilyModel) else 1
    searches = (_search(model, gamma, x0, cfg, mc_samples, pinv_tol) for x0, cfg in problems)
    running: dict[int, tuple] = {}  # position -> search, the rows it waits on
    ended: dict[int, object] = {}  # position -> BoundResult or exception
    started = done = 0

    def advance(i: int, search, outcomes: list | None = None) -> None:
        nonlocal window
        try:
            running[i] = search, search.send(outcomes)
        except StopIteration as stop:
            ended[i] = stop.value
        except Exception as exc:
            ended[i], window = exc, 0  # no search starts after a failure

    while True:
        while len(running) < window:
            started += 1
            try:
                advance(started - 1, next(searches))
            except StopIteration:
                window = 0  # no problem left
            except Exception as exc:  # `problems` failed
                ended[started - 1], window = exc, 0
        while done in ended:
            outcome = ended.pop(done)
            done += 1
            yield outcome
            if isinstance(outcome, Exception):
                return
        if not running:
            return
        stepping, running = running, {}
        outcomes = iter(_solve_rows([row for _, rows in stepping.values() for row in rows],
                                    pinv_tol))
        for i, (search, rows) in stepping.items():
            advance(i, search, [next(outcomes) for _ in rows])


def _search(model: Model, gamma: MeanFunction, x0, cfg: BarankinSearch,
            mc_samples: int, pinv_tol: float):
    """One Barankin search as `_lockstep` runs it: each step yields the rows
    of the distinct new configurations its starts propose, is resumed with
    their outcomes, and at its end returns the BoundResult."""
    x0 = as_param(model, x0)
    evaluator = _make_evaluator(model, x0, mc_samples, cfg.seed)
    in_domain = cfg.region(x0)
    lo = np.asarray(cfg.lower, dtype=float) if cfg.lower is not None else x0 - (cfg.radius or 1.0)
    hi = np.asarray(cfg.upper, dtype=float) if cfg.upper is not None else x0 + (cfg.radius or 1.0)
    region = f"sampling box from {lo.tolist()} to {hi.tolist()}" + (
        f" within radius {cfg.radius}" if cfg.radius is not None else "")
    if np.any(lo > hi):
        raise DomainError(f"barankin_approx: empty {region} at x0={x0.tolist()}")
    # `in_domain` must measure the squared distance of each point drawn, and of
    # each proposal one step from a point of a bounded region, without overflow
    reach = [max(x - a, b - x) + cfg.initial_step
             for x, a, b in zip(x0.tolist(), lo.tolist(), hi.tolist())]
    if math.isinf(sum(r * r for r in reach)):
        raise DomainError(f"barankin_approx: {region} with initial_step {cfg.initial_step} "
                          f"too wide to measure at x0={x0.tolist()}")

    def random_points(rng) -> np.ndarray | None:
        pts = np.empty((cfg.max_points, len(x0)))
        for l in range(cfg.max_points):
            for _ in range(100):
                cand = rng.uniform(lo, hi)
                if in_domain(cand):
                    pts[l] = cand
                    break
            else:
                return None
        return pts

    starts: list[np.ndarray] = []
    if cfg.initial_points:
        starts.append(np.vstack([np.atleast_1d(p) for p in cfg.initial_points.points]))
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        pts = random_points(rng)
        if pts is not None:
            starts.append(pts)
    if not starts:
        raise DomainError(f"barankin_approx: no start drawn in the {region} "
                          f"at x0={x0.tolist()}")

    def climb(pts: np.ndarray):
        """One start's search: yields each proposal, receives its value (None:
        kernel undefined) and returns its final value, the largest it
        proposed, the step levels it ran and the first proposal of that value."""
        current = yield pts
        if current is None:
            # invalid start (kernel undefined there): any valid move wins
            current = -math.inf
        step, last_gain, levels = cfg.initial_step, math.inf, 0
        for levels in range(1, cfg.halvings + 1):
            before = current
            for _sweep in range(cfg.max_sweeps_per_level):
                improved = False
                for l, k in np.ndindex(pts.shape):
                    for direction in (1.0, -1.0):
                        cand = pts.copy()
                        cand[l, k] += direction * step
                        if not in_domain(cand[l]):
                            continue
                        value = yield cand
                        if value is not None and value > current:
                            pts, current, improved = cand, value, True
                if not improved:
                    break
            step *= 0.5
            gain = current - before if before > -math.inf else math.inf
            if max(gain, last_gain) <= _CONVERGED * current:
                break
            if gain > 0:
                last_gain = gain
        return current, levels, pts

    gamma = _remembering_values(gamma)
    # `_solve_rows` outcome of each configuration computed (None: undefined)
    seen: dict[bytes, tuple | None] = {}
    evaluations = revisits = gram_stacks = 0
    climbs = [climb(pts) for pts in starts]
    finals: list = [None] * len(climbs)  # each start's (value, levels, points)

    def answer(i: int, result) -> np.ndarray | None:
        """Start i's next proposal after one of `result`, or None at its end."""
        try:  # the value is clamped at zero
            return climbs[i].send(None if result is None else max(result[0], 0.0))
        except StopIteration as stop:
            finals[i] = stop.value
            return None

    pending = {i: next(c) for i, c in enumerate(climbs)}  # start -> its proposal
    while pending:
        new: dict[bytes, tuple[np.ndarray, list[int]]] = {}  # key -> pts, starts
        for i, pts in pending.items():
            while pts is not None:
                key = pts.tobytes()
                if key not in seen:
                    if key in new:
                        revisits += 1
                    new.setdefault(key, (pts, []))[1].append(i)
                    break
                revisits += 1
                pts = answer(i, seen[key])
        if not new:  # the last starts ended on proposals the search had computed
            break
        rows = _kernel_rows(evaluator, gamma, [pts for pts, _ in new.values()])
        outcomes = yield rows  # the driver solves them
        evaluations += len(rows)
        # one solve per point count among the configurations with a kernel
        gram_stacks += len({len(row[1]) for row in rows if row is not None})
        pending = {}
        for (key, (pts, waiting)), result in zip(new.items(), outcomes):
            if isinstance(result, ConfigurationError):
                raise result
            if isinstance(result, Exception):  # a failed solve ends the search here
                raise type(result)(f"{result} at x0={x0.tolist()} with test points "
                                   f"{pts.tolist()}") from result
            seen[key] = result
            for i in waiting:
                nxt = answer(i, result)
                if nxt is not None:
                    pending[i] = nxt

    if all(result is None for result in seen.values()):
        raise DomainError(f"barankin_approx: kernel or mean undefined at all {evaluations} "
                          f"configurations computed in the {region} at x0={x0.tolist()}")
    trace = [{"start": i, "best_value": v if math.isfinite(v) else None, "levels": levels}
             for i, (v, levels, _) in enumerate(finals)]
    # the first start of the largest value; a positive, hence unclamped, projection
    best_value, _, best_points = max(finals, key=operator.itemgetter(0))
    if not best_value > 0.0:
        best_value, best_points = 0.0, None
    diagnostics = {"gram_rank": 0, "condition_number": math.inf, "min_eigenvalue": 0.0,
                   "evaluations": evaluations, "revisits": revisits,
                   "gram_stacks": gram_stacks, "search_trace": trace}
    if best_points is not None:
        diagnostics.update(_clamped(*seen[best_points.tobytes()])[1],
                           best_points=[p.tolist() for p in best_points])
    diagnostics.update(evaluator.diagnostics(gamma, best_points, pinv_tol))
    return BoundResult(value=best_value, method="barankin_approx", diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Exponential-family moment bounds
# ---------------------------------------------------------------------------

def expfam_bound(model: ExponentialFamilyModel, gamma: MeanFunction, x0, indices, *,
                 pinv_tol: float = 1e-10, cfg: FDConfig | None = None) -> BoundResult:
    """Closed-form moment bound n' S^+ n - gamma(x0)^2 for canonical
    exponential families.

    n_l combines moments with mean-function derivatives through the Leibniz
    rule; S is the matrix of raw moments at summed multi-indices.
    """
    return _quadratic_bound("expfam_moment", _expfam_system(model, gamma, x0, indices, cfg),
                            pinv_tol)


def _expfam_system(model: ExponentialFamilyModel, gamma: MeanFunction, x0, indices,
                   cfg: FDConfig | None = None) -> _System:
    if not isinstance(model, ExponentialFamilyModel):
        raise TypeError("expfam_bound requires an ExponentialFamilyModel")
    x0 = as_param(model, x0)
    idxs = _named("indices", _validate_indices, indices, model.param_dim, 0)
    cap = MultiIndex(tuple(max(p[k] for p in idxs) for k in range(model.param_dim)))
    mu = moment_table(model, x0, cap.plus(cap), cfg)
    zero = (0,) * model.param_dim  # each distinct partial of gamma once, its value first
    partials = {q: mean_partial(gamma, x0, q) for q in dict.fromkeys(
        [zero] + [q for p in idxs for _, q, _ in _leibniz_terms(p)])}
    n_vec = np.array([
        sum(b * mu[r] * partials[q] for b, q, r in _leibniz_terms(p))
        for p in idxs
    ])
    S = _dot_matrix(idxs, lambda p, q: mu[tuple(map(operator.add, p, q))])
    extra = {"moment_fd_fallback": True} if model.closed_moments is None else {}
    g0 = partials[zero]
    return _System(S, n_vec, extra, g0 * g0)


def expfam_crb(model: ExponentialFamilyModel, gamma: MeanFunction, x0, *,
               pinv_tol: float = 1e-10, cfg: FDConfig | None = None) -> BoundResult:
    """Cramer-Rao bound for a canonical exponential family, with the Fisher
    information formed as the covariance of the sufficient statistic."""
    return _quadratic_bound("expfam_crb", _deriv_system(model, gamma, x0, cfg=cfg,
                                                        expfam="expfam_crb"), pinv_tol)


# ---------------------------------------------------------------------------
# Input tables: method options here, config sections in the CLI
# ---------------------------------------------------------------------------

#: The default of a key that must be given
_REQUIRED = object()

#: The default of a key left out when it is left out, whose null is a value
_OMITTED = object()


def _fields(section, path: str, spec: dict, *context) -> dict:
    """`section` read against `spec`, {key: (check, default)}: each key's
    value, or else its default, normalised by check(value, *context), or read
    against `check` when that is itself such a table.  A key whose default is
    None may be left out or given as null, and is then left out; one whose
    default is `_OMITTED` is left out only when it is left out.  An unknown
    key, a missing required one, or a check's TypeError or ValueError is a
    ConfigurationError naming `path.key`."""
    where = path or "config"
    if not isinstance(section, dict):
        raise ConfigurationError(f"{where}: expected a mapping, got {type(section).__name__}")
    unknown = set(section) - set(spec)
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    out = {}
    for key, (check, default) in spec.items():
        name = f"{path}.{key}" if path else key
        value = section.get(key, default)
        if value is _REQUIRED:
            raise ConfigurationError(f"{name}: required")
        if value is _OMITTED or value is None and default is None:
            continue
        out[key] = _fields(value, name, check, *context) if isinstance(check, dict) \
            else _named(name, check, value, *context)
    return out


# Checks beside those of `calculus`; a method option's context is the family's dimension.

def _points(value, dim) -> tuple:
    points = tuple(_vector(p, dim) for p in getattr(value, "points", value))
    if not points:
        raise ValueError("at least one test point is required")
    TestPointSet(points)  # rejects duplicates
    return points


def _constraint(value, dim) -> tuple:
    F = np.atleast_2d(np.asarray(value, dtype=float))
    return tuple(_vector(row, dim) for row in F.tolist()) if F.size else ()


def _indices(min_order: int):
    return lambda value, dim: tuple(map(tuple, _validate_indices(value, dim, min_order)))


_positive = _number(float, 0, strict=True)

_SEARCH_OPTIONS = {
    "initial_points": (_points, None), "max_points": (_number(int, 1), None),
    "restarts": (_number(int, 0), None), "initial_step": (_positive, None),
    "halvings": (_number(int, 0), None), "max_sweeps_per_level": (_number(int, 0), None),
    "lower": (_vector, None), "upper": (_vector, None), "min_distance": (_number(float, 0), None),
    # left out unless given, so that the seed of `barankin_search(options, seed)` applies
    "seed": (_number(int, 0), None),
    # null is an unbounded search, and only a radius left out is the default one
    "radius": (lambda v, _: v if v is None else _positive(v), _OMITTED),
}


def barankin_search(options: dict, seed: int = 0) -> BarankinSearch:
    """The search that checked `barankin_approx` options describe; `seed`
    applies unless the options set one."""
    points = options.get("initial_points")
    return BarankinSearch(**{"seed": seed, **options, "initial_points":
                             None if points is None else TestPointSet(points)})


class _Method(NamedTuple):
    """build(model, gamma, x0, options, mc_samples, seed, pinv_tol) is the
    bound's `_System` at x0, None for barankin_approx, which `_lockstep`
    runs; options is its {option: (check, default)} table."""

    build: Callable[..., _System] | None
    options: dict = {}


#: The one table of bound methods, each tagging its BoundResult with its
#: name.  Each builder looks its function up by module name when it runs.
METHODS: dict[str, _Method] = {
    "crb": _Method(lambda m, g, x, o, n, s, t: _deriv_system(m, g, x, n_mc=n, seed=s)),
    "constrained_crb": _Method(lambda m, g, x, o, n, s, t: _deriv_system(
        m, g, x, None, o.get("constraint"), n_mc=n, seed=s), {"constraint": (_constraint, None)}),
    "bhattacharyya": _Method(lambda m, g, x, o, n, s, t: _deriv_system(
        m, g, x, o["indices"], n_mc=n, seed=s), {"indices": (_indices(1), _REQUIRED)}),
    "hcrb": _Method(lambda m, g, x, o, n, s, t: _hcrb_system(
        m, g, x, TestPointSet(o["points"]), mc_samples=n, seed=s, pinv_tol=t),
        {"points": (_points, _REQUIRED)}),
    "barankin_approx": _Method(None, _SEARCH_OPTIONS),
    "expfam_moment": _Method(lambda m, g, x, o, n, s, t: _expfam_system(m, g, x, o["indices"]),
                             {"indices": (_indices(0), _REQUIRED)}),
    "expfam_crb": _Method(lambda m, g, x, o, n, s, t: _deriv_system(
        m, g, x, expfam="expfam_crb")),
}


def method_options(name: str, options: dict, dim: int) -> dict:
    """The options of the named method, checked against a family with `dim`
    parameters and normalised.  A ConfigurationError (a ValueError) names
    `method.option`."""
    if name not in METHODS:
        raise ConfigurationError(f"unknown method {name!r}; known: {tuple(METHODS)}")
    out = _fields(options, name, METHODS[name].options, dim)
    if name == "barankin_approx":  # restarts, initial_points, radius and min_distance together
        _named(name, barankin_search, out)
    return out


@dataclass(frozen=True)
class MethodSpec:
    """A bound method by name plus its per-method options."""

    name: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in METHODS:
            raise ConfigurationError(f"unknown method {self.name!r}; known: {tuple(METHODS)}")


def evaluate_bound(model: Model, gamma: MeanFunction, x0, spec: MethodSpec, *,
                   mc_samples: int = 100_000, seed: int = 0,
                   pinv_tol: float = 1e-10) -> BoundResult:
    return _result(_evaluate_grid(model, gamma, [x0], spec, [seed], mc_samples, pinv_tol)[0])


def _evaluate_grid(model: Model, gamma: MeanFunction, grid: Sequence, spec: MethodSpec,
                   seeds: Iterable[int], mc_samples: int = 100_000,
                   pinv_tol: float = 1e-10) -> list:
    """`evaluate_bound` at each point of `grid` with its seed, the options
    checked once: each point's BoundResult or exception, up to the first that
    fails to build or search.  barankin_approx searches in `_lockstep`; other
    methods build each point's system in turn, keeping only its matrices and
    diagnostics (one Monte Carlo evaluator lives at a time), then solve them
    with `_quadratic_bounds`."""
    if not len(grid):
        return []
    options = method_options(spec.name, spec.options, model.param_dim)
    build = METHODS[spec.name].build
    if build is None:
        return list(_lockstep(model, gamma, ((x, barankin_search(options, s))
                                             for x, s in zip(grid, seeds)), mc_samples, pinv_tol))
    systems = []
    for x, s in zip(grid, seeds):
        try:
            systems.append(build(model, gamma, x, options, mc_samples, s, pinv_tol))
        except Exception as exc:
            return _quadratic_bounds(spec.name, systems, pinv_tol) + [exc]
    return _quadratic_bounds(spec.name, systems, pinv_tol)
