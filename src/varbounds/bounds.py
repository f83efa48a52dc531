"""Variance lower bounds realized as orthogonal projections onto subspaces
spanned by kernel evaluations, kernel differences, or kernel derivatives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .calculus import FDConfig, MultiIndex, _leibniz_terms, as_index, moment_table, \
    partial_derivative
from .errors import ConstraintRankError, DomainError, KernelEvaluationError, NaturalSpaceError
from .kernel import ExpfamKernelEvaluator, KernelEvaluator, MonteCarloKernelEvaluator, \
    deriv_inner_products, difference_block, make_gram_system, signed_sq_norm
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
    """Parameter vectors other than x0 used to build difference bases."""

    __test__ = False  # not a pytest case despite the name

    points: tuple
    provenance: str = "user"

    def __init__(self, points: Sequence, provenance: str = "user"):
        pts = tuple(np.atleast_1d(np.asarray(p, dtype=float)) for p in points)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.max(np.abs(pts[i] - pts[j]), initial=0.0) < 1e-12:
                    raise ValueError(f"duplicate test points at positions {i} and {j}")
        if provenance not in ("user", "grid", "random", "refinement"):
            raise ValueError(f"unknown provenance {provenance!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "provenance", provenance)

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


def _quadratic_bound(matrix, rhs, method, pinv_tol, extra=None, offset=0.0) -> BoundResult:
    system = make_gram_system(matrix, rhs, pinv_tol)
    d = system.diagnostics
    value, diagnostics = _clamped(signed_sq_norm(system) - offset, d["rank"],
                                  d["condition_number"], d["min_eigenvalue"])
    if extra:
        diagnostics.update(extra)
    return BoundResult(value=value, method=method, diagnostics=diagnostics)


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
        if p.order < min_order:
            raise ValueError(f"multi-index {tuple(p)} has order below {min_order}")
        if p.order > MAX_INDEX_ORDER:
            raise ValueError(f"multi-index {tuple(p)} exceeds the order-{MAX_INDEX_ORDER} cap")
    return idxs


def _unit_indices(N: int) -> list[MultiIndex]:
    return [MultiIndex.unit(N, k) for k in range(N)]


def _deriv_gram(model: Model, x0: np.ndarray, idxs: Sequence[MultiIndex], n_mc: int,
                seed: int, cfg: FDConfig | None = None) -> tuple[np.ndarray, dict]:
    """Inner products of the kernel derivative functions r^(p), p in idxs,
    at x0, and the route tag: exact from moments for an exponential family,
    or finite differences of its closed-form kernel without closed-form
    moments (`moment_fd_fallback`); otherwise the Monte Carlo mean of
    D^p rho * D^q rho, differentiating one evaluator's cached ratio vectors
    per draw with `partial_derivative` (`mc_samples`).  Over the unit
    indices this is the Fisher information: rho(x0) = 1, so the score at x0
    is the gradient of rho.
    """
    if isinstance(model, ExponentialFamilyModel):
        B = deriv_inner_products(model, x0, idxs, cfg)
        return B, {"moment_fd_fallback": True} if model.closed_moments is None else {}
    evaluator = MonteCarloKernelEvaluator(model, x0, n_mc, seed)
    D = np.array([partial_derivative(evaluator._ratios, x0, p, cfg) for p in idxs])
    return (D @ D.T) / evaluator.mc_samples, {"mc_samples": n_mc}


def _deriv_bound(method: str, model: Model, gamma: MeanFunction, x0, indices, F=None, *,
                 n_mc: int = 100_000, seed: int = 0, pinv_tol: float = 1e-10,
                 cfg: FDConfig | None = None) -> BoundResult:
    """a' B^+ a with a the mean-function partials and B the derivative Gram
    at the indices, restricted to the null space of the constraint Jacobian
    F when F has rows."""
    x0 = as_param(model, x0)
    idxs = _validate_indices(indices, model.param_dim)
    a = np.array([mean_partial(gamma, x0, p) for p in idxs])
    B, extra = _deriv_gram(model, x0, idxs, n_mc, seed, cfg)
    if F is not None and np.size(F) != 0:
        U = null_space_onb(F)
        B, a, extra = U.T @ B @ U, U.T @ a, {"null_space_dim": U.shape[1], **extra}
    return _quadratic_bound(B, a, method, pinv_tol, extra=extra)


def fisher_info(model: Model, x0, n_mc: int = 100_000, seed: int = 0,
                cfg: FDConfig | None = None) -> np.ndarray:
    """Fisher information matrix at x0: the derivative Gram over the unit
    indices.

    For a canonical exponential family that is the covariance of the
    sufficient statistic, exact from moments.  Otherwise it is the Monte
    Carlo mean of the outer products of the likelihood-ratio gradients.
    """
    x0 = as_param(model, x0)
    return _deriv_gram(model, x0, _unit_indices(model.param_dim), n_mc, seed, cfg)[0]


def crb(model: Model, gamma: MeanFunction, x0, *, n_mc: int = 100_000, seed: int = 0,
        pinv_tol: float = 1e-10) -> BoundResult:
    """Cramer-Rao bound b' J^+ b with b the mean-function gradient."""
    return _deriv_bound("crb", model, gamma, x0, _unit_indices(model.param_dim),
                        n_mc=n_mc, seed=seed, pinv_tol=pinv_tol)


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
    return _deriv_bound("constrained_crb", model, gamma, x0, _unit_indices(model.param_dim),
                        F, n_mc=n_mc, seed=seed, pinv_tol=pinv_tol)


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
    return _deriv_bound("bhattacharyya", model, gamma, x0, indices, n_mc=n_mc, seed=seed,
                        pinv_tol=pinv_tol)


# ---------------------------------------------------------------------------
# Hammersley-Chapman-Robbins and Barankin
# ---------------------------------------------------------------------------

def _make_evaluator(model, x0, mc_samples, seed) -> KernelEvaluator:
    if isinstance(model, ExponentialFamilyModel):
        return ExpfamKernelEvaluator(model, x0)
    return MonteCarloKernelEvaluator(model, x0, mc_samples, seed)


def _kernel_stacks(evaluator: KernelEvaluator, gamma: MeanFunction,
                   configurations: Sequence, skip_undefined: bool = True) -> tuple[list, dict]:
    """The projection of the centered mean onto the kernel differences
    R(., x) - R(., x0) at the rows x of each configuration, up to its solve:
    one `pairwise` each, stacked by point count m as `{m: (slots, kernels,
    rhs rows)}` with a slot (results, i) per row, and the results list that
    `_solve_stacks` fills.  Where kernel
    or gamma is undefined (NaturalSpaceError, KernelEvaluationError) the
    result stays None, or with skip_undefined=False the error propagates."""
    undefined = (NaturalSpaceError, KernelEvaluationError) if skip_undefined else ()
    evaluator.reserve(sum(map(len, configurations)) + len(configurations))
    x0, first = evaluator.x0, evaluator.x0[None]
    g0 = None
    results = [None] * len(configurations)
    stacks: dict[int, tuple[list, list, list]] = {}
    for i, points in enumerate(configurations):
        points = np.asarray(points, dtype=float)
        try:
            K = evaluator.pairwise(np.concatenate((first, points)))
            if g0 is None:
                g0 = float(gamma.value(x0))
            rhs = [float(gamma.value(x)) - g0 for x in points]
        except undefined:
            continue
        slots, kernels, rows = stacks.setdefault(len(points), ([], [], []))
        slots.append((results, i))
        kernels.append(K)
        rows.append(rhs)
    return results, stacks


def _solve_stacks(requests: Sequence[dict], pinv_tol: float) -> None:
    """Per point count, the block formula, one `make_gram_system` and one
    `signed_sq_norm` over the stacks of all `requests` together, each matrix
    solved as it would be alone; a result is the unclamped (value, rank,
    condition number, smallest eigenvalue)."""
    merged: dict[int, tuple[list, list, list]] = {}
    for stacks in requests:
        for m, parts in stacks.items():
            merged[m] = tuple(map(list.__add__, merged[m], parts)) if m in merged else parts
    for slots, kernels, rows in merged.values():
        system = make_gram_system(difference_block(np.array(kernels)), rows, pinv_tol)
        d = system.diagnostics
        for (results, i), value, rank, condition, smallest in zip(
                slots, signed_sq_norm(system), d["rank"], d["condition_number"],
                d["min_eigenvalue"]):
            results[i] = value, rank, condition, smallest


def _difference_projection(evaluator: KernelEvaluator, gamma: MeanFunction,
                           configurations: Sequence, pinv_tol: float, *,
                           skip_undefined: bool = True) -> list:
    """`(value, diagnostics)` of each configuration, clamped at zero (None
    where undefined), from `_kernel_stacks` and `_solve_stacks`."""
    results, stacks = _kernel_stacks(evaluator, gamma, configurations, skip_undefined)
    _solve_stacks([stacks], pinv_tol)
    return [None if result is None else _clamped(*result) for result in results]


def _mc_diagnostics(evaluator: MonteCarloKernelEvaluator, gamma: MeanFunction,
                    points: Sequence[np.ndarray], pinv_tol: float) -> dict:
    """Sample count, Kish effective sample size per point (first: a point the
    ratio cache evicted is recomputed once, and the halves slice it) and the
    two-fold sample-split Monte Carlo error of the projection at `points`."""
    diagnostics = {"mc_samples": evaluator.mc_samples, "mc_effective_sample_size": [
        evaluator.effective_sample_size(p) for p in points], "mc_standard_error": math.inf}
    values = []
    for sub in evaluator._halves():
        (result,) = _difference_projection(sub, gamma, [points], pinv_tol)
        if result is None:
            return diagnostics
        values.append(result[0])
    diagnostics["mc_standard_error"] = abs(values[0] - values[1]) / 2.0
    return diagnostics


def hcrb(model: Model, gamma: MeanFunction, x0, tps: TestPointSet, *,
         mc_samples: int = 100_000, seed: int = 0,
         pinv_tol: float = 1e-10) -> BoundResult:
    """Test-point bound m' V^+ m built from the difference basis at the
    supplied test points."""
    x0 = as_param(model, x0)
    for p in tps.points:
        if np.max(np.abs(np.atleast_1d(p) - x0), initial=0.0) < 1e-12:
            raise DomainError(f"hcrb: test point {np.atleast_1d(p).tolist()} equals "
                              f"the reference parameter x0={x0.tolist()}")
    evaluator = _make_evaluator(model, x0, mc_samples, seed)
    ((value, diagnostics),) = _difference_projection(evaluator, gamma, [tps.points],
                                                     pinv_tol, skip_undefined=False)
    diagnostics["n_test_points"] = len(tps)
    if isinstance(evaluator, MonteCarloKernelEvaluator):
        diagnostics.update(_mc_diagnostics(evaluator, gamma, tps.points, pinv_tol))
    return BoundResult(value=value, method="hcrb", diagnostics=diagnostics)


@dataclass(frozen=True)
class BarankinSearch:
    """Search configuration for the test-point supremum.

    The search hill-climbs each test-point coordinate with an absolute step
    that halves after every stalled sweep level, restarting from random point
    sets.  Points closer than min_distance to x0 are rejected, as are points
    outside the ball of the given radius around x0 or the optional box.
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
        if self.max_points < 1:
            raise ValueError("max_points must be >= 1")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if self.restarts < 1 and not self.initial_points:
            raise ValueError("restarts must be >= 1 when no initial_points are given")
        if self.radius is not None and self.radius < self.min_distance:
            raise ValueError(f"radius {self.radius} is below min_distance "
                             f"{self.min_distance}, so no test point is allowed")

    def region(self, x0: np.ndarray) -> Callable[[np.ndarray], bool]:
        """Whether a point may be a test point of this search around x0: at
        least min_distance from x0, within the radius and inside the box.
        DomainError if an initial point may not."""
        lower = np.asarray(self.lower, dtype=float) if self.lower is not None else None
        upper = np.asarray(self.upper, dtype=float) if self.upper is not None else None
        min_distance, radius = self.min_distance, self.radius

        def in_domain(pt: np.ndarray) -> bool:
            dx = pt - x0
            distance = math.sqrt(dx.dot(dx))  # bitwise np.linalg.norm(dx)
            return not (distance < min_distance or radius is not None and distance > radius
                        or lower is not None and (pt < lower).any()
                        or upper is not None and (pt > upper).any())

        for p in self.initial_points.points if self.initial_points else ():
            if not in_domain(p):
                raise DomainError(
                    f"barankin_approx: initial point {p.tolist()} lies outside the search region "
                    f"(min_distance {min_distance}, radius {radius}, lower {self.lower}, upper "
                    f"{self.upper}) at x0={x0.tolist()}")
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
    halves the step after a sweep that kept none.  The starts run in
    lockstep.  A proposal of a configuration the search has computed is
    answered at once; the distinct new configurations the starts propose
    next are computed together, one stacked Gram solve per point count
    (`diagnostics["gram_stacks"]` counts them).  So each distinct
    configuration is computed once: `diagnostics["evaluations"]` counts the
    computed ones and `diagnostics["revisits"]` the other proposals.

    The reported value is the largest value of any proposal, so it never
    decreases as the search proceeds.  A tie goes to the proposal that comes
    first in serial order (start index, then proposal index), so the value,
    `best_points` and the Gram diagnostics are those of running the starts
    one after the other.  An initial point outside `search.region(x0)` is a
    DomainError.
    """
    cfg = search if search is not None else BarankinSearch()
    # `_lockstep` with one problem, without its scheduling
    steps = _search(model, gamma, x0, cfg if seed is None else replace(cfg, seed=seed),
                    mc_samples, pinv_tol)
    try:
        while True:
            _solve_stacks([next(steps)], pinv_tol)
    except StopIteration as stop:
        return stop.value


#: Most closed-form searches `_lockstep` runs at once; each holds its memo.
_WINDOW = 8


def _lockstep(model: Model, gamma: MeanFunction, problems: Iterable,
              mc_samples: int = 100_000, pinv_tol: float = 1e-10):
    """Yields `barankin_approx(model, gamma, x0, search)` for each `(x0,
    search)` of `problems` in order, bit for bit, and raises the error the
    serial loop raises where it raises it.  Up to `_WINDOW` closed-form
    searches (Monte Carlo: one) climb side by side, one `make_gram_system`
    per point count and step; after a failure no further search starts."""
    window = _WINDOW if isinstance(model, ExponentialFamilyModel) else 1
    searches = (_search(model, gamma, x0, cfg, mc_samples, pinv_tol) for x0, cfg in problems)
    running: dict[int, tuple] = {}  # position -> search, the stacks it waits on
    ended: dict[int, object] = {}  # position -> BoundResult or exception
    started = done = 0

    def advance(i: int, search) -> None:
        nonlocal window
        try:
            running[i] = search, next(search)
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
            if isinstance(outcome, Exception):
                raise outcome
            yield outcome
        if not running:
            return
        stepping, running = running, {}
        try:
            _solve_stacks([stacks for _, stacks in stepping.values()], pinv_tol)
        except Exception:  # alone, a failing search raises its own error and index
            for i, (_, stacks) in list(stepping.items()):
                try:
                    _solve_stacks([stacks], pinv_tol)
                except Exception as exc:
                    ended[i], window = exc, 0
                    del stepping[i]
        for i, (search, _) in stepping.items():
            advance(i, search)


def _search(model: Model, gamma: MeanFunction, x0, cfg: BarankinSearch,
            mc_samples: int, pinv_tol: float):
    """One Barankin search as `_lockstep` runs it: each step yields the
    stacks of the distinct new configurations its starts propose, resumes
    once they are solved, and at its end returns the BoundResult."""
    x0 = as_param(model, x0)
    evaluator = _make_evaluator(model, x0, mc_samples, cfg.seed)
    in_domain = cfg.region(x0)
    lo = np.asarray(cfg.lower, dtype=float) if cfg.lower is not None else x0 - (cfg.radius or 1.0)
    hi = np.asarray(cfg.upper, dtype=float) if cfg.upper is not None else x0 + (cfg.radius or 1.0)
    region = f"sampling box from {lo.tolist()} to {hi.tolist()}" + (
        f" within radius {cfg.radius}" if cfg.radius is not None else "")
    if np.any(lo > hi):
        raise DomainError(f"barankin_approx: empty {region} at x0={x0.tolist()}")

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
        kernel undefined) and returns the start's final value."""
        current = yield pts
        if current is None:
            # invalid start (kernel undefined there): any valid move wins
            current = -math.inf
        step = cfg.initial_step
        for _level in range(cfg.halvings):
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
        return current

    gamma = _remembering_values(gamma)
    # `_solve_stacks` result of each configuration computed (None: undefined)
    seen: dict[bytes, tuple | None] = {}
    evaluations = revisits = gram_stacks = 0
    best_value, best_at, best_result, best_points = 0.0, None, None, None
    climbs = [climb(pts) for pts in starts]
    proposed = [0] * len(climbs)  # proposals answered per start
    finals: list[float] = [-math.inf] * len(climbs)

    def answer(i: int, pts: np.ndarray, result) -> np.ndarray | None:
        """Start i's next proposal after the one of pts, or None at its end."""
        nonlocal best_value, best_at, best_result, best_points
        value = None if result is None else max(result[0], 0.0)  # clamped at zero
        if value is not None:
            at = (i, proposed[i])
            if value > best_value or (value == best_value and best_at is not None
                                      and at < best_at):
                best_value, best_at, best_result, best_points = value, at, result, pts
        proposed[i] += 1
        try:
            return climbs[i].send(value)
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
                pts = answer(i, pts, seen[key])
        if not new:  # the last starts ended on proposals the search had computed
            break
        configurations = [pts for pts, _ in new.values()]
        results, stacks = _kernel_stacks(evaluator, gamma, configurations)
        yield stacks  # the driver solves them into results
        evaluations += len(configurations)
        # one solve per point count among the configurations with a kernel
        gram_stacks += len(stacks)
        pending = {}
        for (key, (pts, waiting)), result in zip(new.items(), results):
            seen[key] = result
            for i in waiting:
                nxt = answer(i, pts, result)
                if nxt is not None:
                    pending[i] = nxt

    trace = [{"start": i, "best_value": v if math.isfinite(v) else None}
             for i, v in enumerate(finals)]
    # the best is a positive, hence unclamped, projection
    diagnostics = {"gram_rank": 0, "condition_number": math.inf, "min_eigenvalue": 0.0,
                   **(_clamped(*best_result)[1] if best_result else {}),
                   "evaluations": evaluations, "revisits": revisits,
                   "gram_stacks": gram_stacks, "search_trace": trace}
    if best_points is not None:
        diagnostics["best_points"] = [p.tolist() for p in best_points]
    if isinstance(evaluator, MonteCarloKernelEvaluator):
        diagnostics.update(_mc_diagnostics(evaluator, gamma, best_points, pinv_tol)
                           if best_points is not None else {"mc_samples": evaluator.mc_samples})
    return BoundResult(value=max(best_value, 0.0), method="barankin_approx",
                       diagnostics=diagnostics)


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
    if not isinstance(model, ExponentialFamilyModel):
        raise TypeError("expfam_bound requires an ExponentialFamilyModel")
    x0 = as_param(model, x0)
    idxs = _validate_indices(indices, model.param_dim, min_order=0)
    cap = MultiIndex(tuple(max(p[k] for p in idxs) for k in range(model.param_dim)))
    mu = moment_table(model, x0, cap.plus(cap), cfg)
    n_vec = np.array([
        sum(b * mu[r] * mean_partial(gamma, x0, q) for b, q, r in _leibniz_terms(p))
        for p in idxs
    ])
    S = np.empty((len(idxs), len(idxs)))
    for i, p in enumerate(idxs):
        for j, q in enumerate(idxs):
            S[i, j] = mu[tuple(map(operator.add, p, q))]
    extra = {"moment_fd_fallback": True} if model.closed_moments is None else None
    g0 = float(gamma.value(x0))
    return _quadratic_bound(S, n_vec, "expfam_moment", pinv_tol, extra=extra,
                            offset=g0 * g0)


def expfam_crb(model: ExponentialFamilyModel, gamma: MeanFunction, x0, *,
               pinv_tol: float = 1e-10, cfg: FDConfig | None = None) -> BoundResult:
    """Cramer-Rao bound for a canonical exponential family, with the Fisher
    information formed as the covariance of the sufficient statistic."""
    if not isinstance(model, ExponentialFamilyModel):
        raise TypeError("expfam_crb requires an ExponentialFamilyModel")
    return _deriv_bound("expfam_crb", model, gamma, x0, _unit_indices(model.param_dim),
                        pinv_tol=pinv_tol, cfg=cfg)


# ---------------------------------------------------------------------------
# Method table shared by the harness and the CLI
# ---------------------------------------------------------------------------

# Option checks: check(value, dim) returns the value normalised for a family
# with dim parameters, or raises TypeError or ValueError.

def _number(kind: type, low: float, strict: bool = False):
    def check(value, dim):
        x = operator.index(value) if kind is int else float(value)
        if not (math.isfinite(x) and (x > low if strict else x >= low)):
            raise ValueError(f"expected a finite {kind.__name__} {'>' if strict else '>='} "
                             f"{low}, got {value!r}")
        return x
    return check


def _vector(value, dim) -> tuple:
    x = np.atleast_1d(np.asarray(value, dtype=float))
    if x.shape != (dim,) or not np.all(np.isfinite(x)):
        raise ValueError(f"expected a vector of {dim} finite numbers, got {value!r}")
    return tuple(x.tolist())


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


def _optional(check):
    return lambda value, dim: None if value is None else check(value, dim)


_SEARCH_OPTIONS = {
    "initial_points": _optional(_points), "max_points": _number(int, 1),
    "restarts": _number(int, 0), "initial_step": _number(float, 0, strict=True),
    "halvings": _number(int, 0), "max_sweeps_per_level": _number(int, 0),
    "seed": _number(int, 0), "radius": _optional(_number(float, 0, strict=True)),
    "lower": _optional(_vector), "upper": _optional(_vector),
    "min_distance": _number(float, 0),
}


def barankin_search(options: dict, seed: int = 0) -> BarankinSearch:
    """The search that checked `barankin_approx` options describe; `seed`
    applies unless the options set one."""
    points = options.get("initial_points")
    return BarankinSearch(**{"seed": seed, **options, "initial_points":
                             None if points is None else TestPointSet(points)})


class _Method(NamedTuple):
    """call(model, gamma, x0, options, mc_samples, seed, pinv_tol) evaluates
    the bound; required and optional map option names to their checks."""

    call: Callable[..., BoundResult]
    required: dict = {}
    optional: dict = {}


#: The one table of bound methods.  Each call looks its bound up by module
#: name when it runs, so a rebound name (a tracing wrapper) is what runs.
METHODS: dict[str, _Method] = {
    "crb": _Method(lambda m, g, x, o, n, s, t: crb(m, g, x, n_mc=n, seed=s, pinv_tol=t)),
    "constrained_crb": _Method(lambda m, g, x, o, n, s, t: constrained_crb(
        m, g, x, o.get("constraint"), n_mc=n, seed=s, pinv_tol=t),
        optional={"constraint": _constraint}),
    "bhattacharyya": _Method(lambda m, g, x, o, n, s, t: bhattacharyya(
        m, g, x, o["indices"], n_mc=n, seed=s, pinv_tol=t), {"indices": _indices(1)}),
    "hcrb": _Method(lambda m, g, x, o, n, s, t: hcrb(
        m, g, x, TestPointSet(o["points"]), mc_samples=n, seed=s, pinv_tol=t),
        {"points": _points}),
    "barankin_approx": _Method(lambda m, g, x, o, n, s, t: barankin_approx(
        m, g, x, barankin_search(o, s), mc_samples=n, pinv_tol=t), optional=_SEARCH_OPTIONS),
    "expfam_moment": _Method(lambda m, g, x, o, n, s, t: expfam_bound(
        m, g, x, o["indices"], pinv_tol=t), {"indices": _indices(0)}),
    "expfam_crb": _Method(lambda m, g, x, o, n, s, t: expfam_crb(m, g, x, pinv_tol=t)),
}


def method_options(name: str, options: dict, dim: int) -> dict:
    """The options of the named method, checked against a family with `dim`
    parameters and normalised.  A ValueError names the method."""
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}; known: {tuple(METHODS)}")
    checks = {**METHODS[name].required, **METHODS[name].optional}
    for problem, keys in (("not valid", set(options) - set(checks)),
                          ("required", set(METHODS[name].required) - set(options))):
        if keys:
            raise ValueError(f"options {sorted(keys, key=str)} {problem} for {name!r}")
    out = {}
    for key, value in options.items():
        try:
            out[key] = checks[key](value, dim)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{key}: {exc} for {name!r}") from exc
    if name == "barankin_approx":
        try:  # restarts, initial_points, radius and min_distance together
            barankin_search(out)
        except ValueError as exc:
            raise ValueError(f"{exc} for {name!r}") from exc
    return out


@dataclass(frozen=True)
class MethodSpec:
    """A bound method by name plus its per-method options."""

    name: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}; known: {tuple(METHODS)}")


def evaluate_bound(model: Model, gamma: MeanFunction, x0, spec: MethodSpec, *,
                   mc_samples: int = 100_000, seed: int = 0,
                   pinv_tol: float = 1e-10) -> BoundResult:
    options = method_options(spec.name, spec.options, model.param_dim)
    return METHODS[spec.name].call(model, gamma, x0, options, mc_samples, seed, pinv_tol)
