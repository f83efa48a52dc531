"""Likelihood-ratio kernel of an estimation problem, Gram-system assembly,
and projected squared norms.

For a canonical exponential family the kernel has the closed form

    R(x1, x2) = lambda(x1 + x2 - x0) * lambda(x0) / (lambda(x1) * lambda(x2)),

valid whenever x1 + x2 - x0 lies in the natural parameter space.  For a
model whose observation is one integer with a declared support it is the sum
over the support of f(y;x1) f(y;x2) / f(y;x0).  For any other model it is
estimated by Monte Carlo as the mean of products of likelihood ratios over
draws from the reference parameter x0.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .calculus import FDConfig, MultiIndex, _leibniz_terms, _log_partition, _named, _number, \
    as_index, moment_table, partial_derivative, reciprocal_series, MAX_FD_ORDER
from .errors import ConfigurationError, DataError, KernelEvaluationError, ReferenceSupportError
from .models import ExponentialFamilyModel, GenericModel, MeanFunction, Model, \
    _family_log_density, as_param, log_density_batch, mean_partial, sample

#: exp is finite exactly up to log(max float); NaN exponents fail the test too
_EXP_MAX = 709.782712893384

_SUM_CONTEXT = "x1 + x2 - x0 must lie in the natural space"
#: pinv_tol is a share of the largest |eigenvalue|: from 1 on it keeps none
_TOLERANCE = _number(float, 0, below=1)


def kernel_expfam(model: ExponentialFamilyModel, x0, x1, x2) -> float:
    """Closed-form kernel value for a canonical exponential family."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    ll0, ll1, ll2 = (_log_partition(model, x) for x in (x0, x1, x2))
    lls = _log_partition(model, x1 + x2 - x0, _SUM_CONTEXT)
    # grouping keeps the result bitwise symmetric in (x1, x2)
    expo = lls + ll0 - (ll1 + ll2)
    if not expo <= _EXP_MAX:
        raise KernelEvaluationError("kernel value overflowed for a point pair")
    return math.exp(expo)


class ExpfamKernelEvaluator:
    """Closed-form kernel evaluator anchored at a reference parameter x0."""

    def __init__(self, model: ExponentialFamilyModel, x0):
        if not isinstance(model, ExponentialFamilyModel):
            raise TypeError("closed-form kernel evaluation needs an ExponentialFamilyModel")
        self.model = model
        self.x0 = as_param(model, x0)
        self._ll0 = _log_partition(model, self.x0)

    def evaluate(self, x1, x2) -> float:
        return kernel_expfam(self.model, self.x0, x1, x2)

    def reserve(self, rows: int) -> None:
        """Nothing to size: closed-form kernel values are not cached."""

    def deriv_gram(self, idxs: Sequence[MultiIndex], cfg: FDConfig | None = None):
        """`deriv_inner_products` at x0 (finite-difference step `cfg`)."""
        return deriv_inner_products(self.model, self.x0, idxs, cfg)

    def diagnostics(self, gamma=None, points=None, pinv_tol: float = 1e-10) -> dict:
        """Nothing to report: the closed form is exact."""
        return {}

    def pairwise(self, points: np.ndarray, centred: bool = False) -> np.ndarray:
        """Kernel matrix over rows of `points`, exp of `_exponent`.  Centred,
        the Gram matrix of the differences R(., x) - R(., x0) over them: expm1
        of the family's `second_difference`, or, where it has none or that is
        not finite or leaves a diagonal entry (a squared norm) not positive, of
        the exponent, which then raises the error of a point or pair sum
        without a kernel value."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if not centred:
            return np.exp(self._exponent(P))
        if self.model.second_difference is not None:
            with np.errstate(all="ignore"):
                V = np.expm1(self.model.second_difference(self.x0, P - self.x0))
            # the sum is finite unless an entry is not; a squared norm is positive
            if math.isfinite(V.sum()) and min(V.diagonal().tolist()) > 0:
                return V
        return np.expm1(self._exponent(np.concatenate((self.x0[None], P)))[1:, 1:])

    def _exponent(self, P: np.ndarray) -> np.ndarray:
        """log R over the rows of P through log_lambda; NaturalSpaceError names
        the first point, then the first pair sum, where that is not finite,
        KernelEvaluationError an exponent above `_EXP_MAX`."""
        sums = (P[:, None, :] + P[None, :, :] - self.x0).reshape(-1, P.shape[1])
        with np.errstate(over="ignore"):  # an overflow is re-raised through _log_partition
            lls = np.asarray(self.model.log_lambda(P), dtype=float)
            ll_sums = np.asarray(self.model.log_lambda(sums), dtype=float)
        # one test of every entry: the sum is finite unless one is not or it overflows
        if not math.isfinite(lls.sum() + ll_sums.sum()):
            if not np.isfinite(lls).all():
                _log_partition(self.model, P[~np.isfinite(lls)][0])
            if not np.isfinite(ll_sums).all():
                _log_partition(self.model, sums[~np.isfinite(ll_sums)][0], _SUM_CONTEXT)
        expo = ll_sums.reshape(len(P), len(P)) + self._ll0 - (lls[:, None] + lls[None, :])
        if not expo.max() <= _EXP_MAX:
            raise KernelEvaluationError("kernel value overflowed for a point pair")
        return expo


@dataclass(frozen=True)
class MCKernelEstimate:
    value: float
    stderr: float
    heavy_tail_warning: bool = False


def _dot_matrix(rows: list, dot: Callable) -> np.ndarray:
    """The matrix of dot(a, b) over the pairs of `rows`, one call per pair
    (i <= j), mirrored, so it is exactly symmetric."""
    K = np.empty((len(rows), len(rows)))
    for i, a in enumerate(rows):
        for j, b in enumerate(rows[i:], i):
            K[i, j] = K[j, i] = dot(a, b)
    return K


class _RowKernelEvaluator:
    """Kernel entries as dot products of one row per point over a fixed set
    of observations, `samples`: draws at x0 for Monte Carlo, points of the
    support for an exact sum.

    Each row is computed once and kept, read-only, in a least-recently-used
    cache that starts with x0's row.  The cache holds at most 2 * n + 1
    rows, and never fewer than 5, where n is the most rows of any pairwise
    call or of any batch of calls announced by `reserve`.  So a search that
    moves one test point per configuration computes one new row per
    configuration, while memory stays near twice the row matrices of one
    search step.

    A pairwise entry is one `np.dot` of two rows divided by `_divisor`,
    mirrored, so K is exactly symmetric.  A dot is kept while both its rows
    are cached (at most cap (cap + 1) / 2 dots): moving one of m points
    computes m + 1 dots.  It rounds unlike a stacked R @ R.T.

    For an exponential family, or `as_generic` of one, phi(Y) of the
    observations is kept, and a new row is formed from it by the route's
    `_family_log_row`; phi(Y) is the observations themselves for the scalar
    families.  Any other model evaluates its log density on the
    observations for each new row.
    """

    def __init__(self, model: Model, x0):
        self.model = model
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        self._family = model if isinstance(model, ExponentialFamilyModel) else model.family
        self._cache: dict[bytes, np.ndarray] = {}
        self._cache_cap = 5
        self._dots: dict[tuple[bytes, bytes], float] = {}

    def _observe(self, Y: np.ndarray) -> np.ndarray:
        """Make Y the observations and return their log density at x0, one
        log_density_batch, which checks the reference support; a family's
        phi(Y) is kept after it."""
        self.samples, self._phi = Y, None
        ld0 = self._log_row(self.x0)
        if self._family is not None:
            self._phi = self._family.phi(Y)
        return ld0

    def _log_row(self, x) -> np.ndarray:
        """log f(Y;x) - c(Y), c the same for every x: the one place the
        reference and each new row are computed.  log_density_batch (c = 0)
        until phi(Y) is kept, then the route's `_family_log_row`."""
        if self._phi is None:
            return log_density_batch(self.model, self.samples, x)
        return self._family_log_row(as_param(self.model, x))

    def _dot(self, a: tuple[bytes, np.ndarray], b: tuple[bytes, np.ndarray]) -> float:
        """The dot of two cached (key, row) pairs, kept while both are cached."""
        pair = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        if (dot := self._dots.get(pair)) is None:
            dot = self._dots[pair] = float(np.dot(a[1], b[1]))
        return dot

    def _ratios(self, x) -> np.ndarray:
        """The row of x, from the cache or else `_row` (which raises before
        anything is stored, so a failing point fails again)."""
        key = np.asarray(x, dtype=float).tobytes()
        r = self._cache.pop(key, None)
        if r is None:
            r = self._row(x)
            r.flags.writeable = False
        self._cache[key] = r  # most recently used last
        while len(self._cache) > self._cache_cap:
            self._cache.pop(old := next(iter(self._cache)))
            self._dots = {pair: d for pair, d in self._dots.items() if old not in pair}
        return r

    def reserve(self, rows: int) -> None:
        """Size the row cache for a batch of pairwise calls over `rows` rows
        in all, such as the configurations of one lockstep search step."""
        self._cache_cap = max(self._cache_cap, 2 * rows + 1)

    def deriv_gram(self, idxs: Sequence[MultiIndex], cfg: FDConfig | None = None):
        """Gram of the kernel derivatives at the indices: dot products of the
        `partial_derivative` stencils (step `cfg`) of x0's row, over `_divisor`."""
        D = np.array([partial_derivative(self._ratios, self.x0, p, cfg) for p in idxs])
        return (D @ D.T) / self._divisor

    def _settle(self, P: np.ndarray) -> None:
        """Make the observations cover the rows of P; a fixed set already does."""

    def pairwise(self, points: np.ndarray, centred: bool = False) -> np.ndarray:
        """The kernel over the rows of `points`, or, centred, the
        `difference_block` of the kernel over [x0, *points]."""
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if centred:
            P = np.concatenate((self.x0[None], P))
        self.reserve(len(P))
        self._settle(P)
        rows = [(p.tobytes(), self._ratios(p)) for p in P]
        K = _dot_matrix(rows, lambda a, b: self._dot(a, b) / self._divisor)
        if not np.all(np.isfinite(K)):
            raise KernelEvaluationError("kernel produced non-finite values")
        return difference_block(K) if centred else K


class MonteCarloKernelEvaluator(_RowKernelEvaluator):
    """Kernel estimates from one frozen sample set drawn at x0.

    Reusing the same draws for all point pairs makes every empirical Gram
    matrix positive semidefinite by construction and keeps results
    reproducible.

    A row is the likelihood-ratio vector over the draws, cached and
    multiplied as `_RowKernelEvaluator` says; a pairwise entry is the mean
    of a product of two rows, and K(x0, x0) = 1.  Per draw set it keeps the
    draws and, for an exponential family or `as_generic` of one, phi(Y),
    else their reference log densities ld0.  The ratio of a family depends
    on the draws only through phi, so its new vector is
    exp(phi(Y)'(x - x0) - (A(x) - A(x0))), with neither log h nor ld0;
    any other model's is exp(log f(Y;x) - ld0).  ld0 is computed for every
    model, and ReferenceSupportError names the first draw where it is -inf,
    DataError one where it is NaN or +inf.
    """

    def __init__(self, model: Model, x0, mc_samples: int = 100_000, seed: int = 0,
                 samples: np.ndarray | None = None):
        mc_samples = _named("mc_samples", _number(int, 2), mc_samples)
        super().__init__(model, x0)
        self.seed = int(seed)
        Y = sample(model, self.x0, seed, mc_samples) if samples is None \
            else np.asarray(samples, dtype=float)
        self.mc_samples = _named("samples", _number(int, 2), len(Y))
        ld0 = self._observe(Y)
        finite = np.isfinite(ld0)
        if not finite.all():
            i = int(finite.argmin())  # the first draw where it is not finite
            value = float(ld0[i])
            error = ReferenceSupportError if value == -math.inf else DataError
            raise error(f"reference log density {value} at draw {i}, "
                        f"y={self.samples[i].tolist()}, for x0={self.x0.tolist()}")
        if self._phi is None:
            self._ld0 = ld0
        else:  # a family's ratio needs only phi(Y) and A(x0); the next vector takes ld0's memory
            self._ld0, self._A0 = None, _log_partition(self._family, self.x0)
        ones = np.ones(self.mc_samples)  # exp(ld0 - ld0) for a finite ld0
        ones.flags.writeable = False
        self._cache[self.x0.tobytes()] = ones

    @property
    def _divisor(self) -> int:
        return self.mc_samples

    def _family_log_row(self, x: np.ndarray) -> np.ndarray:
        """phi(Y)'(x - x0) - (A(x) - A(x0)), the log ratio (c = ld0), in a
        new array; for N = 1 the product is elementwise."""
        d = x - self.x0
        e = self._phi[..., 0] * d[0] if len(d) == 1 else self._phi @ d
        e -= _log_partition(self._family, x) - self._A0
        return e

    def _row(self, x) -> np.ndarray:
        e = self._log_row(x)  # a user model's log density may be its own array
        r = e if self._ld0 is None else np.subtract(e, self._ld0)
        return np.exp(r, out=r)

    def effective_sample_size(self, x) -> float:
        """Kish effective sample size (sum rho)^2 / sum rho^2 of the
        likelihood-ratio vector at x over the draws, from the kept dots
        n K(x0, x) and n K(x, x).  Where sum rho^2 overflows or is 0, the
        vector is scaled by its largest entry first; 0 when no draw carries
        a finite positive weight."""
        r = self._ratios(x)
        row = (np.asarray(x, dtype=float).tobytes(), r)
        with np.errstate(over="ignore"):
            squares = self._dot(row, row)
        if 0.0 < squares < math.inf:
            total = self._dot((self.x0.tobytes(), self._ratios(self.x0)), row)
            return total * (total / squares)
        top = float(r.max())
        if not 0.0 < top < math.inf:
            return 0.0
        w = r / top
        return float(w.sum() ** 2 / (w @ w))

    def diagnostics(self, gamma=None, points=None, pinv_tol: float = 1e-10) -> dict:
        """The sample count; given test `points`, also the Kish effective sample
        size per point (first: a point the row cache evicted is recomputed
        once) and the two-fold sample-split error of the projection of gamma
        onto their differences.  Each half's kernel matrix takes the `np.dot`
        of slices of the cached rows over the half's count, as an evaluator
        on that half computes it, and both halves are one `_solve` of two.
        The ratios are nonnegative, so each half's kernel is defined where
        the whole one's is."""
        if points is None:
            return {"mc_samples": self.mc_samples}
        ess = [self.effective_sample_size(p) for p in points]
        rows, half = [self._ratios(p) for p in [self.x0, *points]], self.mc_samples // 2
        kernels = [_dot_matrix([r[part] for r in rows], lambda a, b: float(np.dot(a, b)) / len(a))
                   for part in (slice(None, half), slice(half, None))]
        rhs = gram_rhs(self, [DiffBasis(p) for p in points], gamma)
        low, high = (max(_result(outcome)[0], 0.0) for outcome in
                     _solve([(difference_block(K), rhs) for K in kernels], pinv_tol))
        return {"mc_samples": self.mc_samples, "mc_effective_sample_size": ess,
                "mc_standard_error": abs(low - high) / 2.0}

    def evaluate(self, x1, x2) -> float:
        return self.evaluate_with_se(x1, x2).value

    def evaluate_with_se(self, x1, x2) -> MCKernelEstimate:
        prod = self._ratios(x1) * self._ratios(x2)
        n = len(prod)
        value = float(prod.mean())
        stderr = float(prod.std(ddof=1) / math.sqrt(n))
        # heavy-tail symptom: when a single draw dominates the sum, the
        # standard error cannot be trusted to shrink like 1/sqrt(n)
        total = float(prod.sum())
        dominance = float(prod.max()) / total if total > 0 else 0.0
        heavy = dominance > max(0.01, 50.0 / n)
        return MCKernelEstimate(value=value, stderr=stderr, heavy_tail_warning=heavy)

    # bound here too, so that perfbench's tracer can time this route's calls
    pairwise = _RowKernelEvaluator.pairwise


#: Most terms the summation route sums, 2^17 = 131,072: a row then holds
#: about as many floats as one Monte Carlo ratio vector at the default 10^5
#: draws, so the exact route never keeps more memory than the route it
#: replaces.  For Poisson at x0 = 0 that covers test points up to about
#: x = 5.8, where the terms of K(x, x) centre on y = e^(2x) = 10^5.
SUMMATION_MAX_TERMS = 2 ** 17

#: Terms of an unbounded support summed at first; the count doubles from here.
_FIRST_TERMS = 64

#: A row s is long enough when its last term of K(x, x), s(y)^2, lies 50
#: nats below the largest: s(last) <= e^-25 max s.
_TAIL = math.exp(-25.0)


class SummationKernelEvaluator(_RowKernelEvaluator):
    """Exact kernel of a GenericModel whose observation is one integer with a
    declared `support`: a sum over the support, no draws.

    With s_x(y) = f(y;x) / sqrt(f(y;x0)), the kernel is
    R(x1, x2) = sum_y s_x1(y) s_x2(y), so the row of a point is s_x over the
    support points summed so far, cached and multiplied as
    `_RowKernelEvaluator` says.  Derivative bases use the same rows: the
    `partial_derivative` stencil of s at x0 gives
    <r^(p), r^(q)> = sum_y D^p s(y) D^q s(y).

    A bounded support (lo, hi) is summed in full.  An unbounded one starts
    with the first 64 points from lo, and a pairwise call doubles the count
    until each of its rows ends 50 nats down: the last term of K(x, x) lies
    that far below its largest (x0's row is settled at construction;
    derivative stencils stay near x0 and use the current count).  Each
    doubling forgets the cached rows and dots; a row is recomputed over the
    longer support, one log density, when it is next asked for.  The rule
    assumes terms that rise and then fall; DataError names the first row
    that rises again after it fell.  KernelEvaluationError when the count
    would pass SUMMATION_MAX_TERMS, or a row overflows float64; a Barankin
    search skips such a configuration as undefined.  ReferenceSupportError
    names a support point where the reference density vanishes and a row's
    does not; DataError a NaN or +inf log density.
    """

    _divisor = 1

    def __init__(self, model: GenericModel, x0):
        lo, hi = model.support or (0, -1)
        if model.obs_dim != 1 or hi is not None and hi < lo:
            raise ConfigurationError(f"support {model.support} of model {model.name!r}: an exact "
                                     f"sum needs one integer observation and a declared support "
                                     f"(lo, hi), lo <= hi")
        super().__init__(model, as_param(model, x0))
        self._unbounded = hi is None
        self._sum_over(_FIRST_TERMS if self._unbounded else hi - lo + 1, self.x0)
        while not self._settled(self._ratios(self.x0)):
            self._grow(self.x0)

    def _sum_over(self, n: int, x: np.ndarray) -> None:
        """Make the first n support points the observations, with their
        reference log density checked; x is the point that needs them."""
        if n > SUMMATION_MAX_TERMS:
            raise KernelEvaluationError(
                f"summing the support of model {self.model.name!r} at x={x.tolist()} "
                f"needs more than {SUMMATION_MAX_TERMS} terms (x0={self.x0.tolist()})")
        ld0 = self._observe((self.model.support[0] + np.arange(n, dtype=float))[:, None])
        if self._phi is not None:
            self._log_h = self._family.log_h(self.samples)
        bad = np.isnan(ld0) | (ld0 == math.inf)
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"reference log density {ld0[i]} at y={self.samples[i, 0]:g} "
                            f"for x0={self.x0.tolist()}")
        off = ld0 == -math.inf
        self._ld0, self._off = ld0, off if off.any() else None
        self._half = np.where(off, 0.0, 0.5 * ld0)

    def _family_log_row(self, x: np.ndarray) -> np.ndarray:
        """The log density (c = 0), from the kept phi and log h."""
        return _family_log_density(self._family, self._phi, self._log_h, x)

    def _row(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ld = self._ld0 if x.tobytes() == self.x0.tobytes() else self._log_row(x)
        if self._off is not None and (ld[self._off] != -math.inf).any():
            i = int(np.flatnonzero(self._off & (ld != -math.inf))[0])
            raise ReferenceSupportError(
                f"reference density vanishes at y={self.samples[i, 0]:g} for "
                f"x0={self.x0.tolist()}, where the log density at x={x.tolist()} is {ld[i]}")
        t = ld - self._half  # -inf where the density at x vanishes
        top = t.max()
        if not top <= _EXP_MAX:
            if math.isnan(top):
                raise DataError(f"log density NaN at y={self.samples[np.isnan(t).argmax(), 0]:g} "
                                f"for x={x.tolist()}")
            raise KernelEvaluationError(f"summation term overflowed at x={x.tolist()}")
        r = np.exp(t, out=t)
        if self._unbounded:
            d = np.diff(r)
            tol = 1e-12 * r.max()  # rounding of equal neighbours is no turn
            falls = np.flatnonzero(d < -tol)
            rises = np.flatnonzero(d[falls[0]:] > tol) if len(falls) else ()
            if len(rises):
                raise DataError(
                    f"summation terms of model {self.model.name!r} at x={x.tolist()} rise "
                    f"again at y={self.samples[falls[0] + rises[0] + 1, 0]:g} after falling; "
                    f"the stopping rule needs terms that rise and then fall")
        return r

    def _settled(self, row: np.ndarray) -> bool:
        return not self._unbounded or 0.0 < (top := row.max()) and row[-1] <= _TAIL * top

    def _grow(self, x: np.ndarray) -> None:
        """Double the support points for the row of x and forget the rows and
        dots: `_ratios` recomputes a row over the longer support when it is
        next asked for, and raises there if it fails."""
        self._sum_over(2 * len(self.samples), x)
        self._cache, self._dots = {}, {}

    def diagnostics(self, gamma=None, points=None, pinv_tol: float = 1e-10) -> dict:
        """The route and the number of terms summed so far."""
        return {"route": "summation", "summation_terms": len(self.samples)}

    def _settle(self, P: np.ndarray) -> None:
        while (x := next((p for p in P if not self._settled(self._ratios(p))), None)) \
                is not None:
            self._grow(x)


KernelEvaluator = ExpfamKernelEvaluator | MonteCarloKernelEvaluator | SummationKernelEvaluator


def _make_evaluator(model, x0, mc_samples, seed) -> KernelEvaluator:
    """The one route choice: closed form for an exponential family, a sum over
    the support for a model that declares one, else Monte Carlo."""
    if isinstance(model, ExponentialFamilyModel):
        return ExpfamKernelEvaluator(model, x0)
    if model.support is not None:
        return SummationKernelEvaluator(model, x0)
    return MonteCarloKernelEvaluator(model, x0, mc_samples, seed)


def kernel_mc(model: Model, x0, x1, x2, n: int = 100_000, seed: int = 0) -> MCKernelEstimate:
    """One-shot Monte Carlo kernel estimate with its standard error."""
    return MonteCarloKernelEvaluator(model, x0, n, seed).evaluate_with_se(x1, x2)


# ---------------------------------------------------------------------------
# Derivative functions of the kernel
# ---------------------------------------------------------------------------

def derivative_kernel_function(evaluator: ExpfamKernelEvaluator, p, x_eval,
                               cfg: FDConfig | None = None) -> float:
    """Value at x_eval of the kernel partial derivative taken in the second
    slot at x0, computed by central finite differences."""
    if not isinstance(evaluator, ExpfamKernelEvaluator):
        raise ValueError("derivative kernel functions require the closed-form evaluator")
    p = as_index(p, dim=evaluator.model.param_dim)
    x_eval = np.atleast_1d(np.asarray(x_eval, dtype=float))
    if p.order == 0:
        return evaluator.evaluate(x_eval, evaluator.x0)
    return partial_derivative(lambda z: evaluator.evaluate(x_eval, z),
                              evaluator.x0, p, cfg)


def _exact_tables(model, x0, indices: Sequence[MultiIndex]):
    """Moment and reciprocal-derivative tables sufficient for all pairwise
    inner products among derivative functions of the given orders."""
    cap = MultiIndex(tuple(max(p[k] for p in indices) for k in range(model.param_dim)))
    mu = moment_table(model, x0, cap.plus(cap))
    nu = reciprocal_series(mu, cap)
    return mu, nu


def _exact_deriv_inner(mu, nu, p1: MultiIndex, p2: MultiIndex) -> float:
    """<r^(p1), r^(p2)> from the Leibniz expansion of the closed-form kernel."""
    total = 0.0
    for b1, q1, r1 in _leibniz_terms(p1):
        c1 = b1 * nu[r1]
        for b2, q2, r2 in _leibniz_terms(p2):
            total += c1 * b2 * mu[tuple(map(operator.add, q1, q2))] * nu[r2]
    return total


def _exact_point_deriv(model, x0_nu, p: MultiIndex, a) -> float:
    """r^(p)(a) from moments at a and reciprocal derivatives at x0."""
    mu_a = moment_table(model, a, p)
    return sum(b * mu_a[q] * x0_nu[r] for b, q, r in _leibniz_terms(p))


def _fd_deriv_inner(model, x0, p1: MultiIndex, p2: MultiIndex,
                    cfg: FDConfig | None = None) -> float:
    """Mixed kernel derivative in both slots by one tensor stencil over the
    stacked (x1, x2) variables.  Total order is capped at MAX_FD_ORDER."""
    if p1.order + p2.order > MAX_FD_ORDER:
        raise ConfigurationError(
            f"indices {tuple(p1)} and {tuple(p2)}: combined derivative order "
            f"{p1.order + p2.order} exceeds the finite-difference cap {MAX_FD_ORDER}; "
            f"supply closed-form moments")
    N = model.param_dim
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    stacked = np.concatenate([x0, x0])

    def f(z):
        return kernel_expfam(model, x0, z[:N], z[N:])

    return partial_derivative(f, stacked, MultiIndex(tuple(p1) + tuple(p2)), cfg)


def deriv_inner_products(model: ExponentialFamilyModel, x0,
                         indices: Sequence, cfg: FDConfig | None = None) -> np.ndarray:
    """Matrix of inner products among kernel derivative functions at x0.

    Exact via moment algebra when the family has closed-form moments,
    finite differences of the closed-form kernel otherwise.
    """
    idxs = [as_index(p, dim=model.param_dim) for p in indices]
    if model.closed_moments is not None:
        return _dot_matrix(idxs, partial(_exact_deriv_inner, *_exact_tables(model, x0, idxs)))
    return _dot_matrix(idxs, lambda p1, p2: _fd_deriv_inner(model, x0, p1, p2, cfg))


# ---------------------------------------------------------------------------
# Gram systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointBasis:
    """Basis function u = R(., x)."""
    x: np.ndarray


@dataclass(frozen=True)
class DiffBasis:
    """Basis function u = R(., x) - R(., x0)."""
    x: np.ndarray


@dataclass(frozen=True)
class DerivBasis:
    """Basis function u = r^(p), the kernel derivative function at x0."""
    p: tuple


@dataclass(frozen=True)
class GramSystem:
    """Gram matrix, right-hand side of inner products with the mean function,
    eigenpairs (eigenvectors as rows), truncation tolerance and diagnostics."""

    matrix: np.ndarray
    rhs: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    pinv_tol: float = 1e-10
    diagnostics: dict = field(default_factory=dict)


def make_gram_system(G: np.ndarray, rhs: np.ndarray, pinv_tol: float = 1e-10) -> GramSystem:
    """One `eigh` of G, eigenpairs in descending order of |eigenvalue|.

    G is one (m, m) matrix with an (m,) rhs, or a stack (B, m, m) of them
    with a (B, m) rhs; a stacked system's eigenpairs gain the leading axis
    and its diagnostics are lists with one entry per matrix.  One matrix is
    solved as a stack of one.  ValueError unless every G is square, has one
    row per rhs entry and is symmetric within 1e-12 * max(1, max|G|);
    DataError names the first non-finite entry of G or rhs (and its matrix
    in a stack); ConfigurationError unless 0 <= pinv_tol < 1.  rank counts the
    kept eigenpairs, those with |eigenvalue| > pinv_tol * max|eigenvalue| (0
    for G = 0), condition_number is the largest over the smallest kept
    |eigenvalue| (inf at rank 0), min_eigenvalue the smallest signed one."""
    pinv_tol = _named("pinv_tol", _TOLERANCE, pinv_tol)
    G = np.asarray(G, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    stacked = G.ndim == 3
    if not stacked:
        G, rhs = np.atleast_2d(G), np.atleast_1d(rhs)
    Gs, rs = (G, rhs) if stacked else (G[None], rhs[None])
    B, m = Gs.shape[:2]
    if Gs.ndim != 3 or Gs.shape[2] != m or rs.shape != (B, m):
        raise ValueError(f"incompatible Gram shapes {G.shape} and {rhs.shape}")
    in_system = " in system {}" if stacked else ""
    if m:
        scale = np.abs(Gs).max(axis=(1, 2)).tolist()  # NaN and inf propagate through max
        if not (all(map(math.isfinite, scale)) and np.isfinite(rs).all()):
            name, x = ("Gram matrix", Gs) if not all(map(math.isfinite, scale)) \
                else ("right-hand side", rs)
            b, *bad = np.argwhere(~np.isfinite(x))[0].tolist()
            raise DataError(f"non-finite {name} entry at index {tuple(bad)}"
                            + in_system.format(b))
        # G - G.T is exactly antisymmetric, so its max is its largest |entry|
        asymmetry = (Gs - Gs.swapaxes(1, 2)).max(axis=(1, 2)).tolist()
        for b, (a, sc) in enumerate(zip(asymmetry, scale)):
            if a > 1e-12 * max(1.0, sc):
                raise ValueError("Gram matrix is not symmetric" + in_system.format(b))
        w, v = np.linalg.eigh(Gs)
        ascending = w.tolist()
        # descending |eigenvalue|, ties ordered as svd(hermitian=True) orders them
        order = np.abs(w).argsort(axis=1)[:, ::-1]
        rows = np.arange(B)[:, None]
        w, vt = w[rows, order], v.swapaxes(1, 2)[rows, order]
    else:
        w, vt, ascending = np.empty((B, 0)), np.empty((B, 0, 0)), [[0.0]] * B
    ranks, conditions = [], []
    for row in ascending:
        s = sorted(map(abs, row), reverse=True)
        rank = len([x for x in s if x > pinv_tol * s[0]])
        ranks.append(rank)
        conditions.append(s[0] / s[rank - 1] if rank else math.inf)
    if stacked:
        return GramSystem(G, rhs, w, vt, pinv_tol, {
            "rank": ranks, "min_eigenvalue": [row[0] for row in ascending],
            "condition_number": conditions})
    return GramSystem(G, rhs, w[0], vt[0], pinv_tol, {
        "rank": ranks[0], "min_eigenvalue": ascending[0][0], "condition_number": conditions[0]})


def signed_sq_norm(system: GramSystem):
    """rhs' G^+ rhs over the leading `rank` eigenpairs, those with |eigenvalue|
    above pinv_tol times the largest: a float for one matrix, a list with one
    value per matrix for a stacked system.  The matrices of one rank share a
    stacked product, in which each gets the matrix-vector product and sum it
    gets alone.  Not clamped: an indefinite matrix can give a negative value."""
    vt, w, rhs, ranks = system.eigenvectors, system.eigenvalues, system.rhs, \
        system.diagnostics["rank"]
    if vt.ndim == 2:
        coeff = vt[:ranks] @ rhs
        return float((coeff * coeff / w[:ranks]).sum())
    values = [0.0] * len(ranks)
    for r in set(ranks):
        rows = [b for b, rank in enumerate(ranks) if rank == r]
        pick = rows if len(rows) < len(ranks) else slice(None)
        coeff = (vt[pick, :r] @ rhs[pick, :, None])[..., 0]
        for b, value in zip(rows, (coeff * coeff / w[pick, :r]).sum(axis=1).tolist()):
            values[b] = value
    return values


def projected_sq_norm(system: GramSystem):
    """rhs' G^+ rhs with relative eigenvalue truncation, clamped at zero: a
    float for one matrix, a list with one value per matrix for a stacked
    system."""
    value = signed_sq_norm(system)
    if isinstance(value, list):
        return [max(v, 0.0) for v in value]
    return max(value, 0.0)


def _solve(systems: Sequence, pinv_tol) -> list:
    """The one solver of every Gram system.  Each entry of `systems` is a
    (matrix, rhs, ...) sequence, or None for an undefined configuration; its
    outcome is None, the exception the system raises when solved alone, or
    the unclamped (value, rank, condition number, smallest eigenvalue) of
    rhs' matrix^+ rhs.  The systems of one size share one `make_gram_system`
    and one `signed_sq_norm`; only a size whose stack fails is solved system
    by system.  An overflow to an infinite value is not warned about."""
    def solved(G, rhs):
        system = make_gram_system(G, rhs, pinv_tol)
        d = system.diagnostics
        return signed_sq_norm(system), d["rank"], d["condition_number"], d["min_eigenvalue"]

    outcomes = [None] * len(systems)
    sizes: dict[int, list[int]] = {}  # rhs length -> positions of its systems
    for i, system in enumerate(systems):
        if system is not None:
            sizes.setdefault(len(system[1]), []).append(i)
    with np.errstate(over="ignore"):
        for at in sizes.values():
            try:
                for i, outcome in zip(at, zip(*solved([systems[i][0] for i in at],
                                                       [systems[i][1] for i in at]))):
                    outcomes[i] = outcome
            except Exception:  # alone, a failing system raises its own error
                for i in at:
                    try:
                        outcomes[i] = solved(*systems[i][:2])
                    except Exception as exc:
                        outcomes[i] = exc
    return outcomes


def _result(outcome):
    """An outcome of `_solve`, or a result built from one, as it is; an
    exception raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def difference_block(K: np.ndarray, d=None) -> np.ndarray:
    """Gram block ((K_ij - d_j K_i0) - d_i K_0j) + d_i d_j K_00 of the point
    and difference basis functions at x_1, ..., x_m, from the kernel matrix K
    over [x0, x_1, ..., x_m] or a stack of them; d_i = 1 marks a difference
    R(., x_i) - R(., x0) and 0 a point R(., x_i), and d = None makes every
    basis function a difference.
    It loses about eps / |x_i - x0|^2 to cancellation, so the closed form
    builds a basis of differences only without it (centred `pairwise`); it
    serves bases that mix points and differences, and the row evaluators,
    whose entries are dot products of rows."""
    Ki0, K0j, K00 = K[..., 1:, :1], K[..., :1, 1:], K[..., :1, :1]
    d = np.ones(K.shape[-1] - 1) if d is None else d
    dcol = d[:, None]
    return ((K[..., 1:, 1:] - Ki0 * d) - dcol * K0j) + dcol * (d * K00)


def gram(evaluator: KernelEvaluator, basis: Sequence, cfg: FDConfig | None = None) -> np.ndarray:
    """Gram matrix of inner products among basis functions, assembled from
    kernel values and kernel derivatives via the reproducing property.

    A basis of differences only is one centred `pairwise` over its points.
    Point and difference entries mixed are the `difference_block` of one
    pairwise kernel matrix over [x0, x_1, ..., x_m].  Derivative entries are the
    evaluator's `deriv_gram` (finite-difference step `cfg`): in closed form
    `deriv_inner_products`, by Monte Carlo the mean of D^p rho * D^q rho over
    the draws, on a summed support the sum of D^p s * D^q s.  Mixed with
    points they need the closed form.
    """
    x0, model = evaluator.x0, evaluator.model
    deriv = [i for i, b in enumerate(basis) if isinstance(b, DerivBasis)]
    points = [i for i, b in enumerate(basis) if not isinstance(b, DerivBasis)]
    idxs = [as_index(basis[i].p, dim=model.param_dim) for i in deriv]
    if idxs and not points:
        return evaluator.deriv_gram(idxs, cfg)
    P = np.array([x0] + [basis[i].x for i in points], dtype=float)
    d = np.array([float(isinstance(basis[i], DiffBasis)) for i in points])
    if not deriv and d.size and d.all():
        return evaluator.pairwise(P[1:], centred=True)
    block = difference_block(evaluator.pairwise(P), d)
    if not deriv:
        return block

    if not isinstance(evaluator, ExpfamKernelEvaluator):
        raise ValueError("derivative basis functions require the closed-form evaluator")
    if model.closed_moments is not None:
        entry = partial(_exact_point_deriv, model, _exact_tables(model, x0, idxs)[1])
    else:
        entry = partial(derivative_kernel_function, evaluator, cfg=cfg)
    D = np.array([[entry(p, a) for p in idxs] for a in P])
    cross = D[1:] - d[:, None] * D[:1]
    G = np.empty((len(basis), len(basis)))
    G[np.ix_(points, points)] = block
    G[np.ix_(points, deriv)] = cross
    G[np.ix_(deriv, points)] = cross.T
    G[np.ix_(deriv, deriv)] = evaluator.deriv_gram(idxs, cfg)
    return G


def gram_rhs(evaluator: KernelEvaluator, basis: Sequence, gamma: MeanFunction) -> np.ndarray:
    """Inner products of the mean function with each basis function, obtained
    by the reproducing property: evaluation for point bases, differences for
    difference bases, partial derivatives for derivative bases."""
    x0 = evaluator.x0
    g0 = float(gamma.value(x0)) if any(isinstance(b, DiffBasis) for b in basis) else 0.0
    out = np.empty(len(basis))
    for i, b in enumerate(basis):
        if isinstance(b, DerivBasis):
            out[i] = mean_partial(gamma, x0, b.p)
        else:  # v - 0.0 is v: a point basis function keeps gamma's value
            out[i] = float(gamma.value(np.asarray(b.x, dtype=float))) \
                - (g0 if isinstance(b, DiffBasis) else 0.0)
    return out


def gram_system(evaluator: KernelEvaluator, basis: Sequence, gamma: MeanFunction,
                pinv_tol: float = 1e-10) -> GramSystem:
    return make_gram_system(gram(evaluator, basis), gram_rhs(evaluator, basis, gamma),
                            pinv_tol)


# ---------------------------------------------------------------------------
# Kernel invariance under sufficient statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SufficientStatistic:
    """A statistic map z = t(y) together with the statistical model it induces."""

    map: Callable[[np.ndarray], np.ndarray]
    induced_model: Model


@dataclass(frozen=True)
class ProbePairResult:
    x1: np.ndarray
    x2: np.ndarray
    value_original: float
    value_induced: float
    abs_difference: float
    combined_se: float | None
    within_tolerance: bool


@dataclass(frozen=True)
class SuffStatReport:
    mode: str
    tolerance: float
    pairs: list[ProbePairResult]
    #: Monte Carlo mode only: worst pointwise gap between the likelihood
    #: ratio of the original model and the ratio of the induced model
    #: evaluated on transformed draws z = t(y).
    factorization_gap: float | None = None

    @property
    def flagged(self) -> list[ProbePairResult]:
        return [p for p in self.pairs if not p.within_tolerance]


def suffstat_kernel_check(model: Model, statistic: SufficientStatistic, x0,
                          probe_pairs: Sequence, n: int = 100_000, seed: int = 0,
                          tolerance: float = 1e-9, mode: str = "auto",
                          se_multiplier: float = 4.0) -> SuffStatReport:
    """Compare the kernel of the original model against the kernel of the
    model induced by a statistic, pair by pair.

    mode "auto" uses closed forms when both models are exponential families,
    Monte Carlo otherwise; mode "mc" forces Monte Carlo.  In Monte Carlo mode
    each model uses its own draws (same seed, so the trivial statistic gives
    an exactly zero difference), a pair is flagged when the difference
    exceeds se_multiplier combined standard errors, and the report also
    carries the worst pointwise likelihood-ratio gap between the original
    model and the induced model evaluated on transformed draws.
    """
    induced = statistic.induced_model
    both_expfam = isinstance(model, ExponentialFamilyModel) and \
        isinstance(induced, ExponentialFamilyModel)
    if mode == "auto":
        mode = "closed_form" if both_expfam else "mc"
    if mode not in ("closed_form", "mc"):
        raise ConfigurationError(f"mode: unknown mode {mode!r}")
    if mode == "closed_form" and not both_expfam:
        raise ConfigurationError("mode: closed-form comparison needs two exponential-family models")

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if mode == "closed_form":
        def values(x1, x2):  # (original, induced, combined standard error)
            return kernel_expfam(model, x0, x1, x2), kernel_expfam(induced, x0, x1, x2), None
    else:
        ev_y = MonteCarloKernelEvaluator(model, x0, n, seed)
        ev_z = MonteCarloKernelEvaluator(induced, x0, n, seed)

        def values(x1, x2):
            ry, rz = ev_y.evaluate_with_se(x1, x2), ev_z.evaluate_with_se(x1, x2)
            return ry.value, rz.value, math.hypot(ry.stderr, rz.stderr)
    pairs: list[ProbePairResult] = []
    for x1, x2 in probe_pairs:
        vy, vz, se = values(x1, x2)
        diff = abs(vy - vz)
        pairs.append(ProbePairResult(
            x1=np.atleast_1d(np.asarray(x1, dtype=float)),
            x2=np.atleast_1d(np.asarray(x2, dtype=float)),
            value_original=vy, value_induced=vz, abs_difference=diff, combined_se=se,
            within_tolerance=diff <= (tolerance if se is None else se_multiplier * se)))
    if mode == "closed_form":
        return SuffStatReport(mode=mode, tolerance=tolerance, pairs=pairs)

    # pointwise factorization check: the likelihood ratio must be a function
    # of the statistic alone, so both models give the same ratio per draw
    probe_x = np.atleast_1d(np.asarray(probe_pairs[0][0], dtype=float)) if probe_pairs \
        else x0
    sub = ev_y.samples[: min(1000, len(ev_y.samples))]
    z_sub = np.atleast_2d(np.asarray(statistic.map(sub), dtype=float))
    ratio_y = np.exp(log_density_batch(model, sub, probe_x)
                     - log_density_batch(model, sub, x0))
    ratio_z = np.exp(log_density_batch(induced, z_sub, probe_x)
                     - log_density_batch(induced, z_sub, x0))
    gap = float(np.max(np.abs(ratio_y - ratio_z))) if len(sub) else 0.0
    return SuffStatReport(mode=mode, tolerance=tolerance, pairs=pairs,
                          factorization_gap=gap)
