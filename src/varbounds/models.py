"""Statistical models: canonical exponential families with exact samplers and
closed-form moments, a generic log-density wrapper, and prescribed mean
functions.

Conventions
-----------
Parameters are float arrays of shape (N,); batches stack along the leading
axis.  Observations are arrays of shape (count, M).  Model callables (phi,
log_h, log_lambda, log_density) must be vectorized over the leading axis;
every built-in family complies.  log_lambda returns +inf outside the natural
parameter space, and callers read it through `_log_partition`, which tells
that apart from an overflow inside it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .calculus import FDConfig, MultiIndex, _leibniz_terms, _log_partition, _named, _number, \
    as_index, moment, moment_table, partial_derivative, reciprocal_series
from .errors import ConfigurationError, DataError, NaturalSpaceError, ReferenceSupportError

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ExponentialFamilyModel:
    """A canonical exponential family f(y;x) = exp(phi(y)'x - A(x)) h(y).

    log_lambda is the log moment-generating function, equal to the cumulant
    A(x) where finite and +inf outside the natural parameter space.
    closed_moments, when present, maps (x, multi-index p) to E_x{phi^p(y)}.
    support, for a family whose observation is one integer, is its range
    (lo, hi), hi None when unbounded above; `as_generic` passes it on.

    second_difference, when present, maps x0 (N,) and offsets D (m, N) to the
    exactly symmetric (m, m) matrix A(x0 + d_i + d_j) - A(x0 + d_i) -
    A(x0 + d_j) + A(x0), computed without that cancellation: the Gram matrix
    of the differences R(., x0 + d_i) - R(., x0) is expm1 of it.  Where it is
    absent, or not finite or too large to exponentiate, or its expm1 has a
    diagonal entry that is not positive, the closed-form kernel takes expm1
    of its log-partition exponent, which also raises the error of a point
    outside the natural space or on its boundary.  A copy given another
    log_lambda must reset it to None.
    """

    name: str
    param_dim: int
    obs_dim: int
    phi: Callable[[np.ndarray], np.ndarray]
    log_h: Callable[[np.ndarray], np.ndarray]
    log_lambda: Callable[[np.ndarray], float | np.ndarray]
    sampler: Callable[[np.ndarray, int, int], np.ndarray]
    closed_moments: Callable[[np.ndarray, MultiIndex], float] | None = None
    natural_space_desc: str = "all of R^N"
    support: tuple[int, int | None] | None = None
    second_difference: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class GenericModel:
    """Any statistical model given by a log-density and a sampler.

    log_density(Y, x) must accept a (count, M) batch and return a (count,)
    array, with -inf marking observations outside the support at x.

    family is the exponential family whose log density this is, recorded by
    `as_generic` so that a Monte Carlo evaluator can keep phi and log h of
    its draws; it is None for a user model, whose log_density is the only
    formula.

    support declares an observation that is one integer in the range
    (lo, hi), hi None when unbounded above; kernels are then exact sums over
    it instead of Monte Carlo means.  None declares nothing.  It is model
    metadata, not a tuning option.

    A copy given another log_density must reset family, and support too
    unless the new density lives on the same integers, to None.
    """

    name: str
    param_dim: int
    obs_dim: int
    log_density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sampler: Callable[[np.ndarray, int, int], np.ndarray]
    family: ExponentialFamilyModel | None = None
    support: tuple[int, int | None] | None = None


Model = ExponentialFamilyModel | GenericModel


def as_param(model, x) -> np.ndarray:
    """x as a float vector of the model's parameter dimension."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.param_dim,):
        raise ConfigurationError(
            f"parameter shape {x.shape} does not match param_dim={model.param_dim}")
    return x


def _as_obs_batch(model, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        y = y.reshape(1, 1)
    elif y.ndim == 1:
        y = y.reshape(1, -1)
    if y.shape[-1] != model.obs_dim:
        raise ConfigurationError(
            f"observation shape {y.shape} does not match obs_dim={model.obs_dim}")
    return y


def natural_space_contains(model: ExponentialFamilyModel, x) -> bool:
    """True iff the log moment-generating function is finite at x, also
    where its float64 value overflows."""
    try:
        _log_partition(model, as_param(model, x))
    except NaturalSpaceError as exc:
        return exc.overflow
    return True


def _family_log_density(model: ExponentialFamilyModel, phi_Y: np.ndarray,
                        log_h_Y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(phi(Y)'x - A(x)) + log h(Y) from phi(Y) and log h(Y), in a new array.
    For N = 1 the product is the elementwise phi(Y)[:, 0] * x[0], the values
    of the one-term matmul phi(Y) @ x at a fraction of its cost; the matmul
    writes an exact zero as +0.0, a sign that - A(x) + log h(Y) absorbs for
    every built-in family."""
    ll = _log_partition(model, x)
    out = phi_Y[..., 0] * x[0] if len(x) == 1 else phi_Y @ x
    out -= ll
    out += log_h_Y
    return out


def log_density_batch(model: Model, Y: np.ndarray, x) -> np.ndarray:
    """Per-observation log density over a (count, M) batch.

    DataError, naming the model, when a GenericModel's log_density does not
    return one value per observation."""
    x = as_param(model, x)
    if isinstance(model, GenericModel):
        out = np.asarray(model.log_density(Y, x), dtype=float)
        if out.shape != (len(Y),):
            raise DataError(f"log_density of model {model.name!r} returned shape "
                            f"{out.shape}, expected ({len(Y)},)")
        return out
    return _family_log_density(model, model.phi(Y), model.log_h(Y), x)


def log_density(model: ExponentialFamilyModel, y, x) -> float:
    """log f(y;x) = phi(y)'x - A(x) + log h(y) for a single observation."""
    Y = _as_obs_batch(model, y)
    return float(log_density_batch(model, Y, x)[0])


def likelihood_ratio(model: Model, y, x, x0) -> float:
    """f(y;x) / f(y;x0); zero when f(y;x) vanishes.

    Raises ReferenceSupportError when the reference density f(y;x0) vanishes,
    which the construction of the ratio does not allow.
    """
    Y = _as_obs_batch(model, y)
    ld0 = float(log_density_batch(model, Y, x0)[0])
    if ld0 == -math.inf:
        raise ReferenceSupportError(
            f"reference density vanishes at y={np.asarray(y)!r} for x0={np.asarray(x0)!r}")
    ldx = float(log_density_batch(model, Y, x)[0])
    if ldx == -math.inf:
        return 0.0
    return math.exp(ldx - ld0)


def sample(model: Model, x, seed: int, count: int) -> np.ndarray:
    """Deterministic i.i.d. draws: identical (x, seed, count) give identical
    output.  DataError, naming the model, unless the sampler returns count
    rows of obs_dim values; they are returned as the sampler gave them."""
    x = as_param(model, x)
    count = _named("count", _number(int, 0), count)
    family = model if isinstance(model, ExponentialFamilyModel) else model.family
    if family is not None:
        _log_partition(family, x)
    if count == 0:
        return np.empty((0, model.obs_dim))
    Y = model.sampler(x, int(seed), count)
    if np.shape(Y) != (count, model.obs_dim):
        raise DataError(f"sampler of model {model.name!r} returned shape {np.shape(Y)}, "
                        f"expected ({count}, {model.obs_dim})")
    return Y


def as_generic(model: ExponentialFamilyModel) -> GenericModel:
    """View an exponential family through the generic log-density interface,
    with the family's declared support."""
    return GenericModel(
        name=f"{model.name}-generic",
        param_dim=model.param_dim,
        obs_dim=model.obs_dim,
        log_density=lambda Y, x: log_density_batch(model, Y, x),
        sampler=model.sampler,
        family=model,
        support=model.support,
    )


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def _gauss_raw_moment(mu: float, var: float, order: int) -> float:
    # E{Z^p} for Z ~ N(mu, var) via the two-term recursion
    m_prev, m = 1.0, mu
    if order == 0:
        return 1.0
    for k in range(2, order + 1):
        m_prev, m = m, mu * m + (k - 1) * var * m_prev
    return m


@lru_cache(maxsize=None)
def _stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    if k == n:
        return 1
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def _poisson_raw_moment(rate: float, order: int) -> float:
    return sum(_stirling2(order, k) * rate ** k for k in range(order + 1))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def gaussian_mean() -> ExponentialFamilyModel:
    """Scalar Gaussian with known unit variance; natural parameter is the mean.
    It is the one-observation gaussian-sum."""
    return replace(gaussian_sum(1), name="gaussian-mean")


def gaussian_mean_nd(dim: int = 2) -> ExponentialFamilyModel:
    """N-dimensional Gaussian mean with identity covariance."""
    dim = _named("dim", _number(int, 1), dim)

    def closed(x, p):
        out = 1.0
        for k in range(dim):
            out *= _gauss_raw_moment(float(x[k]), 1.0, p[k])
        return out

    return ExponentialFamilyModel(
        name="gaussian-mean-nd",
        param_dim=dim,
        obs_dim=dim,
        phi=lambda y: np.asarray(y, dtype=float),
        log_h=lambda y: -0.5 * np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)
                        - 0.5 * dim * _LOG_2PI,
        log_lambda=lambda x: 0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1),
        sampler=lambda x, seed, count: np.random.default_rng(seed).normal(
            loc=x, scale=1.0, size=(count, dim)),
        closed_moments=closed,
        natural_space_desc=f"all of R^{dim}",
        second_difference=lambda x0, D: D @ D.T,
    )


def gaussian_iid(n_obs: int = 3) -> ExponentialFamilyModel:
    """n_obs i.i.d. unit-variance Gaussians sharing one mean; phi(y) = sum(y).
    The sum is sufficient: A, the phi-moments and the kernel are gaussian-sum's."""
    n_obs = _named("n_obs", _number(int, 1), n_obs)
    return replace(
        gaussian_sum(n_obs),
        name="gaussian-iid",
        obs_dim=n_obs,
        phi=lambda y: np.sum(np.asarray(y, dtype=float), axis=-1, keepdims=True),
        log_h=lambda y: -0.5 * np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)
                        - 0.5 * n_obs * _LOG_2PI,
        sampler=lambda x, seed, count: np.random.default_rng(seed).normal(
            loc=float(x[0]), scale=1.0, size=(count, n_obs)),
    )


def gaussian_sum(n_obs: int = 3) -> ExponentialFamilyModel:
    """Model of the sample sum z = y_1 + ... + y_n for the gaussian-iid family."""
    n_obs = _named("n_obs", _number(int, 1), n_obs)
    return ExponentialFamilyModel(
        name="gaussian-sum",
        param_dim=1,
        obs_dim=1,
        phi=lambda y: np.asarray(y, dtype=float),
        log_h=lambda y: -np.asarray(y, dtype=float)[..., 0] ** 2 / (2.0 * n_obs)
                        - 0.5 * math.log(2.0 * math.pi * n_obs),
        log_lambda=lambda x: 0.5 * n_obs * np.asarray(x, dtype=float)[..., 0] ** 2,
        sampler=lambda x, seed, count: np.random.default_rng(seed).normal(
            loc=n_obs * float(x[0]), scale=math.sqrt(n_obs), size=(count, 1)),
        closed_moments=lambda x, p: _gauss_raw_moment(n_obs * float(x[0]), float(n_obs), p[0]),
        natural_space_desc="all of R",
        second_difference=lambda x0, D: n_obs * (D * D.T),
    )


_gammaln_vec = np.vectorize(math.lgamma, otypes=[float])


def _neg_log_factorial(y) -> np.ndarray:
    """-log(y!) as -lgamma(y + 1); -inf where y is not a count, NaN stays NaN."""
    y = np.asarray(y, dtype=float)[..., 0]
    on = (y >= 0) & (y == np.floor(y)) & (y < math.inf)
    if not on.all():
        out = np.where(np.isnan(y), y, -math.inf)
        out[on] = _neg_log_factorial(y[on, None])
        return out
    lo, hi = (y.min(), y.max()) if y.size else (0.0, -1.0)
    if hi - lo < y.size:  # lgamma once per integer in [lo, hi], without a sort
        return -_gammaln_vec(lo + np.arange(hi - lo + 1) + 1.0)[(y - lo).astype(np.intp)]
    distinct, inverse = np.unique(y + 1.0, return_inverse=True)
    return -_gammaln_vec(distinct)[inverse].reshape(y.shape)


def poisson() -> ExponentialFamilyModel:
    """Poisson counts; natural parameter is the log rate.

    log h is -lgamma(y + 1), so large counts do not overflow, and -inf off the counts.
    """
    return ExponentialFamilyModel(
        name="poisson",
        param_dim=1,
        obs_dim=1,
        phi=lambda y: np.asarray(y, dtype=float),
        log_h=_neg_log_factorial,
        log_lambda=lambda x: np.exp(np.asarray(x, dtype=float)[..., 0]),
        sampler=lambda x, seed, count: np.random.default_rng(seed).poisson(
            lam=math.exp(float(x[0])), size=(count, 1)).astype(float),
        closed_moments=lambda x, p: _poisson_raw_moment(math.exp(float(x[0])), p[0]),
        natural_space_desc="all of R",
        support=(0, None),
        second_difference=lambda x0, D: np.exp(x0[0]) * (np.expm1(D) * np.expm1(D.T)),
    )


def bernoulli() -> ExponentialFamilyModel:
    """Bernoulli in {0,1}; natural parameter is the logit of the success probability."""

    def second_difference(x0, D):
        a = np.expm1(D) / (1.0 + np.exp(x0 + D))
        return np.log1p(np.exp(x0[0]) * (a * a.T))

    return ExponentialFamilyModel(
        name="bernoulli",
        param_dim=1,
        obs_dim=1,
        phi=lambda y: np.asarray(y, dtype=float),
        log_h=lambda y: np.zeros(np.asarray(y, dtype=float).shape[:-1]),
        log_lambda=lambda x: np.logaddexp(0.0, np.asarray(x, dtype=float)[..., 0]),
        sampler=lambda x, seed, count: (
            np.random.default_rng(seed).random((count, 1)) < _sigmoid(float(x[0]))
        ).astype(float),
        closed_moments=lambda x, p: 1.0 if p[0] == 0 else _sigmoid(float(x[0])),
        natural_space_desc="all of R",
        support=(0, 1),
        second_difference=second_difference,
    )


def exponential_rate() -> ExponentialFamilyModel:
    """Exponential distribution on y >= 0 with rate -x; natural space x < 0."""

    def ll(x):
        x1 = np.asarray(x, dtype=float)[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x1 < 0, -np.log(-x1), np.inf)

    def log_h(y):
        y1 = np.asarray(y, dtype=float)[..., 0]
        return np.where(y1 >= 0, 0.0, -np.inf)

    def closed(x, p):
        rate = -float(x[0])
        if rate <= 0:
            raise NaturalSpaceError(np.asarray(x, dtype=float))
        return math.factorial(p[0]) / rate ** p[0]

    return ExponentialFamilyModel(
        name="exponential-rate",
        param_dim=1,
        obs_dim=1,
        phi=lambda y: np.asarray(y, dtype=float),
        log_h=log_h,
        log_lambda=ll,
        sampler=lambda x, seed, count: np.random.default_rng(seed).exponential(
            scale=1.0 / (-float(x[0])), size=(count, 1)),
        closed_moments=closed,
        natural_space_desc="x < 0",
        second_difference=lambda x0, D: np.log1p(D * D.T / (x0[0] * (x0[0] + (D + D.T)))),
    )


#: Registry for the CLI: name -> (factory, hyperparameter names with defaults).
BUILTIN_FAMILIES: dict[str, tuple[Callable[..., ExponentialFamilyModel], dict]] = {
    "gaussian-mean": (gaussian_mean, {}),
    "poisson": (poisson, {}),
    "bernoulli": (bernoulli, {}),
    "exponential-rate": (exponential_rate, {}),
    "gaussian-mean-nd": (gaussian_mean_nd, {"dim": 2}),
    "gaussian-iid": (gaussian_iid, {"n_obs": 3}),
    "gaussian-sum": (gaussian_sum, {"n_obs": 3}),
}


def make_model(family: str, **params) -> ExponentialFamilyModel:
    if family not in BUILTIN_FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}; known: {sorted(BUILTIN_FAMILIES)}")
    factory, defaults = BUILTIN_FAMILIES[family]
    if unknown := set(params) - set(defaults):
        raise ConfigurationError(f"family {family!r} does not take parameters {sorted(unknown)}")
    return factory(**{**defaults, **params})


# ---------------------------------------------------------------------------
# Prescribed mean functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanFunction:
    """Prescribed estimator mean gamma with value and optional derivative oracle.

    derivative(x, p) returns the mixed partial of gamma of multi-index order p;
    at the zero index it must equal value(x) exactly.  When absent, callers
    fall back to finite differences.
    """

    value: Callable[[np.ndarray], float]
    derivative: Callable[[np.ndarray, MultiIndex], float] | None = None


def mean_partial(gamma: MeanFunction, x0, p, cfg: FDConfig | None = None) -> float:
    """Partial derivative of the mean function, closed-form when available."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p = as_index(p, dim=x0.size)
    if p.order == 0:
        return float(gamma.value(x0))
    if gamma.derivative is not None:
        return float(gamma.derivative(x0, p))
    return partial_derivative(gamma.value, x0, p, cfg)


def constant_mean(c: float) -> MeanFunction:
    c = float(c)
    return MeanFunction(
        value=lambda x: c,
        derivative=lambda x, p: c if as_index(p).order == 0 else 0.0,
    )


def identity_mean(component: int = 0) -> MeanFunction:
    """gamma(x) = x_component; ConfigurationError, naming `component` and the
    parameter dimension, at an x without that component."""

    def value(x):
        x = np.atleast_1d(x)
        if not -len(x) <= component < len(x):
            raise ConfigurationError(f"component: {component} is outside a parameter "
                                     f"of dimension {len(x)}")
        return float(x[component])

    def deriv(x, p):
        p, v = as_index(p), value(x)  # value checks the component
        return v if p.order == 0 else float(p.order == 1 and p[component] == 1)

    return MeanFunction(value=value, derivative=deriv)


def polynomial_mean(coeffs) -> MeanFunction:
    """gamma(x) = sum_i coeffs[i] * x^i for a scalar parameter."""
    coeffs = [float(c) for c in coeffs]

    def value(x):
        t = float(np.atleast_1d(x)[0])
        return sum(c * t ** i for i, c in enumerate(coeffs))

    def deriv(x, p):
        p = as_index(p, dim=1)
        m = p[0]
        t = float(np.atleast_1d(x)[0])
        return sum(c * math.perm(i, m) * t ** (i - m)
                   for i, c in enumerate(coeffs) if i >= m)

    return MeanFunction(value=value, derivative=deriv)


def expfam_mean(model: ExponentialFamilyModel, component: int = 0) -> MeanFunction:
    """gamma(x) = E_x{phi_component(y)}, with derivatives from moment algebra.

    The derivative uses the Leibniz expansion of (d^e lambda / lambda); it is
    exact when the family has closed-form moments and falls back to finite
    differences of the moments otherwise.  ConfigurationError naming
    `component` unless it is in range(param_dim).
    """
    e_c = _named("component", MultiIndex.unit, model.param_dim, component)

    def value(x):
        return moment(model, x, e_c)

    def deriv(x, p):
        p = as_index(p, dim=model.param_dim)
        if p.order == 0:
            return value(x)
        mu = moment_table(model, x, p.plus(e_c))
        nu = reciprocal_series(mu, p)
        return sum(b * mu[tuple(map(operator.add, q, e_c))] * nu[r]
                   for b, q, r in _leibniz_terms(p))

    return MeanFunction(value=value, derivative=deriv)
