"""Multi-index combinatorics, central finite differences, and moments of
canonical exponential families obtained from their moment-generating function.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _cartesian
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ConfigurationError, NaturalSpaceError, StencilError

#: Highest derivative order supported by the finite-difference path.  Central
#: differences beyond this lose essentially all significant digits in float64.
MAX_FD_ORDER = 4


class MultiIndex(tuple):
    """Vector of nonnegative integer derivative orders.

    Behaves like a plain tuple (hashable, compares equal to tuples with the
    same entries) and adds the componentwise operations used for derivative
    bookkeeping.
    """

    def __new__(cls, entries: Iterable[int]) -> "MultiIndex":
        vals = []
        for e in entries:
            i = int(e)
            if i != e or isinstance(e, (bool, np.bool_)):
                raise ValueError(f"multi-index entry {e!r} is not an integer")
            if i < 0:
                raise ValueError(f"multi-index entry {i} is negative")
            vals.append(i)
        return super().__new__(cls, vals)

    @property
    def order(self) -> int:
        return sum(self)

    def plus(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(a + b for a, b in zip(self, other, strict=True))

    def minus(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(a - b for a, b in zip(self, other, strict=True))

    def dominates(self, other: "MultiIndex") -> bool:
        """True iff self >= other componentwise."""
        return len(self) == len(other) and all(a >= b for a, b in zip(self, other))

    @classmethod
    def zero(cls, dim: int) -> "MultiIndex":
        return cls((0,) * dim)

    @classmethod
    def unit(cls, dim: int, axis: int) -> "MultiIndex":
        if axis not in range(dim):
            raise ValueError(f"axis {axis!r} is not in range({dim})")
        return cls(tuple(1 if k == axis else 0 for k in range(dim)))


def as_index(p, dim: int | None = None) -> MultiIndex:
    """Coerce an int or an iterable of ints to a MultiIndex, checking length."""
    if isinstance(p, MultiIndex):
        idx = p
    elif isinstance(p, (int, np.integer)):
        idx = MultiIndex((p,))
    else:
        idx = MultiIndex(p)
    if dim is not None and len(idx) != dim:
        raise ValueError(f"multi-index {tuple(idx)} has length {len(idx)}, expected {dim}")
    return idx


def _named(name: str, check, *args):
    """check(*args); a TypeError or ValueError is a ConfigurationError naming
    `name`, unless it is a ConfigurationError naming `name` or a field under it."""
    try:
        return check(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigurationError) and str(exc).startswith(name):
            raise
        raise ConfigurationError(f"{name}: {exc}") from exc


def _number(kind: type, low: float = -math.inf, strict: bool = False, below: float = math.inf):
    """check(value, *_): a finite `kind` (never a bool) >= low (> if strict), < below."""
    bound = (f" {'>' if strict else '>='} {low}" if low > -math.inf else "") + \
        (f" and < {below}" if below < math.inf else "")
    def check(value, *_):
        x = operator.index(value) if kind is int else float(value)
        if isinstance(value, (bool, np.bool_)) or not (
                math.isfinite(x) and (x > low if strict else x >= low) and x < below):
            raise ValueError(f"expected a finite {kind.__name__}{bound}, got {value!r}")
        return x
    return check


def _vector(value, dim: int | None = None) -> tuple:
    """`dim` finite numbers (one or more if dim is None) as a tuple of floats."""
    x = np.atleast_1d(np.asarray(value, dtype=float))
    if x.ndim != 1 or not x.size or dim not in (None, x.size) or not np.isfinite(x).all():
        raise ValueError(f"expected a vector of {dim or 'some'} finite numbers, got {value!r}")
    return tuple(x.tolist())


def multi_indices_leq(p) -> list[MultiIndex]:
    """All multi-indices q with q <= p componentwise, in lexicographic order."""
    p = as_index(p)
    return [MultiIndex(q) for q in _cartesian(*(range(k + 1) for k in p))]


def multi_binomial(p, q) -> int:
    """Product of componentwise binomial coefficients C(p_k, q_k)."""
    p = as_index(p)
    q = as_index(q, dim=len(p))
    if not p.dominates(q):
        raise ValueError(f"multi-index {tuple(q)} is not componentwise <= {tuple(p)}")
    out = 1
    for pk, qk in zip(p, q):
        out *= math.comb(pk, qk)
    return out


@lru_cache(maxsize=1024)
def _leibniz_terms(p) -> tuple[tuple[int, MultiIndex, MultiIndex], ...]:
    """(multi_binomial(p, q), q, p - q) for every q <= p, in the lexicographic
    order of multi_indices_leq(p), so the last term is q = p.

    Every Leibniz sum of the moment algebra walks these terms, and each bound
    call walks them many times over a handful of indices; caching them builds
    each index's terms once per process.  The cache is bounded because
    moment_table's cap comes from callers.
    """
    p = as_index(p)
    return tuple((multi_binomial(p, q), q, p.minus(q)) for q in multi_indices_leq(p))


@dataclass(frozen=True)
class FDConfig:
    """Central-difference configuration: one spacing shared by every axis."""

    step: float

    def __post_init__(self):
        object.__setattr__(self, "step", _named("step", _number(float, 0, strict=True), self.step))


# Central stencils of second-order accuracy; offsets are in units of the step.
_STENCILS: dict[int, tuple[tuple[int, ...], tuple[float, ...]]] = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def default_steps(x0: np.ndarray, p: MultiIndex) -> np.ndarray:
    """Per-axis spacing scaled by max(1, |x0_k|): 1e-4 through total order
    two, 1e-3 for orders three and four.  The wider step for high orders
    keeps float64 rounding error (which grows like eps / prod(step^p_k))
    below the truncation error."""
    scale = np.maximum(1.0, np.abs(np.asarray(x0, dtype=float)))
    base = 1e-4 if as_index(p).order <= 2 else 1e-3
    return base * scale


def _finite(val, point):
    """f's value at a stencil point: a float, or a float array for
    array-valued f.  StencilError names the point of a non-finite entry."""
    if isinstance(val, np.ndarray):
        if not np.isfinite(val).all():
            raise StencilError(point, val[~np.isfinite(val)][0])
        return val
    if not math.isfinite(val := float(val)):
        raise StencilError(point, val)
    return val


def partial_derivative(f: Callable[[np.ndarray], float | np.ndarray], x0, p,
                       cfg: FDConfig | None = None) -> float | np.ndarray:
    """Mixed partial derivative of order p at x0 by tensor-product central
    differences, accurate to O(step^2) per differentiated axis.

    f may return a float or a float array (differentiated entrywise).  Total
    order is capped at MAX_FD_ORDER.  Non-finite values of f on the stencil
    raise StencilError naming the failing point.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    p = as_index(p, dim=x0.size)
    if p.order > MAX_FD_ORDER:
        raise ValueError(f"derivative order {p.order} exceeds cap {MAX_FD_ORDER}")

    if p.order == 0:
        return _finite(f(x0), x0)

    steps = np.full(x0.size, cfg.step) if cfg is not None else default_steps(x0, p)

    axis_offsets = []
    axis_coeffs = []
    for k, order in enumerate(p):
        offs, coeffs = _STENCILS[order]
        axis_offsets.append(offs)
        # fold the 1/h^order normalization into the coefficients
        axis_coeffs.append(tuple(c / steps[k] ** order for c in coeffs))

    total = 0.0
    for combo in _cartesian(*(range(len(o)) for o in axis_offsets)):
        point = x0.copy()
        weight = 1.0
        for k, j in enumerate(combo):
            point[k] += axis_offsets[k][j] * steps[k]
            weight *= axis_coeffs[k][j]
        total += weight * _finite(f(point), point)
    return total


def _log_partition(model, x, context: str = "") -> float:
    """A(x) = log lambda(x) as a float.  NaturalSpaceError where it is not
    finite: outside the natural space (log_lambda gives +inf or NaN without
    overflowing), or with `overflow` set where log_lambda overflows float64
    at a point inside it, such as Poisson's e^x at x = 800."""
    try:
        with np.errstate(over="raise"):
            ll = float(model.log_lambda(x))
    except (FloatingPointError, OverflowError):
        raise NaturalSpaceError(x, context, overflow=True) from None
    if not math.isfinite(ll):
        raise NaturalSpaceError(x, context)
    return ll


def moment(model, x, p, cfg: FDConfig | None = None) -> float:
    """E_x{phi^p(y)}, the raw moment of the sufficient statistic.

    Uses the model's closed-form moments when available; otherwise central
    finite differences of the normalized moment-generating function, which
    requires p.order <= MAX_FD_ORDER and every stencil point inside the
    natural parameter space.
    """
    x = np.asarray(x, dtype=float)
    p = as_index(p, dim=model.param_dim)
    if p.order == 0:
        return 1.0
    if model.closed_moments is not None:
        return float(model.closed_moments(x, p))

    ll0 = _log_partition(model, x)

    def normalized_mgf(z: np.ndarray) -> float:
        return math.exp(_log_partition(model, z, "finite-difference stencil point") - ll0)

    return partial_derivative(normalized_mgf, x, p, cfg)


#: (model, point, cfg) -> {q: moment} of 64 points (a grid's, across its
#: methods), least recently used first.
_MOMENTS: dict[tuple, dict] = {}


def moment_table(model, x, cap, cfg: FDConfig | None = None) -> dict[MultiIndex, float]:
    """Raw moments E_x{phi^q} for every q <= cap componentwise, each computed
    once per model, point and cfg while `_MOMENTS` holds them."""
    cap = as_index(cap, dim=model.param_dim)
    x = np.asarray(x, dtype=float)
    key = (model, x.shape, x.tobytes(), cfg)
    known = _MOMENTS[key] = _MOMENTS.pop(key, {})
    if len(_MOMENTS) > 64:
        del _MOMENTS[next(iter(_MOMENTS))]
    for _, q, _ in _leibniz_terms(cap):
        if q not in known:
            known[q] = moment(model, x, q, cfg)
    return {q: known[q] for _, q, _ in _leibniz_terms(cap)}


def reciprocal_series(moments: Mapping[MultiIndex, float], cap) -> dict[MultiIndex, float]:
    """Scaled derivatives of the reciprocal moment-generating function.

    Returns nu_q = lambda(x) * d^q (1/lambda) / dx^q for q <= cap, computed
    from raw moments by inverting the Leibniz identity for lambda * (1/lambda) = 1.
    """
    nu: dict[MultiIndex, float] = {}
    for _, q, _ in _leibniz_terms(as_index(cap)):
        acc = 0.0
        for b, r, rest in _leibniz_terms(q)[:-1]:  # every r < q
            acc += b * nu[r] * moments[rest]
        nu[q] = -acc if any(q) else 1.0
    return nu
