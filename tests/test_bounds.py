"""Variance lower bounds against closed-form oracles and each other."""

import math
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import yaml

import varbounds as vb
import varbounds.bounds as bounds_module
import varbounds.kernel as vb_kernel
from varbounds.bounds import METHODS, BarankinSearch, MethodSpec, TestPointSet, \
    _System, _quadratic_bound, barankin_search, evaluate_bound, method_options
from varbounds.calculus import as_index
from varbounds.cli import main
from varbounds.errors import ConfigurationError, ConstraintRankError, DataError, DomainError, \
    KernelEvaluationError, NaturalSpaceError, ReferenceSupportError, StencilError, \
    VarBoundsError
from varbounds.kernel import DiffBasis, deriv_inner_products, gram, gram_rhs, make_gram_system, \
    signed_sq_norm
from varbounds.models import ExponentialFamilyModel


def hcrb_single_point_oracle(delta: float) -> float:
    """Gaussian unit-variance mean, identity estimand, single test point at
    x0 + delta: bound is delta^2 / (exp(delta^2) - 1)."""
    return delta ** 2 / math.expm1(delta ** 2)


def mc_poisson() -> vb.GenericModel:
    """as_generic(poisson()) without its declared support: the Monte Carlo
    route's Poisson testbed."""
    return replace(vb.as_generic(vb.poisson()), support=None)


def shifted_exponential() -> vb.GenericModel:
    """y - x standard exponential: the support y >= x moves with x."""
    return vb.GenericModel(
        "shifted-exponential", 1, 1,
        lambda Y, x: np.where(Y[:, 0] >= x[0], x[0] - Y[:, 0], -np.inf),
        lambda x, seed, count: x[0] + np.random.default_rng(seed).exponential(size=(count, 1)))


#: Every built-in family, three without closed-form moments and three
#: Monte Carlo views, for the one-derivative-Gram oracle.
DERIV_GRAM_CASES = [
    (vb.gaussian_mean(), [0.7]), (vb.poisson(), [0.2]), (vb.bernoulli(), [-0.5]),
    (vb.exponential_rate(), [-1.0]), (vb.gaussian_mean_nd(2), [0.1, -0.6]),
    (vb.gaussian_iid(3), [0.3]), (vb.gaussian_sum(3), [0.3]),
    (replace(vb.poisson(), closed_moments=None), [0.2]),
    (replace(vb.bernoulli(), closed_moments=None), [-0.5]),
    (replace(vb.gaussian_mean_nd(2), closed_moments=None), [0.1, -0.6]),
    (vb.as_generic(vb.gaussian_mean()), [0.7]), (vb.as_generic(vb.poisson()), [0.2]),
    (vb.as_generic(vb.gaussian_mean_nd(2)), [0.1, -0.6]),
    (replace(vb.as_generic(vb.poisson()), support=None), [0.2]),
]


class TestFisherInfo:
    def test_gaussian_is_one(self):
        J = vb.fisher_info(vb.gaussian_mean(), [1.3])
        assert J == pytest.approx(np.array([[1.0]]), abs=1e-12)

    def test_poisson_is_rate(self):
        assert vb.fisher_info(vb.poisson(), [0.0])[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert vb.fisher_info(vb.poisson(), [math.log(2)])[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_two_dim_gaussian_is_identity(self):
        J = vb.fisher_info(vb.gaussian_mean_nd(2), [0.3, -0.4])
        assert J == pytest.approx(np.eye(2), abs=1e-12)

    def test_monte_carlo_path_matches_exact(self):
        J = vb.fisher_info(vb.as_generic(vb.gaussian_mean()), [0.0],
                           n_mc=100_000, seed=1)
        assert J[0, 0] == pytest.approx(1.0, abs=0.05)


class TestCRB:
    def test_gaussian_unbiased(self):
        for x0 in ([0.0], [2.0]):
            assert vb.crb(vb.gaussian_mean(), vb.identity_mean(), x0).value == \
                pytest.approx(1.0, abs=1e-12)

    def test_constant_mean_gives_zero(self):
        assert vb.crb(vb.poisson(), vb.constant_mean(3.0), [0.0]).value == 0.0

    def test_poisson_mean_value_estimand(self):
        # gamma(x) = e^x at x0=0: gradient 1, information 1
        res = vb.crb(vb.poisson(), vb.expfam_mean(vb.poisson()), [0.0])
        assert res.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("model, x0", DERIV_GRAM_CASES, ids=[
        f"{m.name}{'-fd' if getattr(m, 'closed_moments', 0) is None else ''}"
        for m, _ in DERIV_GRAM_CASES])
    def test_is_bhattacharyya_over_unit_indices(self, model, x0):
        # the Fisher matrix is the first-order derivative Gram, on every route
        gamma = vb.identity_mean(0)
        units = [tuple(row) for row in np.eye(len(x0), dtype=int)]
        cr = vb.crb(model, gamma, x0, n_mc=20_000, seed=4)
        bh = vb.bhattacharyya(model, gamma, x0, units, n_mc=20_000, seed=4)
        assert cr.value.hex() == bh.value.hex()
        assert cr.diagnostics["gram_rank"] == bh.diagnostics["gram_rank"]
        for key in ("condition_number", "min_eigenvalue"):
            assert float(cr.diagnostics[key]).hex() == float(bh.diagnostics[key]).hex()
        assert cr.diagnostics == bh.diagnostics  # the route tags too

    @pytest.mark.parametrize("model, calls", [
        (vb.as_generic(vb.gaussian_mean()), 3), (vb.as_generic(vb.gaussian_mean_nd(2)), 5)],
        ids=["N=1", "N=2"])
    def test_monte_carlo_differentiates_the_evaluator_ratios(self, log_density_calls, model,
                                                             calls):
        # the draws' log density at x0, then the ratio vectors at x0 -/+ h e_k
        vb.crb(model, vb.identity_mean(), np.zeros(model.param_dim), n_mc=1000, seed=3)
        assert len(log_density_calls) == calls

    def test_moving_support_gives_a_zero_ratio(self):
        # the density vanishes at x0 + h on the draws in [x0, x0 + h): rho is
        # 0 there, where the log-density score was -inf
        model, gamma = shifted_exponential(), vb.identity_mean()
        cr = vb.crb(model, gamma, [0.0], n_mc=20_000, seed=1)
        bh = vb.bhattacharyya(model, gamma, [0.0], [(1,)], n_mc=20_000, seed=1)
        assert cr.value.hex() == bh.value.hex()
        assert cr.value == pytest.approx(1.6e-4, rel=0.01)

    def test_non_finite_log_density_names_the_stencil_point(self):
        def ld(Y, x):
            return np.full(len(Y), np.nan) if x[0] > 0.0 else -0.5 * (Y[:, 0] - x[0]) ** 2
        model = vb.GenericModel("nan-above-zero", 1, 1, ld, vb.gaussian_mean().sampler)
        with pytest.raises(StencilError) as err:
            vb.crb(model, vb.identity_mean(), [0.0], n_mc=1000, seed=1)
        assert np.array_equal(err.value.point, [1e-4])  # x0 + h


class TestNullSpaceONB:
    def test_difference_constraint(self):
        U = vb.null_space_onb([[1.0, -1.0]])
        assert U.shape == (2, 1)
        expected = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs(abs(float(U[:, 0] @ expected)) - 1.0) < 1e-12

    def test_coordinate_constraint(self):
        U = vb.null_space_onb([[1.0, 0.0]])
        assert abs(abs(U[1, 0]) - 1.0) < 1e-12 and abs(U[0, 0]) < 1e-12

    def test_fully_constrained_scalar(self):
        U = vb.null_space_onb([[2.0]])
        assert U.shape == (1, 0)

    def test_orthonormal_and_annihilating(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(2, 5))
        U = vb.null_space_onb(F)
        assert U.T @ U == pytest.approx(np.eye(3), abs=1e-12)
        assert np.abs(F @ U).max() < 1e-10

    def test_redundant_constraints_rejected(self):
        with pytest.raises(ConstraintRankError):
            vb.null_space_onb([[1.0, 1.0], [2.0, 2.0]])

    def test_one_decomposition_per_call(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(k) or svd(*a, **k))
        F = [[1.0, -1.0, 0.5]]
        U = vb.null_space_onb(F)
        assert calls == [{}]
        assert np.array_equal(U, svd(np.asarray(F))[2][1:].T)
        with pytest.raises(ConstraintRankError):
            vb.null_space_onb([[1.0, 1.0], [2.0, 2.0]])
        assert len(calls) == 2


class TestConstrainedCRB:
    def test_equal_components_constraint(self):
        # estimate x1 under x1 = x2 on a 2-d unit Gaussian: b'U = 1/sqrt(2)
        res = vb.constrained_crb(vb.gaussian_mean_nd(2), vb.identity_mean(0),
                                 [0.5, 0.5], [[1.0, -1.0]])
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_no_constraints_equals_plain_crb_exactly(self):
        model, gamma, x0 = vb.gaussian_mean_nd(2), vb.identity_mean(0), [0.3, 0.9]
        plain = vb.crb(model, gamma, x0)
        unconstrained = vb.constrained_crb(model, gamma, x0, None)
        assert unconstrained.value == plain.value

    def test_fully_constrained_gives_zero(self):
        res = vb.constrained_crb(vb.gaussian_mean(), vb.identity_mean(), [0.0], [[1.0]])
        assert res.value == 0.0


class TestBhattacharyya:
    def test_first_order_reduces_to_crb(self):
        for model in (vb.gaussian_mean(), vb.poisson(), vb.bernoulli()):
            res = vb.bhattacharyya(model, vb.identity_mean(), [0.4], [(1,)])
            crb = vb.crb(model, vb.identity_mean(), [0.4])
            assert res.value == pytest.approx(crb.value, abs=1e-8)

    def test_order_two_matrix_and_value(self):
        # unit Gaussian at x0: B = diag(1, 2), a = (1, 0), bound 1
        g = vb.gaussian_mean()
        B = deriv_inner_products(g, np.array([0.0]), [(1,), (2,)])
        assert B == pytest.approx(np.diag([1.0, 2.0]), abs=1e-6)
        res = vb.bhattacharyya(g, vb.identity_mean(), [0.0], [(1,), (2,)])
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_constant_mean_gives_zero(self):
        res = vb.bhattacharyya(vb.gaussian_mean(), vb.constant_mean(5.0), [0.0],
                               [(1,), (2,)])
        assert res.value == 0.0

    def test_crb_special_case_on_all_closed_form_families(self):
        cases = [(vb.gaussian_mean(), [0.7]), (vb.poisson(), [0.2]),
                 (vb.bernoulli(), [-0.5]), (vb.exponential_rate(), [-1.0]),
                 (vb.gaussian_mean_nd(2), [0.1, -0.6])]
        for model, x0 in cases:
            gamma = vb.identity_mean(0)
            units = [tuple(np.eye(model.param_dim, dtype=int)[k])
                     for k in range(model.param_dim)]
            bh = vb.bhattacharyya(model, gamma, x0, units)
            cr = vb.crb(model, gamma, x0)
            assert bh.value == pytest.approx(cr.value, abs=1e-8), model.name

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            vb.bhattacharyya(vb.gaussian_mean(), vb.identity_mean(), [0.0], [(1,), (1,)])

    def test_zero_order_index_rejected(self):
        with pytest.raises(ValueError):
            vb.bhattacharyya(vb.gaussian_mean(), vb.identity_mean(), [0.0], [(0,)])

    def test_combined_order_above_the_finite_difference_cap_is_rejected(self):
        # without closed moments, <r^(3), r^(3)> would need an order-6 stencil
        fd = replace(vb.poisson(), closed_moments=None)
        with pytest.raises(ValueError, match="combined derivative order 6 exceeds the "
                                             "finite-difference cap 4"):
            vb.bhattacharyya(fd, vb.expfam_mean(fd), [0.0], [(1,), (3,)])

    def test_generic_model_monte_carlo_path(self):
        res = vb.bhattacharyya(vb.as_generic(vb.gaussian_mean()), vb.identity_mean(),
                               [0.0], [(1,)], n_mc=100_000, seed=2)
        assert res.value == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("gamma, indices, exact", [
        (vb.polynomial_mean([0.0, 0.0, 0.0, 1.0]), [(1,), (3,)], None),
        (vb.identity_mean(), [(1,), (4,)], 1.0),
    ], ids=["cube-orders-1-3", "identity-orders-1-4"])
    def test_generic_mixed_step_orders(self, gamma, indices, exact):
        # orders 3 and 4 difference at step 1e-3, orders 1 and 2 at 1e-4: the
        # ratio vectors of the two step sizes must not be confused (they were
        # once keyed by stencil offset alone, giving 1e-11 and 1e-32 here)
        if exact is None:
            exact = vb.bhattacharyya(vb.gaussian_mean(), gamma, [0.0], indices).value
            assert exact == pytest.approx(6.0, rel=1e-9)
        res = vb.bhattacharyya(vb.as_generic(vb.gaussian_mean()), gamma, [0.0], indices,
                               n_mc=200_000, seed=1)
        assert res.value == pytest.approx(exact, rel=0.15)

    def test_generic_reuses_reference_ratios(self, log_density_calls):
        # draws at x0 plus the ratio vectors at x0 -/+ h; the centre of the
        # order-2 stencil is x0, whose vector the evaluator starts with
        vb.bhattacharyya(vb.as_generic(vb.gaussian_mean()), vb.identity_mean(), [0.5],
                         [(1,), (2,)], n_mc=1000, seed=3)
        assert len(log_density_calls) == 3
        assert sum(np.array_equal(call.x, [0.5]) for call in log_density_calls) == 1


class TestHCRB:
    def test_single_point_oracle(self):
        res = vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                      TestPointSet([[1.0]]))
        assert res.value == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    def test_small_offset_approaches_crb(self):
        res = vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                      TestPointSet([[0.1]]))
        assert res.value == pytest.approx(hcrb_single_point_oracle(0.1), rel=1e-9)

    def test_constant_mean_gives_zero(self):
        res = vb.hcrb(vb.gaussian_mean(), vb.constant_mean(1.0), [0.0],
                      TestPointSet([[1.0], [2.0]]))
        assert res.value == 0.0

    def test_offsets_tighten_toward_crb(self):
        values = [vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                          TestPointSet([[d]])).value
                  for d in (1.0, 0.5, 0.1, 0.01)]
        assert values == sorted(values)
        assert abs(values[-1] - 1.0) <= 1e-3

    def test_translation_invariance(self):
        a = vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [0.0], TestPointSet([[0.3]]))
        b = vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [2.0], TestPointSet([[2.3]]))
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_monte_carlo_evaluator_for_generic_models(self):
        res = vb.hcrb(vb.as_generic(vb.gaussian_mean()), vb.identity_mean(), [0.0],
                      TestPointSet([[0.5]]), mc_samples=100_000, seed=3)
        assert res.value == pytest.approx(hcrb_single_point_oracle(0.5), abs=0.02)
        # the sample-split error estimate covers the actual deviation
        se = res.diagnostics["mc_standard_error"]
        assert se > 0
        assert abs(res.value - hcrb_single_point_oracle(0.5)) <= 6 * se

    def test_mc_effective_sample_size_per_test_point(self):
        p = vb.poisson()
        n = 20_000
        res = vb.hcrb(mc_poisson(), vb.expfam_mean(p), [0.0], TestPointSet([[3.0], [0.05]]),
                      mc_samples=n, seed=1)
        far, near = res.diagnostics["mc_effective_sample_size"]
        # Kish ESS / n estimates 1 / E[rho^2] = exp(-(e^delta - 1)^2) here
        assert far < 1e-3 * n
        assert near > 0.99 * n

    def test_rejects_test_point_at_x0(self):
        with pytest.raises(ValueError):
            vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [0.0], TestPointSet([[0.0]]))
        with pytest.raises(DomainError, match=r"hcrb.*x0=\[0\.0\]"):
            vb.hcrb(vb.gaussian_mean(), vb.identity_mean(), [0.0], TestPointSet([[0.0]]))

    @pytest.mark.parametrize("model", [vb.poisson(), vb.as_generic(vb.poisson()), mc_poisson()],
                             ids=["closed-form", "summation", "monte-carlo"])
    def test_rejects_an_empty_test_point_set(self, model, monkeypatch):
        # it used to return the bound 0 with gram_rank 0 (on Monte Carlo with
        # an empty ESS list); the check comes before any evaluator or draw
        def no_evaluator(*args):
            raise AssertionError("evaluator built")

        monkeypatch.setattr(bounds_module, "_make_evaluator", no_evaluator)
        with pytest.raises(ValueError, match="at least one test point is required"):
            vb.hcrb(model, vb.identity_mean(), [0.2], TestPointSet([]))

    def test_test_point_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TestPointSet([[1.0], [1.0]])


@pytest.mark.parametrize("model, x0, point", [
    (vb.gaussian_mean(), 0.0, 1e300), (vb.gaussian_mean(), 0.0, 1e154),
    (vb.poisson(), 0.0, 400.0)])
def test_hcrb_point_overflowing_the_log_mgf_raises_without_a_warning(model, x0, point):
    # the point itself, or its sum x1 + x2 - x0 with itself, overflows log_lambda;
    # the overflow used to reach stderr as a RuntimeWarning (an error here)
    with pytest.raises(NaturalSpaceError):
        vb.hcrb(model, vb.identity_mean(), [x0], TestPointSet([[point]]))


@pytest.mark.parametrize("bound", [
    lambda p: vb.crb(p, vb.expfam_mean(p), [800.0]),
    lambda p: vb.hcrb(p, vb.identity_mean(), [800.0], TestPointSet([[1.0]])),
    lambda p: vb.hcrb(p, vb.identity_mean(), [0.0], TestPointSet([[400.0]])),
    lambda p: vb.crb(vb.as_generic(p), vb.identity_mean(), [800.0]),
    lambda p: vb.expfam_bound(replace(p, closed_moments=None), vb.identity_mean(), [800.0],
                              [(1,)]),
    # the sampler of the family a Monte Carlo model views used to overflow first
    lambda p: vb.crb(mc_poisson(), vb.identity_mean(), [800.0]),
    lambda p: vb.hcrb(mc_poisson(), vb.identity_mean(), [800.0], TestPointSet([[1.0]])),
], ids=["crb", "hcrb", "hcrb-pair-sum", "summation", "moment-fd", "monte-carlo-crb",
        "monte-carlo-hcrb"])
def test_poisson_log_partition_overflow_is_not_outside_the_natural_space(bound):
    # e^800 overflows inside Poisson's natural space, all of R; the error
    # used to say the parameter lies outside it (the finite-difference
    # moments also warned first)
    with pytest.raises(NaturalSpaceError, match=r"log-partition overflowed at parameter "
                                                 r"array\(\[800\.\]\)") as info:
        bound(vb.poisson())
    assert info.value.overflow and "outside" not in str(info.value).split("(")[0]


_G, _ID = vb.gaussian_mean(), vb.identity_mean()
_NAN = math.nan
#: the CLI config each row of REJECTED_INPUTS overrides sections of
_RUN = {"model": {"family": "gaussian-mean"}, "x0": [0.0], "methods": [{"name": "crb"}]}


def _searched(seed=None, **fields):
    """barankin_approx on gaussian-mean at x0 0 with a small search and `fields`."""
    search = {"restarts": 2, "halvings": 3, "max_points": 2, **fields}
    return lambda: vb.barankin_approx(_G, _ID, [0.0], BarankinSearch(**search), seed=seed)


def _searched_run(**options):
    return {"methods": [{"name": "barankin_approx", **options}]}


def _indexed(method: str, indices: list) -> tuple:
    """The REJECTED_INPUTS row of `indices` for bhattacharyya or expfam_moment
    (the library's expfam_bound) on gaussian-mean at x0 0."""
    call = vb.bhattacharyya if method == "bhattacharyya" else vb.expfam_bound
    return ("indices", lambda: call(_G, _ID, [0.0], indices), (method, {"indices": indices}, 1),
            ("run", {"methods": [{"name": method, "indices": indices}]},
             f"methods[0]: {method}.indices"))


#: (input, library call, (method, options, dim) for `method_options`, (command,
#: config sections, the name the CLI's error starts with)).  The library used
#: to take most of these values or fail on them later with another error, some
#: in silence: a NaN initial_step reported its unsearched start 0.947, a NaN
#: pinv_tol gave 0.0, mc_samples 2.5 drew 2, and `n_obs: 2.5` ran with 2
#: observations and exit 0
REJECTED_INPUTS = {
    "nan-initial-step": ("initial_step", _searched(initial_step=_NAN),
                         ("barankin_approx", {"initial_step": _NAN}, 1),
                         ("run", _searched_run(initial_step=_NAN),
                          "methods[0]: barankin_approx.initial_step")),
    "nan-radius": ("radius", _searched(radius=_NAN),
                   ("barankin_approx", {"radius": _NAN}, 1),
                   ("run", _searched_run(radius=_NAN), "methods[0]: barankin_approx.radius")),
    "fractional-max-points": ("max_points", _searched(max_points=2.5),
                              ("barankin_approx", {"max_points": 2.5}, 1),
                              ("run", _searched_run(max_points=2.5),
                               "methods[0]: barankin_approx.max_points")),
    "boolean-restarts": ("restarts", _searched(restarts=True),
                         ("barankin_approx", {"restarts": True}, 1),
                         ("run", _searched_run(restarts=True),
                          "methods[0]: barankin_approx.restarts")),
    "negative-sweeps": ("max_sweeps_per_level", _searched(max_sweeps_per_level=-1),
                        ("barankin_approx", {"max_sweeps_per_level": -1}, 1),
                        ("run", _searched_run(max_sweeps_per_level=-1),
                         "methods[0]: barankin_approx.max_sweeps_per_level")),
    "nan-min-distance": ("min_distance", _searched(min_distance=_NAN),
                         ("barankin_approx", {"min_distance": _NAN}, 1),
                         ("run", _searched_run(min_distance=_NAN),
                          "methods[0]: barankin_approx.min_distance")),
    "fractional-seed": ("seed", _searched(seed=1.5), ("barankin_approx", {"seed": 1.5}, 1),
                        ("run", _searched_run(seed=1.5), "methods[0]: barankin_approx.seed")),
    "nan-lower": ("lower", _searched(lower=[_NAN], upper=[1.0]),
                  ("barankin_approx", {"lower": [_NAN], "upper": [1.0]}, 1),
                  ("run", _searched_run(lower=[_NAN], upper=[1.0]),
                   "methods[0]: barankin_approx.lower")),
    "box-of-unequal-lengths": (
        "upper", lambda: BarankinSearch(lower=[0.0, 0.0], upper=[1.0]),
        ("barankin_approx", {"lower": [0.0, 0.0], "upper": [1.0]}, 2),
        ("run", {"model": {"family": "gaussian-mean-nd"}, "x0": [0.0, 0.0],
                 **_searched_run(lower=[0.0, 0.0], upper=[1.0])},
         "methods[0]: barankin_approx.upper")),
    "box-longer-than-x0": ("lower", _searched(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
                           ("barankin_approx", {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}, 1),
                           ("run", _searched_run(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
                            "methods[0]: barankin_approx.lower")),
    "initial-point-longer-than-x0": (
        "initial_points", _searched(initial_points=TestPointSet([[1.0, 1.0]]), restarts=0),
        ("barankin_approx", {"initial_points": [[1.0, 1.0]], "restarts": 0}, 1),
        ("run", _searched_run(initial_points=[[1.0, 1.0]], restarts=0),
         "methods[0]: barankin_approx.initial_points")),
    "nan-test-point": ("points", lambda: vb.hcrb(_G, _ID, [0.0], TestPointSet([[_NAN]])),
                       ("hcrb", {"points": [[_NAN]]}, 1),
                       ("run", {"methods": [{"name": "hcrb", "points": [[_NAN]]}]},
                        "methods[0]: hcrb.points")),
    "test-points-of-unequal-lengths": (
        "points", lambda: TestPointSet([[1.0], [1.0, 2.0]]),
        ("hcrb", {"points": [[1.0], [1.0, 2.0]]}, 1),
        ("run", {"methods": [{"name": "hcrb", "points": [[1.0], [1.0, 2.0]]}]},
         "methods[0]: hcrb.points")),
    "test-point-longer-than-x0": (
        "points", lambda: vb.hcrb(_G, _ID, [0.0], TestPointSet([[1.0, 2.0]])),
        ("hcrb", {"points": [[1.0, 2.0]]}, 1),
        ("run", {"methods": [{"name": "hcrb", "points": [[1.0, 2.0]]}]},
         "methods[0]: hcrb.points")),
    "fractional-mc-samples": (
        "mc_samples", lambda: vb.hcrb(mc_poisson(), _ID, [0.0], TestPointSet([[0.5]]),
                                      mc_samples=2.5),
        None, ("run", {"mc": {"samples": 2.5}}, "mc.samples")),
    "nan-fd-step": ("step", lambda: vb.FDConfig(step=_NAN), None, None),
    "fractional-dim": ("dim", lambda: vb.gaussian_mean_nd(2.5), None,
                       ("run", {"model": {"family": "gaussian-mean-nd", "dim": 2.5}},
                        "model.dim")),
    "fractional-n-obs": ("n_obs", lambda: vb.make_model("gaussian-iid", n_obs=2.5), None,
                         ("run", {"model": {"family": "gaussian-iid", "n_obs": 2.5}},
                          "model.n_obs")),
    "boolean-n-obs": ("n_obs", lambda: vb.gaussian_sum(True), None,
                      ("run", {"model": {"family": "gaussian-sum", "n_obs": True}},
                       "model.n_obs")),
    "fractional-draws": (
        "n", lambda: vb.estimator_variance_mc(_G, vb.phi_estimator(_G), [0.0], n=150.5), None,
        ("validate", {"estimator": {"builtin": "suffstat"}, "mc": {"samples": 150.5}},
         "mc.samples")),
    "nan-pinv-tol-crb": ("pinv_tol", lambda: vb.crb(_G, _ID, [0.0], pinv_tol=_NAN), None, None),
    "nan-pinv-tol-hcrb": ("pinv_tol", lambda: vb.hcrb(_G, _ID, [0.0], TestPointSet([[1.0]]),
                                                      pinv_tol=_NAN), None, None),
    "pinv-tol-of-one": ("pinv_tol", lambda: vb.barankin_approx(
        _G, _ID, [0.0], BarankinSearch(restarts=1, halvings=1), pinv_tol=1.0), None, None),
    "negative-pinv-tol": ("pinv_tol", lambda: vb.make_gram_system(np.eye(1), [1.0], -1e-10),
                          None, None),
    "no-indices": _indexed("bhattacharyya", []),
    "repeated-indices": _indexed("bhattacharyya", [[1], [1]]),
    "order-5-index": _indexed("bhattacharyya", [[5]]),
    "no-moment-indices": _indexed("expfam_moment", []),
    "repeated-moment-indices": _indexed("expfam_moment", [[1], [1]]),
    "order-5-moment-index": _indexed("expfam_moment", [[5]]),
    "nan-reduction-radius": (
        "radius", lambda: vb.reduction_experiment(_G, _ID, [0.0], [1.0, _NAN],
                                                  BarankinSearch(restarts=1, halvings=1)),
        None, ("reduce", {"radii": [1.0, _NAN]}, "radii")),
}


class TestBarankin:
    def test_fixed_single_point_equals_hcrb_exactly(self):
        g, gamma = vb.gaussian_mean(), vb.identity_mean()
        tps = TestPointSet([[0.8]])
        fixed = BarankinSearch(initial_points=tps, restarts=0, halvings=0)
        res = vb.barankin_approx(g, gamma, [0.0], fixed)
        assert res.value == vb.hcrb(g, gamma, [0.0], tps).value

    def test_converges_to_minimum_achievable_variance(self):
        # efficient estimator exists, so the supremum is the CRB value 1
        search = BarankinSearch(max_points=3, radius=None, lower=(-3.0,),
                                upper=(3.0,), seed=11)
        res = vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0], search)
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_constant_mean_gives_zero(self):
        res = vb.barankin_approx(vb.gaussian_mean(), vb.constant_mean(2.0), [0.0],
                                 BarankinSearch(restarts=2, halvings=4))
        assert res.value == 0.0

    def test_running_maximum_is_reported(self):
        res = vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                                 BarankinSearch(seed=1))
        trace_best = max(t["best_value"] for t in res.diagnostics["search_trace"]
                         if t["best_value"] is not None)
        assert res.value >= trace_best - 1e-15

    def test_search_respects_natural_space(self):
        # exponential-rate: kernel needs x1 + x2 - x0 < 0, so moves toward the
        # boundary must be skipped rather than crash the search
        er = vb.exponential_rate()
        search = BarankinSearch(max_points=2, restarts=2, halvings=5, radius=1.5, seed=4)
        res = vb.barankin_approx(er, vb.identity_mean(), [-2.0], search)
        # estimating the natural parameter itself admits no efficient
        # estimator here, so the test-point bound beats the CRB of 4
        assert res.value >= 4.0 - 1e-6
        assert res.value < 25.0
        for pt in res.diagnostics["best_points"]:
            assert pt[0] < 0.0
            assert abs(pt[0] + 2.0) <= 1.5 + 1e-12

    @pytest.mark.parametrize("options, match", [({"restarts": 0}, "restarts"),
                                                ({"radius": 1.0e-7}, "min_distance"),
                                                ({"lower": [1.0], "upper": [-1.0]}, "exceeds")])
    def test_search_with_nothing_to_search_is_rejected(self, options, match):
        # the first two used to give a value of 0 after 0 evaluations, the
        # empty box a DomainError only once the search ran
        with pytest.raises(ValueError, match=match):
            BarankinSearch(**options)
        with pytest.raises(ValueError, match=match):
            method_options("barankin_approx", options, 1)
        if "restarts" in options:
            with pytest.raises(ValueError, match=match):
                BarankinSearch(initial_points=TestPointSet([]), **options)

    @pytest.mark.parametrize("name, call, option, cli", REJECTED_INPUTS.values(),
                             ids=REJECTED_INPUTS)
    def test_library_and_cli_reject_the_same_inputs(self, tmp_path, capsys, name, call,
                                                     option, cli):
        # one rule set: the library entry point, `method_options` and the CLI
        # (exit 2, one line) each name the input
        with pytest.raises(ConfigurationError, match=f"^{name}: "):
            call()
        if option is not None:
            method, options, dim = option
            with pytest.raises(ConfigurationError, match=rf"^{method}\.{name}: "):
                method_options(method, options, dim)
        if cli is not None:
            command, sections, where = cli
            path = tmp_path / "cfg.yaml"
            path.write_text(yaml.safe_dump({**_RUN, **sections}), encoding="utf-8")
            assert main([command, "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {where}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("options", [{"radius": 1e300}, {"radius": None, "upper": [1e300]},
                                         {"lower": [-1e200], "upper": [1e200]}])
    def test_box_too_wide_to_measure_is_a_domain_error(self, options):
        # its draws used to overflow the squared distance with a RuntimeWarning
        # (an error here) before no start was drawn
        with pytest.raises(DomainError, match=r"sampling box .* too wide to measure at "
                                              r"x0=\[0.0\]"):
            vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                               BarankinSearch(restarts=1, **options))

    def test_huge_initial_step_is_a_domain_error(self):
        # each proposal beyond the box used to overflow the squared distance
        # with a RuntimeWarning (an error here), and the value was reported
        with pytest.raises(DomainError, match=r"within radius 3.0 with initial_step 1e\+300 "
                                              r"too wide to measure at x0=\[0.0\]"):
            vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                               BarankinSearch(restarts=1, halvings=2, initial_step=1e300))

    def test_search_with_no_defined_configuration_is_a_domain_error(self):
        # every configuration drawn in the box of radius 500 leaves Poisson's
        # natural space on the way to its kernel: the value used to be 0
        p = vb.poisson()
        with pytest.raises(DomainError, match=r"kernel or mean undefined at all 34 configurations"
                                              r" computed in the sampling box from \[-500.0\] "
                                              r"to \[500.0\] within radius 500.0 at x0=\[0.0\]"):
            vb.reduction_experiment(p, vb.expfam_mean(p), [0.0], [500.0],
                                    BarankinSearch(restarts=2, halvings=2))

    def test_search_with_only_zero_projections_reports_zero(self):
        # a constant mean projects to 0 on every defined configuration
        res = vb.barankin_approx(vb.gaussian_mean(), vb.constant_mean(2.0), [0.0],
                                 BarankinSearch(restarts=2, halvings=2))
        assert res.value == 0.0 and res.diagnostics["evaluations"] > 0
        assert "best_points" not in res.diagnostics

    def test_search_that_draws_no_start_is_a_domain_error(self):
        search = BarankinSearch(restarts=2, radius=1.0, lower=(0.99999,), upper=(10.0,))
        with pytest.raises(DomainError, match=r"no start drawn in the sampling box .* "
                                              r"within radius 1.0 at x0=\[0.0\]"):
            vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0], search)

    @pytest.mark.parametrize("point, options", [
        ([5.0], {"radius": 1.0}),              # beyond the radius
        ([0.0], {}),                           # at x0
        ([5e-7], {}),                          # closer than min_distance
        ([0.5], {"lower": (0.6,), "upper": (2.0,)}),  # outside the box
    ], ids=["beyond-radius", "at-x0", "below-min-distance", "outside-box"])
    def test_initial_point_outside_the_region_is_a_domain_error(self, point, options):
        # such a start used to be searched from: [5.0] was reported as the
        # best point of a search confined to the unit ball
        search = BarankinSearch(initial_points=TestPointSet([point]), restarts=0,
                                halvings=0, **options)
        with pytest.raises(DomainError, match=rf"initial point \[{point[0]}\] lies outside "
                                              r"the search region .* at x0=\[0.0\]"):
            vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0], search)
        with pytest.raises(DomainError):
            search.region(np.array([0.0]))

    def test_initial_point_too_far_to_measure_is_outside_without_a_warning(self):
        # its squared distance used to overflow with a RuntimeWarning (an error here)
        search = BarankinSearch(initial_points=TestPointSet([[1e300]]), restarts=0, halvings=0)
        with pytest.raises(DomainError, match=r"initial point \[1e\+300\] lies outside"):
            search.region(np.array([0.0]))

    def test_initial_points_inside_the_region_are_searched_from(self):
        search = BarankinSearch(initial_points=TestPointSet([[0.9], [-0.5]]), restarts=0,
                                halvings=0, radius=1.0)
        in_domain = search.region(np.array([0.0]))
        assert in_domain(np.array([0.9])) and not in_domain(np.array([1.1]))
        res = vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0], search)
        assert res.diagnostics["best_points"] == [[0.9], [-0.5]]

    def test_monte_carlo_search_reports_effective_sample_sizes(self):
        p = vb.poisson()
        res = vb.barankin_approx(mc_poisson(), vb.expfam_mean(p), [0.0],
                                 BarankinSearch(restarts=1, halvings=2, max_points=2, seed=1),
                                 mc_samples=5_000)
        ess = res.diagnostics["mc_effective_sample_size"]
        assert len(ess) == len(res.diagnostics["best_points"]) == 2
        assert all(0.0 < e <= 5_000 for e in ess)


def _search_case(name):
    """Model, mean function, x0, search and keyword arguments of a seeded
    search whose result is pinned in PINNED_SEARCHES."""
    if name == "exponential-rate-unboxed":
        # no box: some proposed configurations leave the natural space, and
        # one of them is proposed twice
        return (vb.exponential_rate(), vb.identity_mean(), [-2.0],
                BarankinSearch(max_points=2, restarts=2, halvings=5, radius=1.5, seed=7), {})
    if name == "generic-poisson":
        p = vb.poisson()
        return (mc_poisson(), vb.expfam_mean(p), [0.0],
                BarankinSearch(restarts=1, halvings=3, max_points=2, seed=1),
                {"mc_samples": 2_000})
    x0, box = {"gaussian-mean": (0.3, {}), "poisson": (-0.2, {}), "bernoulli": (0.4, {}),
               "exponential-rate": (-1.1, {"lower": (-3.1,), "upper": (-0.55,)})}[name]
    model = vb.make_model(name)
    return (model, vb.expfam_mean(model), [x0],
            BarankinSearch(restarts=2, halvings=6, max_points=3, seed=5, **box), {})


#: value (float.hex), best_points, search_trace (start, best value as
#: float.hex, step levels run) and the proposals, evaluations + revisits,
#: which do not depend on whether the search skips configurations it has
#: computed.  The first four allow 6 step levels; all but one of their
#: starts end earlier, on two converged levels.
PINNED_SEARCHES = {
    "gaussian-mean": (
        "0x1.000000000fefdp+0",
        [[0.3175175424722809], [0.3038947384189621], [0.32945336625285204]],
        [(0, "0x1.000000000fefdp+0", 5), (1, "0x1.ffffffffff76fp-1", 5)],
        152),
    "poisson": (
        "0x1.a330ad616fc6bp-1",
        [[-0.1797749177567134], [-0.18816390087144175], [-0.14971793394731048]],
        [(0, "0x1.a330ad616074bp-1", 5), (1, "0x1.a330ad616fc6bp-1", 5)],
        146),
    "bernoulli": (
        "0x1.ec0dd36bc7901p-3",
        [[2.2952250822432867], [0.22433609912855834], [1.0752820660526896]],
        [(0, "0x1.ec0dd36bc78e7p-3", 2), (1, "0x1.ec0dd36bc7901p-3", 2)],
        62),
    "exponential-rate": (
        "0x1.a723f789b9f69p-1",
        [[-1.0784925444492806], [-1.0866259861719412], [-1.098419819342538]],
        [(0, "0x1.a723f789b9f69p-1", 6), (1, "0x1.a723f78981462p-1", 5)],
        130),
    "exponential-rate-unboxed": (
        "0x1.3fb7747a1a89cp+4",
        [[-3.499713600185999], [-3.4958585970912734]],
        [(0, "0x1.3fb7747a1a89cp+4", 5), (1, "0x1.3ca49588ca22ep+4", 5)],
        72),
    "generic-poisson": (
        "0x1.34172fd310672p+12",
        [[2.9459297482015403], [2.952782177955612]],
        [(0, "0x1.34172fd310672p+12", 3)],
        29),
}


class TestBarankinSearchWork:
    @pytest.mark.parametrize("name", list(PINNED_SEARCHES))
    def test_search_is_pinned(self, name):
        value, points, trace, proposals = PINNED_SEARCHES[name]
        model, gamma, x0, search, kwargs = _search_case(name)
        res = vb.barankin_approx(model, gamma, x0, search, **kwargs)
        d = res.diagnostics
        assert res.value.hex() == value
        assert d["best_points"] == points
        assert [(t["start"], t["best_value"].hex(), t["levels"])
                for t in d["search_trace"]] == trace
        assert d["evaluations"] + d["revisits"] == proposals
        assert d["revisits"] > 0

    @pytest.mark.parametrize("name", ["gaussian-mean", "exponential-rate-unboxed",
                                      "generic-poisson"])
    def test_each_configuration_and_gamma_value_is_computed_once(self, name, monkeypatch):
        model, gamma, x0, search, kwargs = _search_case(name)
        configurations, values = [], []
        kernel_rows = bounds_module._kernel_rows

        def tracked_rows(evaluator, g, stack, *args):
            configurations.extend((evaluator, np.asarray(points, dtype=float).tobytes())
                                  for points in stack)
            return kernel_rows(evaluator, g, stack, *args)

        def counted_value(x):
            values.append(np.asarray(x, dtype=float).tobytes())
            return gamma.value(x)

        monkeypatch.setattr(bounds_module, "_kernel_rows", tracked_rows)
        res = vb.barankin_approx(model, vb.MeanFunction(counted_value, gamma.derivative),
                                 x0, search, **kwargs)
        # the Monte Carlo error estimate projects again on the two split halves
        searched = [key for ev, key in configurations if ev is configurations[0][0]]
        assert len(set(searched)) == len(searched) == res.diagnostics["evaluations"]
        assert len(set(values)) == len(values)
        assert np.asarray(x0, dtype=float).tobytes() in values

    @pytest.mark.parametrize("name", ["gaussian-mean", "poisson", "bernoulli",
                                      "exponential-rate", "exponential-rate-unboxed"])
    def test_closed_form_work_per_configuration(self, name, monkeypatch):
        # one kernel matrix per computed configuration, one eigh per stacked
        # solve, each stack holding the configurations whose kernel is
        # defined, and no other decomposition
        model, gamma, x0, search, kwargs = _search_case(name)
        calls = Counter()
        pairwise = vb_kernel.ExpfamKernelEvaluator.pairwise

        def counted_pairwise(evaluator, points):
            calls["pairwise"] += 1
            K = pairwise(evaluator, points)
            calls["defined"] += 1
            return K

        def counted(fn):
            def call(*args, **kwargs):
                calls[fn.__name__] += 1
                if fn.__name__ == "eigh":
                    calls["stacked rows"] += len(args[0])
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(vb_kernel.ExpfamKernelEvaluator, "pairwise", counted_pairwise)
        for decomposition in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "qr",
                              "cholesky", "lstsq", "pinv", "solve", "inv", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, decomposition,
                                counted(getattr(np.linalg, decomposition)))
        res = vb.barankin_approx(model, gamma, x0, search, **kwargs)
        assert calls["pairwise"] == res.diagnostics["evaluations"]
        assert calls["eigh"] == res.diagnostics["gram_stacks"] < calls["defined"]
        assert calls["stacked rows"] == calls["defined"]
        assert set(calls) == {"pairwise", "defined", "eigh", "stacked rows"}
        if name == "exponential-rate-unboxed":
            assert 0 < calls["defined"] < calls["pairwise"]


def _sin_mean() -> vb.MeanFunction:
    return vb.MeanFunction(lambda x: math.sin(x[0]))


class TestConvergenceStop:
    """A start ends after two converged step levels; with the share
    `_CONVERGED` at 0 every start runs all its levels."""

    @pytest.mark.parametrize("search", [BarankinSearch(),
                                        BarankinSearch(restarts=2, halvings=6, max_points=3)],
                             ids=["default", "light"])
    @pytest.mark.parametrize("name", ["gaussian-mean", "poisson", "bernoulli",
                                      "exponential-rate"])
    def test_stop_costs_at_most_rounding(self, name, search, monkeypatch):
        model, gamma, x0, case, _ = _search_case(name)
        search = replace(search, seed=case.seed, lower=case.lower, upper=case.upper)
        stopped = vb.barankin_approx(model, gamma, x0, search)
        monkeypatch.setattr(bounds_module, "_CONVERGED", 0.0)
        full = vb.barankin_approx(model, gamma, x0, search)
        assert full.value * (1 - 1e-8) <= stopped.value <= full.value
        assert stopped.diagnostics["evaluations"] <= full.diagnostics["evaluations"]
        levels = [t["levels"] for t in stopped.diagnostics["search_trace"]]
        assert min(levels) < search.halvings and max(levels) <= search.halvings
        assert all(t["levels"] == search.halvings for t in full.diagnostics["search_trace"])

    @pytest.mark.parametrize("model, gamma, x0", [
        (vb.gaussian_mean(), vb.constant_mean(2.0), 0.0),
        (vb.gaussian_mean(), _sin_mean(), 0.0),
        (vb.gaussian_mean(), _sin_mean(), 0.7),
        (vb.poisson(), vb.polynomial_mean([0.0, 1.0, 0.5]), 0.0)],
        ids=["constant", "sin-0", "sin-0.7", "poisson-polynomial"])
    def test_unconverged_searches_are_unchanged(self, model, gamma, x0, monkeypatch):
        # a value of 0 never converges; the others keep gaining on every level
        stopped = vb.barankin_approx(model, gamma, [x0])
        monkeypatch.setattr(bounds_module, "_CONVERGED", 0.0)
        full = vb.barankin_approx(model, gamma, [x0])
        assert stopped.value.hex() == full.value.hex()
        assert _hexed(stopped.diagnostics) == _hexed(full.diagnostics)
        assert {t["levels"] for t in stopped.diagnostics["search_trace"]} == {8}


def serial_barankin(model, gamma, x0, search, mc_samples=100_000, pinv_tol=1e-10):
    """The search loop before the starts ran in lockstep: each start climbs to
    its end (its last step level, or two converged levels) before the next
    one starts, every configuration is projected on
    its own, and the best is the first computed configuration with the
    largest value.  Returns the value and the diagnostics without
    `gram_stacks`."""
    x0 = bounds_module.as_param(model, x0)
    cfg = search
    evaluator = bounds_module._make_evaluator(model, x0, mc_samples, cfg.seed)
    lower = np.asarray(cfg.lower, dtype=float) if cfg.lower is not None else None
    upper = np.asarray(cfg.upper, dtype=float) if cfg.upper is not None else None

    def in_domain(pt):
        distance = np.linalg.norm(pt - x0)
        if distance < cfg.min_distance:
            return False
        if cfg.radius is not None and distance > cfg.radius:
            return False
        if lower is not None and np.any(pt < lower):
            return False
        return not (upper is not None and np.any(pt > upper))

    lo = lower if lower is not None else x0 - (cfg.radius if cfg.radius else 1.0)
    hi = upper if upper is not None else x0 + (cfg.radius if cfg.radius else 1.0)

    def random_points(rng):
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

    starts = []
    if cfg.initial_points is not None and len(cfg.initial_points) > 0:
        starts.append(np.vstack([np.atleast_1d(p) for p in cfg.initial_points.points]))
    for r in range(cfg.restarts):
        pts = random_points(np.random.default_rng([cfg.seed, r]))
        if pts is not None:
            starts.append(pts)

    gamma = bounds_module._remembering_values(gamma)
    seen = {}
    work = Counter()
    best = [0.0, {}, None]

    def objective(pts):
        key = pts.tobytes()
        if key in seen:
            work["revisits"] += 1
            return seen[key]
        work["evaluations"] += 1
        basis = [DiffBasis(p) for p in pts]
        try:
            with np.errstate(over="ignore"):  # as the search, which answers 'undefined'
                result = _quadratic_bound("barankin_approx", _System(
                    gram(evaluator, basis), gram_rhs(evaluator, basis, gamma)), pinv_tol)
        except (NaturalSpaceError, KernelEvaluationError):
            result = None
        value = None if result is None else result.value
        if value is not None and value > best[0]:
            best[:] = [value, result.diagnostics, pts]
        seen[key] = value
        return value

    trace = []
    for start_idx, pts in enumerate(starts):
        current = objective(pts)
        if current is None:
            current = -math.inf
        step, levels = cfg.initial_step, 0
        gains = []  # the gain of each level that raised the value, or inf
        for _level in range(cfg.halvings):
            before, levels = current, levels + 1
            for _sweep in range(cfg.max_sweeps_per_level):
                improved = False
                for l in range(pts.shape[0]):
                    for k in range(pts.shape[1]):
                        for direction in (1.0, -1.0):
                            cand = pts.copy()
                            cand[l, k] += direction * step
                            if not in_domain(cand[l]):
                                continue
                            value = objective(cand)
                            if value is not None and value > current:
                                pts, current, improved = cand, value, True
                if not improved:
                    break
            step *= 0.5
            # converged: this level and the last one that gained each gained
            # at most the share _CONVERGED of the value
            gain = math.inf if before == -math.inf else current - before
            tol = bounds_module._CONVERGED * current
            if gain <= tol and (gains or [math.inf])[-1] <= tol:
                break
            if gain > 0:
                gains.append(gain)
        trace.append({"start": start_idx,
                      "best_value": current if math.isfinite(current) else None,
                      "levels": levels})

    value, best_diag, best_points = best
    diagnostics = {"gram_rank": 0, "condition_number": math.inf, "min_eigenvalue": 0.0,
                   **best_diag, "evaluations": work["evaluations"],
                   "revisits": work["revisits"], "search_trace": trace}
    if best_points is not None:
        diagnostics["best_points"] = [p.tolist() for p in best_points]
    diagnostics.update(evaluator.diagnostics(gamma, best_points, pinv_tol))
    return max(value, 0.0), diagnostics


def _restart_draw(search, r=0):
    """The point set restart r of a search over a scalar family draws (every
    draw of the default ball around x0 = 0 is accepted)."""
    rng = np.random.default_rng([search.seed, r])
    return [rng.uniform([-search.radius], [search.radius]).tolist()
            for _ in range(search.max_points)]


def _lockstep_case(name):
    if name in PINNED_SEARCHES:
        return _search_case(name)
    g, identity = vb.gaussian_mean(), vb.identity_mean()
    if name == "gaussian-mean-nd":
        model = vb.make_model("gaussian-mean-nd")
        return (model, vb.expfam_mean(model, 1), [0.2, -0.1],
                BarankinSearch(restarts=3, halvings=4, max_points=2, seed=2), {})
    if name == "initial-points":
        # a 2-point start beside 3-point restarts: two stacks per step
        return (g, identity, [0.0], BarankinSearch(
            initial_points=TestPointSet([[0.8], [-1.3]]), restarts=2, halvings=5,
            max_points=3, seed=3), {})
    if name == "same-start-twice":
        search = BarankinSearch(restarts=2, halvings=4, max_points=2, seed=6)
        return (g, identity, [0.0], replace(search, initial_points=TestPointSet(
            _restart_draw(search))), {})
    if name == "mirrored-starts":
        # kernel and mean are symmetric about x0 = 0, so the mirrored start
        # reaches the mirrored configurations with the same values, and the
        # random start moves on its first proposal where the initial one
        # moves on its second
        search = BarankinSearch(restarts=1, halvings=6, max_points=1, seed=8)
        return (g, identity, [0.0], replace(search, initial_points=TestPointSet(
            [[-p[0]] for p in _restart_draw(search)])), {})
    if name == "generic-poisson-two-restarts":
        p = vb.poisson()
        return (mc_poisson(), vb.expfam_mean(p), [0.0],
                BarankinSearch(restarts=2, halvings=3, max_points=2, seed=1),
                {"mc_samples": 2_000})
    if name == "generic-boundary-fd-mean":
        # moments by finite differences, kernel by Monte Carlo: near the
        # boundary x = 0 the kernel is defined where gamma's stencil is not
        return (vb.as_generic(vb.exponential_rate()), _fd_mean_exponential_rate(), [-1.0],
                BarankinSearch(initial_points=TestPointSet([[-0.3], [-3e-5]]), restarts=1,
                               halvings=2, max_points=2, seed=1, initial_step=1e-4,
                               lower=[-2.0], upper=[-1e-6]),
                {"mc_samples": 2_000})
    raise KeyError(name)


def _fd_mean_exponential_rate():
    """expfam_mean of exponential-rate without its closed-form moments."""
    return vb.expfam_mean(replace(vb.exponential_rate(), closed_moments=None))


LOCKSTEP_CASES = ["gaussian-mean", "poisson", "bernoulli", "exponential-rate",
                  "exponential-rate-unboxed", "gaussian-mean-nd", "initial-points",
                  "same-start-twice", "mirrored-starts", "generic-poisson-two-restarts",
                  "generic-boundary-fd-mean"]


def _hexed(diagnostics):
    def hexed(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, list):
            return [hexed(x) for x in v]
        if isinstance(v, dict):
            return {k: hexed(x) for k, x in v.items()}
        return v
    return hexed(diagnostics)


class TestLockstepSearch:
    """The lockstep search is the serial one bit for bit."""

    @pytest.mark.parametrize("name", LOCKSTEP_CASES)
    def test_matches_the_serial_search(self, name):
        model, gamma, x0, search, kwargs = _lockstep_case(name)
        value, diagnostics = serial_barankin(model, gamma, x0, search, **kwargs)
        res = vb.barankin_approx(model, gamma, x0, search, **kwargs)
        got = dict(res.diagnostics)
        stacks = got.pop("gram_stacks")
        assert res.value.hex() == value.hex()
        assert _hexed(got) == _hexed(diagnostics)
        assert 0 < stacks < got["evaluations"]

    def test_the_cases_reach_ties_and_stacks(self):
        # same-start-twice: every proposal of one start is a revisit of the
        # other's; mirrored-starts: both starts end on the same value
        model, gamma, x0, search, kwargs = _lockstep_case("same-start-twice")
        d = vb.barankin_approx(model, gamma, x0, search, **kwargs).diagnostics
        trace = d["search_trace"]
        assert trace[0]["best_value"] == trace[1]["best_value"]
        assert d["revisits"] >= d["evaluations"]
        model, gamma, x0, search, kwargs = _lockstep_case("mirrored-starts")
        d = vb.barankin_approx(model, gamma, x0, search, **kwargs).diagnostics
        trace = d["search_trace"]
        assert trace[0]["best_value"] == trace[1]["best_value"]
        # the random start is one proposal ahead, but the tie goes to the
        # first start: the best point lies on the initial point's side
        assert np.sign(d["best_points"][0][0]) == np.sign(search.initial_points.points[0][0])

    def test_undefined_mean_skips_only_its_configuration(self):
        # the Monte Carlo kernel is defined at -3e-5, gamma's stencil is not
        model, gamma = vb.as_generic(vb.exponential_rate()), _fd_mean_exponential_rate()
        evaluator = bounds_module._make_evaluator(model, np.array([-1.0]), 2_000, 1)
        configurations = [np.array([[-0.3]]), np.array([[-3e-5]]), np.array([[-0.5]])]

        def projections(configurations):
            return bounds_module._solve_rows(
                bounds_module._kernel_rows(evaluator, gamma, configurations), 1e-10)

        results = projections(configurations)
        assert results[1] is None
        for points, result in zip(configurations[::2], results[::2]):
            [alone] = projections([points])
            assert _hexed(list(result)) == _hexed(list(alone))
        with pytest.raises(NaturalSpaceError, match="finite-difference stencil point"):
            vb.hcrb(model, gamma, [-1.0], TestPointSet([[-3e-5]]), mc_samples=2_000)

    def test_ratio_vectors_no_more_than_serial(self, log_density_calls):
        # the ratio cache holds the rows of one lockstep step, so running the
        # default five starts side by side recomputes no more likelihood-ratio
        # vectors than running them one after the other
        p = vb.poisson()
        model, gamma, search = mc_poisson(), vb.expfam_mean(p), BarankinSearch(seed=1)
        counts = []
        for run in (serial_barankin, vb.barankin_approx):
            log_density_calls.clear()
            run(model, gamma, [0.0], search, mc_samples=2_000)
            counts.append(len(log_density_calls))
        assert 0 < counts[1] <= counts[0]

    def test_searches_of_two_point_counts_share_a_window(self, monkeypatch):
        # searches of 2 and 3 points step together, each step solving the rows
        # of both: each is its lone search bit for bit
        g, gamma = vb.gaussian_mean(), vb.identity_mean()
        problems = [([0.0], BarankinSearch(restarts=2, halvings=4, max_points=2, seed=5)),
                    ([0.4], BarankinSearch(restarts=2, halvings=4, max_points=3, seed=6))]
        solve_rows, counts = bounds_module._solve_rows, []

        def tracked_rows(rows, pinv_tol):
            counts.append({len(row[1]) for row in rows if row is not None})
            return solve_rows(rows, pinv_tol)

        monkeypatch.setattr(bounds_module, "_solve_rows", tracked_rows)
        together = list(bounds_module._lockstep(g, gamma, problems))
        assert {2, 3} in counts
        for res, (x0, search) in zip(together, problems):
            alone = vb.barankin_approx(g, gamma, x0, search)
            assert res.value.hex() == alone.value.hex()
            assert _hexed(res.diagnostics) == _hexed(alone.diagnostics)


def _two_observation_model() -> vb.GenericModel:
    """A declared integer support, but two observations per draw."""
    return vb.GenericModel("pairs", 1, 2, lambda Y, x: np.zeros(len(Y)),
                           lambda x, seed, count: np.zeros((count, 2)), support=(0, None))


def _suffstat_check(mode):
    iid = vb.gaussian_iid(2)
    stat = vb.SufficientStatistic(map=lambda Y: Y.sum(axis=-1, keepdims=True),
                                  induced_model=vb.as_generic(vb.gaussian_sum(2)))
    return lambda: vb.suffstat_kernel_check(iid, stat, [0.0], [([0.1], [0.2])], mode=mode)


def _jumping_model() -> vb.GenericModel:
    """gaussian-mean as a plain GenericModel whose log density jumps by 800
    past x = 1, so a Monte Carlo kernel entry there overflows."""
    return vb.GenericModel(
        "jump", 1, 1, lambda Y, x: vb.models.log_density_batch(_G, Y, x) + 800.0 * (x[0] > 1),
        _G.sampler)


#: (library call, exception, message) of input guards no other test reaches
INPUT_GUARDS = {
    "expfam-crb-on-a-generic-model": (
        lambda: vb.expfam_crb(vb.as_generic(vb.poisson()), _ID, [0.0]), TypeError,
        "expfam_crb requires an ExponentialFamilyModel"),
    "more-constraints-than-parameters": (
        lambda: vb.constrained_crb(_G, _ID, [0.0], [[1.0], [2.0]]), ConstraintRankError,
        r"more constraints \(2\) than parameters \(1\)"),
    "unknown-suffstat-mode": (_suffstat_check("exact"), ValueError, "unknown mode 'exact'"),
    "closed-form-suffstat-on-a-generic-model": (
        _suffstat_check("closed_form"), ValueError,
        "closed-form comparison needs two exponential-family models"),
    "declared-support-with-two-observations": (
        lambda: vb.crb(_two_observation_model(), _ID, [0.0]), ValueError,
        "an exact sum needs one integer observation"),
    "parameter-of-the-wrong-length": (
        lambda: vb.crb(_G, _ID, [0.0, 1.0]), ConfigurationError,
        r"parameter shape \(2,\) does not match param_dim=1"),
    "observation-of-the-wrong-dimension": (
        lambda: vb.log_density(_G, [[0.0, 1.0]], [0.0]), ConfigurationError,
        r"observation shape \(1, 2\) does not match obs_dim=1"),
    "unknown-bound-method": (
        lambda: vb.BoundResult(1.0, "nope"), ValueError, "unknown method 'nope'"),
    "unknown-method-spec": (
        lambda: MethodSpec("nope"), ConfigurationError, "unknown method 'nope'"),
    "negative-bound-value": (
        lambda: vb.BoundResult(-1.0, "crb"), ValueError,
        "bound value must be nonnegative, got -1.0"),
    "closed-form-evaluator-on-a-generic-model": (
        lambda: vb.ExpfamKernelEvaluator(vb.as_generic(vb.poisson()), [0.0]), TypeError,
        "closed-form kernel evaluation needs an ExponentialFamilyModel"),
    "non-finite-monte-carlo-kernel": (
        lambda: vb.hcrb(_jumping_model(), _ID, [0.0], TestPointSet([[1.5]]), mc_samples=1000),
        KernelEvaluationError, "kernel produced non-finite values"),
}


class TestInputGuards:
    @pytest.mark.parametrize("call, error, match", INPUT_GUARDS.values(), ids=INPUT_GUARDS)
    def test_rejected(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestExpfamBound:
    def test_gaussian_identity_at_origin(self):
        res = vb.expfam_bound(vb.gaussian_mean(), vb.identity_mean(), [0.0], [(1,)])
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_identity_off_origin(self):
        # n = [5], S = [5]: 25/5 - gamma(2)^2 = 1
        res = vb.expfam_bound(vb.gaussian_mean(), vb.identity_mean(), [2.0], [(1,)])
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_constant_mean_with_zero_index(self):
        res = vb.expfam_bound(vb.gaussian_mean(), vb.constant_mean(3.0), [0.5], [(0,)])
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_constant_mean_clamps_to_zero(self):
        res = vb.expfam_bound(vb.gaussian_mean(), vb.constant_mean(3.0), [2.0], [(1,)])
        assert res.value == 0.0
        assert res.diagnostics.get("clamped_negative")

    def test_requires_exponential_family(self):
        with pytest.raises(TypeError):
            vb.expfam_bound(vb.as_generic(vb.gaussian_mean()), vb.identity_mean(),
                            [0.0], [(1,)])

    def test_computes_each_partial_of_gamma_once(self):
        model, indices = vb.poisson(), [(0,), (1,), (2,), (3,)]
        inner, calls = vb.expfam_mean(model), Counter()
        gamma = vb.MeanFunction(
            value=lambda x: calls.update([0]) or inner.value(x),
            derivative=lambda x, p: calls.update([p[0]]) or inner.derivative(x, p))
        res = vb.expfam_bound(model, gamma, [0.3], indices)
        assert calls == {0: 1, 1: 1, 2: 1, 3: 1}
        assert res.value.hex() == vb.expfam_bound(model, inner, [0.3], indices).value.hex()


class TestExpfamCRB:
    def test_gaussian(self):
        res = vb.expfam_crb(vb.gaussian_mean(), vb.identity_mean(), [1.1])
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_poisson_at_log_two(self):
        res = vb.expfam_crb(vb.poisson(), vb.identity_mean(), [math.log(2.0)])
        assert res.value == pytest.approx(0.5, rel=1e-12)

    def test_constant_mean_gives_zero(self):
        res = vb.expfam_crb(vb.poisson(), vb.constant_mean(1.0), [0.0])
        assert res.value == 0.0


class TestOrderingInvariants:
    def test_nested_index_sets_tighten(self):
        rng = np.random.default_rng(12)
        families = [vb.gaussian_mean(), vb.poisson(), vb.bernoulli()]
        for trial in range(10):
            model = families[trial % 3]
            x0 = [float(rng.uniform(-0.8, 0.8))]
            gamma = vb.expfam_mean(model)
            small = [(1,)] if trial % 2 else [(1,), (2,)]
            large = small + [(len(small) + 1,)]
            for bound in (vb.bhattacharyya, vb.expfam_bound):
                if bound is vb.bhattacharyya:
                    lo, hi = bound(model, gamma, x0, small), bound(model, gamma, x0, large)
                else:
                    lo, hi = bound(model, gamma, x0, small), bound(model, gamma, x0, large)
                assert hi.value >= lo.value - 1e-9

    def test_nested_test_point_sets_tighten(self):
        rng = np.random.default_rng(13)
        model, gamma = vb.gaussian_mean(), vb.identity_mean()
        for _ in range(10):
            x0 = [float(rng.uniform(-1, 1))]
            pts = [x0 + rng.uniform(0.05, 1.5, size=1) * (-1) ** k for k in range(3)]
            small = TestPointSet(pts[:2])
            large = TestPointSet(pts)
            lo = vb.hcrb(model, gamma, x0, small)
            hi = vb.hcrb(model, gamma, x0, large)
            assert hi.value >= lo.value - 1e-9

    def test_dominance_chain_for_gaussian(self):
        # every bound stays below the best test-point projection, which in
        # turn cannot exceed the minimum achievable variance (1 here)
        g, gamma, x0 = vb.gaussian_mean(), vb.identity_mean(), [0.0]
        barankin = vb.barankin_approx(g, gamma, x0, BarankinSearch(seed=2))
        others = [
            vb.crb(g, gamma, x0).value,
            vb.bhattacharyya(g, gamma, x0, [(1,), (2,)]).value,
            vb.hcrb(g, gamma, x0, TestPointSet([[0.5]])).value,
            vb.expfam_bound(g, gamma, x0, [(1,)]).value,
            vb.expfam_crb(g, gamma, x0).value,
        ]
        for v in others:
            assert v <= barankin.value + 1e-6
        assert barankin.value <= 1.0 + 1e-6

    def test_all_bounds_nonnegative(self):
        rng = np.random.default_rng(14)
        model, x0 = vb.poisson(), [0.1]
        gamma = vb.polynomial_mean([0.0, 1.0, -0.5])
        results = [
            vb.crb(model, gamma, x0),
            vb.bhattacharyya(model, gamma, x0, [(1,), (2,)]),
            vb.hcrb(model, gamma, x0, TestPointSet([rng.uniform(0.3, 1.0, 1)])),
            vb.expfam_bound(model, gamma, x0, [(0,), (1,)]),
            vb.expfam_crb(model, gamma, x0),
        ]
        for res in results:
            assert res.value >= 0.0


def _sin_mean(a: float = 0.0, b: float = 1.0) -> vb.MeanFunction:
    """gamma(x) = sin(a + b x) with the exact derivatives b^k sin(a + b x + k pi/2)."""
    def deriv(x, p):
        k = as_index(p, dim=1)[0]
        return b ** k * math.sin(a + b * float(x[0]) + k * math.pi / 2)

    return vb.MeanFunction(lambda x: math.sin(a + b * float(np.atleast_1d(x)[0])), deriv)


def _affine_gaussian_mean() -> ExponentialFamilyModel:
    """gaussian-mean in the parameter t with x = 1 + 2t, as a canonical family:
    y x - x^2 / 2 = (2y) t - (1 + 2t)^2 / 2 + y, so phi = 2y, log h gains y,
    log lambda(t) = log lambda(1 + 2t) and E_t{phi^p} = 2^p E_x{y^p}."""
    g = vb.gaussian_mean()
    return ExponentialFamilyModel(
        name="gaussian-mean-affine", param_dim=1, obs_dim=1,
        phi=lambda y: 2.0 * np.asarray(y, dtype=float),
        log_h=lambda y: g.log_h(y) + np.asarray(y, dtype=float)[..., 0],
        log_lambda=lambda t: g.log_lambda(1.0 + 2.0 * np.asarray(t, dtype=float)),
        sampler=lambda t, seed, count: g.sampler(1.0 + 2.0 * np.asarray(t), seed, count),
        closed_moments=lambda t, p: 2.0 ** p[0] * g.closed_moments(1.0 + 2.0 * t, p))


class TestInvariance:
    """The paper's two invariance results on every single-configuration bound:
    a sufficient statistic and an affine reparametrisation leave them unchanged."""

    def test_sufficient_statistic_gives_equal_bounds(self):
        gamma, x0 = _sin_mean(), [0.3]
        search = BarankinSearch(restarts=2, halvings=3, max_points=2, seed=4)

        def bounds(model):
            return [vb.crb(model, gamma, x0),
                    vb.bhattacharyya(model, gamma, x0, [(1,), (2,), (3,)]),
                    vb.hcrb(model, gamma, x0, TestPointSet([[0.8], [-0.2]])),
                    vb.expfam_bound(model, gamma, x0, [(0,), (1,), (2,)]),
                    vb.barankin_approx(model, gamma, x0, search)]

        for iid, total in zip(bounds(vb.gaussian_iid(3)), bounds(vb.gaussian_sum(3))):
            assert iid.value > 0.0
            assert total.value == pytest.approx(iid.value, rel=1e-12), iid.method

    @pytest.mark.parametrize("gamma, gamma_t", [
        (vb.identity_mean(), vb.polynomial_mean([1.0, 2.0])),
        (_sin_mean(), _sin_mean(1.0, 2.0)),
    ], ids=["identity", "sin"])
    def test_affine_reparametrisation_gives_equal_bounds(self, gamma, gamma_t):
        g, affine, t0, ts = vb.gaussian_mean(), _affine_gaussian_mean(), 0.1, [[0.5], [-0.4]]
        x0, xs = [1.0 + 2.0 * t0], [[1.0 + 2.0 * t] for [t] in ts]
        pairs = [(vb.crb(affine, gamma_t, [t0]), vb.crb(g, gamma, x0)),
                 (vb.hcrb(affine, gamma_t, [t0], TestPointSet(ts)),
                  vb.hcrb(g, gamma, x0, TestPointSet(xs)))]
        for order in (1, 2, 3):
            indices = [(k,) for k in range(1, order + 1)]
            pairs.append((vb.bhattacharyya(affine, gamma_t, [t0], indices),
                          vb.bhattacharyya(g, gamma, x0, indices)))
        for in_t, in_x in pairs:
            assert in_x.value > 0.0
            assert in_t.value == pytest.approx(in_x.value, rel=1e-9), in_x.method


def test_every_single_configuration_bound_builds_its_matrix_with_gram(monkeypatch):
    # one `gram` per matrix; the search's configurations and the Monte Carlo
    # split halves are built from kernel matrices apart from it
    calls = []

    def counted(evaluator, basis, *args):
        calls.append((type(evaluator).__name__, type(basis[0]).__name__, len(basis)))
        return gram(evaluator, basis, *args)

    for module in (bounds_module, vb_kernel):
        monkeypatch.setattr(module, "gram", counted)
    p, nd = vb.poisson(), vb.make_model("gaussian-mean-nd")
    gamma, generic = vb.expfam_mean(p), mc_poisson()
    closed, mc, summed = "ExpfamKernelEvaluator", "MonteCarloKernelEvaluator", \
        "SummationKernelEvaluator"
    cases = [
        (lambda: vb.crb(p, gamma, [0.2]), [(closed, "DerivBasis", 1)]),
        (lambda: vb.constrained_crb(nd, vb.expfam_mean(nd), [0.2, -0.1], [[1.0, 1.0]]),
         [(closed, "DerivBasis", 2)]),
        (lambda: vb.bhattacharyya(p, gamma, [0.2], [(1,), (2,), (3,)]),
         [(closed, "DerivBasis", 3)]),
        (lambda: vb.expfam_crb(p, gamma, [0.2]), [(closed, "DerivBasis", 1)]),
        (lambda: vb.fisher_info(nd, [0.2, -0.1]), [(closed, "DerivBasis", 2)]),
        (lambda: vb.hcrb(p, gamma, [0.2], TestPointSet([[0.5], [-0.1]])),
         [(closed, "DiffBasis", 2)]),
        (lambda: vb.crb(generic, gamma, [0.2], n_mc=2_000), [(mc, "DerivBasis", 1)]),
        (lambda: vb.fisher_info(generic, [0.2], n_mc=2_000), [(mc, "DerivBasis", 1)]),
        (lambda: vb.hcrb(generic, gamma, [0.2], TestPointSet([[0.5]]), mc_samples=2_000),
         [(mc, "DiffBasis", 1)]),
        (lambda: vb.barankin_approx(generic, gamma, [0.2], BarankinSearch(
            restarts=1, halvings=2, max_points=2), mc_samples=2_000), []),
        (lambda: vb.crb(vb.as_generic(p), gamma, [0.2]), [(summed, "DerivBasis", 1)]),
        (lambda: vb.hcrb(vb.as_generic(p), gamma, [0.2], TestPointSet([[0.5]])),
         [(summed, "DiffBasis", 1)]),
        (lambda: vb.barankin_approx(vb.as_generic(p), gamma, [0.2], BarankinSearch(
            restarts=1, halvings=2, max_points=2)), []),
    ]
    for bound, expected in cases:
        calls.clear()
        bound()
        assert calls == expected
    for name in ("_deriv_gram", "_difference_projection", "_mc_diagnostics",
                 "deriv_inner_products", "partial_derivative"):
        assert not hasattr(bounds_module, name)


class TestEvaluateBound:
    def test_dispatch_matches_direct_calls(self):
        g, gamma, x0 = vb.gaussian_mean(), vb.identity_mean(), np.array([0.0])
        direct = vb.hcrb(g, gamma, x0, TestPointSet([[1.0]]))
        via = evaluate_bound(g, gamma, x0, MethodSpec("hcrb", {"points": [[1.0]]}))
        assert via.value == direct.value
        assert via.method == "hcrb"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec("newton")

    def test_method_tags(self):
        g, gamma, x0 = vb.gaussian_mean(), vb.identity_mean(), np.array([0.0])
        assert evaluate_bound(g, gamma, x0, MethodSpec("expfam_moment",
                              {"indices": [(1,)]})).method == "expfam_moment"


_SEARCH = {"restarts": 1, "halvings": 2, "max_points": 2, "seed": 4,
           "initial_points": [[0.7, -0.2], [0.3, 0.4]], "lower": [-1.0, -1.0]}

#: One call per method: (options, the direct call it stands for).
_TABLE_CASES = {
    "crb": ({}, lambda m, g, x0: vb.crb(m, g, x0, n_mc=5000, seed=9)),
    "constrained_crb": ({"constraint": [[1.0, -1.0]]},
                        lambda m, g, x0: vb.constrained_crb(m, g, x0, [[1.0, -1.0]],
                                                            n_mc=5000, seed=9)),
    "bhattacharyya": ({"indices": [[1, 0], [0, 2]]},
                      lambda m, g, x0: vb.bhattacharyya(m, g, x0, [(1, 0), (0, 2)],
                                                        n_mc=5000, seed=9)),
    "hcrb": ({"points": [[0.5, 0.5], [-0.2, 0.1]]},
             lambda m, g, x0: vb.hcrb(m, g, x0, TestPointSet([[0.5, 0.5], [-0.2, 0.1]]),
                                      mc_samples=5000, seed=9)),
    "barankin_approx": (_SEARCH, lambda m, g, x0: vb.barankin_approx(
        m, g, x0, BarankinSearch(**{**_SEARCH, "initial_points": TestPointSet(
            _SEARCH["initial_points"]), "lower": (-1.0, -1.0)}), mc_samples=5000)),
    "expfam_moment": ({"indices": [[0, 0], [1, 0], [1, 1]]},
                      lambda m, g, x0: vb.expfam_bound(m, g, x0, [(0, 0), (1, 0), (1, 1)])),
    "expfam_crb": ({}, lambda m, g, x0: vb.expfam_crb(m, g, x0)),
}


_BAD_OPTIONS = [
    ("bhattacharyya", {}, "indices"),
    ("bhattacharyya", {"indices": [[1.5]]}, "indices"),
    ("bhattacharyya", {"indices": []}, "indices"),
    ("expfam_moment", {"indices": [[1, 0]]}, "indices"),
    ("hcrb", {"points": []}, "points"),
    ("hcrb", {"points": [[1.0, 2.0]]}, "points"),
    ("hcrb", {"points": [[1.0], [1.0]]}, "points"),
    ("constrained_crb", {"constraint": [[1.0, 2.0]]}, "constraint"),
    ("barankin_approx", {"max_points": 0}, "max_points"),
    ("barankin_approx", {"initial_step": 0}, "initial_step"),
    ("barankin_approx", {"restarts": 1.5}, "restarts"),
    ("barankin_approx", {"lower": [0.0, 1.0]}, "lower"),
    ("crb", {"points": [[1.0]]}, "points"),
]


class TestMethodTable:
    def test_cases_cover_the_table(self):
        assert set(_TABLE_CASES) == set(METHODS)

    def test_search_options_are_the_search_fields(self):
        assert set(METHODS["barankin_approx"].options) == \
            {f.name for f in fields(BarankinSearch)}

    @pytest.mark.parametrize("name", list(_TABLE_CASES))
    def test_evaluate_bound_is_the_direct_call(self, name):
        model, gamma, x0 = vb.gaussian_mean_nd(2), vb.identity_mean(1), np.array([0.1, -0.3])
        options, direct = _TABLE_CASES[name]
        via = evaluate_bound(model, gamma, x0, MethodSpec(name, options),
                             mc_samples=5000, seed=9)
        expected = direct(model, gamma, x0)
        assert via.value == expected.value
        assert via.method == expected.method
        assert via.diagnostics == expected.diagnostics

    @pytest.mark.parametrize("name", list(_TABLE_CASES))
    def test_options_normalise_idempotently(self, name):
        once = method_options(name, _TABLE_CASES[name][0], 2)
        assert method_options(name, once, 2) == once

    @pytest.mark.parametrize("name, options, field", _BAD_OPTIONS)
    def test_bad_options_name_the_method(self, name, options, field):
        with pytest.raises(ValueError) as err:
            method_options(name, options, 1)
        assert name in str(err.value) and field in str(err.value)

    @pytest.mark.parametrize("name, options", [case[:2] for case in _BAD_OPTIONS])
    def test_bad_options_exit_2_naming_the_method_entry(self, tmp_path, capsys, name, options):
        with pytest.raises(ConfigurationError) as err:
            method_options(name, options, 1)
        doc = {"model": {"family": "gaussian-mean"}, "methods": [{"name": name, **options}]}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"configuration error: methods[0]: {err.value}\n"

    def test_configuration_error_is_a_value_error(self):
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(ConfigurationError, VarBoundsError)

    def test_null_option_is_left_out(self):
        # a null restarts used to be rejected; a null seed leaves the given one
        options = method_options("barankin_approx", {"restarts": None, "seed": None}, 1)
        assert barankin_search(options, seed=7) == BarankinSearch(seed=7)
        assert method_options("constrained_crb", {"constraint": None}, 1) == {}

    def test_null_radius_is_an_unbounded_search(self):
        assert barankin_search(method_options(
            "barankin_approx", {"radius": None}, 1)).radius is None
        assert barankin_search(method_options(
            "barankin_approx", {}, 1)).radius == BarankinSearch.radius

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="newton"):
            method_options("newton", {}, 1)

    def test_search_seed_default_and_override(self):
        assert barankin_search({}, seed=7).seed == 7
        assert barankin_search({"seed": 2}, seed=7).seed == 2
        search = barankin_search(method_options(
            "barankin_approx", {"initial_points": [[1.0]]}, 1))
        assert [p.tolist() for p in search.initial_points.points] == [[1.0]]


#: x0 grids of five points inside each scalar family's natural space
_GRIDS = {"gaussian-mean": (-1.0, 1.0), "poisson": (-1.0, 0.5), "bernoulli": (-1.5, 1.5),
          "exponential-rate": (-2.5, -1.5)}

#: Every quadratic method on a scalar family; the test points lie below the
#: grids, so that for exponential-rate every kernel pair exists
_GRID_METHODS = {"crb": {}, "expfam_crb": {}, "expfam_moment": {"indices": [[0], [1], [2]]},
                 "bhattacharyya": {"indices": [[1], [2], [3]]},
                 "hcrb": {"points": [[-3.3], [-2.9]]}}


def _grid_cases() -> list:
    cases = [(family, name, options) for family in _GRIDS
             for name, options in _GRID_METHODS.items()]
    return cases + [("gaussian-mean-nd", "constrained_crb", {"constraint": [[1.0, -1.0]]}),
                    ("gaussian-mean-nd", "crb", {}),
                    ("generic-gaussian", "crb", {}),
                    ("generic-gaussian", "bhattacharyya", {"indices": [[1], [2]]}),
                    ("generic-gaussian", "hcrb", {"points": [[-3.3], [-2.9]]})]


class TestGridEqualsAlone:
    """A method over a grid of reference points solves all its points with
    one stacked Gram solve; each result is still that of the point alone and
    of the one-matrix solve of its own system."""

    @pytest.mark.parametrize("family, name, options", _grid_cases())
    def test_grid_point_equals_its_bound_alone(self, family, name, options, monkeypatch):
        seeds, mc_samples = [3, 4, 5, 6, 7], 2_000
        if family == "gaussian-mean-nd":
            model, gamma = vb.gaussian_mean_nd(2), vb.identity_mean(0)
            grid = [np.array([0.1 * k, -0.2 * k]) for k in range(5)]
        else:
            scalar = vb.gaussian_mean() if family == "generic-gaussian" else vb.make_model(family)
            model = vb.as_generic(scalar) if family == "generic-gaussian" else scalar
            gamma = vb.expfam_mean(scalar)
            grid = [np.array([x]) for x in np.linspace(*_GRIDS.get(family, (-1.0, 1.0)), 5)]
        solves = []
        solve = vb_kernel._solve

        def counted(G, *args):
            solves.append(np.shape(G))
            return solve(G, *args)

        with monkeypatch.context() as m:
            # the grid's binding: a Monte Carlo hcrb's split halves solve in kernel
            m.setattr(bounds_module, "_solve", counted)
            got = bounds_module._evaluate_grid(model, gamma, grid, MethodSpec(name, options),
                                               seeds, mc_samples)
        assert len(solves) == 1 and solves[0][0] == 5  # one solve of all five points
        checked = method_options(name, options, model.param_dim)
        for x, seed, res in zip(grid, seeds, got):
            alone = evaluate_bound(model, gamma, x, MethodSpec(name, options),
                                   mc_samples=mc_samples, seed=seed)
            assert res.value.hex() == alone.value.hex()
            assert res.method == alone.method == name
            assert _hexed(res.diagnostics) == _hexed(alone.diagnostics)
            system = METHODS[name].build(model, gamma, x, checked, mc_samples, seed, 1e-10)
            one = make_gram_system(system.matrix, system.rhs, 1e-10)
            assert res.value.hex() == max(signed_sq_norm(one) - system.offset, 0.0).hex()
            assert res.diagnostics["gram_rank"] == one.diagnostics["rank"]
            assert res.diagnostics["condition_number"] == one.diagnostics["condition_number"]

    def test_one_monte_carlo_evaluator_lives_at_a_time(self, monkeypatch):
        # a built system keeps matrices and diagnostics, not its evaluator's draws
        alive = []
        init = vb_kernel.MonteCarloKernelEvaluator.__init__

        def tracked(evaluator, *args, **kwargs):
            assert all(ref() is None for ref in alive), "an earlier evaluator is alive"
            init(evaluator, *args, **kwargs)
            alive.append(weakref.ref(evaluator))

        monkeypatch.setattr(vb_kernel.MonteCarloKernelEvaluator, "__init__", tracked)
        model, gamma = vb.as_generic(vb.gaussian_mean()), vb.identity_mean()
        grid = [np.array([x]) for x in (-0.5, 0.0, 0.5)]
        for name, options in (("crb", {}), ("hcrb", {"points": [[1.5]]})):
            got = bounds_module._evaluate_grid(model, gamma, grid, MethodSpec(name, options),
                                               [1, 2, 3], 2_000)
            assert [type(r) for r in got] == [vb.BoundResult] * 3
        assert len(alive) == 6

    def test_a_failing_point_ends_the_grid_with_its_error(self):
        # exponential-rate leaves its natural space at x0 = 0, the fourth point
        model, gamma = vb.exponential_rate(), vb.identity_mean()
        grid = [np.array([x]) for x in (-1.5, -1.0, -0.5, 0.0, 0.5)]
        got = bounds_module._evaluate_grid(model, gamma, grid, MethodSpec("crb"), [0] * 5)
        assert [type(r) for r in got] == [vb.BoundResult] * 3 + [NaturalSpaceError]
        with pytest.raises(NaturalSpaceError) as alone:
            evaluate_bound(model, gamma, grid[3], MethodSpec("crb"))
        assert str(got[3]) == str(alone.value)

    def test_a_failing_solve_raises_its_error_alone(self):
        # a non-finite Gram entry at one point: the stacked solve fails, and the
        # point reports the one-matrix error while the others are solved
        systems = [_System(np.eye(2), np.ones(2)), _System(np.array([[1.0, 0.0], [0.0, np.inf]]),
                                                           np.ones(2)),
                   _System(2.0 * np.eye(2), np.ones(2))]
        got = bounds_module._quadratic_bounds("crb", systems, 1e-10)
        with pytest.raises(DataError) as alone:
            make_gram_system(systems[1].matrix, systems[1].rhs)
        assert isinstance(got[1], DataError) and str(got[1]) == str(alone.value)
        assert [got[0].value, got[2].value] == [2.0, 1.0]


def test_one_decomposition_per_quadratic_bound(monkeypatch):
    decompositions = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            decompositions.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    G = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1e-14]])
    res = _quadratic_bound("crb", _System(G, np.array([1.0, 0.5, 0.0])), 1e-10)
    assert decompositions == ["eigh"]
    assert res.diagnostics["gram_rank"] == 2


def geometric(support=(0, None)) -> vb.GenericModel:
    """Counts y >= 0 with P(y) = (1 - q) q^y, q = sigmoid(x).  The terms of
    K(x, x) are a geometric series of ratio q(x)^2 / q(x0), which does not
    fall when q(x)^2 >= q(x0)."""
    def ld(Y, x):
        log_q = -np.logaddexp(0.0, -x[0])
        return np.log1p(-np.exp(log_q)) + Y[:, 0] * log_q
    return vb.GenericModel("geometric", 1, 1, ld, vb.poisson().sampler, support=support)


def two_humped() -> vb.GenericModel:
    """An even mixture of Poisson counts of rates e^x and 60 e^x."""
    p = vb.poisson()

    def ld(Y, x):
        return np.logaddexp(vb.models.log_density_batch(p, Y, x),
                            vb.models.log_density_batch(p, Y, x + math.log(60.0))) \
            - math.log(2.0)
    return vb.GenericModel("two-humped", 1, 1, ld, p.sampler, support=(0, None))


#: x with q(x)^2 / q(0) = 1 - 1e-6: the terms of K(x, x) fall by 1e-6 a
#: count, 0.13 nats over the largest support summed
_Q = math.sqrt(0.5 * (1.0 - 1e-6))
SLOW_GEOMETRIC_X = math.log(_Q / (1.0 - _Q))

#: (family, x0, test points) of well-conditioned test-point bounds
SUMMATION_HCRB_CASES = [
    ("poisson", 0.0, [[3.0]]), ("poisson", 0.0, [[0.5]]), ("poisson", 0.0, [[0.5], [-0.7]]),
    ("poisson", 0.0, [[1.3], [-1.3]]), ("poisson", 0.2, [[3.2]]),
    ("poisson", -0.5, [[0.0], [-1.2]]), ("bernoulli", -0.5, [[2.5]]),
    ("bernoulli", -0.5, [[0.8], [-1.8]]), ("bernoulli", 0.4, [[0.9], [-0.3]]),
]


class TestSummationRoute:
    """as_generic of Poisson and Bernoulli declares its support, and its
    kernel is a sum over it: the closed-form values, with no sampling."""

    @pytest.mark.parametrize("family, x0, points", SUMMATION_HCRB_CASES)
    def test_hcrb_matches_the_closed_form(self, family, x0, points):
        model = vb.make_model(family)
        gamma = vb.expfam_mean(model)
        exact = vb.hcrb(model, gamma, [x0], TestPointSet(points)).value
        res = vb.hcrb(vb.as_generic(model), gamma, [x0], TestPointSet(points))
        assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert res.diagnostics["route"] == "summation"
        if family == "bernoulli":
            assert res.diagnostics["summation_terms"] == 2
        assert not [key for key in res.diagnostics if key.startswith("mc_")]

    def test_far_test_point_is_exact_where_monte_carlo_is_not(self):
        # the mass of f(.;3)^2 / f(.;0) sits near y = e^6, far from any draw at 0
        p = vb.poisson()
        res = vb.hcrb(vb.as_generic(p), vb.expfam_mean(p), [0.0], TestPointSet([[3.0]]))
        assert res.value == pytest.approx(2.324294376101979e-156, rel=1e-12)
        assert res.diagnostics["summation_terms"] == 1024

    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    @pytest.mark.parametrize("x0", [0.0, 0.2, -0.5])
    def test_barankin_matches_the_closed_form(self, family, x0):
        # one test point at least 0.25 from x0 keeps the difference Gram well
        # conditioned on both routes; nearer points lose about eps / d^2 of
        # the value to cancellation in the kernel differences, closed form too
        model = vb.make_model(family)
        gamma = vb.expfam_mean(model)
        search = BarankinSearch(restarts=3, halvings=5, max_points=1, min_distance=0.25,
                                seed=1)
        exact = vb.barankin_approx(model, gamma, [x0], search)
        res = vb.barankin_approx(vb.as_generic(model), gamma, [x0], search)
        assert res.value == pytest.approx(exact.value, rel=1e-12, abs=0.0)
        if family == "poisson":
            assert res.diagnostics["best_points"] == exact.diagnostics["best_points"]
        else:  # every Bernoulli test point gives p (1 - p): ties go either way
            at_best = vb.hcrb(model, gamma, [x0], TestPointSet(res.diagnostics["best_points"]))
            assert res.value == pytest.approx(at_best.value, rel=1e-12, abs=0.0)
        assert res.diagnostics["route"] == "summation"
        assert not [key for key in res.diagnostics if key.startswith("mc_")]

    @pytest.mark.parametrize("family, x0", [("poisson", 0.2), ("bernoulli", -0.5)])
    def test_derivative_bounds_match_the_closed_form(self, family, x0):
        # the kernel derivatives are central differences of the rows
        model = vb.make_model(family)
        generic, gamma = vb.as_generic(model), vb.expfam_mean(model)
        for bound in (lambda m: vb.crb(m, gamma, [x0]),
                      lambda m: vb.bhattacharyya(m, gamma, [x0], [(1,), (2,)])):
            res = bound(generic)
            assert res.value == pytest.approx(bound(model).value, rel=1e-7)
            assert res.diagnostics["route"] == "summation"
        assert vb.fisher_info(generic, [x0]) == pytest.approx(
            vb.fisher_info(model, [x0]), rel=1e-7)

    def test_moving_one_point_computes_one_row(self, log_density_calls):
        ev = vb.SummationKernelEvaluator(vb.as_generic(vb.poisson()), [0.0])
        assert [call.rows for call in log_density_calls] == [64]  # the reference
        ev.pairwise(np.array([[0.0], [0.3], [-0.2], [0.6]]))
        assert len(log_density_calls) == 4
        ev.pairwise(np.array([[0.0], [0.3], [-0.5], [0.6]]))
        assert len(log_density_calls) == 5
        assert log_density_calls[-1].x.tolist() == [-0.5]
        ev.pairwise(np.array([[0.0], [0.3], [-0.5], [0.6]]))
        assert len(log_density_calls) == 5

    def test_search_computes_at_most_one_row_per_configuration(self, log_density_calls):
        p = vb.poisson()
        res = vb.barankin_approx(vb.as_generic(p), vb.expfam_mean(p), [0.0], BarankinSearch(
            restarts=1, halvings=3, max_points=2, radius=1.0, seed=1))
        assert res.diagnostics["summation_terms"] == 64  # so no row was recomputed
        # the reference, the start's two points, then at most one per move
        assert len(log_density_calls) <= 1 + 2 + res.diagnostics["evaluations"] - 1

    def test_support_grows_for_a_far_point_and_recomputes_the_cached_rows(
            self, log_density_calls):
        gm = vb.as_generic(vb.poisson())
        ev = vb.SummationKernelEvaluator(gm, [0.0])
        near = ev.pairwise(np.array([[0.0], [0.4]]))
        assert len(ev.samples) == 64 and len(log_density_calls) == 2
        K = ev.pairwise(np.array([[0.0], [0.4], [3.0]]))
        assert len(ev.samples) == 1024
        # 3.0 at 64, 128, 256, 512 and 1024 terms; 0.4 at the four longer supports
        assert [call.x.tolist() for call in log_density_calls[2:]].count([3.0]) == 5
        assert [call.x.tolist() for call in log_density_calls[2:]].count([0.4]) == 4
        closed = vb.ExpfamKernelEvaluator(vb.poisson(), [0.0]).pairwise(
            np.array([[0.0], [0.4], [3.0]]))
        assert K == pytest.approx(closed, rel=1e-12)
        assert K[:2, :2] == pytest.approx(near, rel=1e-15)

    def test_sampler_is_never_called(self):
        def refuse(x, seed, count):
            raise AssertionError("the summation route drew samples")

        p = vb.poisson()
        model, gamma = replace(vb.as_generic(p), sampler=refuse), vb.expfam_mean(p)
        vb.hcrb(model, gamma, [0.0], TestPointSet([[0.5], [3.0]]))
        vb.crb(model, gamma, [0.0])
        vb.bhattacharyya(model, gamma, [0.0], [(1,), (2,)])
        vb.barankin_approx(model, gamma, [0.0], BarankinSearch(restarts=1, halvings=2))

    def test_terms_that_rise_again_are_a_data_error(self):
        with pytest.raises(DataError, match=r"two-humped.*rise again at y=.*after falling"):
            vb.hcrb(two_humped(), vb.identity_mean(), [0.0], TestPointSet([[0.5]]))

    @pytest.mark.parametrize("nan_at, message", [
        (lambda x: True, r"reference log density nan at y=2 for x0=\[0.0\]"),
        (lambda x: x[0] > 0.3, r"log density NaN at y=2 for x=\[0.5\]")],
        ids=["reference", "row"])
    def test_nan_log_density_is_a_data_error(self, nan_at, message):
        p = vb.poisson()
        model = vb.GenericModel(
            "nan-at-2", 1, 1, lambda Y, x: np.where(
                (Y[:, 0] == 2) & nan_at(x), np.nan, vb.models.log_density_batch(p, Y, x)),
            p.sampler, support=(0, None))
        with pytest.raises(DataError, match=message):
            vb.hcrb(model, vb.identity_mean(), [0.0], TestPointSet([[0.5]]))

    def test_bounded_support_is_summed_in_full(self):
        # a declared range of 1,000 counts is summed whole, however slowly it falls
        res = vb.hcrb(geometric((0, 999)), vb.identity_mean(), [0.0],
                      TestPointSet([[SLOW_GEOMETRIC_X]]))
        assert res.diagnostics["summation_terms"] == 1000 and res.value > 0.0

    def test_term_cap_raises_from_hcrb_and_is_skipped_by_a_search(self):
        # the terms do not fall 50 nats before the support doubles past the cap
        model, gamma = geometric(), vb.identity_mean()
        with pytest.raises(KernelEvaluationError, match=r"geometric.*needs more than 131072"):
            vb.hcrb(model, gamma, [0.0], TestPointSet([[SLOW_GEOMETRIC_X]]))
        search = BarankinSearch(initial_points=TestPointSet([[SLOW_GEOMETRIC_X]]), restarts=1,
                                halvings=2, max_points=1, seed=1)
        res = vb.barankin_approx(model, gamma, [0.0], search)
        assert res.diagnostics["search_trace"][0]["best_value"] is not None
        assert res.value > 0.0

    def test_term_cap_exits_3_through_the_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(vb.cli, "make_model", lambda **_: geometric())
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({
            "model": {"family": "poisson"}, "x0": [0.0],
            "methods": [{"name": "hcrb", "points": [[SLOW_GEOMETRIC_X]]}]}))
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure in method 'hcrb' at x0=[0.0]: ")
        assert "needs more than 131072 terms" in err and err.count("\n") == 1

    def test_vanishing_reference_density_raises(self):
        # counts from 1 up for x < 0, from 0 up otherwise
        p = vb.poisson()
        model = vb.GenericModel(
            "shifted-poisson", 1, 1,
            lambda Y, x: vb.models.log_density_batch(p, Y - float(x[0] < 0), x),
            p.sampler, support=(0, None))
        gamma = vb.identity_mean()
        assert vb.hcrb(model, gamma, [-0.5], TestPointSet([[-0.2]])).value > 0.0
        with pytest.raises(ReferenceSupportError, match=r"vanishes at y=0 for x0=\[-0.5\]"):
            vb.hcrb(model, gamma, [-0.5], TestPointSet([[0.5]]))


#: (route, Poisson at x0 0.2 on that route) for the diagnostics-key table
ROUTES = [("closed", vb.poisson()), ("fd-moment", replace(vb.poisson(), closed_moments=None)),
          ("summation", vb.as_generic(vb.poisson())), ("monte-carlo", mc_poisson())]

_GRAM_KEYS = ["gram_rank", "condition_number", "min_eigenvalue"]
_SEARCH_KEYS = _GRAM_KEYS + ["evaluations", "revisits", "gram_stacks", "search_trace",
                             "best_points"]
_MC_POINT_KEYS = ["mc_samples", "mc_effective_sample_size", "mc_standard_error"]

#: method -> (call, {route: diagnostics keys in order})
ROUTE_KEY_TABLE = {
    "crb": (lambda m, g: vb.crb(m, g, [0.2], n_mc=2_000), {
        "closed": _GRAM_KEYS, "fd-moment": _GRAM_KEYS + ["moment_fd_fallback"],
        "summation": _GRAM_KEYS + ["route", "summation_terms"],
        "monte-carlo": _GRAM_KEYS + ["mc_samples"]}),
    "bhattacharyya": (lambda m, g: vb.bhattacharyya(m, g, [0.2], [(1,), (2,)], n_mc=2_000), {
        "closed": _GRAM_KEYS, "fd-moment": _GRAM_KEYS + ["moment_fd_fallback"],
        "summation": _GRAM_KEYS + ["route", "summation_terms"],
        "monte-carlo": _GRAM_KEYS + ["mc_samples"]}),
    "hcrb": (lambda m, g: vb.hcrb(m, g, [0.2], TestPointSet([[0.7]]), mc_samples=2_000), {
        "closed": _GRAM_KEYS + ["n_test_points"], "fd-moment": _GRAM_KEYS + ["n_test_points"],
        "summation": _GRAM_KEYS + ["n_test_points", "route", "summation_terms"],
        "monte-carlo": _GRAM_KEYS + ["n_test_points"] + _MC_POINT_KEYS}),
    "barankin_approx": (lambda m, g: vb.barankin_approx(m, g, [0.2], BarankinSearch(
        restarts=1, halvings=2, max_points=1), mc_samples=2_000), {
        "closed": _SEARCH_KEYS, "fd-moment": _SEARCH_KEYS,
        "summation": _SEARCH_KEYS + ["route", "summation_terms"],
        "monte-carlo": _SEARCH_KEYS + _MC_POINT_KEYS}),
}


@pytest.mark.parametrize("method", list(ROUTE_KEY_TABLE))
@pytest.mark.parametrize("route, model", ROUTES, ids=[route for route, _ in ROUTES])
def test_diagnostics_keys_by_route_and_method(route, model, method):
    # each route adds its own keys after the Gram and search keys: the
    # moment fallback only to derivative bounds, the Monte Carlo error and
    # effective sample sizes only where there are test points
    call, keys = ROUTE_KEY_TABLE[method]
    res = call(model, vb.expfam_mean(vb.poisson()))
    assert list(res.diagnostics) == keys[route]
    if route == "summation":
        assert res.diagnostics["route"] == "summation"
    if route == "monte-carlo":
        assert res.diagnostics["mc_samples"] == 2_000
