"""Variance lower bounds against closed-form oracles and each other."""

import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import varbounds as vb
import varbounds.bounds as bounds_module
import varbounds.kernel as vb_kernel
from varbounds.bounds import METHODS, BarankinSearch, MethodSpec, TestPointSet, \
    _quadratic_bound, barankin_search, evaluate_bound, method_options
from varbounds.errors import ConstraintRankError, DomainError, NaturalSpaceError, \
    StencilError
from varbounds.kernel import deriv_inner_products


def hcrb_single_point_oracle(delta: float) -> float:
    """Gaussian unit-variance mean, identity estimand, single test point at
    x0 + delta: bound is delta^2 / (exp(delta^2) - 1)."""
    return delta ** 2 / math.expm1(delta ** 2)


@pytest.fixture
def log_density_calls(monkeypatch) -> list:
    """The parameter of each log_density_batch call the kernel makes."""
    calls = []
    orig = vb_kernel.log_density_batch

    def counted(model, Y, x):
        calls.append(np.array(x, dtype=float))
        return orig(model, Y, x)
    monkeypatch.setattr(vb_kernel, "log_density_batch", counted)
    return calls


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
        assert sum(np.array_equal(x, [0.5]) for x in log_density_calls) == 1


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
        res = vb.hcrb(vb.as_generic(p), vb.expfam_mean(p), [0.0], TestPointSet([[3.0], [0.05]]),
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

    def test_test_point_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TestPointSet([[1.0], [1.0]])


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
                                                ({"radius": 1.0e-7}, "min_distance")])
    def test_search_with_nothing_to_search_is_rejected(self, options, match):
        # both used to give a value of 0 after 0 evaluations
        with pytest.raises(ValueError, match=match):
            BarankinSearch(**options)
        with pytest.raises(ValueError, match=match):
            method_options("barankin_approx", options, 1)
        if "restarts" in options:
            with pytest.raises(ValueError, match=match):
                BarankinSearch(initial_points=TestPointSet([]), **options)

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

    def test_initial_points_inside_the_region_are_searched_from(self):
        search = BarankinSearch(initial_points=TestPointSet([[0.9], [-0.5]]), restarts=0,
                                halvings=0, radius=1.0)
        in_domain = search.region(np.array([0.0]))
        assert in_domain(np.array([0.9])) and not in_domain(np.array([1.1]))
        res = vb.barankin_approx(vb.gaussian_mean(), vb.identity_mean(), [0.0], search)
        assert res.diagnostics["best_points"] == [[0.9], [-0.5]]

    def test_monte_carlo_search_reports_effective_sample_sizes(self):
        p = vb.poisson()
        res = vb.barankin_approx(vb.as_generic(p), vb.expfam_mean(p), [0.0],
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
        return (vb.as_generic(p), vb.expfam_mean(p), [0.0],
                BarankinSearch(restarts=1, halvings=3, max_points=2, seed=1),
                {"mc_samples": 2_000})
    x0, box = {"gaussian-mean": (0.3, {}), "poisson": (-0.2, {}), "bernoulli": (0.4, {}),
               "exponential-rate": (-1.1, {"lower": (-3.1,), "upper": (-0.55,)})}[name]
    model = vb.make_model(name)
    return (model, vb.expfam_mean(model), [x0],
            BarankinSearch(restarts=2, halvings=6, max_points=3, seed=5, **box), {})


#: value (float.hex), best_points, search_trace (best values as float.hex) and
#: evaluations + revisits, as the search gave them before it skipped
#: configurations it had already computed.
PINNED_SEARCHES = {
    "gaussian-mean": (
        "0x1.000000000fefdp+0",
        [[0.3175175424722809], [0.3038947384189621], [0.32945336625285204]],
        [(0, "0x1.000000000fefdp+0"), (1, "0x1.0000000001bf7p+0")],
        170),
    "poisson": (
        "0x1.a330ad61dcdd8p-1",
        [[-0.19810745752771908], [-0.2742302615810379], [-0.17054663374714796]],
        [(0, "0x1.a330ad61dcdd8p-1"), (1, "0x1.a330ad6187640p-1")],
        188),
    "bernoulli": (
        "0x1.ec0dd36bc7901p-3",
        [[2.2952250822432867], [0.22433609912855834], [1.0752820660526896]],
        [(0, "0x1.ec0dd36bc78fap-3"), (1, "0x1.ec0dd36bc7901p-3")],
        128),
    "exponential-rate": (
        "0x1.a723f789ea9c3p-1",
        [[-1.1101543400466032], [-1.040282157870363], [-1.1067551219276073]],
        [(0, "0x1.a723f789b9f69p-1"), (1, "0x1.a723f789ea9c3p-1")],
        154),
    "exponential-rate-unboxed": (
        "0x1.3fb7747a1a89cp+4",
        [[-3.499713600185999], [-3.4958585970912734]],
        [(0, "0x1.3fb7747a1a89cp+4"), (1, "0x1.3ca49588ca22ep+4")],
        72),
    "generic-poisson": (
        "0x1.34172fd310672p+12",
        [[2.9459297482015403], [2.952782177955612]],
        [(0, "0x1.34172fd310672p+12")],
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
        assert [(t["start"], t["best_value"].hex()) for t in d["search_trace"]] == trace
        assert d["evaluations"] + d["revisits"] == proposals
        assert d["revisits"] > 0

    @pytest.mark.parametrize("name", ["gaussian-mean", "exponential-rate-unboxed",
                                      "generic-poisson"])
    def test_each_configuration_and_gamma_value_is_computed_once(self, name, monkeypatch):
        model, gamma, x0, search, kwargs = _search_case(name)
        configurations, values = [], []
        kernel_stacks = bounds_module._kernel_stacks

        def tracked_stacks(evaluator, g, stack, *args):
            configurations.extend((evaluator, np.asarray(points, dtype=float).tobytes())
                                  for points in stack)
            return kernel_stacks(evaluator, g, stack, *args)

        def counted_value(x):
            values.append(np.asarray(x, dtype=float).tobytes())
            return gamma.value(x)

        monkeypatch.setattr(bounds_module, "_kernel_stacks", tracked_stacks)
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


def serial_barankin(model, gamma, x0, search, mc_samples=100_000, pinv_tol=1e-10):
    """The search loop before the starts ran in lockstep: each start climbs to
    its end before the next one starts, every configuration is projected on
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
        [result] = bounds_module._difference_projection(evaluator, gamma, [pts], pinv_tol)
        value = None if result is None else result[0]
        if value is not None and value > best[0]:
            best[:] = [value, result[1], pts]
        seen[key] = value
        return value

    trace = []
    for start_idx, pts in enumerate(starts):
        current = objective(pts)
        if current is None:
            current = -math.inf
        step = cfg.initial_step
        for _level in range(cfg.halvings):
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
        trace.append({"start": start_idx,
                      "best_value": current if math.isfinite(current) else None})

    value, best_diag, best_points = best
    diagnostics = {"gram_rank": 0, "condition_number": math.inf, "min_eigenvalue": 0.0,
                   **best_diag, "evaluations": work["evaluations"],
                   "revisits": work["revisits"], "search_trace": trace}
    if best_points is not None:
        diagnostics["best_points"] = [p.tolist() for p in best_points]
    if isinstance(evaluator, vb_kernel.MonteCarloKernelEvaluator):
        diagnostics.update(bounds_module._mc_diagnostics(evaluator, gamma, best_points,
                                                         pinv_tol))
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
        return (vb.as_generic(p), vb.expfam_mean(p), [0.0],
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
        results = bounds_module._difference_projection(evaluator, gamma, configurations, 1e-10)
        assert results[1] is None
        for points, result in zip(configurations[::2], results[::2]):
            [alone] = bounds_module._difference_projection(evaluator, gamma, [points], 1e-10)
            assert _hexed(list(result)) == _hexed(list(alone))
        with pytest.raises(NaturalSpaceError, match="finite-difference stencil point"):
            vb.hcrb(model, gamma, [-1.0], TestPointSet([[-3e-5]]), mc_samples=2_000)

    def test_ratio_vectors_no_more_than_serial(self, monkeypatch):
        # the ratio cache holds the rows of one lockstep step, so running the
        # default five starts side by side recomputes no more likelihood-ratio
        # vectors than running them one after the other
        p = vb.poisson()
        model, gamma, search = vb.as_generic(p), vb.expfam_mean(p), BarankinSearch(seed=1)
        computed = []
        original = vb_kernel.log_density_batch

        def counting(model, Y, x):
            computed.append(1)
            return original(model, Y, x)

        monkeypatch.setattr(vb_kernel, "log_density_batch", counting)
        counts = []
        for run in (serial_barankin, vb.barankin_approx):
            computed.clear()
            run(model, gamma, [0.0], search, mc_samples=2_000)
            counts.append(len(computed))
        assert counts[1] <= counts[0]


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


class TestMethodTable:
    def test_cases_cover_the_table(self):
        assert set(_TABLE_CASES) == set(METHODS)

    def test_search_options_are_the_search_fields(self):
        assert set(METHODS["barankin_approx"].optional) == \
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

    @pytest.mark.parametrize("name, options, field", [
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
    ])
    def test_bad_options_name_the_method(self, name, options, field):
        with pytest.raises(ValueError) as err:
            method_options(name, options, 1)
        assert name in str(err.value) and field in str(err.value)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="newton"):
            method_options("newton", {}, 1)

    def test_search_seed_default_and_override(self):
        assert barankin_search({}, seed=7).seed == 7
        assert barankin_search({"seed": 2}, seed=7).seed == 2
        search = barankin_search(method_options(
            "barankin_approx", {"initial_points": [[1.0]]}, 1))
        assert [p.tolist() for p in search.initial_points.points] == [[1.0]]


def test_one_decomposition_per_quadratic_bound(monkeypatch):
    decompositions = []
    for name in ("eigh", "eigvalsh", "svd", "eig", "eigvals"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            decompositions.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    G = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 1e-14]])
    res = _quadratic_bound(G, np.array([1.0, 0.5, 0.0]), "crb", 1e-10)
    assert decompositions == ["eigh"]
    assert res.diagnostics["gram_rank"] == 2
