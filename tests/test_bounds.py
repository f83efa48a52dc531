"""Variance lower bounds against closed-form oracles and each other."""

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import varbounds as vb
import varbounds.bounds as bounds_module
import varbounds.kernel as vb_kernel
from varbounds.bounds import METHODS, BarankinSearch, MethodSpec, TestPointSet, \
    _quadratic_bound, barankin_search, evaluate_bound, method_options
from varbounds.errors import ConstraintRankError, DomainError
from varbounds.kernel import deriv_inner_products


def hcrb_single_point_oracle(delta: float) -> float:
    """Gaussian unit-variance mean, identity estimand, single test point at
    x0 + delta: bound is delta^2 / (exp(delta^2) - 1)."""
    return delta ** 2 / math.expm1(delta ** 2)


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

    def test_generic_reuses_reference_ratios(self, monkeypatch):
        # draws at x0 plus the ratio vectors at x0 -/+ h; the centre of the
        # order-2 stencil is x0, whose vector the evaluator starts with
        calls = []
        orig = vb_kernel.log_density_batch

        def counted(model, Y, x):
            calls.append(np.array(x, dtype=float))
            return orig(model, Y, x)
        monkeypatch.setattr(vb_kernel, "log_density_batch", counted)
        vb.bhattacharyya(vb.as_generic(vb.gaussian_mean()), vb.identity_mean(), [0.5],
                         [(1,), (2,)], n_mc=1000, seed=3)
        assert len(calls) == 3
        assert sum(np.array_equal(x, [0.5]) for x in calls) == 1


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
        projection = bounds_module._difference_projection

        def tracked_projection(evaluator, g, points, pinv_tol):
            configurations.append((evaluator, b"".join(p.tobytes() for p in points)))
            return projection(evaluator, g, points, pinv_tol)

        def counted_value(x):
            values.append(np.asarray(x, dtype=float).tobytes())
            return gamma.value(x)

        monkeypatch.setattr(bounds_module, "_difference_projection", tracked_projection)
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
        # one kernel matrix per computed configuration, one eigh per
        # configuration whose kernel is defined, and no other decomposition
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
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(vb_kernel.ExpfamKernelEvaluator, "pairwise", counted_pairwise)
        for decomposition in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "qr",
                              "cholesky", "lstsq", "pinv", "solve", "inv", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, decomposition,
                                counted(getattr(np.linalg, decomposition)))
        res = vb.barankin_approx(model, gamma, x0, search, **kwargs)
        assert calls["pairwise"] == res.diagnostics["evaluations"]
        assert calls["eigh"] == calls["defined"]
        assert set(calls) == {"pairwise", "defined", "eigh"}
        if name == "exponential-rate-unboxed":
            assert 0 < calls["defined"] < calls["pairwise"]


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
