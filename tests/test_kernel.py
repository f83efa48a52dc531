"""Kernel evaluation, Gram systems, projections, and sufficiency invariance."""

import dataclasses
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varbounds as vb
from varbounds import calculus as calculus_module
from varbounds import kernel as kernel_module
from varbounds import models as models_module
from varbounds.bounds import _System, _clamped, _kernel_rows, _quadratic_bound, _solve_rows
from varbounds.calculus import MultiIndex, moment, moment_table, multi_binomial, \
    multi_indices_leq, reciprocal_series
from varbounds.cli import main as cli_main
from varbounds.errors import DataError, KernelEvaluationError, NaturalSpaceError, \
    ReferenceSupportError
from varbounds.kernel import (
    _exact_deriv_inner,
    _exact_point_deriv,
    _exact_tables,
    _fd_deriv_inner,
    DerivBasis,
    DiffBasis,
    ExpfamKernelEvaluator,
    MonteCarloKernelEvaluator,
    PointBasis,
    derivative_kernel_function,
    deriv_inner_products,
    difference_block,
    gram,
    gram_rhs,
    gram_system,
    kernel_expfam,
    kernel_mc,
    make_gram_system,
    projected_sq_norm,
    signed_sq_norm,
    suffstat_kernel_check,
)
from varbounds.models import log_density_batch

params = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


class TestKernelExpfam:
    def test_gaussian_closed_form(self):
        g = vb.gaussian_mean()
        # exponent reduces to (x1-x0)(x2-x0)
        assert kernel_expfam(g, [0.0], [1.0], [1.0]) == pytest.approx(math.e, rel=1e-12)
        assert kernel_expfam(g, [0.0], [1.0], [-1.0]) == pytest.approx(1 / math.e, rel=1e-12)

    def test_reference_diagonal_is_one(self):
        for model in (vb.gaussian_mean(), vb.poisson(), vb.bernoulli()):
            assert kernel_expfam(model, [0.4], [0.4], [0.4]) == pytest.approx(1.0, rel=1e-14)

    def test_pair_sum_condition_violation(self):
        er = vb.exponential_rate()
        # x1 + x2 - x0 = 1 >= 0 leaves the natural space
        with pytest.raises(NaturalSpaceError):
            kernel_expfam(er, [-3.0], [-1.0], [-1.0])

    def test_100_random_triples_match_translation_formula(self):
        g = vb.gaussian_mean()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x0, x1, x2 = rng.uniform(-2, 2, size=3)
            expect = math.exp((x1 - x0) * (x2 - x0))
            got = kernel_expfam(g, [x0], [x1], [x2])
            assert got == pytest.approx(expect, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(params, params, params)
    def test_symmetry_exact(self, x0, x1, x2):
        g = vb.gaussian_mean()
        assert kernel_expfam(g, [x0], [x1], [x2]) == kernel_expfam(g, [x0], [x2], [x1])

    def test_symmetry_exact_100_random_pairs(self):
        rng = np.random.default_rng(5)
        for model in (vb.gaussian_mean(), vb.poisson()):
            for _ in range(100):
                x0, x1, x2 = rng.uniform(-1.5, 1.5, size=3)
                assert kernel_expfam(model, [x0], [x1], [x2]) == \
                    kernel_expfam(model, [x0], [x2], [x1])

    def test_pairwise_matches_scalar_evaluation(self):
        p = vb.poisson()
        ev = ExpfamKernelEvaluator(p, [0.2])
        pts = np.array([[0.2], [0.5], [-0.3]])
        K = ev.pairwise(pts)
        for i in range(3):
            for j in range(3):
                assert K[i, j] == pytest.approx(ev.evaluate(pts[i], pts[j]), rel=1e-14)

    def test_pairwise_makes_no_log_lambda_call_on_x0(self):
        import dataclasses
        p = vb.poisson()
        args = []

        def log_lambda(x):
            args.append(np.asarray(x).copy())
            return p.log_lambda(x)

        ev = ExpfamKernelEvaluator(dataclasses.replace(p, log_lambda=log_lambda), [0.2])
        args.clear()
        pts = np.array([[0.2], [0.5], [-0.3]])
        K = ev.pairwise(pts)
        # one batch over the rows and one over the pair sums; log_lambda(x0)
        # was taken once, at construction
        assert [a.shape for a in args] == [(3, 1), (9, 1)]
        assert np.array_equal(K, ExpfamKernelEvaluator(p, [0.2]).pairwise(pts))


class TestKernelMC:
    def test_reference_pair_is_exactly_one(self):
        est = kernel_mc(vb.as_generic(vb.gaussian_mean()), [0.0], [0.0], [0.0],
                        n=1000, seed=1)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_matches_closed_form_within_4se(self):
        # for x2 = -x1 the ratio product is deterministic, so the standard
        # error is pure rounding noise; allow a float-level epsilon
        g = vb.gaussian_mean()
        gm = vb.as_generic(g)
        for x1, x2, seed in [([1.0], [1.0], 2), ([0.5], [-0.5], 3)]:
            est = kernel_mc(gm, [0.0], x1, x2, n=100_000, seed=seed)
            oracle = kernel_expfam(g, [0.0], x1, x2)
            assert abs(est.value - oracle) <= 4 * est.stderr + 1e-12

    def test_shared_sample_set_gives_psd_gram(self):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       mc_samples=20_000, seed=4)
        pts = np.array([[0.0], [0.4], [0.8], [-0.4]])
        K = ev.pairwise(pts)
        eig = np.linalg.eigvalsh(K)
        assert eig[0] >= -1e-9 * eig[-1]

    def test_evaluate_is_the_value_of_evaluate_with_se(self):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       mc_samples=1000, seed=2)
        assert ev.evaluate([0.3], [0.5]) == ev.evaluate_with_se([0.3], [0.5]).value

    def test_accepts_expfam_models_directly(self):
        est = kernel_mc(vb.poisson(), [0.0], [0.3], [0.3], n=50_000, seed=5)
        oracle = kernel_expfam(vb.poisson(), [0.0], [0.3], [0.3])
        assert abs(est.value - oracle) <= 4 * est.stderr

    def test_heavy_tail_warning(self):
        # kernel value finite but the squared-ratio product has infinite
        # variance when 2(x1 + x2) - 3 x0 leaves the natural space
        er = vb.exponential_rate()
        for seed in range(3):
            bad = kernel_mc(er, [-1.0], [-0.6], [-0.6], n=20_000, seed=seed)
            assert bad.heavy_tail_warning
            fine = kernel_mc(er, [-1.0], [-0.85], [-0.85], n=20_000, seed=seed)
            assert not fine.heavy_tail_warning


class TestMonteCarloRatioCache:
    def test_hcrb_computes_one_vector_per_point_and_none_on_the_halves(self, log_density_calls):
        res = vb.hcrb(vb.as_generic(vb.gaussian_mean()), vb.identity_mean(), [0.0],
                      vb.TestPointSet([[0.5]]), mc_samples=20_000, seed=3)
        # x0 at construction, then the test point; the split halves slice both
        assert [call.rows for call in log_density_calls] == [20_000, 20_000]
        assert res.diagnostics["mc_standard_error"] > 0

    def test_repeated_pairwise_makes_no_new_log_density_call(self, log_density_calls):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.poisson()), [0.0],
                                       mc_samples=5_000, seed=2)
        log_density_calls.clear()
        pts = np.array([[0.0], [0.4], [-0.3]])
        first = ev.pairwise(pts)
        assert len(log_density_calls) == 2
        again = ev.pairwise(pts)
        assert len(log_density_calls) == 2
        assert np.array_equal(first, again)

    def test_pairwise_equals_uncached_ratio_products(self):
        p = vb.poisson()
        ev = MonteCarloKernelEvaluator(vb.as_generic(p), [0.0], mc_samples=5_000, seed=2)
        pts = np.array([[0.0], [0.4], [-0.3]])
        R = [phi_ratio_vector(p, ev.samples, x, [0.0]) for x in pts]
        ev.pairwise(pts[:2])
        K = ev.pairwise(pts)
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                expect = float(np.dot(R[i], R[j]) / ev.mc_samples).hex()
                assert K[i, j].hex() == K[j, i].hex() == expect
        assert K[0, 0] == 1.0

    @pytest.mark.parametrize("family", ["poisson", "gaussian-mean", "exponential-rate"])
    @pytest.mark.parametrize("n", [4_000, 4_001])
    def test_split_half_error_equals_fresh_evaluators_on_the_halves(self, family, n):
        gm = vb.as_generic(vb.make_model(family))
        x0 = [-1.0] if family == "exponential-rate" else [0.0]
        ev = MonteCarloKernelEvaluator(gm, x0, mc_samples=n, seed=5)
        cached, uncached = [x0[0] + 0.4], [x0[0] - 0.3]
        ev.pairwise(np.array([x0, cached]))
        points = [np.array(cached), np.array(uncached)]
        basis, gamma, half = [DiffBasis(p) for p in points], vb.identity_mean(), n // 2
        low, high = (projected_sq_norm(gram_system(
            MonteCarloKernelEvaluator(gm, x0, seed=5, samples=chunk), basis, gamma))
            for chunk in (ev.samples[:half], ev.samples[half:]))
        error = ev.diagnostics(gamma, points)["mc_standard_error"]
        assert error > 0.0 and error.hex() == (abs(low - high) / 2.0).hex()

    def test_both_halves_take_one_gram_solve(self, monkeypatch):
        shapes, solve = [], kernel_module.make_gram_system

        def counted(G, *args):
            shapes.append(np.shape(G))
            return solve(G, *args)

        monkeypatch.setattr(kernel_module, "make_gram_system", counted)
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.poisson()), [0.0],
                                       mc_samples=2_000, seed=1)
        ev.diagnostics(vb.identity_mean(), [np.array([0.3]), np.array([-0.2])])
        assert shapes == [(2, 2, 2)]  # a stack of two 2-point Grams

    def test_cache_stays_within_its_cap_during_a_search(self, monkeypatch):
        sizes, rows, step_rows = [], [0], [0]
        ratios, pairwise = MonteCarloKernelEvaluator._ratios, MonteCarloKernelEvaluator.pairwise
        reserve = MonteCarloKernelEvaluator.reserve

        def tracked_ratios(self, x):
            out = ratios(self, x)
            sizes.append(len(self._cache))
            assert len(self._cache) <= self._cache_cap
            return out

        def tracked_pairwise(self, points):
            rows[0] = max(rows[0], len(points))
            return pairwise(self, points)

        def tracked_reserve(self, n):
            step_rows[0] = max(step_rows[0], n)
            return reserve(self, n)

        monkeypatch.setattr(MonteCarloKernelEvaluator, "_ratios", tracked_ratios)
        monkeypatch.setattr(MonteCarloKernelEvaluator, "pairwise", tracked_pairwise)
        monkeypatch.setattr(MonteCarloKernelEvaluator, "reserve", tracked_reserve)
        p = vb.poisson()
        vb.barankin_approx(dataclasses.replace(vb.as_generic(p), support=None),
                           vb.expfam_mean(p), [0.0],
                           vb.BarankinSearch(restarts=2, halvings=3, max_points=2, seed=1),
                           mc_samples=5_000)
        # x0 and 2 points per configuration, one configuration per start and step
        assert rows[0] == 3
        assert step_rows[0] == 2 * rows[0]
        # the search evaluates far more points than the cache keeps
        assert max(sizes) == 2 * step_rows[0] + 1

    def test_cached_vectors_are_read_only(self):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       mc_samples=1_000, seed=1)
        ev.pairwise(np.array([[0.0], [0.5]]))
        ev.diagnostics(vb.identity_mean(), [np.array([0.5])])  # slices, no copies
        vectors = [ev._ratios([0.0]), ev._ratios([0.5])]
        for r in vectors:
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[0] = 2.0

    def test_reference_vector_costs_no_log_density_call(self, log_density_calls):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       mc_samples=1_000, seed=1)
        assert len(log_density_calls) == 1  # the reference, at construction
        assert np.array_equal(ev._ratios([0.0]), np.ones(1_000))
        assert len(log_density_calls) == 1

    def test_failing_point_is_not_cached(self):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.exponential_rate()), [-1.0],
                                       mc_samples=1_000, seed=1)
        for _ in range(2):
            with pytest.raises(NaturalSpaceError):
                ev.pairwise(np.array([[-1.0], [0.5]]))
        assert np.array([0.5]).tobytes() not in ev._cache

    def test_effective_sample_size(self):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       mc_samples=1_000, seed=1)
        assert ev.effective_sample_size([0.0]) == pytest.approx(1_000, rel=1e-12)
        # Kish ESS / n estimates 1 / E[rho^2] = exp(-delta^2) for a unit Gaussian
        assert ev.effective_sample_size([0.3]) / 1_000 == pytest.approx(math.exp(-0.09), rel=0.05)

    def test_effective_sample_size_reads_the_kept_dots(self, monkeypatch):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       mc_samples=1_000, seed=1)
        ev.pairwise(np.array([[0.0], [0.3]]))
        dots = counted_dots(monkeypatch)
        r = ev._ratios([0.3])
        assert ev.effective_sample_size([0.3]) == pytest.approx(r.sum() ** 2 / (r @ r),
                                                                rel=1e-12)
        assert dots == []  # both sums are kernel entries the Gram already holds
        # a point no Gram holds yet: its two dots are kept for the next Gram
        ev.effective_sample_size([-0.2])
        ev.pairwise(np.array([[0.0], [-0.2]]))
        assert dots == [1_000] * 2

    def test_effective_sample_size_where_the_squares_overflow(self):
        # rho = exp(40 y - 800): about e^-800, e^400 and e^360, whose squares
        # overflow, so the vector is scaled by its largest entry first
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       samples=[[0.0], [30.0], [29.0]])
        assert ev.effective_sample_size([40.0]) == pytest.approx(1.0, rel=1e-12)
        assert ev.effective_sample_size([-60.0]) == 0.0  # every weight underflows


def phi_ratio_vector(family, Y, x, x0) -> np.ndarray:
    """A family's likelihood ratio over Y from phi(Y) alone, computed apart
    from the evaluator: exp of one matmul phi(Y) @ (x - x0) minus
    A(x) - A(x0), with no log h."""
    x, x0 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, x0))
    shift = float(family.log_lambda(x)) - float(family.log_lambda(x0))
    return np.exp(family.phi(Y) @ (x - x0) - shift)


def model_view(family, view: str):
    """The family itself, `as_generic` of it (declared support), or that
    generic copy with support None (undeclared)."""
    if view == "family":
        return family
    generic = vb.as_generic(family)
    return generic if view == "generic" else dataclasses.replace(generic, support=None)


VIEWS = ["family", "generic", "undeclared"]


#: Every built-in family, with its reference parameter and probe points
#: (0 and x0 among them); 0 is outside the exponential-rate natural space.
FAMILY_PROBES = [
    (vb.gaussian_mean(), [0.3], [[0.0], [0.3], [0.9], [-1.4]]),
    (vb.poisson(), [0.2], [[0.0], [0.2], [0.7], [-0.8]]),
    (vb.bernoulli(), [-0.5], [[0.0], [-0.5], [1.2], [-2.0]]),
    (vb.exponential_rate(), [-1.0], [[0.0], [-1.0], [-0.6], [-2.5]]),
    (vb.gaussian_mean_nd(2), [0.1, -0.6], [[0.0, 0.0], [0.1, -0.6], [0.5, 0.2]]),
    (vb.gaussian_iid(3), [0.3], [[0.0], [0.3], [-0.4]]),
    (vb.gaussian_sum(3), [0.3], [[0.0], [0.3], [0.8]]),
]


def counted_dots(monkeypatch) -> list:
    """Patches np.dot to record the length of each pair it multiplies."""
    calls, dot = [], np.dot

    def counted(a, b, *args):
        calls.append(len(a))
        return dot(a, b, *args)

    monkeypatch.setattr(np, "dot", counted)
    return calls


class TestMonteCarloDotCache:
    @pytest.mark.parametrize("family, x0, probes", FAMILY_PROBES,
                             ids=[m.name for m, _, _ in FAMILY_PROBES])
    def test_pairwise_agrees_with_the_stacked_product(self, family, x0, probes):
        ev = MonteCarloKernelEvaluator(vb.as_generic(family), x0, mc_samples=20_000, seed=3)
        pts = np.array([x0] + [x for x in probes
                               if x != x0 and vb.natural_space_contains(family, x)])
        R = np.stack([ev._ratios(p) for p in pts])
        stacked = (R @ R.T) / R.shape[1]
        K = ev.pairwise(pts)
        assert np.array_equal(K, K.T) and K[0, 0] == 1.0
        assert np.all(np.abs(K - stacked) <= 1e-14 * np.abs(stacked))

    def test_moving_one_point_computes_m_plus_1_dots(self, monkeypatch):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.poisson()), [0.0],
                                       mc_samples=2_000, seed=1)
        dots = counted_dots(monkeypatch)
        ev.pairwise(np.array([[0.0], [0.3], [-0.2], [0.6]]))
        assert len(dots) == 10  # (m + 1)(m + 2) / 2 for m = 3
        ev.pairwise(np.array([[0.0], [0.3], [-0.5], [0.6]]))
        assert len(dots) == 14
        ev.pairwise(np.array([[0.0], [0.3], [-0.5], [0.6]]))
        assert len(dots) == 14
        assert set(dots) == {2_000}

    def test_halves_compute_their_own_dots(self, monkeypatch):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.poisson()), [0.0],
                                       mc_samples=2_001, seed=1)
        pts = np.array([[0.0], [0.3]])
        K = ev.pairwise(pts)
        dots = counted_dots(monkeypatch)
        ev.diagnostics(vb.identity_mean(), pts[1:])
        # the effective sample size reads the kept dots; each half takes its own
        assert dots == [1_000] * 3 + [1_001] * 3
        assert np.array_equal(ev.pairwise(pts), K) and len(dots) == 6

    def test_dot_cache_stays_within_its_cap_during_a_search(self, monkeypatch):
        sizes, computed = [], counted_dots(monkeypatch)
        pairwise = MonteCarloKernelEvaluator.pairwise

        def tracked_pairwise(self, points):
            out = pairwise(self, points)
            cap = self._cache_cap
            sizes.append(len(self._dots))
            assert len(self._dots) <= cap * (cap + 1) // 2
            assert all(a in self._cache and b in self._cache for a, b in self._dots)
            return out

        monkeypatch.setattr(MonteCarloKernelEvaluator, "pairwise", tracked_pairwise)
        p = vb.poisson()
        vb.barankin_approx(dataclasses.replace(vb.as_generic(p), support=None),
                           vb.expfam_mean(p), [0.0],
                           vb.BarankinSearch(restarts=2, halvings=3, max_points=2, seed=1),
                           mc_samples=5_000)
        # the search computes far more dots than the cache keeps
        assert len(computed) > 2 * max(sizes)


class TestFrozenDrawSets:
    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("family, x0, probes", FAMILY_PROBES,
                             ids=[m.name for m, _, _ in FAMILY_PROBES])
    def test_ratio_vectors_have_the_bits_of_the_phi_formula(self, family, x0, probes, view):
        ev = MonteCarloKernelEvaluator(model_view(family, view), x0, mc_samples=4_001, seed=7)
        # evaluators on the halves of the draws compute the slices the
        # split-half error takes of the whole vectors
        parts = (slice(None, 2_000), slice(2_000, None))
        halves = [MonteCarloKernelEvaluator(model_view(family, view), x0, samples=ev.samples[rows])
                  for rows in parts]
        for x in probes:
            if not vb.natural_space_contains(family, x):
                with pytest.raises(NaturalSpaceError):
                    ev._ratios(x)
                continue
            expect = phi_ratio_vector(family, ev.samples, x, x0)
            assert ev._ratios(x).tobytes() == expect.tobytes()
            for sub, rows in zip(halves, parts):
                assert sub._ratios(x).tobytes() == expect[rows].tobytes()

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("family, x0, probes", FAMILY_PROBES,
                             ids=[m.name for m, _, _ in FAMILY_PROBES])
    def test_ratio_vectors_agree_with_the_log_density_ratio(self, family, x0, probes, view):
        # h cancels: dropping log h moves each ratio by rounding only
        ev = MonteCarloKernelEvaluator(model_view(family, view), x0, mc_samples=4_001, seed=7)
        ld0 = log_density_batch(family, ev.samples, x0)
        for x in probes:
            if vb.natural_space_contains(family, x):
                expect = np.exp(log_density_batch(family, ev.samples, x) - ld0)
                assert np.all(np.abs(ev._ratios(x) - expect) <= 1e-13 * expect)

    @pytest.mark.parametrize("view", VIEWS)
    def test_log_h_is_evaluated_once_per_draw_set(self, view):
        # in the reference log density only: h cancels in every ratio
        calls = []
        p = vb.poisson()
        counted = dataclasses.replace(p, log_h=lambda Y: calls.append(len(Y)) or p.log_h(Y))
        ev = MonteCarloKernelEvaluator(model_view(counted, view), [0.0], mc_samples=1_000,
                                       seed=1)
        ev.pairwise(np.array([[0.0], [0.4], [-0.3]]))
        ev.diagnostics(vb.identity_mean(), [np.array([0.5])])
        assert calls == [1_000]

    def test_user_model_keeps_its_own_log_density(self, log_density_calls):
        kept = {}

        def ld(Y, x):  # hands back one array per x, which the evaluator must not write
            return kept.setdefault(float(x[0]), -0.5 * (Y[:, 0] - x[0]) ** 2)

        model = vb.GenericModel("user-gaussian", 1, 1, ld, vb.gaussian_mean().sampler)
        ev = MonteCarloKernelEvaluator(model, [0.0], mc_samples=1_000, seed=2)
        assert ev._family is None
        at_0, at_x = kept[0.0].copy(), ld(ev.samples, [0.4]).copy()
        assert ev._ratios([0.4]).tobytes() == np.exp(at_x - at_0).tobytes()
        assert kept[0.4].tobytes() == at_x.tobytes()
        assert len(log_density_calls) == 2


def truncated_gaussian(value=-np.inf) -> vb.GenericModel:
    """N(x, 1) whose log density is `value` at y <= -3, with the plain
    Gaussian sampler, which draws there."""
    return vb.GenericModel(
        "truncated-gaussian", 1, 1,
        lambda Y, x: np.where(Y[:, 0] > -3.0, -0.5 * (Y[:, 0] - x[0]) ** 2, value),
        vb.gaussian_mean().sampler)


class TestReferenceDensity:
    CALLS = {
        "hcrb": lambda m: vb.hcrb(m, vb.identity_mean(), [0.0], vb.TestPointSet([[0.5]]),
                                  mc_samples=20_000, seed=1),
        "barankin": lambda m: vb.barankin_approx(
            m, vb.identity_mean(), [0.0],
            vb.BarankinSearch(restarts=1, halvings=2, max_points=1, seed=1),
            mc_samples=20_000),
        "crb": lambda m: vb.crb(m, vb.identity_mean(), [0.0], n_mc=20_000, seed=1),
    }

    @pytest.mark.parametrize("call", CALLS)
    def test_vanishing_at_a_draw_is_a_reference_support_error(self, call):
        # hcrb once raised KernelEvaluationError, barankin_approx returned 0.0
        # with every configuration skipped, and crb a StencilError at x0 - h
        model = truncated_gaussian()
        draws = vb.sample(model, [0.0], 1, 20_000)
        first = int(np.flatnonzero(draws[:, 0] <= -3.0)[0])
        with pytest.raises(ReferenceSupportError,
                           match=re.escape(f"-inf at draw {first}, y=[{draws[first, 0]}]")):
            self.CALLS[call](model)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_at_a_draw_is_a_data_error(self, value):
        draws = vb.sample(truncated_gaussian(), [0.0], 4, 5_000)
        first = int(np.flatnonzero(draws[:, 0] <= -3.0)[0])
        with pytest.raises(DataError, match=rf"{value} at draw {first}, "):
            MonteCarloKernelEvaluator(truncated_gaussian(value), [0.0], 5_000, seed=4)

    def test_first_non_finite_draw_decides_the_error(self):
        # -inf below -3 and +inf above 3: no warning from summing the two
        model = vb.GenericModel(
            "two-sided", 1, 1,
            lambda Y, x: np.select([Y[:, 0] <= -3.0, Y[:, 0] >= 3.0],
                                   [-np.inf, np.inf], -0.5 * (Y[:, 0] - x[0]) ** 2),
            vb.gaussian_mean().sampler)
        y = vb.sample(model, [0.0], 6, 20_000)[:, 0]
        first = int(np.flatnonzero(np.abs(y) >= 3.0)[0])
        error = ReferenceSupportError if y[first] < 0 else DataError
        assert (y <= -3.0).any() and (y >= 3.0).any()
        with pytest.raises(error, match=f"at draw {first}, "):
            MonteCarloKernelEvaluator(model, [0.0], 20_000, seed=6)

    def test_reference_vector_is_ones(self):
        model = vb.as_generic(vb.poisson())
        ev = MonteCarloKernelEvaluator(model, [0.4], 1_000, seed=2)
        ld0 = log_density_batch(model, ev.samples, [0.4])
        ones = np.exp(ld0 - ld0)
        assert ev._ratios([0.4]).tobytes() == ones.tobytes() == np.ones(1_000).tobytes()


class TestDerivativeKernelFunction:
    def test_zero_index_is_plain_evaluation(self):
        g = vb.gaussian_mean()
        ev = ExpfamKernelEvaluator(g, [0.0])
        assert derivative_kernel_function(ev, (0,), [0.7]) == ev.evaluate([0.7], [0.0])

    def test_first_slot_derivative_of_translation_kernel(self):
        # R(t,s) = exp(ts) at x0=0: d/ds at 0 is t
        g = vb.gaussian_mean()
        ev = ExpfamKernelEvaluator(g, [0.0])
        for t in (-1.5, 0.3, 2.0):
            assert derivative_kernel_function(ev, (1,), [t]) == pytest.approx(t, abs=1e-6)

    def test_second_derivative(self):
        g = vb.gaussian_mean()
        ev = ExpfamKernelEvaluator(g, [0.0])
        assert derivative_kernel_function(ev, (2,), [1.0]) == pytest.approx(1.0, abs=1e-4)

    def test_requires_closed_form_evaluator(self):
        ev = MonteCarloKernelEvaluator(vb.as_generic(vb.gaussian_mean()), [0.0],
                                       mc_samples=100, seed=0)
        with pytest.raises(ValueError):
            derivative_kernel_function(ev, (1,), [0.5])


class TestGram:
    def test_reference_point_basis(self):
        ev = ExpfamKernelEvaluator(vb.gaussian_mean(), [0.0])
        G = gram(ev, [PointBasis(np.array([0.0]))])
        assert G == pytest.approx(np.array([[1.0]]), abs=1e-14)

    def test_point_and_first_derivative_are_orthonormal(self):
        ev = ExpfamKernelEvaluator(vb.gaussian_mean(), [0.0])
        G = gram(ev, [PointBasis(np.array([0.0])), DerivBasis((1,))])
        assert G == pytest.approx(np.eye(2), abs=1e-6)

    def test_difference_basis(self):
        ev = ExpfamKernelEvaluator(vb.gaussian_mean(), [0.0])
        G = gram(ev, [DiffBasis(np.array([1.0]))])
        assert G[0, 0] == pytest.approx(math.e - 1.0, abs=1e-9)

    def test_reproducing_consistency_is_exact(self):
        g = vb.gaussian_mean()
        ev = ExpfamKernelEvaluator(g, [0.2])
        x1, x2 = np.array([0.9]), np.array([-0.4])
        G = gram(ev, [PointBasis(x1), PointBasis(x2)])
        assert G[0, 1] == kernel_expfam(g, [0.2], x1, x2)

    def test_exact_and_fd_derivative_inner_products_agree(self):
        import dataclasses
        g = vb.gaussian_mean()
        fd = dataclasses.replace(g, closed_moments=None)
        idxs = [(1,), (2,)]
        exact = deriv_inner_products(g, np.array([0.5]), idxs)
        approx = deriv_inner_products(fd, np.array([0.5]), idxs)
        assert approx == pytest.approx(exact, abs=5e-4)

    def test_mixed_point_derivative_entries(self):
        # exp(ts) at x0=0: <R(.,a), r^(2)> is a^2
        ev = ExpfamKernelEvaluator(vb.gaussian_mean(), [0.0])
        G = gram(ev, [PointBasis(np.array([1.5])), DerivBasis((2,))])
        assert G[0, 1] == pytest.approx(1.5 ** 2, abs=1e-9)

    def test_mixed_difference_derivative_entries(self):
        # exp(ts) at x0=0: <R(.,a) - R(.,0), r^(1)> is a - 0 = a
        ev = ExpfamKernelEvaluator(vb.gaussian_mean(), [0.0])
        a = 0.8
        G = gram(ev, [DiffBasis(np.array([a])), DerivBasis((1,))])
        assert G[0, 1] == pytest.approx(a, abs=1e-9)
        # diagonal entries: ||diff||^2 = e^{a^2} - 1 and ||r^(1)||^2 = 1
        assert G[0, 0] == pytest.approx(math.expm1(a * a), rel=1e-12)
        assert G[1, 1] == pytest.approx(1.0, abs=1e-9)

    def test_mixed_basis_takes_the_step_without_closed_moments(self):
        # the finite-difference step reaches the derivative block and the
        # cross entries alike; both used to take the default step
        ev = ExpfamKernelEvaluator(dataclasses.replace(vb.poisson(), closed_moments=None), [0.0])
        basis, cfg = [DiffBasis(np.array([0.5])), DerivBasis((1,))], vb.FDConfig(1e-2)
        G = gram(ev, basis, cfg)
        assert G[1, 1] == gram(ev, basis[1:], cfg)[0, 0] == pytest.approx(1.00003334, abs=1e-8)
        assert gram(ev, basis)[1, 1] == pytest.approx(1.0, abs=1e-8)
        assert G[0, 1] == G[1, 0] == derivative_kernel_function(ev, (1,), [0.5], cfg) \
            - derivative_kernel_function(ev, (1,), [0.0], cfg)

    def test_monte_carlo_derivative_basis(self):
        # the mean over the draws of D^p rho * D^q rho, by the stencil of the
        # cached ratio vectors; mixed with points it needs the closed form
        p = vb.poisson()
        ev = MonteCarloKernelEvaluator(vb.as_generic(p), [0.2], 20_000, 1)
        idxs = [MultiIndex((1,)), MultiIndex((2,))]
        D = np.array([calculus_module.partial_derivative(ev._ratios, ev.x0, q) for q in idxs])
        G = gram(ev, [DerivBasis(tuple(q)) for q in idxs])
        assert np.array_equal(G, D @ D.T / ev.mc_samples)
        assert G == pytest.approx(deriv_inner_products(p, [0.2], idxs), rel=0.05)
        with pytest.raises(ValueError, match="closed-form evaluator"):
            gram(ev, [PointBasis(np.array([0.5])), DerivBasis((1,))])


def scalar_inner_gram(ev, basis):
    """The entry-by-entry inner-product dispatch gram() was built on, kept as
    the reference: scalar kernel values for point and difference bases,
    point values of the derivative functions, derivative inner products."""
    x0 = ev.x0
    model = ev.model

    def as_idx(b):
        return vb.MultiIndex(tuple(b.p))

    idxs = [as_idx(b) for b in basis if isinstance(b, DerivBasis)]
    exact = model.closed_moments is not None
    if exact and idxs:
        mu, nu = _exact_tables(model, x0, idxs)

    def deriv_value(p, a):
        if exact:
            return _exact_point_deriv(model, nu, p, a)
        return derivative_kernel_function(ev, p, a)

    def inner(bi, bj):
        if isinstance(bi, DerivBasis) and isinstance(bj, DerivBasis):
            if exact:
                return _exact_deriv_inner(mu, nu, as_idx(bi), as_idx(bj))
            return _fd_deriv_inner(model, x0, as_idx(bi), as_idx(bj))
        if isinstance(bi, DerivBasis):
            return inner(bj, bi)
        if isinstance(bj, DerivBasis):
            value = deriv_value(as_idx(bj), bi.x)
            return value - deriv_value(as_idx(bj), x0) if isinstance(bi, DiffBasis) else value
        value = ev.evaluate(bi.x, bj.x)
        if isinstance(bj, DiffBasis):
            value -= ev.evaluate(bi.x, x0)
        if isinstance(bi, DiffBasis):
            value -= ev.evaluate(x0, bj.x)
        if isinstance(bi, DiffBasis) and isinstance(bj, DiffBasis):
            value += ev.evaluate(x0, x0)
        return value

    L = len(basis)
    G = np.empty((L, L))
    for i in range(L):
        for j in range(i, L):
            G[i, j] = G[j, i] = inner(basis[i], basis[j])
    return G


class TestGramAgainstScalarReference:
    @pytest.mark.parametrize("closed_moments", [True, False])
    def test_mixed_point_difference_derivative_bases(self, closed_moments):
        import dataclasses
        rng = np.random.default_rng(12)
        for base in (vb.gaussian_mean(), vb.poisson(), vb.bernoulli()):
            model = base if closed_moments else dataclasses.replace(base, closed_moments=None)
            x0 = rng.uniform(-0.5, 0.5, size=1)
            ev = ExpfamKernelEvaluator(model, x0)
            basis = [DiffBasis(x0 + np.array([0.7])), DerivBasis((2,)),
                     PointBasis(x0 + np.array([-0.4])), DerivBasis((1,)),
                     DiffBasis(x0 + np.array([-0.9])), PointBasis(x0.copy())]
            rng.shuffle(basis)
            G, ref = gram(ev, basis), scalar_inner_gram(ev, basis)
            assert np.array_equal(G, G.T)
            np.testing.assert_allclose(G, ref, rtol=1e-12, atol=1e-14)

    def test_point_and_difference_only(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x0 = rng.uniform(-0.5, 0.5, size=1)
            ev = ExpfamKernelEvaluator(vb.poisson(), x0)
            basis = [(PointBasis if rng.random() < 0.5 else DiffBasis)(
                x0 + rng.uniform(0.05, 1.0, size=1) * rng.choice([-1.0, 1.0]))
                for _ in range(int(rng.integers(1, 6)))]
            np.testing.assert_allclose(gram(ev, basis), scalar_inner_gram(ev, basis),
                                       rtol=1e-12, atol=1e-14)


class TestGramSystemDiagnostics:
    def test_psd_for_random_point_sets(self):
        rng = np.random.default_rng(6)
        for model in (vb.gaussian_mean(), vb.poisson()):
            for _ in range(5):
                x0 = rng.uniform(-0.5, 0.5, size=1)
                ev = ExpfamKernelEvaluator(model, x0)
                pts = [PointBasis(x0 + rng.uniform(-1, 1, size=1))
                       for _ in range(rng.integers(1, 7))]
                G = gram(ev, pts)
                s = np.linalg.svd(G, compute_uv=False)
                assert np.linalg.eigvalsh(G)[0] >= -1e-9 * s[0]

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            make_gram_system(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_diagnostics_fields(self):
        sys = make_gram_system(np.diag([2.0, 1e-14]), np.array([1.0, 0.0]), 1e-10)
        assert sys.diagnostics["rank"] == 1
        assert sys.diagnostics["condition_number"] > 1e10
        assert sys.diagnostics["min_eigenvalue"] == pytest.approx(1e-14, abs=1e-15)

    @pytest.mark.parametrize("G, rhs, match", [
        ([[math.nan]], [1.0], r"Gram matrix entry at index \(0, 0\)"),
        ([[1.0, 0.0], [math.inf, 1.0]], [1.0, 1.0], r"Gram matrix entry at index \(1, 0\)"),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, math.nan], r"right-hand side entry at index \(1,\)"),
        ([[1.0]], [-math.inf], r"right-hand side entry at index \(0,\)"),
    ])
    def test_non_finite_input_is_a_data_error(self, G, rhs, match):
        # a NaN Gram matrix used to give rank 0 and a bound of 0
        with pytest.raises(DataError, match=match):
            make_gram_system(np.array(G), rhs)

    def test_kernel_overflow_raises(self):
        # (x1 - x0)(x2 - x0) = 900 at x1 = x2 = 30 is beyond log(max float)
        ev = ExpfamKernelEvaluator(vb.gaussian_mean(), [0.0])
        with pytest.raises(KernelEvaluationError, match="overflow"):
            ev.pairwise(np.array([[0.0], [30.0]]))
        assert math.isfinite(ev.pairwise(np.array([[0.0], [26.6]])).max())

    def test_scalar_kernel_overflow_raises_like_pairwise(self):
        # the scalar path backs the finite-difference kernel derivatives; it
        # used to raise a bare OverflowError from math.exp
        g = vb.gaussian_mean()
        with pytest.raises(KernelEvaluationError, match="overflow"):
            kernel_expfam(g, [0.0], [30.0], [30.0])
        with pytest.raises(KernelEvaluationError, match="overflow"):
            ExpfamKernelEvaluator(g, [0.0]).evaluate([30.0], [30.0])
        assert kernel_expfam(g, [0.0], [26.6], [26.6]) == pytest.approx(math.exp(26.6 * 26.6))


class TestProjectedSqNorm:
    def test_one_dimensional(self):
        sys = make_gram_system(np.array([[1.0]]), np.array([0.7]))
        assert projected_sq_norm(sys) == pytest.approx(0.49, abs=1e-15)

    def test_identity_gram(self):
        sys = make_gram_system(np.eye(2), np.array([0.0, 1.0]))
        assert projected_sq_norm(sys) == pytest.approx(1.0, abs=1e-15)

    def test_rank_one_pseudoinverse(self):
        sys = make_gram_system(np.ones((2, 2)), np.array([1.0, 1.0]), 1e-10)
        assert projected_sq_norm(sys) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ["psd", "rank_deficient", "slightly_indefinite"])
    def test_matches_hermitian_pinv(self, kind):
        # reference g' pinv(G) g at the same relative truncation; the
        # tolerance (1e-9 relative, 1e-10 absolute) was fixed before any run.
        # The indefinite case has one negative eigenvalue below the
        # truncation and one kept, so the value can be clamped.
        rng = np.random.default_rng({"psd": 1, "rank_deficient": 2,
                                     "slightly_indefinite": 3}[kind])
        tol = 1e-10
        for _ in range(25):
            n = int(rng.integers(1, 8))
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            lam = rng.uniform(0.1, 10.0, size=n)
            if kind == "rank_deficient":
                lam[rng.random(n) < 0.5] = 0.0
            elif kind == "slightly_indefinite":
                lam[rng.integers(n)] = -1e-13 * lam.max()
                lam[rng.integers(n)] = -0.05
            G = (Q * lam) @ Q.T
            G = (G + G.T) / 2
            g = rng.normal(size=n)
            ref = float(g @ np.linalg.pinv(G, rcond=tol, hermitian=True) @ g)
            value = projected_sq_norm(make_gram_system(G, g, tol))
            assert value == pytest.approx(max(ref, 0.0), rel=1e-9, abs=1e-10)

    def test_negative_noise_clamped_to_zero(self):
        sys = make_gram_system(np.array([[1.0]]), np.array([1.0]))
        object.__setattr__(sys, "rhs", np.array([1e-9]))
        sys.matrix[0, 0] = -1e-30  # adversarial noise-scale matrix
        assert projected_sq_norm(sys) >= 0.0

    def test_monotone_in_added_basis_functions(self):
        # appending a basis function can only grow the projection
        rng = np.random.default_rng(9)
        g = vb.gaussian_mean()
        gamma = vb.identity_mean()
        for _ in range(10):
            x0 = rng.uniform(-1, 1, size=1)
            ev = ExpfamKernelEvaluator(g, x0)
            pts = [x0 + rng.uniform(-1.5, 1.5, size=1) for _ in range(4)]
            basis = [PointBasis(x0)] + [PointBasis(p) for p in pts]
            values = []
            for L in range(1, len(basis) + 1):
                values.append(projected_sq_norm(gram_system(ev, basis[:L], gamma)))
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-9


class TestStackedGramSystem:
    """A stack of Gram systems is, matrix for matrix, the one-matrix system."""

    @pytest.mark.parametrize("kinds", [
        ("psd", "rank_deficient", "indefinite", "near_ties", "zero", "identity"),
        ("psd", "indefinite", "near_ties", "identity", "psd", "psd")],
        ids=["mixed-ranks", "full-ranks"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9])
    def test_stack_equals_one_matrix_calls(self, m, kinds):
        rng = np.random.default_rng(100 + m)
        mats, rhss = [], []
        for kind in kinds:
            Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            lam = rng.uniform(0.1, 10.0, size=m)
            if kind == "rank_deficient":
                lam[rng.random(m) < 0.5] = 0.0
            elif kind == "indefinite":
                lam[0] = -0.05
            elif kind == "near_ties":
                lam[:] = 1.0
            G = (Q * lam) @ Q.T
            G = {"zero": np.zeros((m, m)), "identity": np.eye(m)}.get(kind, (G + G.T) / 2)
            mats.append(G)
            rhss.append(rng.normal(size=m))
        stacked = make_gram_system(np.array(mats), np.array(rhss), 1e-10)
        values = signed_sq_norm(stacked)
        assert len(values) == len(mats) == len(stacked.diagnostics["rank"])
        for b, (G, rhs) in enumerate(zip(mats, rhss)):
            one = make_gram_system(G, rhs, 1e-10)
            assert np.array_equal(stacked.matrix[b], one.matrix)
            assert np.array_equal(stacked.rhs[b], one.rhs)
            assert _hexes(stacked.eigenvalues[b]) == _hexes(one.eigenvalues)
            assert _hexes(stacked.eigenvectors[b]) == _hexes(one.eigenvectors)
            assert stacked.pinv_tol == one.pinv_tol
            assert _hex({k: v[b] for k, v in stacked.diagnostics.items()}) == \
                _hex(one.diagnostics)
            assert values[b].hex() == signed_sq_norm(one).hex()
            assert projected_sq_norm(stacked)[b] == projected_sq_norm(one)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_full_rank_stacks_round_as_one_matrix(self, m):
        # stacked eigendecompositions over many random scales and conditionings
        rng = np.random.default_rng(200 + m)
        for _ in range(40):
            B = int(rng.integers(2, 7))
            A = rng.normal(size=(B, m, m)) * 10.0 ** rng.integers(-6, 6, size=(B, 1, 1))
            G = A @ A.swapaxes(1, 2) + 1e-3 * np.eye(m)
            rhs = rng.normal(size=(B, m)) * 10.0 ** rng.integers(-4, 4, size=(B, 1))
            stacked = make_gram_system(G, rhs, 1e-10)
            assert stacked.diagnostics["rank"] == [m] * B
            expected = [signed_sq_norm(make_gram_system(g, r, 1e-10)).hex()
                        for g, r in zip(G, rhs)]
            assert [v.hex() for v in signed_sq_norm(stacked)] == expected

    def test_stacks_of_mixed_rank_round_as_one_matrix(self):
        # the matrices of one rank share a stacked product: each value is the
        # one-matrix value, bit for bit, whatever the other ranks in the stack
        rng = np.random.default_rng(77)
        for _ in range(200):
            m, B = int(rng.integers(1, 11)), int(rng.integers(1, 9))
            A = rng.normal(size=(B, m, m)) * 10.0 ** rng.integers(-3, 3, size=(B, 1, 1))
            for b in range(B):
                A[b, :, rng.integers(0, m + 1):] = 0.0  # rank deficient
            G = A @ A.swapaxes(1, 2) * rng.choice([-1.0, 1.0], size=(B, 1, 1))
            rhs = rng.normal(size=(B, m))
            stacked = make_gram_system(G, rhs, 1e-10)
            expected = [signed_sq_norm(make_gram_system(g, r, 1e-10)).hex()
                        for g, r in zip(G, rhs)]
            assert [v.hex() for v in signed_sq_norm(stacked)] == expected

    def test_stacked_checks_name_the_matrix(self):
        G = np.array([np.eye(2)] * 3)
        rhs = np.ones((3, 2))
        bad = G.copy()
        bad[1, 0, 1] = math.nan
        with pytest.raises(DataError, match=r"Gram matrix entry at index \(0, 1\) in system 1"):
            make_gram_system(bad, rhs)
        bad_rhs = rhs.copy()
        bad_rhs[2, 1] = math.inf
        with pytest.raises(DataError, match=r"right-hand side entry at index \(1,\) in system 2"):
            make_gram_system(G, bad_rhs)
        asym = G.copy()
        asym[2, 0, 1] = 0.5
        with pytest.raises(ValueError, match="not symmetric in system 2"):
            make_gram_system(asym, rhs)
        with pytest.raises(ValueError, match="incompatible Gram shapes"):
            make_gram_system(G, np.ones((2, 2)))
        empty = make_gram_system(np.empty((2, 0, 0)), np.empty((2, 0)))
        assert empty.diagnostics == {"rank": [0, 0], "min_eigenvalue": [0.0, 0.0],
                                     "condition_number": [math.inf, math.inf]}
        assert signed_sq_norm(empty) == [0.0, 0.0]

    def test_projected_norm_clamps_each_matrix(self):
        # an indefinite matrix beside a definite one: only its value is clamped
        G = np.array([np.diag([1.0, -1.0]), np.eye(2)])
        rhs = np.array([[0.0, 1.0], [1.0, 1.0]])
        stacked = make_gram_system(G, rhs)
        assert signed_sq_norm(stacked) == [-1.0, 2.0]
        assert projected_sq_norm(stacked) == [0.0, 2.0]
        assert projected_sq_norm(make_gram_system(G[0], rhs[0])) == 0.0


class TestSuffStatCheck:
    @staticmethod
    def _setup():
        iid = vb.gaussian_iid(3)
        induced = vb.gaussian_sum(3)
        stat = vb.SufficientStatistic(
            map=lambda Y: Y.sum(axis=-1, keepdims=True), induced_model=induced)
        rng = np.random.default_rng(42)
        pairs = [(np.array([a]), np.array([b]))
                 for a, b in rng.uniform(-0.7, 0.7, size=(20, 2))]
        return iid, stat, pairs

    def test_closed_form_agreement(self):
        iid, stat, pairs = self._setup()
        report = suffstat_kernel_check(iid, stat, [0.2], pairs, tolerance=1e-9)
        assert report.mode == "closed_form"
        assert not report.flagged
        assert max(p.abs_difference for p in report.pairs) <= 1e-9

    def test_trivial_statistic_difference_is_zero(self):
        g = vb.gaussian_mean()
        stat = vb.SufficientStatistic(map=lambda Y: Y, induced_model=g)
        report = suffstat_kernel_check(g, stat, [0.0], [([0.5], [0.3])],
                                       mode="mc", n=5_000, seed=5)
        assert report.pairs[0].abs_difference == 0.0

    def test_mc_agreement_within_4_combined_se(self):
        iid, stat, pairs = self._setup()
        report = suffstat_kernel_check(iid, stat, [0.2], pairs[:5], mode="mc",
                                       n=100_000, seed=1)
        assert not report.flagged
        assert all(p.combined_se is not None for p in report.pairs)

    def test_factorization_gap_is_sharp(self):
        iid, stat, pairs = self._setup()
        report = suffstat_kernel_check(iid, stat, [0.2], pairs[:1], mode="mc",
                                       n=5_000, seed=1)
        assert report.factorization_gap <= 1e-12


def parent_difference_projection(model, x0, points, gamma, pinv_tol=1e-10):
    """The difference-basis projection as the one Gram path computed it
    before it took the point array directly, written out step by step:
    ExpfamKernelEvaluator.pairwise, the general block formula of `gram` with
    every d_i = 1, `gram_rhs`, `make_gram_system`, `signed_sq_norm` and the
    clamp of the bound diagnostics."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    P = np.array([x0] + [np.asarray(p, dtype=float) for p in points], dtype=float)
    lls = np.asarray(model.log_lambda(P), dtype=float)
    if not np.all(np.isfinite(lls)):
        raise NaturalSpaceError(P[~np.isfinite(lls)][0])
    sums = P[:, None, :] + P[None, :, :] - x0
    ll_sums = np.asarray(model.log_lambda(sums.reshape(-1, P.shape[1])), dtype=float)
    if not np.all(np.isfinite(ll_sums)):
        raise NaturalSpaceError(sums.reshape(-1, P.shape[1])[~np.isfinite(ll_sums)][0],
                                context="x1 + x2 - x0 must lie in the natural space")
    expo = ll_sums.reshape(len(P), len(P)) + float(model.log_lambda(x0)) \
        - (lls[:, None] + lls[None, :])
    with np.errstate(over="ignore"):
        K = np.exp(expo)
    if not np.all(np.isfinite(K)):
        raise KernelEvaluationError("kernel value overflowed for a point pair")
    d = np.ones(len(points))
    dcol = d[:, None]
    G = ((K[1:, 1:] - K[1:, :1] * d) - dcol * K[:1, 1:]) + dcol * (d * K[0, 0])
    g0 = float(gamma.value(x0))
    rhs = np.array([float(gamma.value(np.asarray(p, dtype=float))) - g0 for p in points])
    if float(np.abs(G - G.T).max()) > 1e-12 * max(1.0, float(np.abs(G).max())):
        raise ValueError("Gram matrix is not symmetric")
    w, v = np.linalg.eigh(G)
    order = np.argsort(np.abs(w))[::-1]
    eigenvalues, eigenvectors = w[order], v.T[order]
    s = np.abs(eigenvalues)
    smax = float(s[0])
    rank = int(np.count_nonzero(s > pinv_tol * smax)) if smax > 0 else 0
    cond = float(smax / s[-1]) if s[-1] > 0 else math.inf
    coeff = eigenvectors[:rank] @ rhs
    value = float((coeff * coeff / eigenvalues[:rank]).sum())
    diagnostics = {"gram_rank": rank, "condition_number": cond, "min_eigenvalue": float(w[0])}
    if value < 0.0:
        diagnostics["clamped_negative"] = True
        value = 0.0
    return value, diagnostics


def _hex(diagnostics: dict) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in diagnostics.items()}


def _oracle_cases():
    """(name, model, x0, points): seeded random sets of 1 to 4 points per
    family, then the hand-picked sets."""
    rng = np.random.default_rng(2024)
    families = {"gaussian-mean": (-1.0, 1.0), "poisson": (-1.0, 1.0),
                "bernoulli": (-1.5, 1.5), "exponential-rate": (-3.0, -1.5),
                "gaussian-mean-nd": (-1.0, 1.0)}
    for family, (lo, hi) in families.items():
        model = vb.make_model(family)
        for trial in range(20):
            x0 = rng.uniform(lo, hi, size=model.param_dim)
            m = int(rng.integers(1, 5))
            points = x0 + rng.uniform(-1.2, 1.2, size=(m, model.param_dim))
            yield f"{family}-{trial}", model, x0, points
    g = vb.gaussian_mean()
    yield "rank-deficient-bernoulli", vb.bernoulli(), [0.4], np.array([[1.0], [-0.5], [2.0]])
    yield "rank-deficient-repeated-point", g, [0.0], np.array([[0.5], [0.5], [-0.5]])
    yield "near-singular", g, [0.2], np.array([[0.7], [0.7 + 1e-7], [0.7 + 2e-7]])
    er = vb.exponential_rate()
    yield "pair-sum-outside-natural-space", er, [-1.0], np.array([[-0.2], [-0.3]])
    yield "point-outside-natural-space", er, [-1.0], np.array([[-0.5], [0.5]])
    yield "kernel-overflow", g, [0.0], np.array([[30.0], [1.0]])


def _searched_projection(ev, gamma, points):
    """The search's projection of one configuration, clamped as a bound is:
    `_kernel_rows` and `_solve_rows`; None where it is undefined."""
    [result] = _solve_rows(_kernel_rows(ev, gamma, [points]), 1e-10)
    return result if result is None else _clamped(*result)


class TestDifferenceProjectionOracle:
    """The projection the Barankin search and hcrb compute is bit for bit the
    parent sequence, value and diagnostics, and fails the same way."""

    @pytest.mark.parametrize("name, model, x0, points",
                             [pytest.param(*c, id=c[0]) for c in _oracle_cases()])
    def test_matches_parent_sequence(self, name, model, x0, points):
        gamma = vb.expfam_mean(model)
        ev = ExpfamKernelEvaluator(model, x0)
        try:
            expected = parent_difference_projection(model, x0, points, gamma)
        except (NaturalSpaceError, KernelEvaluationError) as exc:
            # the search marks the configuration undefined, and hcrb raises
            # the error the parent raised
            assert _searched_projection(ev, gamma, points) is None
            with pytest.raises(type(exc)) as got:
                vb.hcrb(model, gamma, x0, vb.TestPointSet(points))
            if isinstance(exc, NaturalSpaceError):
                assert np.array_equal(got.value.point, exc.point)
                assert got.value.context == exc.context
            return
        basis = [DiffBasis(p) for p in points]
        single = _quadratic_bound("hcrb", _System(gram(ev, basis), gram_rhs(ev, basis, gamma)),
                                  1e-10)
        for value, diagnostics in (_searched_projection(ev, gamma, points),  # search array
                                   _searched_projection(ev, gamma, tuple(points)),
                                   (single.value, single.diagnostics)):  # hcrb's system
            assert value.hex() == expected[0].hex()
            assert _hex(diagnostics) == _hex(expected[1])
        if name != "rank-deficient-repeated-point":  # a TestPointSet rejects duplicates
            res = vb.hcrb(model, gamma, x0, vb.TestPointSet(points))
            assert _hex(res.diagnostics) == {**_hex(expected[1]), "n_test_points": len(points)}
            assert res.value.hex() == expected[0].hex()
        K = ev.pairwise(np.concatenate((np.atleast_2d(x0), points)))
        assert np.array_equal(difference_block(K[None])[0],
                              gram(ev, [DiffBasis(p) for p in points]))

    def test_cases_cover_the_edges(self):
        names = {c[0]: c for c in _oracle_cases()}
        ranks = {}
        for name in ("rank-deficient-bernoulli", "rank-deficient-repeated-point",
                     "near-singular"):
            _, model, x0, points = names[name]
            _, diagnostics = parent_difference_projection(model, x0, points,
                                                          vb.expfam_mean(model))
            ranks[name] = (diagnostics["gram_rank"], diagnostics["condition_number"])
        assert ranks["rank-deficient-bernoulli"][0] == 1
        assert ranks["rank-deficient-repeated-point"][0] == 2
        assert ranks["near-singular"][1] > 1e10


# ---------------------------------------------------------------------------
# Moment algebra against the MultiIndex loops of its first implementation
# ---------------------------------------------------------------------------

def loop_moment_table(model, x, cap):
    return {q: moment(model, x, q) for q in multi_indices_leq(MultiIndex(cap))}


def loop_reciprocal_series(moments, cap):
    cap = MultiIndex(cap)
    zero = MultiIndex.zero(len(cap))
    nu = {}
    for q in multi_indices_leq(cap):
        if q == zero:
            nu[q] = 1.0
            continue
        acc = 0.0
        for r in multi_indices_leq(q):
            if r == q:
                continue
            acc += multi_binomial(q, r) * nu[r] * moments[q.minus(r)]
        nu[q] = -acc
    return nu


def loop_tables(model, x0, idxs):
    cap = MultiIndex(tuple(max(p[k] for p in idxs) for k in range(model.param_dim)))
    mu = loop_moment_table(model, x0, cap.plus(cap))
    return mu, loop_reciprocal_series(mu, cap)


def loop_deriv_inner(mu, nu, p1, p2):
    total = 0.0
    for q1 in multi_indices_leq(p1):
        c1 = multi_binomial(p1, q1) * nu[p1.minus(q1)]
        for q2 in multi_indices_leq(p2):
            total += c1 * multi_binomial(p2, q2) * mu[q1.plus(q2)] * nu[p2.minus(q2)]
    return total


def loop_deriv_inner_products(model, x0, idxs):
    mu, nu = loop_tables(model, x0, idxs)
    out = np.empty((len(idxs), len(idxs)))
    for i in range(len(idxs)):
        for j in range(i, len(idxs)):
            out[i, j] = out[j, i] = loop_deriv_inner(mu, nu, idxs[i], idxs[j])
    return out


def loop_point_deriv(model, x0_nu, p, a):
    mu_a = loop_moment_table(model, a, p)
    return sum(multi_binomial(p, q) * mu_a[q] * x0_nu[p.minus(q)]
               for q in multi_indices_leq(p))


def loop_mean(model, component=0):
    """expfam_mean with the derivative written as the MultiIndex loop."""
    e_c = MultiIndex.unit(model.param_dim, component)

    def value(x):
        return moment(model, x, e_c)

    def deriv(x, p):
        p = MultiIndex(p)
        if p.order == 0:
            return value(x)
        mu = loop_moment_table(model, x, p.plus(e_c))
        nu = loop_reciprocal_series(mu, p)
        return sum(multi_binomial(p, q) * mu[q.plus(e_c)] * nu[p.minus(q)]
                   for q in multi_indices_leq(p))

    return vb.MeanFunction(value=value, derivative=deriv)


def loop_expfam_bound(model, gamma, x0, idxs):
    cap = MultiIndex(tuple(max(p[k] for p in idxs) for k in range(model.param_dim)))
    mu = loop_moment_table(model, x0, cap.plus(cap))
    n_vec = np.array([
        sum(multi_binomial(p, q) * mu[p.minus(q)] * vb.mean_partial(gamma, x0, q)
            for q in multi_indices_leq(p))
        for p in idxs
    ])
    S = np.array([[mu[p.plus(q)] for q in idxs] for p in idxs])
    extra = {"moment_fd_fallback": True} if model.closed_moments is None else {}
    g0 = float(gamma.value(x0))
    return _quadratic_bound("expfam_moment", _System(S, n_vec, extra, g0 * g0), 1e-10)


def loop_bhattacharyya(model, gamma, x0, idxs):
    a = np.array([vb.mean_partial(gamma, x0, p) for p in idxs])
    if model.closed_moments is None:  # finite differences of the kernel, no Leibniz sum
        B, extra = deriv_inner_products(model, x0, idxs), {"moment_fd_fallback": True}
    else:
        B, extra = loop_deriv_inner_products(model, x0, idxs), {}
    return _quadratic_bound("bhattacharyya", _System(B, a, extra), 1e-10)


def _hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


SCALAR_RANGES = {"gaussian-mean": (-1.0, 1.0), "poisson": (-1.0, 1.0),
                 "bernoulli": (-1.5, 1.5), "exponential-rate": (-3.0, -1.5),
                 "gaussian-iid": (-1.0, 1.0), "gaussian-sum": (-1.0, 1.0)}


def _moment_cases(with_fd: bool = True):
    """(name, model, x0, bhattacharyya indices, expfam_moment indices):
    two seeded x0 per built-in scalar family at orders 1-4 and 0-3, the 2-D
    Gaussian mean with mixed indices, and three families on the
    finite-difference moment path (total order at most 4 there)."""
    rng = np.random.default_rng(8)
    scalar = ([[1], [2], [3], [4]], [[0], [1], [2], [3]])
    nd = ([[1, 0], [0, 1], [1, 1], [2, 0], [0, 2], [2, 1]],
          [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0]])
    fd = ([[1], [2]], [[0], [1], [2]])
    fd_nd = ([[1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1]])
    cases = [(f, vb.make_model(f), rng.uniform(*r, size=1), scalar)
             for f, r in SCALAR_RANGES.items() for _ in range(2)]
    nd_model = vb.gaussian_mean_nd(2)
    cases += [("gaussian-mean-nd", nd_model, rng.uniform(-1.0, 1.0, size=2), nd)
              for _ in range(2)]
    fd_families = (("poisson", (-1.0, 1.0), fd), ("exponential-rate", (-3.0, -1.5), fd),
                   ("gaussian-mean-nd", (-1.0, 1.0), fd_nd))
    for f, r, idx in fd_families if with_fd else ():
        model = dataclasses.replace(vb.make_model(f), closed_moments=None)
        cases.append((f"{f}-fd", model, rng.uniform(*r, size=model.param_dim), idx))
    for k, (name, model, x0, (bhat, moments)) in enumerate(cases):
        idxs = [MultiIndex(p) for p in bhat]
        yield pytest.param(model, x0, idxs, [MultiIndex(p) for p in moments],
                           id=f"{name}-{k}")


class TestMomentAlgebraOracle:
    """The cached Leibniz terms give, bit for bit, what the MultiIndex loops gave."""

    def test_cases_cover_every_scalar_family(self):
        scalar = {f for f in vb.BUILTIN_FAMILIES if vb.make_model(f).param_dim == 1}
        assert scalar == set(SCALAR_RANGES)

    @pytest.mark.parametrize("model, x0, idxs, moment_idxs", _moment_cases())
    def test_tables_and_reciprocal_series(self, model, x0, idxs, moment_idxs):
        cap = MultiIndex(tuple(max(p[k] for p in idxs) for k in range(model.param_dim)))
        mu = moment_table(model, x0, cap.plus(cap))
        expected = loop_moment_table(model, x0, cap.plus(cap))
        assert list(mu) == list(expected)
        assert _hexes(list(mu.values())) == _hexes(list(expected.values()))
        nu = reciprocal_series(mu, cap)
        expected_nu = loop_reciprocal_series(mu, cap)
        assert list(nu) == list(expected_nu)
        assert _hexes(list(nu.values())) == _hexes(list(expected_nu.values()))

    @pytest.mark.parametrize("model, x0, idxs, moment_idxs", _moment_cases())
    def test_mean_derivatives(self, model, x0, idxs, moment_idxs):
        for component in range(model.param_dim):
            gamma, expected = vb.expfam_mean(model, component), loop_mean(model, component)
            got = [gamma.derivative(x0, p) for p in idxs]
            assert _hexes(got) == _hexes([expected.derivative(x0, p) for p in idxs])

    @pytest.mark.parametrize("model, x0, idxs, moment_idxs", _moment_cases())
    def test_bounds(self, model, x0, idxs, moment_idxs):
        gamma, expected_gamma = vb.expfam_mean(model), loop_mean(model)
        for got, expected in (
                (vb.bhattacharyya(model, gamma, x0, idxs),
                 loop_bhattacharyya(model, expected_gamma, x0, idxs)),
                (vb.expfam_bound(model, gamma, x0, moment_idxs),
                 loop_expfam_bound(model, expected_gamma, x0, moment_idxs))):
            assert got.value.hex() == expected.value.hex()
            assert _hex(got.diagnostics) == _hex(expected.diagnostics)

    # on the finite-difference path these differentiate the kernel: no Leibniz sum
    @pytest.mark.parametrize("model, x0, idxs, moment_idxs", _moment_cases(with_fd=False))
    def test_deriv_inner_products_and_gram(self, model, x0, idxs, moment_idxs, monkeypatch):
        assert _hexes(deriv_inner_products(model, x0, idxs)) == \
            _hexes(loop_deriv_inner_products(model, x0, idxs))
        ev = ExpfamKernelEvaluator(model, x0)
        basis = [PointBasis(x0 + 0.3), DerivBasis(tuple(idxs[0])), DiffBasis(x0 - 0.2)] \
            + [DerivBasis(tuple(p)) for p in idxs[1:]]
        with monkeypatch.context() as m:
            m.setattr(kernel_module, "_exact_tables", loop_tables)
            m.setattr(kernel_module, "_exact_deriv_inner", loop_deriv_inner)
            m.setattr(kernel_module, "_exact_point_deriv", loop_point_deriv)
            expected = gram(ev, basis)
        assert _hexes(gram(ev, basis)) == _hexes(expected)

    def test_run_gives_the_same_csv_with_a_cold_and_a_warm_cache(self, tmp_path):
        config = Path(__file__).resolve().parent.parent / "scripts" / "configs" \
            / "poisson_moments.yaml"
        calculus_module._leibniz_terms.cache_clear()
        outputs = []
        for k in range(2):
            out = tmp_path / f"run{k}.csv"
            assert cli_main(["run", "--config", str(config), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert calculus_module._leibniz_terms.cache_info().hits > 0
        assert outputs[0] == outputs[1]


class TestMomentAlgebraWork:
    """A warm bound call builds no multi-index combinatorics, and a bound
    computes each moment of its tables once per model and point."""

    @pytest.mark.parametrize("bound, indices, cold, warm", [
        # the order-8 table holds every moment the mean derivatives of orders 1-4 need
        (vb.bhattacharyya, [[1], [2], [3], [4]], 9, 0),
        # 7 for the order-6 table; gamma's value once, for n and for gamma(x0)^2
        (vb.expfam_bound, [[0], [1], [2], [3]], 8, 1),
    ])
    def test_warm_call(self, monkeypatch, bound, indices, cold, warm):
        model = vb.poisson()
        gamma = vb.expfam_mean(model)
        bound(model, gamma, [0.3], indices)
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("multi_binomial", "multi_indices_leq"):
            monkeypatch.setattr(calculus_module, name,
                                counting(name, getattr(calculus_module, name)))
        counted_moment = counting("moment", calculus_module.moment)
        monkeypatch.setattr(calculus_module, "moment", counted_moment)
        monkeypatch.setattr(models_module, "moment", counted_moment)
        bound(model, gamma, [0.3], indices)
        assert counts["multi_binomial"] == counts["multi_indices_leq"] == 0
        assert counts["moment"] == warm
        counts.clear()
        bound(model, gamma, [0.4], indices)  # a point the tables have not seen
        assert counts["moment"] == cold

    def test_a_table_is_never_served_for_another_model(self):
        # models made one after another, each dropped before the next, may
        # share an address; the tables of each are its own
        for k in range(1, 40):
            model = vb.poisson() if k % 2 else dataclasses.replace(
                vb.poisson(), closed_moments=lambda x, p, k=k: float(k * p[0]))
            mu = moment_table(model, [0.3], (3,))
            expected = [1.0] + [model.closed_moments(np.array([0.3]), (q,)) for q in (1, 2, 3)]
            assert list(mu.values()) == expected
            del model
