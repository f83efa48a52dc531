"""Built-in families: densities, natural spaces, samplers, and mean functions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import varbounds as vb
from varbounds import models
from varbounds.calculus import MultiIndex, partial_derivative
from varbounds.errors import ConfigurationError, DataError, NaturalSpaceError, \
    ReferenceSupportError
from varbounds.models import _gammaln_vec, log_density_batch, mean_partial

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

ALL_FAMILIES = [vb.gaussian_mean(), vb.poisson(), vb.bernoulli(),
                vb.exponential_rate(), vb.gaussian_mean_nd(2),
                vb.gaussian_iid(3), vb.gaussian_sum(3)]


def in_space_param(model, rng):
    if model.name == "exponential-rate":
        return np.array([rng.uniform(-3.0, -0.4)])
    return rng.uniform(-1.0, 1.0, size=model.param_dim)


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        g = vb.gaussian_mean()
        assert vb.log_density(g, [0.0], [0.0]) == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_unit_mean_normal_at_its_mean(self):
        g = vb.gaussian_mean()
        assert vb.log_density(g, [1.0], [1.0]) == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_poisson_unit_rate_at_zero(self):
        # Poisson(1) pmf at 0 is exp(-1)
        assert vb.log_density(vb.poisson(), [0.0], [0.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_poisson_log_h_equals_lgamma_per_element(self):
        p = vb.poisson()
        draws = [vb.sample(p, [x], 1, 20_000) for x in (0.0, 3.0)]
        odd = np.array([[0.5], [2.25], [0.5], [1e6], [1e300], [170.0], [2.25]])
        for y in draws + [odd]:
            count = y[..., 0] == np.floor(y[..., 0])  # non-integer y is off the support
            expect = np.where(count, -_gammaln_vec(y[..., 0] + 1.0), -np.inf)
            assert np.array_equal(p.log_h(y), expect)

    def test_rejects_parameter_outside_natural_space(self):
        er = vb.exponential_rate()
        with pytest.raises(NaturalSpaceError) as err:
            vb.log_density(er, [1.0], [0.5])
        assert err.value.point[0] == 0.5

    @pytest.mark.parametrize("family", ["gaussian-mean", "poisson", "bernoulli",
                                        "exponential-rate"])
    def test_scalar_product_has_the_bits_of_the_matmul(self, family):
        # the N = 1 log density multiplies phi(Y)[:, 0] * x[0] in place of the
        # one-term matmul phi(Y) @ x: both round one product per element, and
        # only the matmul's exact zeros differ, always +0.0; the log densities
        # after - A(x) + log h(Y) have the same bits
        model = vb.make_model(family)
        x0 = [-1.0] if family == "exponential-rate" else [0.0]
        Y = vb.sample(model, x0, 3, 20_000)
        phi_Y, log_h_Y = model.phi(Y), model.log_h(Y)
        for x in (0.0, -0.0, 0.3, -1.7, 2.5, 1e-300, -123.456, -1.0):
            x = np.array([x])
            product, matmul = phi_Y[:, 0] * x[0], phi_Y @ x
            assert (product + 0.0).tobytes() == matmul.tobytes()
            if vb.natural_space_contains(model, x):
                old = matmul - float(model.log_lambda(x)) + log_h_Y
                assert log_density_batch(model, Y, x).tobytes() == old.tobytes()

    def test_generic_log_density_of_the_wrong_shape_names_the_model(self):
        model = vb.GenericModel("column", 1, 1, lambda Y, x: -0.5 * (Y - x[0]) ** 2,
                                vb.gaussian_mean().sampler)
        Y = vb.sample(model, [0.0], 1, 7)
        with pytest.raises(DataError, match=r"'column' returned shape \(7, 1\), "
                                             r"expected \(7,\)"):
            log_density_batch(model, Y, [0.0])
        with pytest.raises(DataError, match="'column' returned shape"):
            vb.hcrb(model, vb.identity_mean(), [0.0], vb.TestPointSet([[0.5]]),
                    mc_samples=100)

    def test_as_generic_records_its_family(self):
        p = vb.poisson()
        assert vb.as_generic(p).family is p
        user = vb.GenericModel("user", 1, 1, lambda Y, x: -0.5 * (Y[:, 0] - x[0]) ** 2,
                               vb.gaussian_mean().sampler)
        assert user.family is None


def old_neg_log_factorial(y):
    """Poisson log h as it was computed before the per-count table."""
    v = np.asarray(y, dtype=float)[..., 0] + 1.0
    distinct, inverse = np.unique(v, return_inverse=True)
    return -_gammaln_vec(distinct)[inverse].reshape(v.shape)


def lgamma_arguments(monkeypatch):
    """Record every argument log h hands to lgamma."""
    seen = []

    def lgamma(v):
        seen.append(v)
        return math.lgamma(v)

    monkeypatch.setattr(models, "_gammaln_vec", np.vectorize(lgamma, otypes=[float]))
    return seen


class TestPoissonLogH:
    @pytest.mark.parametrize("log_rate", [-3.0, 0.0, 3.0, 6.0, 9.0, 12.0])
    def test_bit_identical_to_the_sorted_formula(self, log_rate):
        y = vb.sample(vb.poisson(), [log_rate], seed=5, count=50_000)
        got, want = vb.poisson().log_h(y), old_neg_log_factorial(y)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("y", [
        np.array([[0.0], [10.0], [1000.0]]),               # wider than the batch
        np.array([[3.0], [7.0], [1e6], [1e300], [3.0]]),
        np.array([[0.0], [2.0], [1.0]]),                  # exactly as wide
        np.array([[2.0**53], [2.0**53 + 2], [2.0**53 + 4], [2.0**53 + 2], [2.0**53]]),
        np.array([[0.0], [0.0]]),
    ], ids=["spread", "huge", "tight", "beyond-2^53", "single"])
    def test_table_and_fallback_match_the_sorted_formula(self, y):
        assert vb.poisson().log_h(y).tobytes() == old_neg_log_factorial(y).tobytes()

    @pytest.mark.parametrize("shape", [(7, 1), (3, 4, 1), (0, 1), (2, 0, 1)])
    def test_batch_shapes(self, shape):
        y = np.random.default_rng(2).poisson(4.0, size=shape).astype(float)
        got = vb.poisson().log_h(y)
        assert got.shape == shape[:-1]
        assert got.tobytes() == old_neg_log_factorial(y).tobytes()

    def test_lgamma_runs_at_most_once_per_integer_in_range(self, monkeypatch):
        seen = lgamma_arguments(monkeypatch)
        y = vb.sample(vb.poisson(), [2.0], seed=9, count=20_000)
        vb.poisson().log_h(y)
        assert sorted(seen) == [k + 1.0 for k in np.arange(y.min(), y.max() + 1)]

    def test_fallback_runs_lgamma_once_per_distinct_count(self, monkeypatch):
        seen = lgamma_arguments(monkeypatch)
        vb.poisson().log_h(np.array([[0.0], [500.0], [0.0], [90.0]]))
        assert sorted(seen) == [1.0, 91.0, 501.0]

    def test_off_the_support_is_minus_infinity(self):
        p = vb.poisson()
        # a negative count used to raise "math domain error", 1.5 used to be finite
        assert vb.log_density(p, [-1.0], [0.0]) == -math.inf
        assert vb.log_density(p, [1.5], [0.0]) == -math.inf
        y = np.array([[-1.0], [1.5], [np.inf], [-np.inf], [-0.5], [np.nan], [2.0]])
        got = p.log_h(y)
        assert np.all(got[:5] == -np.inf)
        assert math.isnan(got[5])
        assert got[6] == -math.lgamma(3.0)

    def test_off_the_support_reference_density_vanishes(self):
        with pytest.raises(ReferenceSupportError):
            vb.likelihood_ratio(vb.poisson(), [1.5], [0.0], [0.0])

    def test_counts_mixed_with_off_support_values(self):
        y = vb.sample(vb.poisson(), [1.0], seed=4, count=1000)
        mixed = y.copy()
        mixed[::7] = 0.5
        got = vb.poisson().log_h(mixed)
        assert np.all(got[::7] == -np.inf)
        keep = np.ones(len(y), bool)
        keep[::7] = False
        assert got[keep].tobytes() == old_neg_log_factorial(y[keep]).tobytes()


class TestNaturalSpace:
    def test_gaussian_is_unrestricted(self):
        assert vb.natural_space_contains(vb.gaussian_mean(), [5.0])

    def test_exponential_rate_boundary(self):
        er = vb.exponential_rate()
        assert vb.natural_space_contains(er, [-1.0])
        assert not vb.natural_space_contains(er, [0.0])

    @pytest.mark.parametrize("model, x", [(vb.gaussian_mean(), 1e300), (vb.poisson(), 800.0),
                                          (vb.gaussian_iid(3), 1e200)])
    def test_overflowing_log_mgf_is_inside_without_a_warning(self, model, x):
        # the natural space is all of R: a log-partition that overflows float64
        # used to read as outside it, and before that warned on stderr
        assert vb.natural_space_contains(model, [x])
        with pytest.raises(NaturalSpaceError, match=r"log-partition overflowed at parameter") \
                as info:
            vb.sample(model, [x], seed=0, count=1)
        assert info.value.overflow and "outside" not in str(info.value)

    def test_outside_is_not_an_overflow(self):
        with pytest.raises(NaturalSpaceError, match="outside the natural parameter space") \
                as info:
            vb.sample(vb.exponential_rate(), [0.5], seed=0, count=1)
        assert not info.value.overflow

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    def test_membership_iff_finite_log_mgf(self, x):
        for model in (vb.gaussian_mean(), vb.exponential_rate(), vb.bernoulli()):
            member = vb.natural_space_contains(model, [x])
            assert member == bool(np.isfinite(model.log_lambda(np.array([x]))))


class TestLikelihoodRatio:
    def test_identical_parameters_give_one(self):
        for model in ALL_FAMILIES:
            x = np.array([-1.0] * model.param_dim) if model.name == "exponential-rate" \
                else np.full(model.param_dim, 0.3)
            y = vb.sample(model, x, seed=1, count=1)[0]
            assert vb.likelihood_ratio(model, y, x, x) == 1.0

    def test_gaussian_value(self):
        g = vb.gaussian_mean()
        got = vb.likelihood_ratio(g, [0.0], [1.0], [0.0])
        assert got == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_poisson_value(self):
        # ratio of Poisson(2) to Poisson(1) pmfs at y=2 is 4/e
        got = vb.likelihood_ratio(vb.poisson(), [2.0], [math.log(2.0)], [0.0])
        assert got == pytest.approx(4.0 / math.e, rel=1e-12)

    def test_zero_when_candidate_support_excludes_y(self):
        # uniform on [x, x+1]: y=0.5 is outside the support at x=5
        def ld(Y, x):
            y, t = Y[:, 0], x[0]
            return np.where((y >= t) & (y <= t + 1.0), 0.0, -np.inf)

        m = vb.GenericModel("shifted-uniform", 1, 1, ld,
                            lambda x, seed, count: np.random.default_rng(seed).uniform(
                                x[0], x[0] + 1.0, size=(count, 1)))
        assert vb.likelihood_ratio(m, [0.5], [5.0], [0.0]) == 0.0
        with pytest.raises(ReferenceSupportError):
            vb.likelihood_ratio(m, [0.5], [0.0], [5.0])


class TestSampler:
    def test_repeat_calls_are_bit_identical(self):
        for model in ALL_FAMILIES:
            x = np.array([-1.0]) if model.name == "exponential-rate" \
                else np.full(model.param_dim, 0.2)
            a = vb.sample(model, x, seed=42, count=257)
            b = vb.sample(model, x, seed=42, count=257)
            assert a.shape == (257, model.obs_dim)
            assert np.array_equal(a, b)

    def test_zero_count_gives_empty(self):
        out = vb.sample(vb.gaussian_mean(), [0.0], seed=1, count=0)
        assert out.shape == (0, 1)

    @pytest.mark.parametrize("count", [2.5, -1, True, "3"])
    def test_count_must_be_a_count(self, count):
        # a fractional count used to be truncated: 2.5 gave 2 draws
        with pytest.raises(ConfigurationError, match="count"):
            vb.sample(vb.gaussian_mean(), [0.0], seed=1, count=count)

    def test_short_sampler_output_is_an_error(self):
        # it used to give an hcrb value from 5,000 draws when 10,000 were asked
        g = vb.gaussian_mean()
        half = dataclasses.replace(vb.as_generic(g), name="half-sampler",
                                   sampler=lambda x, seed, count: g.sampler(x, seed, count // 2))
        with pytest.raises(DataError, match=r"'half-sampler' returned shape \(5000, 1\), "
                                            r"expected \(10000, 1\)"):
            vb.hcrb(half, vb.identity_mean(), [0.0], vb.TestPointSet([[0.5]]),
                    mc_samples=10_000)

    def test_flat_sampler_output_is_an_error(self):
        # it used to fail later, as a log_density of shape ()
        g = vb.gaussian_mean()
        flat = dataclasses.replace(vb.as_generic(g), name="flat-sampler", support=None,
                                   sampler=lambda x, seed, count: g.sampler(x, seed, count)[:, 0])
        with pytest.raises(DataError, match=r"'flat-sampler' returned shape \(1000,\), "
                                            r"expected \(1000, 1\)"):
            vb.crb(flat, vb.identity_mean(), [0.0], n_mc=1000)

    def test_draws_are_returned_as_the_sampler_gave_them(self):
        draws = [[1], [2], [3]]
        model = dataclasses.replace(vb.as_generic(vb.poisson()),
                                    sampler=lambda x, seed, count: draws)
        assert vb.sample(model, [0.0], seed=1, count=3) is draws

    def test_gaussian_clt(self):
        draws = vb.sample(vb.gaussian_mean(), [0.0], seed=7, count=100_000)
        assert abs(draws.mean()) < 0.02

    def test_poisson_clt(self):
        draws = vb.sample(vb.poisson(), [0.0], seed=3, count=100_000)
        assert abs(draws.mean() - 1.0) < 0.02


class TestNormalization:
    """The canonical form must integrate (or sum) to one over the support."""

    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_quadrature(self, seed):
        g = vb.gaussian_mean()
        x = np.random.default_rng(seed).uniform(-2, 2, size=1)
        total, _ = integrate.quad(
            lambda y: math.exp(vb.log_density(g, [y], x)), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_gaussian_sum_quadrature(self, seed):
        m = vb.gaussian_sum(3)
        x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=1)
        total, _ = integrate.quad(
            lambda z: math.exp(vb.log_density(m, [z], x)), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_exponential_rate_quadrature(self, seed):
        er = vb.exponential_rate()
        x = np.array([np.random.default_rng(seed).uniform(-3.0, -0.4)])
        total, _ = integrate.quad(
            lambda y: math.exp(vb.log_density(er, [y], x)), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_poisson_summation(self, seed):
        p = vb.poisson()
        x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=1)
        total = sum(math.exp(vb.log_density(p, [float(k)], x)) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_bernoulli_summation(self, seed):
        b = vb.bernoulli()
        x = np.random.default_rng(seed).uniform(-2, 2, size=1)
        total = math.exp(vb.log_density(b, [0.0], x)) + math.exp(vb.log_density(b, [1.0], x))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_log_mgf_matches_analytic_normalizers(self):
        # independently coded normalizers; relative error 1e-12
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = float(rng.uniform(-2, 2))
            assert math.exp(vb.gaussian_mean().log_lambda(np.array([x]))) == \
                pytest.approx(math.exp(0.5 * x * x), rel=1e-12)
            assert math.exp(vb.poisson().log_lambda(np.array([x]))) == \
                pytest.approx(math.exp(math.exp(x)), rel=1e-12)
            assert math.exp(vb.bernoulli().log_lambda(np.array([x]))) == \
                pytest.approx(1.0 + math.exp(x), rel=1e-12)
            xr = float(rng.uniform(-3, -0.4))
            assert math.exp(vb.exponential_rate().log_lambda(np.array([xr]))) == \
                pytest.approx(-1.0 / xr, rel=1e-12)


class TestMonteCarloInvariants:
    def test_likelihood_ratio_has_unit_mean(self):
        # E_{x0} of the ratio is 1; check within 4 standard errors
        for model, x, x0 in [(vb.gaussian_mean(), [0.8], [0.2]),
                             (vb.poisson(), [0.4], [-0.2])]:
            Y = vb.sample(model, x0, seed=5, count=100_000)
            rho = np.exp(log_density_batch(model, Y, x) - log_density_batch(model, Y, x0))
            se = rho.std(ddof=1) / math.sqrt(len(rho))
            assert abs(rho.mean() - 1.0) <= 4 * se

    def test_log_mgf_difference_matches_sample_average(self):
        # log lambda(x) - log lambda(x0) = log E_{x0} exp(phi'(x - x0))
        for model, x, x0 in [(vb.gaussian_mean(), [0.9], [0.1]),
                             (vb.bernoulli(), [1.0], [-0.5])]:
            x, x0 = np.array(x), np.array(x0)
            Y = vb.sample(model, x0, seed=8, count=100_000)
            w = np.exp(model.phi(Y) @ (x - x0))
            mean, se = w.mean(), w.std(ddof=1) / math.sqrt(len(w))
            lhs = float(model.log_lambda(x)) - float(model.log_lambda(x0))
            # delta method: se of log(mean) is se/mean
            assert abs(lhs - math.log(mean)) <= 4 * se / mean

    def test_generic_model_support_on_own_draws(self):
        for base in (vb.gaussian_mean(), vb.poisson()):
            m = vb.as_generic(base)
            x = np.array([0.3])
            Y = vb.sample(m, x, seed=2, count=10_000)
            assert np.all(np.isfinite(m.log_density(Y, x)))


class TestMeanFunctions:
    def test_zero_index_derivative_equals_value_exactly(self):
        x = np.array([0.7])
        zero = MultiIndex((0,))
        cases = [vb.identity_mean(), vb.constant_mean(2.5),
                 vb.polynomial_mean([1.0, 2.0, 3.0]), vb.expfam_mean(vb.poisson())]
        for gamma in cases:
            assert gamma.derivative(x, zero) == gamma.value(x)

    def test_polynomial_derivatives_match_finite_differences(self):
        gamma = vb.polynomial_mean([0.5, -1.0, 2.0, 0.25])
        x = np.array([0.4])
        for p in [(1,), (2,), (3,)]:
            exact = gamma.derivative(x, MultiIndex(p))
            approx = partial_derivative(gamma.value, x, p)
            assert exact == pytest.approx(approx, abs=1e-4)

    def test_expfam_mean_of_poisson_is_exponential(self):
        gamma = vb.expfam_mean(vb.poisson())
        x = np.array([0.3])
        # mean and every derivative of exp(x)
        for p in [(0,), (1,), (2,), (3,)]:
            assert gamma.derivative(x, MultiIndex(p)) == pytest.approx(
                math.exp(0.3), rel=1e-12)

    def test_expfam_mean_of_gaussian_is_identity(self):
        gamma = vb.expfam_mean(vb.gaussian_mean())
        x = np.array([1.7])
        assert gamma.value(x) == pytest.approx(1.7, abs=1e-12)
        assert gamma.derivative(x, MultiIndex((1,))) == pytest.approx(1.0, abs=1e-12)
        assert gamma.derivative(x, MultiIndex((2,))) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("make", [vb.expfam_mean, vb.phi_estimator])
    @pytest.mark.parametrize("component", [1, -1])
    def test_component_outside_the_parameter_is_rejected(self, make, component):
        # a component past the parameter once gave the zero index, gamma = 1
        with pytest.raises(ConfigurationError, match=r"^component: axis"):
            make(vb.poisson(), component)

    @pytest.mark.parametrize("bound", [
        lambda gamma: vb.crb(vb.gaussian_mean(), gamma, [0.0]),
        lambda gamma: vb.hcrb(vb.gaussian_mean(), gamma, [0.0], vb.TestPointSet([[0.5]])),
        lambda gamma: vb.bhattacharyya(vb.gaussian_mean(), gamma, [0.0], [(2,)]),
    ], ids=["crb", "hcrb", "bhattacharyya"])
    def test_identity_component_outside_the_parameter_is_a_configuration_error(self, bound):
        # it raised a raw IndexError from inside the bound
        with pytest.raises(ConfigurationError,
                           match=r"^component: 1 is outside a parameter of dimension 1$"):
            bound(vb.identity_mean(1))

    def test_mean_partial_fd_fallback(self):
        gamma = vb.MeanFunction(value=lambda x: float(x[0]) ** 3)
        assert mean_partial(gamma, [2.0], (1,)) == pytest.approx(12.0, rel=1e-6)


class TestModelRegistry:
    def test_make_model_round_trip(self):
        m = vb.make_model("gaussian-mean-nd", dim=3)
        assert m.param_dim == 3

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown family 'gamma'"):
            vb.make_model("gamma")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ConfigurationError, match=r"does not take parameters \['dim'\]"):
            vb.make_model("poisson", dim=2)

    @pytest.mark.parametrize("family", models.BUILTIN_FAMILIES)
    def test_models_are_hashable(self, family):
        model = vb.make_model(family)
        for view in (model, vb.as_generic(model), dataclasses.replace(model, name="copy")):
            assert hash(view) == hash(dataclasses.replace(view))


def _gauss_inputs():
    rng = np.random.default_rng(5)
    return rng.normal(scale=3.0, size=(40, 1)), rng.normal(scale=2.0, size=(6, 1))


class TestGaussianFamilies:
    """gaussian-mean and gaussian-iid are built from gaussian-sum."""

    def test_gaussian_mean_is_the_one_observation_sum(self):
        Y, X = _gauss_inputs()
        mean, one = vb.gaussian_mean(), vb.gaussian_sum(1)
        np.testing.assert_array_equal(mean.phi(Y), one.phi(Y))
        np.testing.assert_array_equal(mean.log_h(Y), one.log_h(Y))
        for x in X:
            assert mean.log_lambda(x) == one.log_lambda(x)
            np.testing.assert_array_equal(mean.sampler(x, 3, 20), one.sampler(x, 3, 20))
            for p in range(9):
                assert mean.closed_moments(x, (p,)) == one.closed_moments(x, (p,))

    def test_gaussian_mean_fields(self):
        g = vb.gaussian_mean()
        assert (g.name, g.param_dim, g.obs_dim, g.natural_space_desc, g.support) == \
            ("gaussian-mean", 1, 1, "all of R", None)

    def test_gaussian_iid_shares_a_and_the_moments_of_the_sum(self):
        _, X = _gauss_inputs()
        iid, total = vb.gaussian_iid(3), vb.gaussian_sum(3)
        assert (iid.name, iid.obs_dim, iid.natural_space_desc) == ("gaussian-iid", 3, "all of R")
        for x in X:
            assert iid.log_lambda(x) == total.log_lambda(x)
            for p in range(9):
                assert iid.closed_moments(x, (p,)) == total.closed_moments(x, (p,))
