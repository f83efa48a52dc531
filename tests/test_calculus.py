"""Multi-index combinatorics, finite differences, and moment computation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varbounds as vb
from varbounds.calculus import (
    FDConfig,
    MultiIndex,
    default_steps,
    moment,
    moment_table,
    multi_binomial,
    multi_indices_leq,
    partial_derivative,
    reciprocal_series,
)
from varbounds.bounds import method_options
from varbounds.errors import ConfigurationError, NaturalSpaceError, StencilError

small_indices = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)


class TestMultiIndex:
    def test_order_is_component_sum(self):
        assert MultiIndex((2, 1, 0)).order == 3

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError):
            MultiIndex((1.5,))

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_unit_rejects_an_axis_outside_the_dimension(self, axis):
        with pytest.raises(ValueError, match=f"axis {axis} is not in range"):
            MultiIndex.unit(2, axis)

    def test_compares_equal_to_plain_tuples(self):
        assert MultiIndex((1, 2)) == (1, 2)

    @pytest.mark.parametrize("entry", [True, False, np.True_])
    def test_rejects_bool_entries(self, entry):
        # a bool used to pass as 0 or 1, so a CLI `indices: [[true]]` ran
        with pytest.raises(ValueError, match="not an integer"):
            MultiIndex((entry,))
        with pytest.raises(ConfigurationError, match="bhattacharyya.indices"):
            method_options("bhattacharyya", {"indices": [[entry]]}, 1)

    def test_as_index_takes_an_int_as_a_one_entry_index(self):
        assert vb.calculus.as_index(2) == MultiIndex((2,)) == (2,)

    def test_plus_minus_dominates(self):
        p, q = MultiIndex((2, 1)), MultiIndex((1, 1))
        assert p.plus(q) == (3, 2)
        assert p.minus(q) == (1, 0)
        assert p.dominates(q) and not q.dominates(p)


class TestMultiIndicesLeq:
    def test_scalar(self):
        assert multi_indices_leq((1,)) == [(0,), (1,)]

    def test_two_axes_lexicographic(self):
        assert multi_indices_leq((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_count_for_2_1(self):
        # (2+1)*(1+1) = 6 indices below (2,1)
        assert len(multi_indices_leq((2, 1))) == 6

    @settings(max_examples=50, deadline=None)
    @given(small_indices)
    def test_enumeration_properties(self, p):
        out = multi_indices_leq(p)
        expected = 1
        for k in p:
            expected *= k + 1
        assert len(out) == expected
        assert out == sorted(out)
        assert all(MultiIndex(p).dominates(q) for q in out)
        assert out[0] == MultiIndex.zero(len(p)) and out[-1] == tuple(p)


class TestMultiBinomial:
    def test_examples(self):
        assert multi_binomial((2, 1), (1, 1)) == 2
        assert multi_binomial((3, 2), (1, 1)) == 6

    def test_equal_indices_give_one(self):
        assert multi_binomial((3, 2), (3, 2)) == 1

    def test_rejects_non_dominated(self):
        with pytest.raises(ValueError):
            multi_binomial((1, 1), (2, 0))

    @settings(max_examples=50, deadline=None)
    @given(small_indices)
    def test_complement_symmetry(self, p):
        p = MultiIndex(p)
        for q in multi_indices_leq(p):
            assert multi_binomial(p, q) == multi_binomial(p, p.minus(q))


class TestPartialDerivative:
    def test_first_derivative_of_square(self):
        # d/dx x^2 at 3 is 6
        val = partial_derivative(lambda x: x[0] ** 2, [3.0], (1,), FDConfig(1e-4))
        assert abs(val - 6.0) < 1e-6

    def test_constant_function(self):
        for p in [(1,), (2,), (3,)]:
            assert abs(partial_derivative(lambda x: 4.2, [0.7], p)) < 1e-8

    def test_mixed_partial_of_product(self):
        # d^2/(dx1 dx2) of x1*x2 is 1
        val = partial_derivative(lambda x: x[0] * x[1], [1.0, 1.0], (1, 1), FDConfig(1e-4))
        assert abs(val - 1.0) < 1e-6

    def test_fourth_derivative(self):
        # d^4/dx^4 of x^4 is 24
        val = partial_derivative(lambda x: x[0] ** 4, [0.3], (4,))
        assert abs(val - 24.0) < 1e-3

    def test_order_cap(self):
        with pytest.raises(ConfigurationError, match="derivative order 5 exceeds the "
                                                     "finite-difference cap 4"):
            partial_derivative(lambda x: x[0], [0.0], (5,))

    def test_stencil_error_reports_point(self):
        def f(x):
            return math.nan if x[0] > 1.0 else x[0]

        with pytest.raises(StencilError) as err:
            partial_derivative(f, [1.0], (1,), FDConfig(0.5))
        assert err.value.point[0] > 1.0

    def test_zero_order_returns_value(self):
        assert partial_derivative(lambda x: x[0] + 2, [1.0], (0,)) == 3.0

    @pytest.mark.parametrize("x0, p", [([0.3], (0,)), ([0.3], (1,)), ([0.3], (2,)),
                                       ([0.3], (3,)), ([0.3], (4,)),
                                       ([0.2, -1.1], (1, 1)), ([0.2, -1.1], (2, 1))])
    def test_array_valued_f_is_entrywise(self, x0, p):
        def f(x):
            return np.array([np.sin(x[0]), x[0] ** 3 * x[-1], np.exp(x[-1] - x[0])])

        arr = partial_derivative(f, x0, p)
        entries = [partial_derivative(lambda x, i=i: f(x)[i], x0, p) for i in range(3)]
        assert isinstance(arr, np.ndarray)
        assert arr.tolist() == entries

    def test_scalar_f_returns_a_float(self):
        for p in [(0,), (1,), (3,)]:
            val = partial_derivative(lambda x: x[0] ** 2, [1.0], p)
            assert isinstance(val, float) and not isinstance(val, np.ndarray)

    def test_array_stencil_error_on_any_entry(self):
        def f(x):
            return np.array([x[0], math.inf if x[0] < 1.0 else x[0]])

        with pytest.raises(StencilError) as err:
            partial_derivative(f, [1.0], (1,), FDConfig(0.5))
        assert err.value.point[0] < 1.0 and err.value.value == math.inf

    def test_step_widens_with_total_order(self):
        x0 = np.array([2.0, 0.1])
        assert np.allclose(default_steps(x0, MultiIndex((1, 1))), [2e-4, 1e-4])
        assert np.allclose(default_steps(x0, MultiIndex((2, 1))), [2e-3, 1e-3])


class TestFDConfig:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            FDConfig(0.0)


class TestMoment:
    def test_standard_normal_moments(self):
        g = vb.gaussian_mean()
        assert moment(g, [0.0], (2,)) == pytest.approx(1.0, abs=1e-12)
        assert moment(g, [0.0], (4,)) == pytest.approx(3.0, abs=1e-12)

    def test_poisson_unit_rate_mean(self):
        assert moment(vb.poisson(), [0.0], (1,)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_index_is_exactly_one(self):
        for model in (vb.gaussian_mean(), vb.poisson(), vb.exponential_rate()):
            x = [-1.0] if model.name == "exponential-rate" else [0.3]
            assert moment(model, x, (0,)) == 1.0

    def test_fd_path_matches_closed_moments(self):
        # the independent oracle here is each family's closed-form moment
        rng = np.random.default_rng(0)
        cases = [
            (vb.gaussian_mean(), -1.5, 1.5),
            (vb.poisson(), -1.0, 1.0),
            (vb.bernoulli(), -2.0, 2.0),
            (vb.exponential_rate(), -3.0, -0.5),
            (vb.gaussian_sum(3), -1.0, 1.0),
            (vb.gaussian_iid(3), -1.0, 1.0),
        ]
        for fam, lo, hi in cases:
            fd_model = dataclasses.replace(fam, closed_moments=None)
            for _ in range(5):
                x = np.array([rng.uniform(lo, hi)])
                for p in [(1,), (2,), (3,)]:
                    exact = moment(fam, x, p)
                    approx = moment(fd_model, x, p)
                    assert abs(approx - exact) <= 1e-5 * max(1.0, abs(exact)), \
                        (fam.name, x, p)

    def test_fd_path_matches_closed_moments_multidim(self):
        rng = np.random.default_rng(1)
        nd = vb.gaussian_mean_nd(2)
        fd_model = dataclasses.replace(nd, closed_moments=None)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=2)
            for p in [(1, 0), (1, 1), (2, 1), (1, 2), (3, 0)]:
                exact = moment(nd, x, p)
                approx = moment(fd_model, x, p)
                assert abs(approx - exact) <= 1e-5 * max(1.0, abs(exact))

    def test_boundary_raises_natural_space_error(self):
        er = dataclasses.replace(vb.exponential_rate(), closed_moments=None)
        # the stencil around x=-5e-5 crosses into x >= 0
        with pytest.raises(NaturalSpaceError):
            moment(er, [-5e-5], (1,))


class TestLeibnizIdentity:
    def test_product_rule_expansion(self):
        # sum_{q<=p} C(p,q) d^{p-q}(mgf) d^q(gamma) equals d^p(mgf*gamma) by
        # the generalized product rule; both sides via finite differences with
        # mgf(x) = exp(x^2/2) (independent of the library's model code)
        x0 = 0.7

        def mgf(x):
            return math.exp(0.5 * x[0] ** 2)

        gamma_derivs = {0: x0, 1: 1.0, 2: 0.0}  # gamma(x) = x

        for p in [(1,), (2,)]:
            p = MultiIndex(p)
            lhs = 0.0
            for q in multi_indices_leq(p):
                r = p.minus(q)
                dl = mgf(np.array([x0])) if r.order == 0 else partial_derivative(mgf, [x0], r)
                lhs += multi_binomial(p, q) * dl * gamma_derivs[q[0]]
            rhs = partial_derivative(lambda x: mgf(x) * x[0], [x0], p)
            assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))


class TestReciprocalSeries:
    def test_inverts_the_product_identity(self):
        # nu must satisfy sum_{q<=p} C(p,q) nu_q mu_{p-q} = [p == 0]
        g = vb.gaussian_mean()
        mu = moment_table(g, [0.7], (4,))
        nu = reciprocal_series(mu, (4,))
        for p in multi_indices_leq((4,)):
            total = sum(multi_binomial(p, q) * nu[q] * mu[p.minus(q)]
                        for q in multi_indices_leq(p))
            assert total == pytest.approx(1.0 if p.order == 0 else 0.0, abs=1e-9)

    def test_standard_normal_values(self):
        # for mgf exp(x^2/2) at 0: nu = (1, 0, -1, 0, 3)
        g = vb.gaussian_mean()
        mu = moment_table(g, [0.0], (4,))
        nu = reciprocal_series(mu, (4,))
        expect = {(0,): 1.0, (1,): 0.0, (2,): -1.0, (3,): 0.0, (4,): 3.0}
        for k, v in expect.items():
            assert nu[MultiIndex(k)] == pytest.approx(v, abs=1e-12)
