"""Monte Carlo estimator validation, scans, and the shrinking-region experiment."""

import math
from dataclasses import replace

import numpy as np
import pytest

import varbounds as vb
import varbounds.bounds as bounds_module
from varbounds.bounds import BarankinSearch, MethodSpec
from varbounds.errors import ConfigurationError, DataError, NaturalSpaceError
from varbounds.harness import estimator_variance_mc, write_csv


class TestEstimatorVarianceMC:
    def test_gaussian_observation_estimator(self):
        g = vb.gaussian_mean()
        est = vb.phi_estimator(g)
        out = estimator_variance_mc(g, est, [0.0], n=100_000, seed=7)
        assert abs(out.variance - 1.0) <= 4 * out.se_variance

    def test_poisson_observation_estimator(self):
        p = vb.poisson()
        out = estimator_variance_mc(p, vb.phi_estimator(p), [0.0], n=100_000, seed=9)
        assert abs(out.variance - 1.0) <= 4 * out.se_variance

    def test_constant_estimator_has_zero_variance(self):
        out = estimator_variance_mc(vb.gaussian_mean(), vb.constant_estimator(2.0),
                                    [0.0], n=1000, seed=1)
        assert out.variance == 0.0 and out.mean == 2.0

    @pytest.mark.parametrize("value", [1e300, -1e300, 0.1, 5e-324])
    def test_constant_estimator_at_any_value_has_exact_zero_spread(self, value):
        # the float mean of 200 draws of 1e300 is not 1e300: its deviations
        # squared overflowed to an infinite variance and a NaN error
        out = estimator_variance_mc(vb.bernoulli(), vb.constant_estimator(value), [0.2],
                                    n=200, seed=1)
        assert out.mean == value
        assert out.variance == out.se_mean == out.se_variance == 0.0

    def test_jackknife_se_matches_delta_method(self):
        # for the sample variance, jackknife and the asymptotic (m4 - s^4)/n
        # formula agree to a few percent
        g = vb.gaussian_mean()
        out = estimator_variance_mc(g, vb.phi_estimator(g), [0.0], n=50_000, seed=3)
        draws = vb.sample(g, [0.0], seed=3, count=50_000)[:, 0]
        m = draws.mean()
        m4 = ((draws - m) ** 4).mean()
        s2 = draws.var(ddof=1)
        delta_se = math.sqrt((m4 - (len(draws) - 3) / (len(draws) - 1) * s2 ** 2)
                             / len(draws))
        assert out.se_variance == pytest.approx(delta_se, rel=0.05)

    def test_requires_minimum_draws(self):
        with pytest.raises(ValueError):
            estimator_variance_mc(vb.gaussian_mean(), vb.constant_estimator(0.0),
                                  [0.0], n=10)

    def test_nonfinite_outputs_raise_data_error(self):
        bad = vb.EstimatorSpec("bad", lambda Y: np.where(Y[:, 0] > 0, Y[:, 0], np.nan))
        with pytest.raises(DataError):
            estimator_variance_mc(vb.gaussian_mean(), bad, [0.0], n=1000, seed=0)

    def test_output_of_the_wrong_shape_raises_data_error(self):
        column = vb.EstimatorSpec("column", lambda Y: Y)  # (n, 1), not (n,)
        with pytest.raises(DataError, match=r"estimator map returned shape \(1000, 1\), "
                                            r"expected \(1000,\)"):
            estimator_variance_mc(vb.gaussian_mean(), column, [0.0], n=1000, seed=0)

    def test_declared_mean_matches_mc_mean(self):
        # the declared mean of the sufficient-statistic estimator is checked
        # against the sample mean at three probe parameters
        for model in (vb.gaussian_mean(), vb.poisson(), vb.bernoulli()):
            est = vb.phi_estimator(model)
            for i, x in enumerate(([-0.5], [0.0], [0.8])):
                out = estimator_variance_mc(model, est, x, n=100_000, seed=20 + i)
                declared = est.declared_mean.value(np.asarray(x))
                assert abs(out.mean - declared) <= 4 * out.se_mean


DEFAULT_METHODS = [
    MethodSpec("crb"),
    MethodSpec("expfam_crb"),
    MethodSpec("expfam_moment", {"indices": [(1,)]}),
    MethodSpec("bhattacharyya", {"indices": [(1,), (2,)]}),
    MethodSpec("hcrb", {"points": None}),  # filled per x0
]


def methods_for(x0):
    out = []
    for spec in DEFAULT_METHODS:
        if spec.name == "hcrb":
            out.append(MethodSpec("hcrb", {"points": [[x0[0] + 0.01]]}))
        else:
            out.append(spec)
    return out


class TestValidateBounds:
    def test_efficient_estimator_margins(self):
        g = vb.gaussian_mean()
        report = vb.validate_bounds(g, vb.phi_estimator(g), [0.0],
                                    methods_for([0.0]), n=100_000, seed=7)
        assert report.all_satisfied
        crb_check = next(c for c in report.checks if c.method == "crb")
        # efficiency: the variance sits on the bound up to 4 standard errors
        assert abs(crb_check.margin) <= 4 * report.moments.se_variance

    def test_constant_estimator_all_zero(self):
        g = vb.gaussian_mean()
        est = vb.constant_estimator(1.5)
        report = vb.validate_bounds(g, est, [0.0],
                                    [MethodSpec("crb"),
                                     MethodSpec("expfam_moment", {"indices": [(0,)]}),
                                     MethodSpec("hcrb", {"points": [[1.0]]})],
                                    n=1000, seed=2)
        for check in report.checks:
            assert check.bound == 0.0 and check.margin == 0.0 and check.satisfied

    def test_missing_declared_mean_rejected(self):
        est = vb.EstimatorSpec("anon", lambda Y: Y[:, 0])
        with pytest.raises(ConfigurationError):
            vb.validate_bounds(vb.gaussian_mean(), est, [0.0], [MethodSpec("crb")])

    def test_inefficient_estimator_has_positive_margin(self):
        # g(y) = y^3 has mean x^3 + 3x; at x0 = 0 its variance is the sixth
        # moment 15 while the bound for that mean is (3)^2 / 1 = 9
        g = vb.gaussian_mean()
        est = vb.EstimatorSpec("cubic", lambda Y: Y[:, 0] ** 3,
                               declared_mean=vb.polynomial_mean([0.0, 3.0, 0.0, 1.0]))
        report = vb.validate_bounds(g, est, [0.0], [MethodSpec("crb")],
                                    n=100_000, seed=17)
        check = report.checks[0]
        assert check.bound == pytest.approx(9.0, abs=1e-10)
        assert abs(report.moments.variance - 15.0) <= 4 * report.moments.se_variance
        assert check.margin > 4 * report.moments.se_variance  # strictly inefficient

    def test_efficiency_across_families_and_points(self):
        # bernoulli probes avoid x0 = 0: there the variance functional
        # p(1 - p) peaks and the sample variance is superefficient, which
        # makes the 4-standard-error efficiency window degenerate
        for model, points in [(vb.gaussian_mean(), ([-1.0], [0.0], [2.0])),
                              (vb.poisson(), ([-0.5], [0.0], [0.7])),
                              (vb.bernoulli(), ([-1.0], [0.4], [1.0]))]:
            est = vb.phi_estimator(model)
            for i, x0 in enumerate(points):
                report = vb.validate_bounds(model, est, x0, [MethodSpec("crb")],
                                            n=100_000, seed=31 + i)
                check = report.checks[0]
                assert check.satisfied, (model.name, x0)
                assert abs(check.margin) <= 4 * report.moments.se_variance


class TestSemicontinuityScan:
    def test_gaussian_values_are_flat(self):
        g = vb.gaussian_mean()
        grid = [np.array([v]) for v in np.linspace(-1, 1, 5)]
        report = vb.semicontinuity_scan(g, vb.identity_mean(), grid, seed=0)
        assert all(abs(v - 1.0) <= 1e-3 for v in report.values)
        assert report.largest_downward_jump <= 5e-3

    def test_constant_mean_gives_zeros(self):
        g = vb.gaussian_mean()
        grid = [np.array([v]) for v in np.linspace(-1, 1, 3)]
        report = vb.semicontinuity_scan(
            g, vb.constant_mean(2.0), grid, seed=0,
            options={"restarts": 1, "halvings": 2})
        assert report.values == (0.0, 0.0, 0.0)
        assert report.largest_downward_jump == 0.0

    def test_poisson_tracks_exponential_of_reference(self):
        p = vb.poisson()
        gamma = vb.expfam_mean(p)
        grid = [np.array([v]) for v in np.linspace(-1, 1, 5)]
        report = vb.semicontinuity_scan(p, gamma, grid, seed=0)
        for x, v in zip(report.grid, report.values):
            assert abs(v - math.exp(x[0])) <= 5e-2

    def test_empty_grid_gives_an_empty_report(self):
        report = vb.semicontinuity_scan(vb.gaussian_mean(), vb.identity_mean(), [])
        assert report.grid == report.values == report.diagnostics == ()

    def test_alternative_bound_method(self):
        g = vb.gaussian_mean()
        grid = [np.array([v]) for v in np.linspace(-1, 1, 3)]
        report = vb.semicontinuity_scan(g, vb.identity_mean(), grid,
                                        bound_method="crb", seed=0)
        assert report.values == (1.0, 1.0, 1.0)

    def test_csv_round_trip_and_determinism(self, tmp_path):
        g = vb.gaussian_mean()
        grid = [np.array([v]) for v in np.linspace(-1, 1, 3)]
        report = vb.semicontinuity_scan(g, vb.identity_mean(), grid, seed=0,
                                        options={"restarts": 1, "halvings": 3})
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report.write_csv(p1)
        report.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x0,value,gram_rank,condition_number,evaluations"
        assert len(lines) == 4
        # values recorded at full precision
        assert float(lines[1].split(",")[1]) == report.values[0]


class TestReductionExperiment:
    def test_gaussian_spread_is_tiny(self):
        g = vb.gaussian_mean()
        report = vb.reduction_experiment(g, vb.identity_mean(), [0.0],
                                         [0.25, 1.0, 4.0], seed=3)
        assert all(abs(v - 1.0) <= 2e-3 for v in report.values)
        assert report.spread <= 2e-3

    def test_poisson_spread(self):
        p = vb.poisson()
        report = vb.reduction_experiment(p, vb.expfam_mean(p), [0.0],
                                         [0.25, 1.0], seed=3)
        assert all(abs(v - 1.0) <= 5e-2 for v in report.values)
        assert report.spread <= 5e-2

    def test_constant_mean_gives_zeros(self):
        g = vb.gaussian_mean()
        report = vb.reduction_experiment(
            g, vb.constant_mean(1.0), [0.0], [0.5, 1.0],
            search=BarankinSearch(restarts=1, halvings=2), seed=0)
        assert report.values == (0.0, 0.0)

    def test_spread_below_twice_search_tolerance(self):
        # final step of the default schedule is 0.5 / 2^8
        g = vb.gaussian_mean()
        report = vb.reduction_experiment(g, vb.identity_mean(), [0.5],
                                         [0.5, 2.0], seed=5)
        assert report.spread <= 2 * (0.5 / 2 ** 8)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            vb.reduction_experiment(vb.gaussian_mean(), vb.identity_mean(), [0.0],
                                    [0.0])

    def test_csv_output(self, tmp_path):
        g = vb.gaussian_mean()
        report = vb.reduction_experiment(
            g, vb.identity_mean(), [0.0], [0.5],
            search=BarankinSearch(restarts=1, halvings=3), seed=0)
        path = tmp_path / "r.csv"
        report.write_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("radius,value")
        assert float(lines[1].split(",")[0]) == 0.5


class TestCSVWriter:
    def test_full_precision_floats(self, tmp_path):
        path = tmp_path / "x.csv"
        value = 1 / 3
        write_csv(path, ["a"], [[value]])
        text = path.read_text(encoding="utf-8")
        assert text == "a\n0.33333333333333331\n"
        assert float(text.splitlines()[1]) == value


def _hexed(value):
    """Floats as float.hex, recursively, so that comparisons are bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return value


_LIGHT = {"restarts": 2, "halvings": 4, "max_points": 3}


def _scan_case(name):
    """Model, mean, grid, search options and keyword arguments of a scan."""
    if name == "gaussian-mean-nd":
        model = vb.make_model(name)
        return (model, vb.expfam_mean(model, 1), [[0.2, -0.1], [-0.4, 0.3], [0.0, 0.5]],
                {"restarts": 2, "halvings": 3, "max_points": 2}, {})
    if name == "exponential-rate-unboxed":
        # some proposed configurations leave the natural space
        return (vb.exponential_rate(), vb.identity_mean(), [[-2.0], [-1.6], [-1.2]],
                {"max_points": 2, "restarts": 2, "halvings": 5, "radius": 1.5}, {})
    if name == "gaussian-mean-ten-points":
        # more grid points than searches run at once: the window refills
        return (vb.gaussian_mean(), vb.identity_mean(),
                [[v] for v in np.linspace(-1.0, 1.0, 10)], _LIGHT, {})
    if name == "generic-poisson":
        p = vb.poisson()
        return (replace(vb.as_generic(p), support=None), vb.expfam_mean(p),
                [[-0.2], [0.0], [0.2]],
                {"restarts": 1, "halvings": 3, "max_points": 2}, {"mc_samples": 2_000})
    x0 = {"gaussian-mean": 0.3, "poisson": -0.2, "bernoulli": 0.4}[name]
    model = vb.make_model(name)
    return model, vb.expfam_mean(model), [[x0 - 0.5], [x0], [x0 + 0.5]], _LIGHT, {}


SCAN_CASES = ["gaussian-mean", "poisson", "bernoulli", "gaussian-mean-nd",
              "exponential-rate-unboxed", "gaussian-mean-ten-points", "generic-poisson"]


class TestBatchedSearchesEqualAlone:
    """The scan's grid points and the reduction's radii share stacked Gram
    solves; each result is still the one `barankin_approx` gives alone."""

    @pytest.mark.parametrize("name", SCAN_CASES)
    def test_scan_point_equals_its_search_alone(self, name):
        model, gamma, grid, options, kwargs = _scan_case(name)
        report = vb.semicontinuity_scan(model, gamma, grid, options=options, seed=7, **kwargs)
        for i, x in enumerate(grid):
            alone = vb.evaluate_bound(model, gamma, x, MethodSpec("barankin_approx", options),
                                      seed=7 + i, **kwargs)
            assert report.values[i].hex() == alone.value.hex()
            assert _hexed(report.diagnostics[i]) == _hexed(alone.diagnostics)

    @pytest.mark.parametrize("name", ["gaussian-mean", "poisson", "bernoulli",
                                      "gaussian-mean-nd", "exponential-rate-unboxed",
                                      "generic-poisson"])
    def test_reduction_radius_equals_its_search_alone(self, name):
        model, gamma, grid, options, kwargs = _scan_case(name)
        base = BarankinSearch(**{k: v for k, v in options.items() if k != "radius"})
        radii = [0.25, 0.5, 1.0, 2.0]
        report = vb.reduction_experiment(model, gamma, grid[0], radii, base, seed=3, **kwargs)
        for j, r in enumerate(radii):
            alone = vb.barankin_approx(model, gamma, grid[0],
                                       replace(base, radius=r, seed=3 + j), **kwargs)
            assert report.values[j].hex() == alone.value.hex()
            assert _hexed(report.diagnostics[j]) == _hexed(alone.diagnostics)

    def test_each_configuration_is_computed_once_per_grid_point(self, monkeypatch):
        model, gamma, grid, options, kwargs = _scan_case("gaussian-mean-ten-points")
        kernel_rows, computed = bounds_module._kernel_rows, {}

        def tracked_rows(evaluator, g, stack, *args):
            computed.setdefault(float(evaluator.x0[0]), []).extend(
                np.asarray(points, dtype=float).tobytes() for points in stack)
            return kernel_rows(evaluator, g, stack, *args)

        monkeypatch.setattr(bounds_module, "_kernel_rows", tracked_rows)
        report = vb.semicontinuity_scan(model, gamma, grid, options=options, seed=7)
        assert list(computed) == [x[0] for x in grid]
        for keys, d in zip(computed.values(), report.diagnostics):
            assert len(set(keys)) == len(keys) == d["evaluations"]

    @pytest.mark.parametrize("name, window", [("gaussian-mean-ten-points", 8),
                                              ("generic-poisson", 1)])
    def test_window_of_searches(self, name, window, monkeypatch):
        # closed-form searches share their solves 8 at a time; Monte Carlo
        # searches, each holding its draws and ratio cache, run one at a time
        model, gamma, grid, options, kwargs = _scan_case(name)
        search, solves = bounds_module._search, []
        running = []

        def counted_search(*args):
            running.append(1)
            solves.append(("peak", len(running)))
            try:
                return (yield from search(*args))
            finally:
                running.pop()

        def counted_stack(G, rhs, pinv_tol):
            solves.append(("solve", len(rhs)))
            return stack(G, rhs, pinv_tol)

        stack = vb.kernel.make_gram_system
        monkeypatch.setattr(bounds_module, "_search", counted_search)
        # one `_solve` covers the stacks of several sizes: each stack is one
        # `make_gram_system`, of the searches and of the Monte Carlo halves
        monkeypatch.setattr(vb.kernel, "make_gram_system", counted_stack)
        report = vb.semicontinuity_scan(model, gamma, grid, options=options, seed=7, **kwargs)
        assert max(n for kind, n in solves if kind == "peak") == min(window, len(grid))
        stacked = sum(d["gram_stacks"] for d in report.diagnostics)
        search_solves = [n for kind, n in solves if kind == "solve"]
        if window == 1:
            # the Monte Carlo error estimate solves both halves once more
            assert len(search_solves) == stacked + len(grid)
        else:
            # fewer solves than the searches make alone, and stacks larger
            # than the starts of one search can fill in a step
            assert len(search_solves) < stacked
            assert max(search_solves) > options["restarts"]


def _nan_at(gamma, bad_x0):
    """gamma, but NaN at the reference parameters in bad_x0."""
    return vb.MeanFunction(lambda x: math.nan if float(x[0]) in bad_x0 else gamma.value(x),
                           gamma.derivative)


def _serial_error(call, count):
    """(type, message) of the first error of call(0), call(1), ..."""
    for i in range(count):
        try:
            call(i)
        except Exception as exc:
            return type(exc), str(exc)
    return None


class TestBatchedSearchErrors:
    """A batched scan or reduction raises the error the serial loop raises:
    the first failing grid point's or radius', with its own message."""

    def test_first_failing_grid_point_wins(self):
        # point 1's mean is NaN at x0, so its first solve fails, while point 3
        # (outside the natural space x < 0) fails before any solve, earlier
        er = vb.exponential_rate()
        grid = [[-2.0], [-1.5], [-1.0], [0.5], [-0.7]]
        gamma = _nan_at(vb.identity_mean(), {-1.5, -0.7})
        options = {"restarts": 2, "halvings": 3, "max_points": 2, "radius": 0.4}
        expected = _serial_error(lambda i: vb.evaluate_bound(
            er, gamma, grid[i], MethodSpec("barankin_approx", options), seed=i), len(grid))
        # the failing matrix solved alone: its message names no index into a
        # stack, which the shared stack (point 0's configurations first)
        # would give another value, and names x0 and the test points instead
        assert expected[0] is DataError and " in system " not in expected[1]
        assert expected[1].startswith("non-finite right-hand side entry at index (0,) at "
                                      "x0=[-1.5] with test points [[")
        with pytest.raises(Exception) as caught:
            vb.semicontinuity_scan(er, gamma, grid, options=options)
        assert (type(caught.value), str(caught.value)) == expected

    def test_later_point_failing_first_does_not_win(self, monkeypatch):
        # both points start from 0.6 with steps of 0.5 in a ball of radius 1:
        # point 1 (x0 = 0.8) proposes 1.1 at its second step, where the mean
        # raises; point 0 (x0 = 0) reaches -0.4 only at its third, where the
        # mean is NaN.  The serial loop fails on point 0.
        def value(x):
            if x[0] > 1.0:
                raise ValueError(f"mean undefined at {x[0]}")
            return math.nan if x[0] < -0.3 else float(x[0])

        g, gamma, grid = vb.gaussian_mean(), vb.MeanFunction(value), [[0.0], [0.8]]
        options = {"initial_points": [[0.6]], "restarts": 0, "halvings": 2, "radius": 1.0}
        expected = _serial_error(lambda i: vb.evaluate_bound(
            g, gamma, grid[i], MethodSpec("barankin_approx", options), seed=i), len(grid))
        assert expected[0] is DataError
        search, failed = bounds_module._search, []

        def logged_search(model, gamma, x0, *args):
            try:
                return (yield from search(model, gamma, x0, *args))
            except Exception:
                failed.append(float(x0[0]))
                raise

        monkeypatch.setattr(bounds_module, "_search", logged_search)
        with pytest.raises(Exception) as caught:
            vb.semicontinuity_scan(g, gamma, grid, options=options)
        assert (type(caught.value), str(caught.value)) == expected
        # each search raises its own error: point 1's from its mean, then
        # point 0's when it reads its configuration's failed solve
        assert failed == [0.8, 0.0]

    def test_grid_point_outside_the_natural_space(self):
        er = vb.exponential_rate()
        grid = [[-1.0], [0.5], [0.25]]
        options = {"restarts": 1, "halvings": 2, "max_points": 2, "radius": 0.4}
        expected = _serial_error(lambda i: vb.evaluate_bound(
            er, vb.identity_mean(), grid[i], MethodSpec("barankin_approx", options),
            seed=i), len(grid))
        with pytest.raises(NaturalSpaceError) as caught:
            vb.semicontinuity_scan(er, vb.identity_mean(), grid, options=options)
        assert (type(caught.value), str(caught.value)) == expected
        assert "0.5" in str(caught.value)

    @pytest.mark.parametrize("radii, first_fails", [([0.5, 1.0, 0.0], False),
                                                    ([0.5, 1.0, 0.0], True)])
    def test_first_failing_radius_wins(self, radii, first_fails):
        g = vb.gaussian_mean()
        gamma = _nan_at(vb.identity_mean(), {0.0}) if first_fails else vb.identity_mean()
        base = BarankinSearch(restarts=1, halvings=2, max_points=2)

        def alone(j):  # a radius of 0 fails in `replace`, as BarankinSearch checks it
            return vb.barankin_approx(g, gamma, [0.0], replace(base, radius=radii[j], seed=j))

        expected = _serial_error(alone, len(radii))
        assert expected[0] is (DataError if first_fails else ConfigurationError)
        with pytest.raises(Exception) as caught:
            vb.reduction_experiment(g, gamma, [0.0], radii, base)
        assert (type(caught.value), str(caught.value)) == expected
