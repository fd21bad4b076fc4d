import math

import numpy as np
import pytest
from scipy.integrate import quad

from gumbelsys import DomainError, SystemModel, Topology, UsageError
from gumbelsys import gumbel as gu
from gumbelsys import systems as sy

from conftest import parallel, series

E1 = math.exp(-1.0)


class TestParallel:
    def test_cdf_two_equal(self):
        assert sy.parallel_cdf(parallel([0, 0]), 0.0) == pytest.approx(math.exp(-2), rel=1e-14)

    def test_cdf_single_reduces(self):
        assert sy.parallel_cdf(parallel([0]), 0.0) == pytest.approx(E1, rel=1e-14)

    def test_cdf_mixed(self):
        expect = math.exp(-(1 + math.e))
        assert sy.parallel_cdf(parallel([0, 1]), 0.0) == pytest.approx(expect, rel=1e-14)

    def test_pdf_single(self):
        assert sy.parallel_pdf(parallel([0]), 0.0) == pytest.approx(E1, rel=1e-14)

    def test_pdf_two_equal(self):
        assert sy.parallel_pdf(parallel([0, 0]), 0.0) == pytest.approx(2 * math.exp(-2), rel=1e-14)

    def test_pdf_integrates_to_one(self):
        s = parallel([0, 1, 2])
        lo = sy.system_quantile(s, 1e-12)
        hi = sy.system_quantile(s, 1 - 1e-12)
        val, _ = quad(lambda x: float(sy.parallel_pdf(s, x)), lo, hi,
                      epsabs=1e-13, epsrel=1e-11, limit=500)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_reversed_hazard_values(self):
        assert sy.parallel_reversed_hazard(parallel([0, 0]), 0.0) == pytest.approx(2.0, rel=1e-14)
        assert sy.parallel_reversed_hazard(parallel([0], 2.0), 0.0) == pytest.approx(0.5, rel=1e-14)
        expect = math.e + math.exp(-1)
        assert sy.parallel_reversed_hazard(parallel([1, -1]), 0.0) == pytest.approx(expect, rel=1e-14)

    def test_reversed_hazard_is_component_sum(self):
        s = parallel([0.5, -1.0, 2.0], 0.7)
        xs = np.linspace(-4, 10, 61)
        total = sum(gu.reversed_hazard(c, xs) for c in s.components())
        np.testing.assert_allclose(sy.parallel_reversed_hazard(s, xs), total, rtol=1e-12)

    def test_topology_guard(self):
        with pytest.raises(UsageError):
            sy.parallel_cdf(series([0.0]), 0.0)


class TestSeries:
    def test_survival_single(self):
        assert sy.series_survival(series([0]), 0.0) == pytest.approx(1 - E1, rel=1e-14)

    def test_survival_two_equal(self):
        assert sy.series_survival(series([0, 0]), 0.0) == pytest.approx((1 - E1) ** 2, rel=1e-14)

    def test_survival_lower_limit(self):
        assert sy.series_survival(series([0]), -40.0) == 1.0

    def test_hazard_values(self):
        assert sy.series_hazard(series([0]), 0.0) == pytest.approx(1 / (math.e - 1), rel=1e-13)
        assert sy.series_hazard(series([0, 0]), 0.0) == pytest.approx(2 / (math.e - 1), rel=1e-13)

    def test_hazard_upper_limit(self):
        # phi(t) -> 1 as t -> 0, so the hazard tends to n/sigma
        assert sy.series_hazard(series([0]), 40.0) == pytest.approx(1.0, rel=1e-12)

    def test_hazard_is_component_sum(self):
        s = series([0.5, -1.0, 2.0], 0.7)
        xs = np.linspace(-4, 10, 61)
        total = sum(gu.hazard(c, xs) for c in s.components())
        np.testing.assert_allclose(sy.series_hazard(s, xs), total, rtol=1e-12)

    def test_hazard_matches_log_survival_slope(self):
        s = series([1.0, -0.5, 0.3], 0.8)
        grid = sy.make_grid(s, s, 201)
        xs = grid.points[40:-40]
        h = 1e-5
        slope = -(sy.system_log_survival(s, xs + h) - sy.system_log_survival(s, xs - h)) / (2 * h)
        np.testing.assert_allclose(sy.series_hazard(s, xs), slope, rtol=1e-6)

    def test_topology_guard(self):
        with pytest.raises(UsageError):
            sy.series_survival(parallel([0.0]), 0.0)


class TestPhi:
    def test_values(self):
        assert sy.phi(0.0) == 1.0
        assert sy.phi(1.0) == pytest.approx(1 / (math.e - 1), rel=1e-14)
        assert sy.phi(math.log(2)) == pytest.approx(math.log(2), rel=1e-14)

    def test_series_branch_continuity(self):
        # values just below and above the series switch must agree closely
        lo, hi = sy.phi(1e-5 * (1 - 1e-9)), sy.phi(1e-5 * (1 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sy.phi(-0.1)

    def test_saturates_to_zero(self):
        assert sy.phi(800.0) == 0.0
        assert sy.phi(np.inf) == 0.0


class TestDispatch:
    @pytest.mark.parametrize("s", [series([0.4, -1.2, 2.0], 0.6),
                                   parallel([0.4, -1.2, 2.0], 0.6)])
    def test_five_functions_consistent(self, s):
        grid = sy.make_grid(s, s, 201)
        xs = grid.points
        f = sy.system_pdf(s, xs)
        hz_sv = sy.system_hazard(s, xs) * sy.system_survival(s, xs)
        rh_cdf = sy.system_reversed_hazard(s, xs) * sy.system_cdf(s, xs)
        mask = f > 1e-300
        np.testing.assert_allclose(hz_sv[mask], f[mask], rtol=1e-10)
        np.testing.assert_allclose(rh_cdf[mask], f[mask], rtol=1e-10)

    def test_single_component_values(self):
        assert sy.system_pdf(series([0]), 0.0) == pytest.approx(E1, rel=1e-14)
        expect = E1 / (1 - E1)
        assert sy.system_hazard(parallel([0]), 0.0) == pytest.approx(expect, rel=1e-13)
        assert sy.system_reversed_hazard(series([0]), 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_deep_left_series_reversed_hazard_finite(self):
        s = series([3.0, 2.8, 2.9])
        vals = sy.system_reversed_hazard(s, np.array([-10.0, -5.0, 0.0]))
        assert np.isfinite(vals).all() and (vals > 0).all()


class TestFarRightTail:
    """Log survival and log density stay finite where exp(log w) underflows."""

    def test_series_log_survival_and_log_pdf_finite(self):
        s = series([2.0, 0.0])
        # log survival = sum_i log(1 - exp(-w_i)) = sum_i log w_i once w_i underflow
        assert sy.system_log_survival(s, 800.0) == pytest.approx(-1598.0, rel=1e-15)
        # log pdf = log(hazard) + log survival, with the hazard at its limit n/sigma
        expect = math.log(2.0) - 1598.0
        assert sy.system_log_pdf(s, 800.0) == pytest.approx(expect, rel=1e-15)

    def test_parallel_log_survival_finite(self):
        s = parallel([2.0, 0.0])
        expect = -800.0 + math.log(math.exp(2.0) + 1.0)  # log of sum_i w_i
        assert sy.system_log_survival(s, 800.0) == pytest.approx(expect, rel=1e-15)

    @pytest.mark.parametrize("s", [series([2.0, 0.0, -1.5], 0.7),
                                   parallel([2.0, 0.0, -1.5], 0.7)])
    def test_finite_values_unchanged(self, s):
        # where exp(log w) does not underflow, the result is the plain
        # _log1mexp(w) sum bit for bit
        xs = np.linspace(-30.0, 520.0, 1101)
        logw = (np.asarray(s.mus) - xs[:, None]) / s.sigma
        if s.topology is Topology.PARALLEL:
            old = gu._log1mexp(np.exp(sy.logsumexp(logw, axis=-1)))
        else:
            old = gu._log1mexp(np.exp(logw)).sum(axis=-1)
        assert np.isfinite(old).all()
        np.testing.assert_array_equal(sy.system_log_survival(s, xs), old)


class TestLogSumExp:
    """The numpy logsumexp matches scipy.special.logsumexp bit for bit."""

    def test_bitwise_equal_to_scipy(self):
        from scipy.special import logsumexp as scipy_logsumexp

        g = np.random.default_rng(20190501)
        for n in range(1, 65):
            for rep in range(12):
                a = g.normal(0.0, 10.0 ** g.uniform(-3, 3), n)
                if rep % 3 == 0:  # ties at the maximum
                    a[g.integers(0, n, max(1, n // 3))] = a.max()
                if rep % 4 == 0:
                    a = np.round(a)
                assert sy.logsumexp(a) == scipy_logsumexp(a)
                rows = g.normal(0.0, 5.0, (7, n))
                rows[::2, 0] = rows[::2].max(axis=1)
                np.testing.assert_array_equal(sy.logsumexp(rows, axis=-1),
                                              scipy_logsumexp(rows, axis=-1))

    def test_edge_values_match_scipy(self):
        from scipy.special import logsumexp as scipy_logsumexp

        for a in ([-np.inf, -np.inf], [np.inf, 1.0], [0.0], [1e308, 1e308],
                  [-800.0, -798.0]):
            a = np.array(a)
            np.testing.assert_array_equal(sy.logsumexp(a), scipy_logsumexp(a))

    def test_scalar_result_for_1d(self):
        assert np.ndim(sy.logsumexp(np.array([0.0, 0.0]))) == 0
        assert sy.logsumexp(np.array([0.0, 0.0])) == pytest.approx(math.log(2.0), rel=1e-15)


class TestModel:
    def test_canonical_descending(self):
        s = series([0.0, 2.0, -1.0])
        assert s.mus == (2.0, 0.0, -1.0)

    def test_exchangeability_exact(self):
        a = series([0.3, 1.7, -0.2], 0.9)
        b = series([1.7, -0.2, 0.3], 0.9)
        xs = np.linspace(-5, 10, 50)
        assert np.array_equal(sy.system_cdf(a, xs), sy.system_cdf(b, xs))
        assert np.array_equal(sy.system_hazard(a, xs), sy.system_hazard(b, xs))

    def test_monotone_in_location(self):
        xs = np.linspace(-4, 8, 80)
        base_s = series([0.5, -0.5])
        lifted_s = series([0.5, 0.0])
        assert np.all(sy.series_survival(lifted_s, xs) >= sy.series_survival(base_s, xs))
        base_p = parallel([0.5, -0.5])
        lifted_p = parallel([0.5, 0.0])
        assert np.all(sy.parallel_cdf(lifted_p, xs) <= sy.parallel_cdf(base_p, xs))

    def test_parallel_reversed_hazard_increasing_in_location(self):
        xs = np.linspace(-4, 8, 80)
        lo = sy.parallel_reversed_hazard(parallel([0.5, -0.5]), xs)
        hi = sy.parallel_reversed_hazard(parallel([0.5, 0.0]), xs)
        assert np.all(hi >= lo)

    def test_series_hazard_decreasing_in_location(self):
        xs = np.linspace(-4, 8, 80)
        lo = sy.series_hazard(series([0.5, 0.0]), xs)
        hi = sy.series_hazard(series([0.5, -0.5]), xs)
        assert np.all(hi >= lo)

    def test_validation(self):
        with pytest.raises(DomainError):
            SystemModel(Topology.SERIES, (), 1.0)
        with pytest.raises(DomainError):
            SystemModel(Topology.SERIES, (0.0,), -1.0)
        with pytest.raises(DomainError):
            SystemModel(Topology.SERIES, (np.inf,), 1.0)
        with pytest.raises(DomainError):
            SystemModel(Topology.SERIES, tuple(range(65)), 1.0)
        with pytest.raises(UsageError):
            SystemModel("series", (0.0,), 1.0)


class TestQuantiles:
    def test_single_reduces_to_component(self):
        s = parallel([0.0])
        assert sy.system_quantile(s, E1) == pytest.approx(0.0, abs=1e-14)

    def test_parallel_two_equal(self):
        assert sy.system_quantile(parallel([0, 0]), math.exp(-2)) == pytest.approx(0.0, abs=1e-12)

    def test_series_median_matches_bisection_oracle(self):
        s = series([0.0, 3.0])
        # independent oracle: plain bisection on the survival product
        lo, hi = -20.0, 20.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 - float(sy.series_survival(s, mid)) < 0.5:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(0.36651162394615744, abs=1e-12)
        assert sy.system_quantile(s, 0.5) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("s", [series([0.0, 3.0, -1.0], 0.5),
                                   series([1.0, 1.0, 1.0], 2.0),
                                   parallel([0.0, 1.5, -2.0], 2.0)])
    def test_roundtrip(self, s):
        lo = np.geomspace(1e-10, 0.5, 60)
        us = np.concatenate([lo, 1 - lo[::-1]])
        qs = sy.system_quantiles(s, us)
        assert np.abs(sy.system_cdf(s, qs) - us).max() < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            sy.system_quantile(series([0.0]), 0.0)
        with pytest.raises(DomainError):
            sy.system_quantile(series([0.0]), 1.0)


class TestGrid:
    def test_count_and_monotone(self):
        g = sy.make_grid(series([0.0, 1.0]), series([0.5, 0.5]), 33)
        assert g.count == 33 and len(g.points) == 33
        assert (np.diff(g.points) > 0).all()

    def test_standard_window_endpoints(self):
        s = parallel([0.0])
        g = sy.make_grid(s, s, 65)
        # closed-form component quantiles are the oracle for the window
        expect_lo = -math.log(-math.log(1e-8))
        expect_hi = -math.log(-math.log(1 - 1e-8))
        assert g.points[0] == pytest.approx(expect_lo, abs=1e-9)
        assert g.points[-1] == pytest.approx(expect_hi, abs=1e-9)
        assert g.points[0] == pytest.approx(-2.9134739869277917, abs=1e-10)
        assert g.points[-1] == pytest.approx(18.420680733927608, abs=1e-9)

    def test_identical_systems_symmetric_window(self):
        a = series([0.7, -0.7])
        g = sy.make_grid(a, a, 41)
        assert g.points[0] == pytest.approx(sy.system_quantile(a, 1e-8), abs=1e-9)
        assert g.points[-1] == pytest.approx(sy.system_quantile(a, 1 - 1e-8), abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            sy.make_grid(series([0.0]), series([0.0]), 32)

    def test_grid_immutable(self):
        g = sy.make_grid(series([0.0]), series([0.0]), 33)
        with pytest.raises(ValueError):
            g.points[0] = 0.0
