import math
import re
import sys
import threading
import warnings
from itertools import product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp

from gumbelsys import DomainError, SystemModel, Topology, UsageError
from gumbelsys import systems as sy
from gumbelsys.majorization import random_majorization_pair
from gumbelsys.entropy import QuadratureSpec
from gumbelsys.orders import implication_audit, make_p_grid
from gumbelsys.rng import stream

from conftest import golden_pairs, parallel, series

E1 = math.exp(-1.0)


class TestParallel:
    def test_cdf_two_equal(self):
        assert sy.system_cdf(parallel([0, 0]), 0.0) == pytest.approx(math.exp(-2), rel=1e-14)

    def test_cdf_single_reduces(self):
        assert sy.system_cdf(parallel([0]), 0.0) == pytest.approx(E1, rel=1e-14)

    def test_cdf_mixed(self):
        expect = math.exp(-(1 + math.e))
        assert sy.system_cdf(parallel([0, 1]), 0.0) == pytest.approx(expect, rel=1e-14)

    def test_pdf_single(self):
        assert sy.system_pdf(parallel([0]), 0.0) == pytest.approx(E1, rel=1e-14)

    def test_pdf_two_equal(self):
        assert sy.system_pdf(parallel([0, 0]), 0.0) == pytest.approx(2 * math.exp(-2), rel=1e-14)

    def test_pdf_integrates_to_one(self):
        s = parallel([0, 1, 2])
        lo = sy.system_quantiles(s, 1e-12)
        hi = sy.system_quantiles(s, 1 - 1e-12)
        val, _ = quad(lambda x: float(sy.system_pdf(s, x)), lo, hi,
                      epsabs=1e-13, epsrel=1e-11, limit=500)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_reversed_hazard_values(self):
        assert sy.system_reversed_hazard(parallel([0, 0]), 0.0) == pytest.approx(2.0, rel=1e-14)
        assert sy.system_reversed_hazard(parallel([0], 2.0), 0.0) == pytest.approx(0.5, rel=1e-14)
        expect = math.e + math.exp(-1)
        assert sy.system_reversed_hazard(parallel([1, -1]), 0.0) == pytest.approx(expect, rel=1e-14)

    def test_reversed_hazard_is_component_sum(self):
        s = parallel([0.5, -1.0, 2.0], 0.7)
        xs = np.linspace(-4, 10, 61)
        total = sum(sy.system_reversed_hazard(parallel([m], s.sigma), xs) for m in s.mus)
        np.testing.assert_allclose(sy.system_reversed_hazard(s, xs), total, rtol=1e-12)

    def test_location_beyond_doubles_is_an_error(self):
        # L = 1.7e308 * (1 + log 2) overflows
        s = parallel([1.7e308, 1.7e308], 1.7e308)
        for f in ("system_cdf", "system_log_survival", "system_quantiles"):
            with pytest.raises(DomainError, match="location overflows"):
                getattr(sy, f)(s, 0.5)

    def test_location_where_the_difference_overflows(self):
        # mu_2 - mu_1 = -2.5e308 overflows while (mu_2 - mu_1)/sigma = -25
        # does not; L = 1e308 + 1e307 * log1p(exp(-25)) used to read 1e308,
        # 1.4e-12 low (reference from mpmath at 40 digits)
        s = parallel([1e308, -1.5e308], 1e307)
        assert sy._location(s) == pytest.approx(1.0000000000013888054e308, rel=1e-15)


class TestSeries:
    def test_survival_single(self):
        assert sy.system_survival(series([0]), 0.0) == pytest.approx(1 - E1, rel=1e-14)

    def test_survival_two_equal(self):
        assert sy.system_survival(series([0, 0]), 0.0) == pytest.approx((1 - E1) ** 2, rel=1e-14)

    def test_survival_lower_limit(self):
        assert sy.system_survival(series([0]), -40.0) == 1.0

    def test_hazard_values(self):
        assert sy.system_hazard(series([0]), 0.0) == pytest.approx(1 / (math.e - 1), rel=1e-13)
        assert sy.system_hazard(series([0, 0]), 0.0) == pytest.approx(2 / (math.e - 1), rel=1e-13)

    def test_hazard_upper_limit(self):
        # phi(t) -> 1 as t -> 0, so the hazard tends to n/sigma
        assert sy.system_hazard(series([0]), 40.0) == pytest.approx(1.0, rel=1e-12)

    def test_hazard_is_component_sum(self):
        s = series([0.5, -1.0, 2.0], 0.7)
        xs = np.linspace(-4, 10, 61)
        total = sum(sy.system_hazard(parallel([m], s.sigma), xs) for m in s.mus)
        np.testing.assert_allclose(sy.system_hazard(s, xs), total, rtol=1e-12)

    def test_hazard_matches_log_survival_slope(self):
        s = series([1.0, -0.5, 0.3], 0.8)
        grid = sy.make_grid(s, s, 201)
        xs = grid[40:-40]
        h = 1e-5
        slope = -(sy.system_log_survival(s, xs + h) - sy.system_log_survival(s, xs - h)) / (2 * h)
        np.testing.assert_allclose(sy.system_hazard(s, xs), slope, rtol=1e-6)


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
        xs = grid
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

    @pytest.mark.parametrize("s", [series([0.4, -1.2, 2.0]), parallel([0.4, -1.2])])
    def test_quantiles_keep_the_shape_of_their_probabilities(self, s):
        # a (2, 2) array came back flat, shaped (4,)
        ps = np.array([[0.1, 0.2], [0.7, 0.9]])
        q = sy.system_quantiles(s, ps)
        assert q.shape == (2, 2)
        np.testing.assert_array_equal(q.ravel(), sy.system_quantiles(s, ps.ravel()))
        assert np.ndim(sy.system_quantiles(s, 0.5)) == 0

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
        # where exp(log w) is a normal double (here x < 494), the result is
        # the reference log1mexp(w) bit for bit: summed over the components of
        # a series system, and of the one Gumbel(L, sigma) that a parallel
        # system is
        xs = np.linspace(-30.0, 490.0, 1041)
        logw = (np.asarray(s.mus) - xs[:, None]) / s.sigma
        if s.topology is Topology.PARALLEL:
            loc = sy._location(s)
            old = _ref_log1mexp(np.exp(-(xs - loc) / s.sigma))
            # (L - x)/sigma is the log of sum_i w_i up to rounding
            near = np.linspace(-50.0, 50.0, 2001) * s.sigma
            log_sum = logsumexp((np.asarray(s.mus) - near[:, None]) / s.sigma, axis=-1)
            np.testing.assert_allclose((loc - near) / s.sigma, log_sum,
                                       rtol=4e-15, atol=4e-15)
        else:
            old = _ref_log1mexp(np.exp(logw)).sum(axis=-1)
        assert np.isfinite(old).all()
        np.testing.assert_array_equal(sy.system_log_survival(s, xs), old)


class TestOneComponent:
    """A one-component system of either topology is the Gumbel law itself:
    the series kernel at n = 1 matches the parallel closed form."""

    @given(st.floats(-1e3, 1e3), st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_series_parallel_and_gumbel_agree(self, mu, log_sigma):
        sigma = 10.0 ** log_sigma
        # left of -6 sigma the series log survival is subnormal or rounds to 0;
        # from 708 sigma on, w is subnormal and then 0, and so are the
        # survival, the density and the reversed hazard, which then hold a
        # few subnormal steps of absolute precision only
        xs = mu + sigma * np.linspace(-6.0, 800.0, 1613)
        for f in _FUNCS:
            want = getattr(sy, f)(parallel([mu], sigma), xs)
            np.testing.assert_allclose(getattr(sy, f)(series([mu], sigma), xs), want,
                                       rtol=1e-12, atol=4 * np.finfo(float).smallest_subnormal,
                                       err_msg=f)


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
        assert np.all(sy.system_survival(lifted_s, xs) >= sy.system_survival(base_s, xs))
        base_p = parallel([0.5, -0.5])
        lifted_p = parallel([0.5, 0.0])
        assert np.all(sy.system_cdf(lifted_p, xs) <= sy.system_cdf(base_p, xs))

    def test_parallel_reversed_hazard_increasing_in_location(self):
        xs = np.linspace(-4, 8, 80)
        lo = sy.system_reversed_hazard(parallel([0.5, -0.5]), xs)
        hi = sy.system_reversed_hazard(parallel([0.5, 0.0]), xs)
        assert np.all(hi >= lo)

    def test_series_hazard_decreasing_in_location(self):
        xs = np.linspace(-4, 8, 80)
        lo = sy.system_hazard(series([0.5, 0.0]), xs)
        hi = sy.system_hazard(series([0.5, -0.5]), xs)
        assert np.all(hi >= lo)

    def test_validation(self):
        with pytest.raises(DomainError):
            SystemModel(Topology.SERIES, (), 1.0)
        # a subnormal sigma, whose half rounds to 0, ended a parallel pair in
        # ZeroDivisionError and made a series cdf NaN
        tiny = np.finfo(float).tiny
        for sigma in (0.0, -1.0, np.nan, 5e-324, np.nextafter(tiny, 0.0)):
            with pytest.raises(DomainError):
                SystemModel(Topology.SERIES, (0.0,), sigma)
        assert SystemModel(Topology.PARALLEL, (0.0, 1.0), tiny).sigma == tiny
        with pytest.raises(DomainError):
            SystemModel(Topology.SERIES, (np.inf,), 1.0)
        with pytest.raises(DomainError):
            SystemModel(Topology.SERIES, tuple(range(65)), 1.0)
        with pytest.raises(UsageError):
            SystemModel("series", (0.0,), 1.0)


class TestQuantiles:
    def test_single_reduces_to_component(self):
        s = parallel([0.0])
        assert sy.system_quantiles(s, E1) == pytest.approx(0.0, abs=1e-14)

    def test_parallel_two_equal(self):
        assert sy.system_quantiles(parallel([0, 0]), math.exp(-2)) == pytest.approx(0.0, abs=1e-12)

    def test_series_median_matches_bisection_oracle(self):
        s = series([0.0, 3.0])
        # independent oracle: plain bisection on the survival product
        lo, hi = -20.0, 20.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 - float(sy.system_survival(s, mid)) < 0.5:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(0.36651162394615744, abs=1e-12)
        assert sy.system_quantiles(s, 0.5) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("s", [series([0.0, 3.0, -1.0], 0.5),
                                   series([1.0, 1.0, 1.0], 2.0),
                                   parallel([0.0, 1.5, -2.0], 2.0)])
    def test_roundtrip(self, s):
        lo = np.geomspace(1e-10, 0.5, 60)
        us = np.concatenate([lo, 1 - lo[::-1]])
        qs = sy.system_quantiles(s, us)
        assert np.abs(sy.system_cdf(s, qs) - us).max() < 1e-11

    @pytest.mark.parametrize("n", [2, 64])
    @pytest.mark.parametrize("sigma", [1e-3, 1e3])
    def test_solver_edges(self, sigma, n):
        s = _spread_system(Topology.SERIES, n, sigma)
        us = np.array([5e-324, 1e-300, 1e-8, 1.0 - 2.0**-53])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qs = sy.system_quantiles(s, us)
        assert np.isfinite(qs).all() and (np.diff(qs) >= 0).all()

    def test_domain(self):
        with pytest.raises(DomainError):
            sy.system_quantiles(series([0.0]), 0.0)
        with pytest.raises(DomainError):
            sy.system_quantiles(series([0.0]), 1.0)


class TestGrid:
    def test_count_and_monotone(self):
        g = sy.make_grid(series([0.0, 1.0]), series([0.5, 0.5]), 33)
        assert g.size == 33 and len(g) == 33
        assert (np.diff(g) > 0).all()

    def test_standard_window_endpoints(self):
        s = parallel([0.0])
        g = sy.make_grid(s, s, 65)
        # closed-form component quantiles are the oracle for the window
        expect_lo = -math.log(-math.log(1e-8))
        expect_hi = -math.log(-math.log(1 - 1e-8))
        assert g[0] == pytest.approx(expect_lo, abs=1e-9)
        assert g[-1] == pytest.approx(expect_hi, abs=1e-9)
        assert g[0] == pytest.approx(-2.9134739869277917, abs=1e-10)
        assert g[-1] == pytest.approx(18.420680733927608, abs=1e-9)

    def test_identical_systems_symmetric_window(self):
        a = series([0.7, -0.7])
        g = sy.make_grid(a, a, 41)
        assert g[0] == pytest.approx(sy.system_quantiles(a, 1e-8), abs=1e-9)
        assert g[-1] == pytest.approx(sy.system_quantiles(a, 1 - 1e-8), abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            sy.make_grid(series([0.0]), series([0.0]), 32)

    def test_tail_cutoff_outside_its_range(self):
        with pytest.raises(DomainError, match=r"^tail_cutoff must lie in \(0, 0.5\), got 0.7$"):
            sy.make_grid(series([0.0]), series([0.0]), 33, tail_cutoff=0.7)

    @pytest.mark.parametrize("s,window", [
        (series([1e308, 1e308], 1e307),
         "[7.049587951916412e+307, inf] from Q(1e-08) to Q(0.99999999) has an end beyond "
         "the doubles"),
        (parallel([1e308], 1e307),
         "[7.086526013072208e+307, inf] from Q(1e-08) to Q(0.99999999) has an end beyond "
         "the doubles"),
        (series([-1e308], 1e307),
         "[-1.2913473986927792e+308, 8.420680733927608e+307] from Q(1e-08) to "
         "Q(0.99999999) is wider than the largest double"),
        (series([1e17, 1e17], 1e-3),
         "[1e+17, 1e+17] from Q(1e-08) to Q(0.99999999) holds too few doubles for 33 "
         "points"),
    ], ids=["series-beyond", "parallel-top", "series-bottom", "collapsed"])
    def test_window_beyond_doubles_is_an_error(self, s, window):
        # at sigma = 1e307 the top quantile lies beyond the doubles (1.921e308
        # for the series pair), or the window is wider than the largest
        # double; at 1e17 the window, about 21 sigma = 0.021 wide, is far
        # below one ulp (16) there and collapses onto one double.  Each is one
        # DomainError naming the window and its probabilities: no
        # RuntimeWarning escapes (pyproject makes them errors)
        with pytest.raises(DomainError, match=re.escape(f"the window {window}") + "$"):
            sy.make_grid(s, s, 33)

    @pytest.mark.parametrize("sigma", [1.0, 5.0, 20.0])
    def test_window_narrower_than_its_points_is_an_error(self, sigma):
        # the window has width, 1 to 13 ulps of 16 at 1e17, but too few
        # doubles for 33 strictly increasing points; at sigma = 40 they fit
        s = parallel([1e17], sigma)
        window = (r"the window \[[.\de+]+, [.\de+]+\] from Q\(1e-08\) to "
                  r"Q\(0\.99999999\) holds too few doubles for 33 points$")
        with pytest.raises(DomainError, match=window):
            sy.make_grid(s, s, 33)
        wide = parallel([1e17], 40.0)
        assert (np.diff(sy.make_grid(wide, wide, 33)) > 0).all()

    @pytest.mark.parametrize("mus,top", [((1e308, 0.0), 1.4206620667486286e308),
                                         ((1e308, 5e307, 0.0), 1.1085118648546258e308)],
                             ids=["series-top", "series-top-3"])
    def test_window_at_the_top_of_the_doubles(self, mus, top):
        # the Newton start, the quantile of the smallest location alone, lies
        # beyond the doubles, and the window used to be an error; the top is
        # a bisection on the survival product in mpmath at 200 bits
        s = series(mus, 1e307)
        g = sy.make_grid(s, s, 33)
        assert g[0] == sy.system_quantiles(s, 1e-8) == -2.913473986927792e307
        assert g[-1] == pytest.approx(top, rel=1e-15)

    def test_grid_immutable(self):
        g = sy.make_grid(series([0.0]), series([0.0]), 33)
        with pytest.raises(ValueError):
            g[0] = 0.0


# -- reference compositions: the separate passes the fused kernel replaced ----

def _ref_log1mexp(w):
    """log(1 - exp(-w)) in its clamped two-branch form."""
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        small = np.log(-np.expm1(-np.minimum(w, 0.6931471805599453)))
        large = np.log1p(-np.exp(-np.maximum(w, 0.6931471805599453)))
    return np.where(w <= 0.6931471805599453, small, large)


def _ref_phi(w):
    """phi(w) = w/(e^w - 1) with the series below 1e-5 and 0 at w = inf."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        tiny = 1.0 - w / 2.0 + w * w / 12.0
        safe = np.where((w < 1e-5) | np.isposinf(w), 1.0, w)
        main = safe * np.exp(-safe) / (-np.expm1(-safe))
    return np.where(np.isposinf(w), 0.0, np.where(w < 1e-5, tiny, main))


def _ref_series(s, xs):
    """Series log survival and hazard, each from its own pass over log w."""
    logw = (np.asarray(s.mus) - np.asarray(xs)[..., None]) / s.sigma
    with np.errstate(over="ignore", under="ignore"):
        w = np.exp(logw)
    # log w in place of log(1 - exp(-w)) wherever w is below the normal range
    terms = np.where(w < np.finfo(float).tiny, logw, _ref_log1mexp(w))
    log_sf = terms.sum(axis=-1)
    return log_sf, _ref_phi(w).sum(axis=-1) / s.sigma


#: the branch ends of the term formulas: the subnormal range, the series
#: below 1e-5, the ln 2 switch, exp(-w) going subnormal and then 0, and inf
_EDGE_W = {f"w={float(w)!r}": w for w in (
    0.0, 5e-324, 1e-310, np.nextafter(1e-5, 0.0), 1e-5, np.nextafter(1e-5, 1.0),
    np.nextafter(math.log(2.0), 0.0), math.log(2.0), np.nextafter(math.log(2.0), 1.0),
    745.2, 800.0, np.inf)}

_FUNCS = ("system_cdf", "system_pdf", "system_survival", "system_hazard",
          "system_reversed_hazard", "system_log_cdf", "system_log_pdf",
          "system_log_survival")
_TOPOLOGIES = (Topology.SERIES, Topology.PARALLEL)


def _spread_system(topology, n, sigma=1.0, seed=3):
    mus = np.random.default_rng(seed + n).normal(0.0, 1.5 * sigma, n)
    return SystemModel(topology, tuple(mus), sigma)


class TestFusedKernel:
    """The one-pass blocked kernel equals the separate compositions bit for bit."""

    @pytest.mark.parametrize("n,sigma", [(1, 1.0), (2, 0.5), (5, 2.0), (64, 1.0)])
    def test_series_log_survival_and_hazard(self, n, sigma):
        s = _spread_system(Topology.SERIES, n, sigma)
        xs = np.concatenate([sy.make_grid(s, s, 2049),
                             sigma * np.linspace(-740.0, 900.0, 331)])
        log_sf, rate = _ref_series(s, xs)
        np.testing.assert_array_equal(sy.system_log_survival(s, xs), log_sf)
        np.testing.assert_array_equal(sy.system_hazard(s, xs), rate)
        with np.errstate(divide="ignore"):
            expect = np.log(rate) + log_sf
        np.testing.assert_array_equal(sy.system_log_pdf(s, xs), expect)

    @pytest.mark.parametrize("x", [-3.0, 0.25, 17.0, 800.0, *_EDGE_W])
    def test_phi_and_log1mexp_match_reference(self, x):
        if x in _EDGE_W:  # one branch end, alone, as a scalar and among others
            w = np.array([_EDGE_W[x], _EDGE_W[x], 1.0, 1e-7])
        else:
            s = _spread_system(Topology.SERIES, 7)
            w = np.exp((np.asarray(s.mus) - x) / s.sigma)
        for f, ref in ((sy.phi, _ref_phi), (sy._log1mexp, _ref_log1mexp)):
            want = ref(w).view(np.int64)  # as int64, so that the sign of a zero counts
            np.testing.assert_array_equal(f(w).view(np.int64), want)
            np.testing.assert_array_equal(np.asarray(f(w[0])).view(np.int64), want[0])

    # n = 9 and 64 reach _row_sums' 8-accumulator branch, where numpy's own
    # reduce would sum a one-point pass pairwise and move its bits
    @pytest.mark.parametrize("n", [5, 9, 64])
    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_blocks_match_per_point_calls(self, topology, n, monkeypatch):
        s = _spread_system(topology, n)
        xs = np.linspace(-6.0, 12.0, 203)
        whole = {f: getattr(sy, f)(s, xs) for f in _FUNCS}
        monkeypatch.setattr(sy, "_BLOCK_TERMS", 64)  # about 64 / n points a block
        for f in _FUNCS:
            fn = getattr(sy, f)
            np.testing.assert_array_equal(fn(s, xs), whole[f])
            np.testing.assert_array_equal([fn(s, float(x)) for x in xs], whole[f])

    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_blocking_does_not_change_a_bit(self, topology, monkeypatch):
        s = _spread_system(topology, 64)
        xs = sy.make_grid(s, s, 2049).copy()  # writeable: the memo does not answer
        blocked = {f: getattr(sy, f)(s, xs) for f in _FUNCS}
        monkeypatch.setattr(sy, "_BLOCK_TERMS", 10**9)
        for f in _FUNCS:
            np.testing.assert_array_equal(getattr(sy, f)(s, xs), blocked[f])

    def test_shapes_follow_x(self):
        s = _spread_system(Topology.SERIES, 3)
        for f in _FUNCS:
            fn = getattr(sy, f)
            assert np.ndim(fn(s, 0.5)) == 0
            assert fn(s, np.zeros((4, 3))).shape == (4, 3)
            assert fn(s, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_batched_quantiles_match_scalar(self, n):
        s = _spread_system(Topology.SERIES, n, 0.7)
        us = np.concatenate([[1e-8, 1.0 - 1e-8], np.geomspace(1e-10, 0.5, 40),
                             1.0 - np.geomspace(1e-10, 0.5, 40)])
        batched = sy.system_quantiles(s, us)
        np.testing.assert_array_equal(batched, [sy.system_quantiles(s, u) for u in us])

    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_make_grid_matches_scalar_quantiles(self, topology):
        a, b = _spread_system(topology, 4, seed=1), _spread_system(topology, 4, seed=2)
        lo = min(sy.system_quantiles(a, 1e-8), sy.system_quantiles(b, 1e-8))
        hi = max(sy.system_quantiles(a, 1 - 1e-8), sy.system_quantiles(b, 1 - 1e-8))
        np.testing.assert_array_equal(sy.make_grid(a, b), np.linspace(lo, hi, 2049))

    @pytest.mark.parametrize("topology", _TOPOLOGIES, ids=["series", "parallel"])
    def test_joint_log_pdf_and_survival(self, topology):
        s = _spread_system(topology, 6)
        xs = np.linspace(-5.0, 40.0, 301)
        lp, ls = sy._log_pdf_and_survival(s, xs)
        np.testing.assert_array_equal(lp, sy.system_log_pdf(s, xs))
        np.testing.assert_array_equal(ls, sy.system_log_survival(s, xs))


class TestComponentMajor:
    """The component-major kernel: its sums keep the bits of numpy's row-major
    ``add.reduce``, so a numpy whose reduction order differs fails here."""

    @pytest.mark.parametrize("n", range(1, sy.MAX_COMPONENTS + 1))
    def test_row_sums_match_numpy_reduce(self, n):
        rng = np.random.default_rng(n)
        t = rng.normal(size=(n, 40)) * 10.0 ** rng.uniform(-20.0, 20.0, (n, 40))
        t[rng.random((n, 40)) < 0.2] = 0.0
        t[rng.random((n, 40)) < 0.2] = -0.0
        t[:, 0], t[:, 1], t[0, 2] = -0.0, 0.0, -0.0
        # the kernel sums its two sets of terms as one (2, n, rows) array
        stacked = sy._row_sums(np.stack([t, -t]))
        for u, got in zip((t, -t), stacked):
            want = np.ascontiguousarray(u.T).sum(-1).view(np.int64)
            np.testing.assert_array_equal(sy._row_sums(u).view(np.int64), want)
            np.testing.assert_array_equal(got.view(np.int64), want)

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_far_components_match_reference(self, n):
        # a block leaves out the leading components with w > 750 at all its points
        s = SystemModel(Topology.SERIES, tuple(np.linspace(0.0, 3000.0, n)), 1.0)
        xs = np.linspace(-50.0, 3100.0, 4099)
        log_sf, rate = _ref_series(s, xs)
        np.testing.assert_array_equal(sy.system_log_survival(s, xs), log_sf)
        np.testing.assert_array_equal(sy.system_hazard(s, xs), rate)


def _pair(kind):
    """Two systems of each kind of pair one Newton loop solves together."""
    s4 = _spread_system(Topology.SERIES, 4, 0.7, seed=1)
    return {"equal-n": (s4, _spread_system(Topology.SERIES, 4, 0.7, seed=2)),
            "unequal-n": (s4, _spread_system(Topology.SERIES, 7, 0.7, seed=2)),
            "unequal-sigma": (s4, _spread_system(Topology.SERIES, 4, 1.3, seed=2)),
            "series-parallel": (s4, _spread_system(Topology.PARALLEL, 5, 0.7, seed=2)),
            "one-component": (_spread_system(Topology.SERIES, 1, 0.7), s4)}[kind]


_PAIR_KINDS = ["equal-n", "unequal-n", "unequal-sigma", "series-parallel", "one-component"]


class TestPairedNewton:
    """One Newton loop over both systems of a pair changes no bit of either."""

    @pytest.mark.parametrize("kind", _PAIR_KINDS)
    def test_pair_equals_single_solves(self, kind):
        a, b = _pair(kind)
        probs = np.concatenate([[1e-8, 1.0 - 1e-8], make_p_grid()])
        cuts = -np.geomspace(1e-12, 40.0, 50)  # log survival targets, as entropy's
        for targets in ((np.log1p(-probs),) * 2, (cuts, cuts[::3])):
            paired = sy._log_survival_roots((a, b), targets)
            for s, t, (x, passed) in zip((a, b), targets, paired):
                x1, passed1 = sy._log_survival_roots((s,), (t,))[0]
                np.testing.assert_array_equal(x, x1)
                assert (passed is None) == (passed1 is None)
                if passed is not None:
                    for v, v1 in zip(passed, passed1):
                        np.testing.assert_array_equal(v, v1)

    @pytest.mark.parametrize("kind", _PAIR_KINDS)
    def test_grid_equals_single_quantiles(self, kind):
        a, b = _pair(kind)
        (lo_a, hi_a), (lo_b, hi_b) = (sy.system_quantiles(s, [1e-8, 1.0 - 1e-8]) for s in (a, b))
        np.testing.assert_array_equal(sy.make_grid(a, b),
                                      np.linspace(min(lo_a, lo_b), max(hi_a, hi_b), 2049))

    @pytest.mark.parametrize("kind", _PAIR_KINDS)
    def test_disp_densities_are_system_pdf(self, kind):
        a, b = _pair(kind)
        ps = make_p_grid()
        for s, (q, f) in zip((a, b), sy._quantiles_and_pdfs((a, b), ps)):
            np.testing.assert_array_equal(q, sy.system_quantiles(s, ps))
            np.testing.assert_array_equal(f, sy.system_pdf(s, q))

    def test_one_pass_per_step_for_a_pair(self, monkeypatch):
        a, b = _pair("equal-n")
        passes = []
        real = sy._run_rows
        monkeypatch.setattr(sy, "_run_rows", lambda *args: passes.append(len(args[0])) or
                            real(*args))
        sy.make_grid(a, b)
        assert passes and set(passes) == {2}


class TestRightStarts:
    """``(sum_i mu_i - sigma * T)/n`` starts the Newton loop at or right of
    the root of ``T``, since ``log(1 - exp(-w)) <= log w``."""

    def test_right_starts_lie_right_of_each_root(self):
        # the ends of the x and t grids, the p grid, and the default entropy cut
        probs = np.concatenate([[1e-8, 0.001, 0.999, 1.0 - 1e-8], make_p_grid()])
        targets = np.append(np.log1p(-probs), 2.0 * math.log(QuadratureSpec().tail_mass_cutoff))
        for pair in golden_pairs(Topology.SERIES):
            for s in pair:
                x = sy._log_survival_roots((s,), (targets,))[0][0]
                assert (sy._right_starts(s, targets) >= x).all(), s

    @pytest.mark.parametrize("mu", [1.7e308, -1.7e308])
    def test_no_overflow_near_the_largest_double(self, mu):
        # the sum of these locations lies beyond the doubles; its halves over n do not
        s = series([mu] * 63 + [0.5 * mu])
        targets = np.array([-1e-3, -6.9, 2.0 * math.log(1e-12)])
        starts = sy._right_starts(s, targets)
        assert np.isfinite(starts).all()
        assert (starts >= sy._log_survival_roots((s,), (targets,))[0][0]).all()


class TestTailSweep:
    """No NaN and no RuntimeWarning anywhere in x in [-1000 sigma, 1000 sigma]."""

    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_all_functions(self, topology, n, sigma):
        s = _spread_system(topology, n, sigma)
        xs = sigma * np.concatenate([np.linspace(-1000.0, 1000.0, 2001), [-800.0, 800.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in _FUNCS:
                vals = getattr(sy, f)(s, xs)
                assert not np.isnan(vals).any(), f
                assert not np.isnan(getattr(sy, f)(s, -800.0 * sigma)), f

    @pytest.mark.parametrize("sigma", [1e-300, 1e-5, 1.0, 1e300, 1e307])
    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_ends_of_the_double_range(self, topology, sigma):
        # the parallel (x - L)/sigma, the series deep log-cdf branch and the
        # quantile starts used to overflow outside np.errstate, and the
        # parallel log pdf was inf - inf where w overflows
        xs = [0.0, 700.0, -700.0, 1e300, -1e300, 1.7e308, -1.7e308]
        us = np.array([1e-300, 1e-8, 0.5, 1.0 - 1e-8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mus in [(0.0,), (2.0, 0.0, -1.0), (1e308, 0.0), (-1e308,), (1e308, 1e308),
                        (1e308, -1.5e308)]:
                s = SystemModel(topology, mus, sigma)
                for f in _FUNCS:
                    for x in xs:
                        assert not np.isnan(getattr(sy, f)(s, x)), (mus, f, x)
                assert not np.isnan(sy.system_quantiles(s, us)).any(), mus

    @pytest.mark.parametrize("s,u,expect", [
        (series([1e308, 0.0], 1e307), 1.0 - 1e-8, 1.4206620667486286e308),
        (parallel([-1e308], 1e307), 1.0 - 1e-8, 8.420680733927607e307),
        (series([-1e308], 1e307), 1.0 - 1e-8, 8.420680733927607e307),
        (series([-1.7e308, 0.0], 1e307), 1.0 - 1e-8, 5.7642508276629986e306),
        (series([1e308, -1.5e308], 1e307), 1.0 - 1e-8, 3.4206807339276057e307),
        (series([1e308, 1e308], 1e307), 1.0 - 1e-8, np.inf),
        (series([-1.7e308, 0.0], 1e307), 1e-300, -np.inf),
    ], ids=["series-start-beyond", "parallel-product-overflows", "one-component",
            "difference-overflows", "mixed-signs", "series-beyond", "series-below"])
    def test_quantiles_at_the_ends_of_the_double_range(self, s, u, expect):
        # the first five were inf where the quantile is a finite double, and
        # the last two lie beyond the doubles (the last was NaN); the finite
        # references are bisections on the survival product in mpmath at 200
        # bits, at the double nearest u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sy.system_quantiles(s, u)
        assert got == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_log_survival_where_the_difference_overflows(self, topology):
        # x - mu overflows while (x - mu)/sigma = 27 does not; the log
        # survival, -27 - exp(-27)/2, used to be -inf
        s = SystemModel(topology, (-1e308,), 1e307)
        assert sy.system_log_survival(s, 1.7e308) == pytest.approx(-27.0, rel=1e-15)

    def test_deep_left_where_the_difference_overflows(self):
        # mu_i - x overflows while log w_i = (mu_i - x)/sigma = 27 does not;
        # the deep branches of the series log cdf and reversed hazard used to
        # read -inf and inf; references from the survival product in mpmath
        # at 60 digits
        s = series([1e308, 1e308], 1e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_cdf = sy.system_log_cdf(s, -1.7e308)
            rh = sy.system_reversed_hazard(s, -1.7e308)
        assert log_cdf == pytest.approx(-532048240601.10540314, rel=1e-15)
        assert rh == pytest.approx(5.3204824060179855775e-296, rel=1e-14)

    def test_deep_left_series_values(self):
        s = series([2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sy.system_hazard(s, -800.0) == 0.0
            assert sy.system_pdf(s, -800.0) == 0.0
            assert sy.system_log_pdf(s, -800.0) == -np.inf
            assert sy.system_reversed_hazard(s, -800.0) == np.inf
        assert sy.system_reversed_hazard(parallel([2.0, 0.0]), -800.0) == np.inf


def _log_cdf_oracle(s, x):
    """50-digit series log cdf at the double ``log w`` the kernel forms."""
    logw = (np.asarray(s.mus) - x) / s.sigma
    with mp.workdps(50):
        log_sf = mp.fsum(mp.log1p(-mp.exp(-mp.exp(mp.mpf(float(v))))) for v in logw)
        return float(mp.log(-mp.expm1(log_sf)))


class TestDeepLeftLogCdf:
    """Where the series cdf is below the normal range its log survival rounds
    to 0, and the log cdf is log sum_i exp(-w_i), not -inf."""

    def test_pinned_values(self):
        assert sy.system_log_cdf(series([0.0]), -7.0) == pytest.approx(-1096.6331584284585,
                                                                       rel=1e-15)
        assert sy.system_log_cdf(series([2.0, 0.0]), -8.0) == pytest.approx(
            -2980.9579870417283, rel=1e-15)

    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_finite_quiet_and_accurate(self, n, sigma):
        s = _spread_system(Topology.SERIES, n, sigma)
        xs = sigma * np.linspace(-700.0, -6.0, 695)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = sy.system_log_cdf(s, xs)
        assert np.isfinite(vals).all()
        for x, v in zip(xs[::50], vals[::50]):
            assert v == pytest.approx(_log_cdf_oracle(s, x), rel=1e-15), x


class TestGridMemo:
    """Passes over read-only grid points are memoised without changing a bit."""

    @pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [1, 4, 64])
    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_grid_points_match_writeable_copy(self, topology, n, sigma):
        s = _spread_system(topology, n, sigma)
        grid = sy.make_grid(s, _spread_system(topology, n, sigma, seed=4), 2049)
        assert not grid.flags.writeable
        for f in _FUNCS + _FUNCS:  # the second round is served by the memo
            fn = getattr(sy, f)
            np.testing.assert_array_equal(fn(s, grid), fn(s, grid.copy()))

    @pytest.mark.parametrize("topology", [Topology.SERIES])  # the memo serves series only
    def test_one_pass_per_system_and_grid(self, topology):
        s = _spread_system(topology, 4)
        xs = sy.make_grid(s, s, 1025)
        sy._grid_pass.cache_clear()
        for f in _FUNCS:
            getattr(sy, f)(s, xs)
        info = sy._grid_pass.cache_info()
        assert (info.misses, info.hits) == (1, len(_FUNCS) - 1)

    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_results_are_the_callers_own(self, topology):
        s = _spread_system(topology, 5)
        xs = sy.make_grid(s, s, 257)
        for f in _FUNCS:
            fn = getattr(sy, f)
            first = fn(s, xs)
            first[:] = 123.0
            np.testing.assert_array_equal(fn(s, xs), fn(s, xs.copy()))

    def test_memo_stays_within_its_budget(self):
        # an entry holds the abscissae and two results, 24 bytes a point
        assert sy._MEMO_ENTRIES * 24 * sy._MEMO_POINTS <= 768 * 1024
        s = _spread_system(Topology.SERIES, 3)
        for k in range(40):
            sy.system_log_pdf(s, sy.make_grid(s, s, 2049 + k))
            assert 0 < sy._grid_pass.cache_info().currsize <= sy._MEMO_ENTRIES
        assert sy._grid_points.cache_info().currsize == sy._MEMO_ENTRIES
        before, grids = sy._grid_pass.cache_info(), sy._grid_points.cache_info()
        big = sy.make_grid(s, s, sy._MEMO_POINTS + 1)
        np.testing.assert_array_equal(sy.system_log_pdf(s, big),
                                      sy.system_log_pdf(s, big.copy()))
        assert (sy._grid_pass.cache_info(), sy._grid_points.cache_info()) == (before, grids)

    def test_default_grid_is_one_entry(self):
        a, b = _spread_system(Topology.SERIES, 4), _spread_system(Topology.SERIES, 4, seed=4)
        sy._grid_points.cache_clear()
        grid = sy.make_grid(a, b)
        again = sy.make_grid(a, b, 2049, 1e-8)
        assert sy._grid_points.cache_info()[:2] == (1, 1)  # hits, misses
        np.testing.assert_array_equal(grid, again)
        assert np.shares_memory(grid, again)

    def test_memo_grid_cannot_be_made_writeable(self):
        s = _spread_system(Topology.PARALLEL, 3)
        grid = sy.make_grid(s, s)
        with pytest.raises(ValueError, match="WRITEABLE"):
            grid.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0
        assert not sy.make_grid(s, s).flags.writeable

    def test_memo_key_is_the_unordered_pair(self):
        # FIRST_GREATER disp asks for make_grid(b, a), which the FIRST_SMALLER
        # checks' entry answers; an ordered key missed twice here
        a, b = series([2.0, 0.3, -1.0]), series([1.0, 0.5, -0.2])
        sy._grid_points.cache_clear()
        implication_audit(a, b, include_entropy_orders=True)
        assert sy._grid_points.cache_info().misses == 1

    def test_grid_does_not_depend_on_the_order_of_the_pair(self):
        # one Newton loop solves both systems, each target on its own, and
        # the window takes the least and the largest end
        for a, b in golden_pairs():
            assert sy.make_grid(a, b).tobytes() == sy.make_grid(b, a).tobytes()

    @pytest.mark.parametrize("topology", _TOPOLOGIES)
    def test_writeable_inputs_are_never_stored(self, topology):
        s = _spread_system(topology, 4)
        before = sy._grid_pass.cache_info()
        xs = np.linspace(-5.0, 9.0, 2049)
        for f in _FUNCS:
            getattr(sy, f)(s, xs)
            getattr(sy, f)(s, 0.5)
        sy.system_quantiles(s, make_p_grid())
        sy._log_pdf_and_survival(s, xs)
        assert sy._grid_pass.cache_info() == before

    def test_threads_share_the_memo(self):
        systems = [_spread_system(t, n, seed=k) for t in _TOPOLOGIES
                   for n, k in ((2, 1), (6, 2), (16, 3))]
        grids = [sy.make_grid(s, s, 2049 + 97 * k)
                 for k, s in enumerate(systems[:4])]
        want = {(i, j, f): getattr(sy, f)(s, xs.copy())
                for i, s in enumerate(systems) for j, xs in enumerate(grids) for f in _FUNCS}
        wrong = []

        def worker(seed):
            keys = list(want)
            try:
                for k in np.random.default_rng(seed).permutation(len(keys)):
                    i, j, f = keys[k]
                    if not np.array_equal(getattr(sy, f)(systems[i], grids[j]), want[keys[k]]):
                        wrong.append(keys[k])
            except Exception as exc:  # an exception in a thread would only warn
                wrong.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not wrong
        assert sy._grid_pass.cache_info().currsize <= sy._MEMO_ENTRIES


def _x_error(s, x, u):
    """|x - Q(u)| / max(1, |x|) to first order: the 40-digit log survival
    residual at x divided by the hazard there."""
    with mp.workdps(40):
        xm, sigma = mp.mpf(float(x)), mp.mpf(s.sigma)
        log_sf = rate = mp.mpf(0)
        for mu in s.mus:
            w = mp.exp((mp.mpf(mu) - xm) / sigma)
            log_sf += mp.log(-mp.expm1(-w))
            rate += w / mp.expm1(w) / sigma
        resid = log_sf - mp.log1p(-mp.mpf(float(u)))
        return float(abs(resid / rate)) / max(1.0, abs(float(x)))


class TestQuantileTrim:
    """Series quantiles against a 40-digit oracle, and the trim of the done
    probabilities from the Newton passes."""

    _PROBS = np.concatenate([[1e-8], make_p_grid(), [1.0 - 1e-8]])

    @staticmethod
    def _pool(n, sigmas=(0.5, 1.0, 2.0), pool=48):
        """Series systems of the benchmark's rate-sweep pool (bench/workloads.py)."""
        for sigma, k in product(sigmas, range(pool)):
            g = stream(20190501, "rate-sweep", "series", n, sigma, k)
            for mus in random_majorization_pair(g, n):
                yield series(mus, sigma)

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_log_survival_residual_on_rate_sweep_pool(self, n):
        for s in list(self._pool(n))[::48]:
            us = self._PROBS[::16]
            for x, u in zip(sy.system_quantiles(s, us), us):
                assert _x_error(s, x, u) <= 1e-13, (s, u)

    def test_pass_count_on_rate_sweep_pool(self, monkeypatch):
        passes = []
        real = sy._series_rows
        monkeypatch.setattr(sy, "_series_rows", lambda *a: passes.append(1) or real(*a))
        counts = []
        for n in (2, 4, 16, 64):
            for s in list(self._pool(n))[::8]:
                passes.clear()
                sy.system_quantiles(s, self._PROBS)
                counts.append(len(passes))
        assert max(counts) <= 12

    @pytest.mark.parametrize("n", [2, 16])
    def test_unpadded_trim_changes_no_bit(self, n, monkeypatch):
        systems = list(self._pool(n, sigmas=(1.0,), pool=6))
        padded = [sy.system_quantiles(s, self._PROBS) for s in systems]
        monkeypatch.setattr(sy, "_TRIM_ROWS", 1)
        for s, want in zip(systems, padded):
            np.testing.assert_array_equal(sy.system_quantiles(s, self._PROBS), want)


_EPS = 2.0 ** -52


@st.composite
def _system_and_xs(draw):
    """Both topologies, n <= 64, sigma log-uniform in [1e-3, 1e3], locations
    within 3 sigma of 0 and abscissae within 1000 sigma."""
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    units = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=sy.MAX_COMPONENTS))
    s = SystemModel(draw(st.sampled_from(_TOPOLOGIES)), tuple(sigma * u for u in units), sigma)
    xs = sigma * np.array(draw(st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=8)))
    return s, xs


def _assert_equivariant(f, v, w, tol):
    """``w`` matches ``v`` within ``tol`` relative to max(1, |v|) where finite,
    and exactly where not."""
    finite = np.isfinite(v)
    np.testing.assert_array_equal(np.isfinite(w), finite, err_msg=f)
    np.testing.assert_array_equal(w[~finite], v[~finite], err_msg=f)
    err = np.abs(w[finite] - v[finite]) / np.maximum(1.0, np.abs(v[finite]))
    assert (err <= np.broadcast_to(tol, v.shape)[finite]).all(), (f, err)


class TestEquivariance:
    """Shifting locations and abscissae by c shifts nothing; scaling them and
    sigma by k leaves the log survival alone.

    Left out: log cdf and log pdf under scaling, which drift by about
    |log w| ulp, their conditioning; and log pdf and hazard under shifting
    and the hazard under scaling, which break these bounds on parallel
    systems with sigma near 1e-3 and x near 0 (see CHANGES.md)."""

    @pytest.mark.parametrize("f", ["system_log_survival", "system_log_cdf",
                                   "system_reversed_hazard"])
    @given(system_xs=_system_and_xs(), c_units=st.floats(-1000.0, 1000.0))
    @settings(max_examples=150, deadline=None)
    def test_location(self, f, system_xs, c_units):
        s, x = system_xs
        c = s.sigma * c_units
        shifted = SystemModel(s.topology, tuple(m + c for m in s.mus), s.sigma)
        tol = 8 * _EPS * (1.0 + (np.abs(x) + np.abs(x + c)) / s.sigma)
        fn = getattr(sy, f)
        _assert_equivariant(f, fn(s, x), fn(shifted, x + c), tol)

    @given(system_xs=_system_and_xs(), log_k=st.floats(-2.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_scale(self, system_xs, log_k):
        s, x = system_xs
        k = 10.0 ** log_k
        scaled = SystemModel(s.topology, tuple(k * m for m in s.mus), k * s.sigma)
        _assert_equivariant("system_log_survival", sy.system_log_survival(s, x),
                            sy.system_log_survival(scaled, k * x), 16 * _EPS)
