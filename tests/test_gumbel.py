"""The Gumbel law of one component, as the one-component parallel system."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import gumbel_r, kstest

from gumbelsys import DomainError
from gumbelsys import systems as sy
from gumbelsys.simulate import sample_system

from conftest import parallel
from test_systems import _ref_log1mexp

E1 = math.exp(-1.0)
EULER_GAMMA = 0.5772156649015328  # quadrature of x*pdf for Gumbel(0,1)


class TestCdf:
    def test_at_location(self):
        assert sy.system_cdf(parallel([0], 1), 0.0) == pytest.approx(E1, rel=1e-14)

    def test_upper_limit(self):
        assert sy.system_cdf(parallel([0], 1), 1e6) == 1.0

    def test_location_scale_invariance(self):
        assert sy.system_cdf(parallel([2], 0.5), 2.0) == pytest.approx(E1, rel=1e-14)

    def test_location_scale_exact(self):
        p = parallel([1.7], 0.3)
        std = parallel([0.0], 1.0)
        xs = np.linspace(-2, 8, 41)
        assert np.array_equal(sy.system_cdf(std, (xs - p.mus[0]) / p.sigma), sy.system_cdf(p, xs))

    def test_strictly_increasing_on_grid(self):
        p = parallel([0.4], 1.3)
        xs = np.linspace(sy.system_quantiles(p, 1e-10), sy.system_quantiles(p, 1 - 1e-10), 500)
        assert (np.diff(sy.system_cdf(p, xs)) > 0).all()

    def test_nonfinite_x_rejected(self):
        with pytest.raises(DomainError):
            sy.system_cdf(parallel([0], 1), np.nan)
        with pytest.raises(DomainError):
            sy.system_pdf(parallel([0], 1), np.inf)

    def test_log_space_tails_no_underflow(self):
        p = parallel([0], 1)
        assert sy.system_log_cdf(p, -30.0) == pytest.approx(-math.exp(30), rel=1e-13)
        assert np.isfinite(sy.system_log_pdf(p, -700.0)) or sy.system_log_pdf(p, -700.0) == -np.inf


class TestPdf:
    def test_at_location(self):
        assert sy.system_pdf(parallel([0], 1), 0.0) == pytest.approx(E1, rel=1e-14)

    def test_normalization(self):
        val, _ = quad(lambda x: float(sy.system_pdf(parallel([0], 1), x)), -15, 40,
                      epsabs=1e-13, epsrel=1e-11, limit=300)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_scale_factor(self):
        assert sy.system_pdf(parallel([0], 2), 0.0) == pytest.approx(E1 / 2, rel=1e-14)

    def test_matches_scipy(self):
        p = parallel([0.8], 1.7)
        xs = np.linspace(-5, 15, 101)
        np.testing.assert_allclose(sy.system_pdf(p, xs),
                                   gumbel_r.pdf(xs, loc=0.8, scale=1.7), rtol=1e-12)


class TestRates:
    def test_reversed_hazard_at_location(self):
        assert sy.system_reversed_hazard(parallel([0], 1), 0.0) == 1.0

    def test_hazard_far_tails(self):
        # 0 where w overflows, 1/sigma where it underflows
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(sy.system_hazard(parallel([0], 1), [-800.0, 800.0]),
                                          [0.0, 1.0])
            np.testing.assert_array_equal(sy.system_hazard(parallel([3], 2), [-1597.0, 1603.0]),
                                          [0.0, 0.5])

    def test_reversed_hazard_far_left_is_inf(self):
        with np.errstate(all="raise"):
            assert sy.system_reversed_hazard(parallel([0], 1e-3), -0.8) == np.inf

    def test_log_survival_far_right_tail(self):
        # log(1 - F) = log w = -z once w = exp(-z) underflows
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(sy.system_log_survival(parallel([0], 1), [800.0, 1e4]),
                                          [-800.0, -1e4])
            assert sy.system_log_survival(parallel([3], 2), 1603.0) == -800.0
        # where w does not underflow, the value is the plain log1mexp(w), here
        # from the reference written apart from the package's term steps
        xs = np.linspace(-30.0, 700.0, 731)
        np.testing.assert_array_equal(sy.system_log_survival(parallel([0], 1), xs),
                                      _ref_log1mexp(np.exp(-xs)))

    def test_log_survival_where_w_is_subnormal(self):
        # from about 708 to 745 sigma right of the location w = exp(-z) is
        # subnormal, too coarse for log(1 - exp(-w)); log w = -z is exact
        zs = np.linspace(709.0, 745.0, 37)
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(sy.system_log_survival(parallel([0], 1), zs), -zs)
            np.testing.assert_array_equal(sy.system_log_survival(parallel([3], 2), 3 + 2 * zs), -zs)

    def test_hazard_at_location(self):
        expect = E1 / (1 - E1)
        assert sy.system_hazard(parallel([0], 1), 0.0) == pytest.approx(expect, rel=1e-13)

    def test_survival_at_location(self):
        assert sy.system_survival(parallel([0], 1), 0.0) == pytest.approx(1 - E1, rel=1e-14)

    def test_survival_precise_in_right_tail(self):
        # deep right: survival ~ w = exp(-x); a naive 1 - exp(-w) complement
        # would keep only a few digits, the expm1 form keeps them all
        p = parallel([0], 1)
        w = math.exp(-30.0)
        assert sy.system_survival(p, 30.0) == pytest.approx(w * (1 - w / 2), rel=1e-13)

    def test_survival_complement_mid_range(self):
        p = parallel([0], 1)
        assert sy.system_survival(p, -2.0) == pytest.approx(1 - math.exp(-math.exp(2.0)), rel=1e-14)

    @given(st.floats(-8, 25), st.floats(-2, 2), st.floats(0.25, 4))
    @settings(max_examples=80, deadline=None)
    def test_pdf_factorizations(self, x, mu, sigma):
        p = parallel([mu], sigma)
        f = float(sy.system_pdf(p, x))
        hz_sv = float(sy.system_hazard(p, x)) * float(sy.system_survival(p, x))
        rh_cdf = float(sy.system_reversed_hazard(p, x)) * float(sy.system_cdf(p, x))
        if f > 1e-300:
            assert hz_sv == pytest.approx(f, rel=1e-12)
            assert rh_cdf == pytest.approx(f, rel=1e-12)


class TestQuantile:
    def test_standard_values(self):
        p = parallel([0], 1)
        assert sy.system_quantiles(p, E1) == pytest.approx(0.0, abs=1e-15)
        assert sy.system_quantiles(parallel([3], 1), E1) == pytest.approx(3.0, abs=1e-14)
        assert sy.system_quantiles(p, math.exp(-math.e)) == pytest.approx(-1.0, rel=1e-14)

    def test_roundtrip_geometric_grid(self):
        p = parallel([0.3], 0.8)
        lo = np.geomspace(1e-10, 0.5, 200)
        us = np.concatenate([lo, 1 - lo[::-1]])
        back = sy.system_cdf(p, sy.system_quantiles(p, us))
        assert np.all(np.abs(back - us) < 1e-12 * np.maximum(us, 1e-12))

    def test_domain(self):
        p = parallel([0], 1)
        for bad in (0.0, 1.0, -0.1, 1.1, np.nan):
            with pytest.raises(DomainError):
                sy.system_quantiles(p, bad)


class TestSampling:
    def test_deterministic(self):
        p = parallel([0], 1)
        a = sample_system(p, 7, 1000, label="s")
        b = sample_system(p, 7, 1000, label="s")
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        p = parallel([0], 1)
        a = sample_system(p, 7, 1000, label="s1")
        b = sample_system(p, 7, 1000, label="s2")
        assert not np.array_equal(a, b)

    def test_zero_draws_rejected(self):
        with pytest.raises(DomainError):
            sample_system(parallel([0], 1), 1, 0)

    def test_mean_matches_quadrature_oracle(self):
        xs = sample_system(parallel([0], 1), 1234, 10**6, label="mean-test")
        band = 4 * (math.pi / math.sqrt(6)) / 1e3
        assert abs(xs.mean() - EULER_GAMMA) < band

    def test_empirical_cdf_at_zero(self):
        xs = sample_system(parallel([0], 1), 1234, 10**6, label="mean-test")
        phat = (xs <= 0.0).mean()
        band = 3 * math.sqrt(E1 * (1 - E1) / 1e6)
        assert abs(phat - E1) < band

    def test_kolmogorov_smirnov_band(self):
        xs = sample_system(parallel([0], 1), 1234, 10**6, label="mean-test")
        assert kstest(xs, gumbel_r.cdf).pvalue > 0.01
