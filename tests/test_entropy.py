import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

import gumbelsys as gs
from gumbelsys import DomainError
from gumbelsys import entropy as en
from gumbelsys import orders as od
from gumbelsys import systems as sy

from conftest import parallel, series

EULER_GAMMA = 0.5772156649015328


class TestShannon:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mu", [0.0, 5.0, -2.5])
    def test_single_component_closed_form(self, sigma, mu):
        e = en.shannon_entropy(parallel([mu], sigma))
        assert e.converged
        assert e.value == pytest.approx(math.log(sigma) + 1 + EULER_GAMMA, abs=1e-8)

    def test_scipy_quadrature_oracle(self):
        # independent route: integrate -f log f with scipy.stats densities
        from scipy.stats import gumbel_r

        def neg_flogf(x):
            f = gumbel_r.pdf(x, loc=0.3, scale=1.4)
            return 0.0 if f <= 0 else -f * math.log(f)

        oracle, _ = quad(neg_flogf, -12, 45, epsabs=1e-13, epsrel=1e-11, limit=400)
        e = en.shannon_entropy(parallel([0.3], 1.4))
        assert e.value == pytest.approx(oracle, abs=1e-9)

    def test_scale_shift(self):
        base = en.shannon_entropy(parallel([0.0], 1.0)).value
        doubled = en.shannon_entropy(parallel([0.0], 2.0)).value
        assert doubled == pytest.approx(base + math.log(2), abs=2e-8)

    def test_location_invariance(self):
        a = en.shannon_entropy(series([0.0, 1.0])).value
        b = en.shannon_entropy(series([5.0, 6.0])).value
        assert a == pytest.approx(b, abs=1e-9)

    def test_self_consistency_under_tighter_tolerance(self):
        s = series([0.7, -0.7], 0.8)
        coarse = en.shannon_entropy(s, en.QuadratureSpec(rel_tol=1e-8))
        fine = en.shannon_entropy(s, en.QuadratureSpec(rel_tol=5e-9))
        assert abs(coarse.value - fine.value) <= max(coarse.error_estimate, 1e-13)


class TestResidual:
    def test_full_support_limit_equals_shannon(self):
        s = series([1.0, 1.0])
        q = en.QuadratureSpec()
        t = sy.system_quantile(s, q.tail_mass_cutoff)
        resid = en.residual_entropy(s, t, q)
        total = en.shannon_entropy(s, q)
        assert resid.value == pytest.approx(total.value, abs=1e-8)

    def test_memoryless_fixture_is_time_free(self, exponential_law):
        lam = 1.7
        law = exponential_law(lam)
        for t in (0.0, 0.5, 1.0, 3.0):
            e = en.residual_entropy(law, t)
            assert e.value == pytest.approx(1 - math.log(lam), abs=1e-9)

    def test_dual_forms_agree_at_median(self):
        s = series([1.0, 1.0])
        t = sy.system_quantile(s, 0.5)
        a, b = en.residual_entropy_forms(s, t)
        assert a.converged and b.converged
        assert abs(a.value - b.value) < 1e-9

    def test_probability_substitution_oracle(self):
        # independent route: integrate log r(Q(p)) over p instead of x
        s = series([0.6, -0.4], 1.2)
        t = sy.system_quantile(s, 0.3)
        sf_t = float(sy.system_survival(s, t))

        def integrand(p):
            x = sy.system_quantile(s, p)
            return math.log(float(sy.system_hazard(s, x)))

        val, _ = quad(integrand, 0.3, 1 - 1e-11, epsabs=1e-11, epsrel=1e-9, limit=400)
        oracle = 1.0 - val / sf_t
        e = en.residual_entropy(s, t)
        assert e.value == pytest.approx(oracle, abs=1e-7)

    def test_location_shift_identity(self):
        base = series([0.5, -0.5])
        shifted = series([2.5, 1.5])
        t = 0.4
        a = en.residual_entropy(base, t).value
        b = en.residual_entropy(shifted, t + 2.0).value
        assert a == pytest.approx(b, abs=1e-9)

    def test_too_deep_rejected(self):
        s = series([0.0])
        with pytest.raises(DomainError):
            en.residual_entropy(s, 200.0)


class TestParallelClosedForm:
    """A parallel system is a Gumbel at loc = sigma * logsumexp(mu / sigma);
    with a = w(t) and S = 1 - exp(-a) its residual entropy is

        H(t) = log S - [-gamma - E1(a) - exp(-a) log a
                        - (1 - exp(-a)(1 + a)) - S log sigma] / S.
    """

    @staticmethod
    def closed_form(s, ts):
        loc = s.sigma * sy.logsumexp(np.asarray(s.mus) / s.sigma)
        a = np.exp(-(ts - loc) / s.sigma)
        surv = -np.expm1(-a)
        inner = (-EULER_GAMMA - exp1(a) - np.exp(-a) * np.log(a)
                 - (1.0 - np.exp(-a) * (1.0 + a)) - surv * math.log(s.sigma))
        return np.log(surv) - inner / surv

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_quadrature_over_t_window(self, n, sigma):
        g = np.random.default_rng([n, int(4 * sigma)])
        s = parallel(g.uniform(-3.0, 3.0, n), sigma)
        ts = od.make_t_grid(s, s)
        values = en.residual_entropy(s, ts)
        assert all(v.converged for v in values)
        got = np.array([v.value for v in values])
        np.testing.assert_allclose(got, self.closed_form(s, ts), rtol=0, atol=1e-10)


class TestEngineContract:
    def test_array_t_matches_scalar_loop(self):
        for s in (series([0.9, -0.4, 0.1], 0.8), parallel([1.0, -1.0], 1.5)):
            ts = od.make_t_grid(s, s, 9)
            batch = en.residual_entropy(s, ts)
            assert isinstance(batch, list) and len(batch) == ts.size
            for t, b in zip(ts, batch):
                one = en.residual_entropy(s, float(t))
                assert isinstance(one, en.EntropyValue)
                assert one.converged and b.converged
                assert b.value == pytest.approx(one.value, abs=1e-12)
            for t, pair in zip(ts, en.residual_entropy_forms(s, ts)):
                for form, one in zip(pair, en.residual_entropy_forms(s, float(t))):
                    assert form.value == pytest.approx(one.value, abs=1e-12)

    def test_curve_marks_non_finite_time(self):
        curve = en.entropy_curve(series([0.0]), np.array([0.0, np.nan, 1.0]))
        assert [e.converged for e in curve] == [True, False, True]
        assert math.isnan(curve[1].value)

    def test_array_with_one_time_past_cutoff_rejected(self):
        with pytest.raises(DomainError):
            en.residual_entropy(series([0.0]), np.array([0.0, 200.0]))

    def test_check_lu_past_cutoff_raises(self):
        a, b = series([1.0, 0.0]), series([0.5, 0.5])
        with pytest.raises(DomainError):
            od.check_lu(a, b, t_grid=np.array([0.0, 1.0, 300.0]))

    def test_duck_typed_law_goes_through_vector_path(self, exponential_law):
        lam = 0.8
        values = en.residual_entropy(exponential_law(lam), np.linspace(0.0, 4.0, 9))
        assert all(v.converged for v in values)
        for v in values:
            assert v.value == pytest.approx(1 - math.log(lam), abs=1e-9)

    def test_refinement_budget_caps_bisections(self, exponential_law):
        # from t < 0 the window holds the density's jump at 0, which keeps
        # failing the panel test until several bisections have isolated it
        law = exponential_law(1.3)
        for budget, converged in ((1, False), (10, False), (2000, True)):
            q = en.QuadratureSpec(max_subdivisions=budget)
            a, b = en.residual_entropy_forms(law, -1.0, q)
            assert a.converged is converged and b.converged is converged
        # a window clear of the jump needs no bisection at all
        q = en.QuadratureSpec(max_subdivisions=1)
        assert all(e.converged for e in en.residual_entropy_forms(law, 0.5, q))


class TestImportHygiene:
    def test_import_loads_no_scipy(self):
        src = str(Path(gs.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, %r); import gumbelsys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))" % src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.strip()
        assert out == "[]"


class TestCurve:
    def test_identical_systems_identical_curves(self):
        s = series([0.3, 0.9])
        ts = np.linspace(-1, 2, 7)
        c1 = en.entropy_curve(s, ts)
        c2 = en.entropy_curve(s, ts)
        assert [e.value for e in c1] == [e.value for e in c2]

    def test_memoryless_curve_constant(self, exponential_law):
        law = exponential_law(2.0)
        vals = [e.value for e in en.entropy_curve(law, np.linspace(0.1, 2.0, 6))]
        assert np.ptp(vals) < 1e-9

    def test_bad_point_does_not_abort(self):
        s = series([0.0])
        ts = np.array([0.0, 500.0, 1.0])  # middle point far beyond the cutoff
        curve = en.entropy_curve(s, ts)
        assert curve[0].converged and curve[2].converged
        assert not curve[1].converged and math.isnan(curve[1].value)

    def test_finite_inside_window(self):
        s = parallel([0.0, 1.0])
        ts = np.linspace(sy.system_quantile(s, 0.001), sy.system_quantile(s, 0.999), 16)
        curve = en.entropy_curve(s, ts)
        assert all(e.converged and math.isfinite(e.value) for e in curve)


class TestSpecValidation:
    def test_rel_tol_bounds(self):
        with pytest.raises(DomainError):
            en.QuadratureSpec(rel_tol=1e-3)
        with pytest.raises(DomainError):
            en.QuadratureSpec(rel_tol=0.0)

    def test_positive_fields(self):
        with pytest.raises(DomainError):
            en.QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            en.QuadratureSpec(tail_mass_cutoff=-1e-12)
        with pytest.raises(DomainError):
            en.QuadratureSpec(max_subdivisions=0)
