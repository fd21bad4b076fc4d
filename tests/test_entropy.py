import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1, logsumexp

import gumbelsys as gs
from gumbelsys import DomainError
from gumbelsys import entropy as en
from gumbelsys import orders as od
from gumbelsys import systems as sy

from conftest import parallel, residual_forms, series

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

    def test_window_of_too_many_panels_rejected(self):
        # a subnormal sigma, whose half rounds to 0 so that no count of panels
        # that wide covers a window, is rejected when the system is built
        with pytest.raises(DomainError, match="at least the smallest normal double"):
            en.shannon_entropy(series([0.0], sigma=5e-324))

    def test_window_without_width_rejected(self):
        # Q(cutoff) and Q(1 - cutoff) round to one double, where a zero-width
        # panel gave -0.0 flagged as converged
        s = series([1.6104411864331818e308, 7.36332474468469e307])
        with pytest.raises(DomainError, match=r"the window \[7.36332474468469\d*e\+307, "):
            en.shannon_entropy(s)

    @pytest.mark.parametrize("s,window", [
        (series([1e308, 1e308], 1e307),
         "[6.656284556394759e+307, inf] from Q(1e-12) to Q(0.999999999999) has an end "
         "beyond the doubles"),
        (parallel([1e308], 1e307),
         "[6.681060904964044e+307, inf] from Q(1e-12) to Q(0.999999999999) has an end "
         "beyond the doubles"),
        (series([-1e308], 1e307),
         "[-1.3318939095035956e+308, 1.7631043237892857e+308] from Q(1e-12) to "
         "Q(0.999999999999) is wider than the largest double"),
        (series([1.6104411864331818e308, 7.36332474468469e307]),
         "[7.36332474468469e+307, 7.36332474468469e+307] from Q(1e-12) to "
         "Q(0.999999999999) holds too few doubles for 2 points"),
    ], ids=["series-beyond", "parallel-beyond", "wide", "collapsed"])
    def test_window_the_doubles_cannot_hold_rejected(self, s, window):
        # both probabilities at full precision: :g prints 1 - 1e-12 as 1; the
        # first two ends used to fail later, for want of panels
        with pytest.raises(DomainError, match=re.escape(f"the window {window}") + "$"):
            en.shannon_entropy(s)

    @pytest.mark.parametrize("s", [series([0.5, -0.5, 1.0], 0.7), parallel([2.0, 0.0], 0.5),
                                   series([0.0] * 16, 2.0)], ids=["series", "parallel", "n16"])
    def test_hazard_form_matches_the_density_form(self, s):
        # over the window from Q(c) to Q(1 - c), int f log Fbar = int_c^(1-c) log u du
        q = en.QuadratureSpec()
        c = q.tail_mass_cutoff
        value, _, failed = en._integrate(s, sy._grid((s,), c, 1.0 - c, 2), q)
        log_fbar = (1.0 - c) * math.log1p(-c) - c * math.log(c) - 1.0 + 2.0 * c
        assert not failed.any()
        assert value[1, 0] == pytest.approx(value[0, 0] + log_fbar, abs=1e-11)
        assert en.shannon_entropy(s).converged

    @pytest.mark.parametrize("s,value", [
        (parallel([1e12]), 1.5772157910044007),
        (parallel([1e16]), 1.7716008820963292),
        (parallel([1e17]), 5.886071058749561),
        (series([1e10, 1e10 - 0.5]), 1.2246259366120802),
    ], ids=["parallel-1e12", "parallel-1e16", "parallel-1e17", "series-1e10"])
    def test_forms_that_disagree_are_not_converged(self, s, value):
        # rounding in x - mu far from 0 moves the density form alone: the
        # exact values are 1 + gamma = 1.5772... and 1.2246..., and each of
        # these used to come back converged
        e = en.shannon_entropy(s)
        assert (e.value, e.converged) == (value, False)

    def test_self_consistency_under_tighter_tolerance(self):
        s = series([0.7, -0.7], 0.8)
        coarse = en.shannon_entropy(s, en.QuadratureSpec(rel_tol=1e-8))
        fine = en.shannon_entropy(s, en.QuadratureSpec(rel_tol=5e-9))
        assert abs(coarse.value - fine.value) <= max(coarse.error_estimate, 1e-13)


class TestResidual:
    def test_full_support_limit_equals_shannon(self):
        s = series([1.0, 1.0])
        q = en.QuadratureSpec()
        t = sy.system_quantiles(s, q.tail_mass_cutoff)
        resid = en.residual_entropy(s, t, q)
        total = en.shannon_entropy(s, q)
        assert resid.value == pytest.approx(total.value, abs=1e-8)

    def test_dual_forms_agree_at_median(self):
        s = series([1.0, 1.0])
        t = sy.system_quantiles(s, 0.5)
        a, b = residual_forms(s, t)
        assert a.converged and b.converged
        assert abs(a.value - b.value) < 1e-9

    def test_probability_substitution_oracle(self):
        # independent route: integrate log r(Q(p)) over p instead of x
        s = series([0.6, -0.4], 1.2)
        t = sy.system_quantiles(s, 0.3)
        sf_t = float(sy.system_survival(s, t))

        def integrand(p):
            x = sy.system_quantiles(s, p)
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

    @pytest.mark.parametrize("s", [parallel([1.0, 0.0]), series([0.0])])
    def test_cut_below_the_normal_range(self, s):
        # with cutoff 1e-300 the cut's survival, about 1e-290 * 1e-300, is
        # below the normal range; the hazard is 1/sigma there, so H = 1
        q = en.QuadratureSpec(tail_mass_cutoff=1e-300)
        for e in en.residual_entropy(s, np.array([600.0, 660.0]), q):
            assert e.converged and e.value == pytest.approx(1.0, abs=1e-10)

    def test_too_deep_rejected(self):
        s = series([0.0])
        with pytest.raises(DomainError):
            en.residual_entropy(s, 200.0)

    def test_window_of_too_many_panels_rejected(self):
        # 2.6e307 wide at sigma 1: the panel count overflowed into a negative
        # array size
        s = series([1.3465910200904148e308, 1.000182640811236e308])
        with pytest.raises(DomainError, match=r"the window \[7.36e\+307, 1e\+308\]"):
            en.residual_entropy(s, 7.36332474468469e307)

    @pytest.mark.parametrize("call", [
        lambda: en.residual_entropy(series([1e300]), 1e300),
        lambda: en.entropy_curve(series([1e300]), [1e300]),
        lambda: en.residual_entropy(parallel([1e300, 0.0]),
                                    sy.system_quantiles(parallel([1e300, 0.0]), 0.5)),
    ], ids=["residual_entropy", "entropy_curve", "parallel-median"])
    def test_a_cut_that_rounds_onto_its_time_is_a_domain_error(self, call):
        # the cut, 55 sigma right of t = 1e300, was that same double, and the
        # empty window raised a bare IndexError; padded right over rounding, it
        # is 24 ulps right of t, 3.6e285 wide at sigma 1
        with pytest.raises(DomainError, match=r"^the window \[1e\+300, 1e\+300\] needs more "):
            call()

    def test_window_wider_than_the_doubles_raises_no_warning(self):
        # the gaps of a window beyond the doubles overflowed with a
        # RuntimeWarning, raised in place of the DomainError under the
        # suite's error::RuntimeWarning filter
        s = series([-1e308], sigma=1e307)
        with pytest.raises(DomainError, match="than an array can hold"):
            od.check_lu(s, s)


class TestParallelClosedForm:
    """A parallel system is a Gumbel at loc = sigma * logsumexp(mu / sigma);
    with a = w(t) and S = 1 - exp(-a) its residual entropy is

        H(t) = log S - [-gamma - E1(a) - exp(-a) log a
                        - (1 - exp(-a)(1 + a)) - S log sigma] / S.
    """

    @staticmethod
    def closed_form(s, ts):
        loc = s.sigma * logsumexp(np.asarray(s.mus) / s.sigma)
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
            for t, pair in zip(ts, residual_forms(s, ts)):
                for form, one in zip(pair, residual_forms(s, float(t))):
                    assert form.value == pytest.approx(one.value, abs=1e-12)

    def test_curve_marks_non_finite_time(self):
        curve = en.entropy_curve(series([0.0]), np.array([0.0, np.nan, 1.0]))
        assert [e.converged for e in curve] == [True, False, True]
        assert math.isnan(curve[1].value)
        # no time left to integrate from
        curve = en.entropy_curve(series([0.0]), np.array([np.nan, 1e6]))
        assert not any(e.converged for e in curve)

    def test_time_that_is_not_finite_rejected(self):
        with pytest.raises(DomainError, match="^conditioning time must be finite, got inf$"):
            en.residual_entropy(series([0.0]), [0.0, np.inf])

    def test_array_with_one_time_past_cutoff_rejected(self):
        with pytest.raises(DomainError):
            en.residual_entropy(series([0.0]), np.array([0.0, 200.0]))

    def test_check_lu_past_cutoff_raises(self):
        a, b = series([1.0, 0.0]), series([0.5, 0.5])
        with pytest.raises(DomainError):
            od.check_lu(a, b, t_grid=np.array([0.0, 1.0, 300.0]))

    def test_check_lu_raises_the_first_systems_time_error(self):
        # the same DomainError text as residual_entropy on the first system,
        # even where the second system's times fail as well
        a, b = series([0.0, 0.0]), series([0.5, 0.5])
        for ts in (np.array([0.0, 1.0, 40.0]), np.array([0.0, 300.0])):
            with pytest.raises(DomainError) as first:
                en.residual_entropy(a, ts)
            assert "survival at t=" in str(first.value)
            with pytest.raises(DomainError) as lu:
                od.check_lu(a, b, t_grid=ts)
            assert str(lu.value) == str(first.value)

    @pytest.mark.parametrize("s", [parallel([1.0, 0.0]), series([0.3, 0.2, -1.0], 0.5)],
                             ids=["parallel", "series"])
    @pytest.mark.parametrize("budget", [2000, 5])
    def test_panel_sums_match_sequential_add_at(self, s, budget):
        # the sums of the panels each round keeps, added per gap in round
        # order, have the bits of one np.add.at per round from zeros
        q = en.QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=budget)
        edges = np.unique(np.concatenate([np.linspace(-1.0, 2.0, 6), [9.0, 11.0]]))
        gaps = np.diff(edges)
        counts = np.maximum(1, np.ceil(gaps / (0.5 * s.sigma))).astype(int)
        owner = np.repeat(np.arange(gaps.size), counts)
        step = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        cuts = np.append(edges[owner] + gaps[owner] * (step / counts[owner]), edges[-1:])
        a, b = cuts[:-1], cuts[1:]
        value, error = np.zeros((2, 2, gaps.size))
        failed = np.zeros((2, gaps.size), dtype=bool)
        rounds, left = 0, budget
        while a.size:
            rounds += 1
            v, e, ok = en._panels(s, a, b, q)
            split = np.flatnonzero(~ok.all(axis=0))[:left]
            left -= split.size
            keep = ~np.isin(np.arange(a.size), split)
            np.add.at(value, (slice(None), owner[keep]), v[:, keep])
            np.add.at(error, (slice(None), owner[keep]), e[:, keep])
            np.logical_or.at(failed, (slice(None), owner[keep]), ~ok[:, keep])
            mid = 0.5 * (a[split] + b[split])
            a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
            owner = np.tile(owner[split], 2)
        assert rounds >= 2  # the spec bisects
        got_value, got_error, got_failed = en._integrate(s, edges, q)
        np.testing.assert_array_equal(got_value.view(np.int64), value.view(np.int64))
        np.testing.assert_array_equal(got_error.view(np.int64), error.view(np.int64))
        np.testing.assert_array_equal(got_failed > 0, failed)
        assert failed.any() or budget > 5  # a spent budget leaves failing panels

    def test_empty_times(self):
        s = series([1.0, 0.0])
        assert en.residual_entropy(s, np.array([])) == []
        assert residual_forms(s, np.array([])) == []
        assert [e.converged for e in en.entropy_curve(s, [np.inf, np.nan])] == [False, False]

    def test_refinement_budget_caps_bisections(self):
        # at a tolerance near the rounding floor both forms need bisections,
        # most of them in the far tail, where the window runs on to its cut
        # at a survival of c**2: one is not enough, 500 are
        s = series([2.0, 0.0])
        budgets = {}
        for budget in (1, 500, 2000):
            q = en.QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=budget)
            budgets[budget] = residual_forms(s, 0.5, q)
        assert not budgets[1][0].converged
        default = residual_forms(s, 0.5)
        for budget in (500, 2000):
            assert all(e.converged for e in budgets[budget])
            for e, ref in zip(budgets[budget], default):
                assert e.value == pytest.approx(ref.value, abs=1e-12)


class TestImportHygiene:
    def test_import_loads_no_scipy(self):
        # nor numpy.polynomial, which only the quadrature table once needed
        src = str(Path(gs.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, %r); import gumbelsys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m.startswith('numpy.polynomial')))" % src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout.strip()
        assert out == "[]"


class TestQuadratureTable:
    """The qk21 table: 21 Kronrod nodes with the 10 Gauss nodes at the odd
    indices."""

    @staticmethod
    def moment_errors(nodes, weights, degrees):
        return [abs(weights @ nodes**d - (0.0 if d % 2 else 2.0 / (d + 1))) for d in degrees]

    def test_kronrod_rule_exact_to_degree_31(self):
        assert max(self.moment_errors(en._NODES, en._W21, range(32))) <= 2e-16
        # and no further: the error at degree 32 is about 4e-12
        assert self.moment_errors(en._NODES, en._W21, [32])[0] > 1e-13

    def test_gauss_subset_exact_to_degree_19(self):
        assert max(self.moment_errors(en._NODES[1::2], en._W10, range(20))) <= 2e-16

    def test_gauss_subset_matches_legendre(self):
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(10)
        np.testing.assert_array_less(np.abs(en._NODES[1::2] - x), 2.5 * np.spacing(np.abs(x)))
        # leggauss's own weights are up to 7 ulp off; the table is correctly
        # rounded against 40-digit weights 2 / ((1 - x^2) P10'(x)^2)
        with mpmath.workdps(40):
            roots = [mpmath.findroot(lambda y: mpmath.legendre(10, y), v) for v in x]
            exact = [float(2 / ((1 - r**2) * mpmath.diff(lambda y: mpmath.legendre(10, y), r)**2))
                     for r in roots]
        np.testing.assert_array_less(np.abs(en._W10 - exact), np.spacing(en._W10))

    def test_symmetric_weights_sum_to_two(self):
        for nodes, weights in ((en._NODES, en._W21), (en._NODES[1::2], en._W10)):
            np.testing.assert_array_equal(nodes, -nodes[::-1])
            np.testing.assert_array_equal(weights, weights[::-1])
            assert math.fsum(weights) == pytest.approx(2.0, abs=4e-16)


class TestCurve:
    def test_identical_systems_identical_curves(self):
        s = series([0.3, 0.9])
        ts = np.linspace(-1, 2, 7)
        c1 = en.entropy_curve(s, ts)
        c2 = en.entropy_curve(s, ts)
        assert [e.value for e in c1] == [e.value for e in c2]

    def test_bad_point_does_not_abort(self):
        s = series([0.0])
        ts = np.array([0.0, 500.0, 1.0])  # middle point far beyond the cutoff
        curve = en.entropy_curve(s, ts)
        assert curve[0].converged and curve[2].converged
        assert not curve[1].converged and math.isnan(curve[1].value)

    def test_finite_inside_window(self):
        s = parallel([0.0, 1.0])
        ts = np.linspace(sy.system_quantiles(s, 0.001), sy.system_quantiles(s, 0.999), 16)
        curve = en.entropy_curve(s, ts)
        assert all(e.converged and math.isfinite(e.value) for e in curve)

    def test_survival_evaluated_once_per_call(self):
        # the mask's survivals are the ones the quadrature divides by, both
        # taken from one log survival
        s = series([0.3, 0.9])
        with mock.patch.object(en, "system_log_survival",
                               wraps=sy.system_log_survival) as survival:
            curve = en.entropy_curve(s, np.array([0.0, 500.0, 1.0]))
        assert survival.call_count == 1
        assert [e.converged for e in curve] == [True, False, True]


class TestSpecValidation:
    def test_rel_tol_bounds(self):
        with pytest.raises(DomainError):
            en.QuadratureSpec(rel_tol=1e-3)
        with pytest.raises(DomainError):
            en.QuadratureSpec(rel_tol=0.0)

    def test_positive_fields(self):
        with pytest.raises(DomainError):
            en.QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError, match="abs_tol must be positive"):
            en.QuadratureSpec(abs_tol=float("nan"))  # was accepted, and no value converged
        with pytest.raises(DomainError):
            en.QuadratureSpec(tail_mass_cutoff=-1e-12)
        with pytest.raises(DomainError):
            en.QuadratureSpec(max_subdivisions=0)

    @pytest.mark.parametrize("budget", [2.5, float("nan"), 3.0, "3", True])
    def test_max_subdivisions_is_an_integer(self, budget):
        # 2.5 and NaN were accepted, and the first residual entropy ended in
        # a bare TypeError from the budget's slice
        with pytest.raises(DomainError, match="max_subdivisions must be an integer >= 1"):
            en.QuadratureSpec(max_subdivisions=budget)

    def test_numpy_integer_budget_is_valid(self):
        s = series((1.0, 0.0))
        q = en.QuadratureSpec(max_subdivisions=np.int64(5))
        assert en.residual_entropy(s, 0.0, q) == en.residual_entropy(
            s, 0.0, en.QuadratureSpec(max_subdivisions=5))

    @pytest.mark.parametrize("cutoff", [0.5, 0.7, 1.0])
    def test_tail_mass_cutoff_below_one_half(self, cutoff):
        # was accepted: at 0.5 and 0.7 the Shannon window held too few
        # doubles and residual entropies did not converge, and at 1.0 the
        # error named a quantile probability
        with pytest.raises(DomainError, match=re.escape(
                f"tail_mass_cutoff must lie in (0, 0.5), got {cutoff}")):
            en.QuadratureSpec(tail_mass_cutoff=cutoff)
