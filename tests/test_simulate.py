import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import gumbel_r, ks_2samp, kstest

from gumbelsys import DomainError
from gumbelsys import simulate as sim
from gumbelsys import systems as sy
from gumbelsys.majorization import random_majorization_pair
from gumbelsys.rng import open_uniform, stream

from conftest import parallel, series

E1 = math.exp(-1.0)


class TestSampling:
    def test_bit_for_bit_deterministic(self):
        s = series([0.5, -0.5])
        a = sim.sample_system(s, 42, 5000)
        b = sim.sample_system(s, 42, 5000)
        assert np.array_equal(a, b)

    def test_seed_changes_draws(self):
        s = series([0.5, -0.5])
        assert not np.array_equal(sim.sample_system(s, 1, 1000),
                                  sim.sample_system(s, 2, 1000))

    def test_single_component_matches_component_law(self):
        s = parallel([0.5], 2.0)
        xs = sim.sample_system(s, 42, 10**6)
        p = kstest(xs, lambda x: gumbel_r.cdf(x, loc=0.5, scale=2.0)).pvalue
        assert p > 0.01

    def test_parallel_probability_closed_form(self):
        xs = sim.sample_system(parallel([0, 0]), 7, 10**6)
        phat = (xs <= 0.0).mean()
        target = math.exp(-2)
        band = 3 * math.sqrt(target * (1 - target) / 1e6)
        assert abs(phat - target) < band

    def test_series_probability_closed_form(self):
        xs = sim.sample_system(series([0, 0]), 8, 10**6)
        phat = (xs > 0.0).mean()
        target = (1 - E1) ** 2
        band = 3 * math.sqrt(target * (1 - target) / 1e6)
        assert abs(phat - target) < band

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            sim.sample_system(series([0.0]), 1, 0)

    def test_no_uniforms_rejected(self):
        # a DomainError is a ValueError, so callers catching that keep working
        with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
            open_uniform(stream(0, "u"), 0)
        assert issubclass(DomainError, ValueError)

    @pytest.mark.parametrize("make", [series, parallel])
    @pytest.mark.parametrize("n", [1, 3, 64])
    @pytest.mark.parametrize("seed", [5, 2024])
    def test_bits_match_the_inverse_transform(self, make, n, seed):
        s = make([0.3, -1.2, 2.0], 0.7)
        draws = []
        for i, mu in enumerate(s.mus):
            g = stream(seed, "system", "component", i)
            u = (g.integers(0, 1 << 53, size=n).astype(np.float64) + 0.5) / (1 << 53)
            draws.append(mu - s.sigma * np.log(-np.log(u)))
        want = (np.max if make is parallel else np.min)(draws, axis=0)
        assert sim.sample_system(s, seed, n).tobytes() == want.tobytes()


class TestCdfDominance:
    def test_null_case_quiet(self):
        s = series([0.7, -0.3])
        grid = sy.make_grid(s, s, 129)
        scan = sim.empirical_cdf_dominance(s, s, *sim.sample_pair(s, s, 3, 100_000), grid)
        assert not scan.contradictions
        inside = sum(abs(e.value) <= 4 * e.std_error for e in scan.estimates
                     if e.std_error > 0)
        informative = sum(e.std_error > 0 for e in scan.estimates)
        assert inside / informative >= 0.99

    def test_null_calibration_across_seeds(self):
        s = series([0.7, -0.3])
        grid = sy.make_grid(s, s, 129)
        over3 = total = 0
        for seed in (1, 2, 3, 4, 5):
            scan = sim.empirical_cdf_dominance(s, s, *sim.sample_pair(s, s, seed, 50_000), grid)
            for e in scan.estimates:
                if e.std_error > 0:
                    total += 1
                    over3 += abs(e.value) > 3 * e.std_error
        assert over3 / total <= 0.02

    def test_majorization_instance_agrees_with_analytic(self):
        g = stream(51, "mc")
        for k in range(5):
            u, v = random_majorization_pair(g, 3)
            a, b = series(u), series(v)
            grid = sy.make_grid(a, b, 65)
            scan = sim.empirical_cdf_dominance(a, b, *sim.sample_pair(a, b, 100 + k, 10**6), grid)
            assert not scan.contradictions

    def test_deterministic(self):
        a, b = series([1, 0]), series([0.5, 0.5])
        grid = sy.make_grid(a, b, 33)
        s1 = sim.empirical_cdf_dominance(a, b, *sim.sample_pair(a, b, 9, 20_000), grid)
        s2 = sim.empirical_cdf_dominance(a, b, *sim.sample_pair(a, b, 9, 20_000), grid)
        assert [e.value for e in s1.estimates] == [e.value for e in s2.estimates]


class TestQuantileSpread:
    def test_null_within_band(self):
        s = series([0.4, -0.4])
        est = sim.empirical_quantile_spread(*sim.sample_pair(s, s, 21, 100_000), 21, 0.25, 0.75)
        # independent streams for the two roles, so the difference is noise
        assert abs(est.value) < 4 * est.std_error

    def test_agrees_with_analytic_quantiles(self):
        g = stream(52, "mc")
        u, v = random_majorization_pair(g, 4)
        a, b = series(u), series(v)
        est = sim.empirical_quantile_spread(*sim.sample_pair(a, b, 99, 200_000), 99, 0.25, 0.75)
        qa = sy.system_quantiles(a, np.array([0.25, 0.75]))
        qb = sy.system_quantiles(b, np.array([0.25, 0.75]))
        analytic = (qb[1] - qb[0]) - (qa[1] - qa[0])
        assert abs(est.value - analytic) < 4 * est.std_error

    def test_se_scales_with_sample_size(self):
        # 600 resamples keep the bootstrap noise on the ratio around 3%
        a, b = series([1.5, -0.5]), series([0.5, 0.5])
        e1, e2 = (sim.empirical_quantile_spread(*sim.sample_pair(a, b, 23, n), 23, 0.25, 0.75,
                                                n_boot=600) for n in (20_000, 80_000))
        assert 1.8 <= e1.std_error / e2.std_error <= 2.2

    def test_value_bits_match_np_quantile(self):
        a, b = series([1.5, -0.5]), parallel([0.5, 0.5])
        for n in (1, 2, 3, 4, 7, 1000):
            est = sim.empirical_quantile_spread(*sim.sample_pair(a, b, 8, n), 8, 0.2, 0.9, n_boot=2)
            xa = sim.sample_system(a, 8, n, label="system_a")
            xb = sim.sample_system(b, 8, n, label="system_b")
            want = (np.diff(np.quantile(xb, [0.2, 0.9]))[0]
                    - np.diff(np.quantile(xa, [0.2, 0.9]))[0])
            assert est.value == want, n

    def test_spread_bits_match_np_quantile(self):
        g = stream(61, "sizes")
        for n in [*range(1, 11), *g.integers(11, 5001, 200)]:
            x = np.sort(g.normal(size=n))
            alpha, beta = np.sort(g.uniform(size=2))
            ranks, weights = sim._spread_ranks(n, alpha, beta)
            want = np.diff(np.quantile(x, [alpha, beta]))[0]
            assert sim._spread(x[ranks], weights) == want, (n, alpha, beta)

    def test_domain(self):
        a = series([0.0])
        with pytest.raises(DomainError):
            sim.empirical_quantile_spread(*sim.sample_pair(a, a, 1, 100), 1, 0.75, 0.25)
        with pytest.raises(DomainError, match="n_boot"):
            sim.empirical_quantile_spread(*sim.sample_pair(a, a, 1, 100), 1, 0.25, 0.75, n_boot=1)



class TestSamplePair:
    """The estimators read the samples ``sample_pair`` returns and nothing else."""

    A, B = series([1.0, 0.0]), parallel([0.5, 0.5])

    def _both(self, xa, xb):
        grid = sy.make_grid(self.A, self.B, 33)
        return (sim.empirical_cdf_dominance(self.A, self.B, xa, xb, grid),
                sim.empirical_quantile_spread(xa, xb, 6, 0.25, 0.75, n_boot=5))

    def test_each_system_sorted_on_its_label(self):
        xa, xb = sim.sample_pair(self.A, self.B, 6, 1000)
        for x, s, label in ((xa, self.A, "system_a"), (xb, self.B, "system_b")):
            want = np.sort(sim.sample_system(s, 6, 1000, label=label))
            assert x.tobytes() == want.tobytes()

    def test_estimates_depend_on_the_samples_alone(self):
        xa, xb = sim.sample_pair(self.A, self.B, 6, 1000)
        kept = xa.copy(), xb.copy()
        scan, spread = self._both(xa, xb)
        assert xa.tobytes() == kept[0].tobytes() and xb.tobytes() == kept[1].tobytes()
        assert self._both(*kept) == (scan, spread)
        assert scan.estimates[0].n_samples == spread.n_samples == 1000

    @pytest.mark.parametrize("case,match", [
        ("unsorted", "sample xa must be ascending, with no NaN"),
        ("nan", "sample xb must be ascending, with no NaN"),
        ("lone nan", "sample xa must be ascending, with no NaN"),
        ("unequal", r"one nonzero size, got shapes \(1000,\) and \(999,\)"),
        ("empty", r"one nonzero size, got shapes \(0,\) and \(0,\)"),
        ("2-D", r"need two 1-D samples"),
    ])
    def test_bad_samples_rejected(self, case, match):
        xa, xb = sim.sample_pair(self.A, self.B, 6, 1000)
        xa, xb = {"unsorted": (xa[::-1], xb),
                  "nan": (xa, np.append(xb[1:], np.nan)),
                  "lone nan": (np.array([np.nan]), xb[:1]),
                  "unequal": (xa, xb[1:]),
                  "empty": (xa[:0], xb[:0]),
                  "2-D": (xa.reshape(2, -1), xb.reshape(2, -1))}[case]
        grid = sy.make_grid(self.A, self.B, 33)
        with pytest.raises(DomainError, match=match):
            sim.empirical_cdf_dominance(self.A, self.B, xa, xb, grid)
        with pytest.raises(DomainError, match=match):
            sim.empirical_quantile_spread(xa, xb, 6, 0.25, 0.75, n_boot=5)

def _old_bootstrap(x, alpha, beta, g, n_boot):
    """The replicate loop the order-statistic bootstrap replaced."""
    reps = np.empty(n_boot)
    for r in range(n_boot):
        lo, hi = np.quantile(x[g.integers(0, x.size, x.size)], [alpha, beta])
        reps[r] = hi - lo
    return reps


def _new_bootstrap(x, alpha, beta, g, n_boot):
    ranks, weights = sim._spread_ranks(x.size, alpha, beta)
    return sim._spread(sim._bootstrap_order_stats(np.sort(x), ranks, g, n_boot), weights)


class TestBootstrapLaw:
    """The replicates of one system's spread Q(beta) - Q(alpha) have the law
    of the spread of a resample drawn with replacement."""

    @pytest.mark.parametrize("alpha,beta", [(0.25, 0.75), (0.1, 0.6)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_atoms_match_enumerated_resamples(self, n, alpha, beta):
        # n = 2 and 3 read overlapping ranks for both quantiles
        x = np.array([0.0, 1.0, 3.5, 10.25])[:n]
        exact = Counter(float(np.diff(np.quantile(x[list(idx)], [alpha, beta]))[0])
                        for idx in itertools.product(range(n), repeat=n))
        reps = 100_000
        got = Counter(_new_bootstrap(x, alpha, beta, stream(n, "law"), reps).tolist())
        assert set(got) <= set(exact)
        for value, count in exact.items():
            p = count / n**n
            band = 5 * math.sqrt(p * (1 - p) / reps)
            assert abs(got[value] / reps - p) <= band, (value, got[value] / reps, p)

    def test_ks_against_the_replicate_loop(self):
        x = sim.sample_system(series([1.0, 0.0, -0.5]), 17, 20_000)
        old = _old_bootstrap(x, 0.25, 0.75, stream(17, "old"), 2000)
        new = _new_bootstrap(x, 0.25, 0.75, stream(17, "new"), 2000)
        assert ks_2samp(old, new).pvalue > 0.01


class TestEstimateType:
    def test_validation(self):
        with pytest.raises(DomainError):
            sim.McEstimate(0.0, -1.0, 10)
        with pytest.raises(DomainError):
            sim.McEstimate(0.0, 1.0, 0)
