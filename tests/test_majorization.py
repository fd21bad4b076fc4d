import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbelsys import DomainError, UsageError
from gumbelsys import majorization as mj
from gumbelsys import systems as sy
from gumbelsys.rng import stream

import lemmas as lm
from lemmas import Curvature

from conftest import series

vectors = st.lists(st.floats(-10, 10), min_size=2, max_size=6).map(np.array)


class TestMajorizes:
    def test_basic(self):
        assert lm.majorizes([2, 1, 0], [1, 1, 1])

    def test_reflexive(self):
        assert lm.majorizes([1, 1, 1], [1, 1, 1])

    def test_totals_mismatch(self):
        rep = lm.majorization_report([3, 0], [2, 2])
        assert not rep.holds
        assert "totals" in rep.reason

    def test_prefix_failure_reason(self):
        rep = lm.majorization_report([1, 1, 1], [2, 1, 0])
        assert not rep.holds
        assert "prefix" in rep.reason

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            lm.majorizes([1, 2], [1, 2, 3])

    def test_order_independent(self):
        assert lm.majorizes([0, 1, 2], [1, 1, 1])

    @given(vectors)
    @settings(max_examples=60, deadline=None)
    def test_mean_vector_is_minimal(self, v):
        mean = np.full_like(v, v.mean())
        assert lm.majorizes(v, mean)

    @given(vectors)
    @settings(max_examples=60, deadline=None)
    def test_reflexivity_property(self, v):
        assert lm.majorizes(v, v)


class TestPairGenerator:
    def test_all_pairs_majorize(self):
        g = stream(11, "pairs")
        for _ in range(10_000):
            u, v = mj.random_majorization_pair(g, 5)
            assert lm.majorizes(u, v)

    def test_independent_prefix_check(self):
        # re-verify a slice against a from-scratch prefix-sum loop
        g = stream(12, "pairs")
        for _ in range(300):
            u, v = mj.random_majorization_pair(g, 4)
            su = sorted(u, reverse=True)
            sv = sorted(v, reverse=True)
            run_u = run_v = 0.0
            for k in range(4):
                run_u += su[k]
                run_v += sv[k]
                if k < 3:
                    assert run_u >= run_v - 1e-9
            assert run_u == pytest.approx(run_v, abs=1e-9)

    def test_pairs_differ(self):
        g = stream(13, "pairs")
        for _ in range(200):
            u, v = mj.random_majorization_pair(g, 2)
            assert not np.allclose(u, v)

    def test_overflowing_spread_raises(self):
        # a transfer beyond the doubles raises and warns nothing
        with np.errstate(all="raise"):
            with pytest.raises(DomainError, match="spread 1e[+]308 moves a location beyond"):
                mj.random_majorization_pair(stream(16, "pairs"), 3, spread=1e308)

    def test_tied_start_transfers(self):
        # degenerate uniform makes v = (a, a); the only transfer shape is
        # (a + delta, a - delta)
        g = stream(14, "pairs")
        u, v = mj.random_majorization_pair(g, 2, low=1.0, high=1.0)
        assert v[0] == v[1] == 1.0
        assert u[0] > 1.0 and u[1] < 1.0
        assert u[0] + u[1] == pytest.approx(2.0, abs=1e-12)

    def test_transitivity_of_chained_transfers(self):
        # one extra reverse transfer on top of a generated pair must keep the
        # relation to the original base vector
        g = stream(15, "pairs")
        for _ in range(100):
            u, v = mj.random_majorization_pair(g, 4)
            u2 = u.copy()
            u2[0] += 0.5  # largest coordinate receives
            u2[-1] -= 0.5
            assert lm.majorizes(u2, u) and lm.majorizes(u2, v)

    def test_domain(self):
        g = stream(16, "pairs")
        with pytest.raises(DomainError):
            mj.random_majorization_pair(g, 1)
        with pytest.raises(DomainError):
            mj.random_majorization_pair(g, 3, spread=0.0)


class TestSchur:
    def test_sum_of_squares_convex(self):
        f = lambda z: float(np.sum(z * z))
        assert lm.schur_test(f, [1.0, 2.0, 3.0], Curvature.CONVEX)

    def test_linear_sum_degenerate_both_modes(self):
        f = lambda z: float(np.sum(z))
        assert lm.schur_test(f, [0.3, -1.0, 2.0], Curvature.CONVEX)
        assert lm.schur_test(f, [0.3, -1.0, 2.0], Curvature.CONCAVE)

    def test_series_hazard_left_of_locations(self):
        # with every inner exponential argument far enough left, the hazard
        # of a series system is Schur-convex in the locations
        x = -2.0
        f = lambda mus: float(sy.system_hazard(series(tuple(mus)), x))
        assert lm.schur_test(f, [0.3, -0.2, 1.1], Curvature.CONVEX)

    def test_series_hazard_not_convex_mid_range(self):
        # between the locations the gradient condition genuinely reverses,
        # so an honest probe must say no
        x = 1.5
        f = lambda mus: float(sy.system_hazard(series(tuple(mus)), x))
        assert not lm.schur_test(f, [0.3, -0.2, 1.1], Curvature.CONVEX)

    def test_sum_of_exponentials_convex_everywhere(self):
        f = lambda z: float(np.sum(np.exp(z)))
        g = stream(21, "schur")
        for _ in range(50):
            z = g.uniform(-3, 3, 4)
            assert lm.schur_test(f, z, Curvature.CONVEX)

    def test_asymmetric_rejected(self):
        f = lambda z: float(z[0] * 2 + z[1])
        with pytest.raises(UsageError):
            lm.schur_test(f, [1.0, 2.0], Curvature.CONVEX)

    def test_nonfinite_rejected(self):
        f = lambda z: float("nan")
        with pytest.raises(Exception):
            lm.schur_test(f, [1.0, 2.0], Curvature.CONVEX)


class TestPhiLemma:
    @pytest.mark.parametrize("grid", [np.linspace(1e-6, 50.0, 10_000),
                                      np.geomspace(1e-6, 50.0, 10_000)])
    def test_dense_grid_convex_and_decreasing(self, grid):
        rep = lm.check_lemma_phi(grid)
        assert rep.passed
        assert rep.min_second_difference >= -1e-9
        assert rep.max_first_difference <= 1e-12

    def test_spot_monotonicity(self):
        assert sy.phi(0.1) > sy.phi(1.0) > sy.phi(10.0)

    def test_midpoint_convexity(self):
        g = stream(22, "phi")
        for _ in range(1000):
            a, b = g.uniform(1e-6, 50.0, 2)
            mid = sy.phi((a + b) / 2)
            assert mid <= (sy.phi(a) + sy.phi(b)) / 2 + 1e-12

    def test_bad_grid(self):
        with pytest.raises(DomainError):
            lm.check_lemma_phi([0.0, 1.0])


class TestSumConvexLemma:
    def test_exponential(self):
        assert lm.check_lemma_sum_convex(np.exp, [2.0, 0.0], [1.0, 1.0])
        assert math.exp(2) + 1 >= 2 * math.e  # the inequality it encodes

    def test_identity_is_equality(self):
        assert lm.check_lemma_sum_convex(lambda t: t, [2.0, 0.0], [1.0, 1.0])

    def test_gumbel_inner_exponential(self):
        # gamma(t) = exp(-(x - t)/sigma) is convex in t, so the component sum
        # respects majorization; this is what makes the parallel reversed
        # hazard comparison work
        g = stream(23, "lemma")
        x, sigma = 0.7, 1.3
        gamma = lambda t: np.exp(-(x - t) / sigma)
        for _ in range(100):
            u, v = mj.random_majorization_pair(g, 4)
            assert lm.check_lemma_sum_convex(gamma, u, v)

    def test_precondition_enforced(self):
        with pytest.raises(UsageError):
            lm.check_lemma_sum_convex(np.exp, [1.0, 1.0], [2.0, 0.0])
