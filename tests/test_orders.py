import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import gumbel_r

import gumbelsys as gs
from gumbelsys import DomainError, Direction, Outcome, Relation, UsageError
from gumbelsys import entropy as en
from gumbelsys import orders as od
from gumbelsys import systems as sy
from gumbelsys.entropy import QuadratureSpec
from gumbelsys.majorization import random_majorization_pair
from gumbelsys.rng import stream

from conftest import golden_pairs, parallel, series

FG = Direction.FIRST_GREATER
FS = Direction.FIRST_SMALLER
FLIPPED = {FG: FS, FS: FG}  # a before b in one direction is b before a in the other


class TestLikelihoodRatio:
    def test_parallel_componentwise_dominance(self):
        v = od.check_lr(parallel([1, 1]), parallel([0, 0]), direction=FG)
        assert v.outcome is Outcome.HOLDS

    def test_descending_grid_rejected(self):
        # lr holds on the ascending grid; on the reversed one the check read
        # the steps backwards and failed, with a witness
        a, b = parallel([1.0, 0.0]), parallel([0.0, 0.0])
        grid = sy.make_grid(a, b, 65)
        assert od.check_lr(a, b, grid, FG).holds
        step = f"got {float(grid[-2])!r} after {float(grid[-1])!r}"
        with pytest.raises(UsageError, match=f"^a grid must be ascending, {re.escape(step)}$"):
            od.check_lr(a, b, grid[::-1], FG)

    def test_identical_holds_both_directions(self):
        a = parallel([0.5, -0.5])
        assert od.check_lr(a, a, direction=FG).holds
        assert od.check_lr(a, a, direction=FS).holds

    def test_no_dominance_wide_spread_still_monotone(self):
        # (5,-5) vs (0,0): componentwise dominance fails, yet the density
        # log-ratio is monotone; oracle below rebuilds it from scipy.stats
        a, b = parallel([5.0, -5.0]), parallel([0.0, 0.0])
        grid = sy.make_grid(a, b, 8193)

        def oracle_logpdf(mus, x):
            F = np.prod([gumbel_r.cdf(x, loc=m) for m in mus], axis=0)
            tot = np.sum([gumbel_r.pdf(x, loc=m) / gumbel_r.cdf(x, loc=m)
                          for m in mus], axis=0)
            with np.errstate(divide="ignore"):
                return np.log(F) + np.log(tot)

        with np.errstate(divide="ignore", invalid="ignore"):
            d = oracle_logpdf(a.mus, grid) - oracle_logpdf(b.mus, grid)
        steps = np.diff(d[np.isfinite(d)])
        assert steps.min() > -1e-9  # oracle sees a monotone ratio

        v = od.check_lr(a, b, direction=FG)
        assert v.outcome is Outcome.HOLDS

    def test_witness_on_failure(self):
        # reversed direction must fail with a witness pair
        v = od.check_lr(parallel([1, 1]), parallel([0, 0]), direction=FS)
        assert v.outcome is Outcome.FAILS
        assert v.witness is not None and v.witness.lhs < v.witness.rhs

    def test_inconclusive_when_densities_unrepresentable(self):
        s = series([0.0, 0.0])
        v = od.check_lr(s, s, grid=np.linspace(-900, -800, 50))
        assert v.outcome is Outcome.INCONCLUSIVE

    def test_sigma_mismatch(self):
        with pytest.raises(UsageError):
            od.check_lr(parallel([0], 1.0), parallel([0], 2.0))

    def test_topology_mismatch(self):
        with pytest.raises(UsageError):
            od.check_lr(parallel([0]), series([0]))


class TestReversedHazard:
    def test_parallel_majorization_pair(self):
        v = od.check_rh(parallel([2, 0]), parallel([1, 1]), direction=FG)
        assert v.outcome is Outcome.HOLDS

    def test_identical_margin_zero(self):
        a = parallel([0.3, 0.9])
        v = od.check_rh(a, a, direction=FG)
        assert v.holds and v.margin == 0.0

    def test_three_components_wider_scale(self):
        a, b = parallel([3, 0, 0], 2.0), parallel([1, 1, 1], 2.0)
        # oracle: the closed-form sums decide the comparison at every x
        assert np.exp(np.array(a.mus) / 2.0).sum() > np.exp(np.array(b.mus) / 2.0).sum()
        assert od.check_rh(a, b, direction=FG).holds

    def test_closed_form_reduction_matches_verdict(self):
        g = stream(31, "rh")
        for _ in range(50):
            u, v = random_majorization_pair(g, 3)
            a, b = parallel(u), parallel(v)
            verdict = od.check_rh(a, b, direction=FG)
            assert verdict.holds == (od.parallel_rh_log_margin(a, b) >= 0.0)

    def test_antisymmetry_with_positive_margin(self):
        a, b = parallel([3, 0]), parallel([1, 1])
        fwd = od.check_rh(a, b, direction=FG)
        assert fwd.holds and fwd.margin > 0
        rev = od.check_rh(b, a, direction=FG)
        assert rev.outcome is Outcome.FAILS


class TestNonFiniteCurves:
    """A value that is not finite on part of the grid decides nothing there:
    a violation where both sides are finite still FAILS, and otherwise the
    verdict is INCONCLUSIVE with the margin of the finite points."""

    def test_overflowing_reversed_hazard_is_inconclusive(self):
        # w/sigma overflows to inf on the left of the window near 1e308;
        # this raised NumericsError
        a = parallel([6.893537552641732e307, 1.6848329299133357e307])
        b = parallel([5.472013908753187e307, 3.106356573801881e307])
        v = od.check_rh(a, b, direction=FG)
        assert v.outcome is Outcome.INCONCLUSIVE and v.witness is None and v.margin == 1.0
        # the other way a finite point violates, and decides
        v = od.check_rh(a, b, direction=FS)
        assert v.outcome is Outcome.FAILS and math.isfinite(v.witness.lhs - v.witness.rhs)

    def test_finite_violation_fails_past_an_infinite_point(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        lhs, rhs = np.array([np.inf, 3.0, 1.0, np.inf]), np.array([1.0, 1.0, 2.0, np.inf])
        v = od._dominance_verdict(Relation.HR, FS, xs, lhs, rhs, 1e-10)
        assert v.outcome is Outcome.FAILS and v.margin == -1.0
        assert v.witness == od.Witness(2.0, 1.0, 2.0)
        v = od._dominance_verdict(Relation.HR, FS, xs, lhs, rhs, 2.0)
        assert v.outcome is Outcome.INCONCLUSIVE and v.margin == -1.0
        nowhere = od._dominance_verdict(Relation.HR, FS, xs[:1], lhs[:1], rhs[:1], 1e-10)
        assert nowhere.outcome is Outcome.INCONCLUSIVE and nowhere.margin == 0.0


class TestHazardRate:
    def test_series_hazards_cross_for_spread_locations(self):
        # heterogeneous series systems have crossing hazard curves even when
        # the location vectors are majorization-ordered, so neither direction
        # of the hazard-rate order holds; the checker must report the
        # violation with a witness rather than echo the expected dominance
        a, b = series([2, 0]), series([1, 1])
        v = od.check_hr(a, b, direction=FS)
        assert v.outcome is Outcome.FAILS
        assert v.witness is not None
        rev = od.check_hr(a, b, direction=FG)
        assert rev.outcome is Outcome.FAILS

    def test_crossing_matches_dense_oracle(self):
        a, b = series([4, 0, -1]), series([1, 1, 1])
        grid = sy.make_grid(a, b, 8193)
        diff = sy.system_hazard(a, grid) - sy.system_hazard(b, grid)
        assert diff.min() < -1e-3 and diff.max() > 1e-3  # genuine crossing
        v = od.check_hr(a, b, grid=sy.make_grid(a, b, 2049), direction=FS)
        assert v.outcome is Outcome.FAILS
        assert v.margin == pytest.approx(diff.min(), rel=1e-2)

    def test_identical_margin_zero(self):
        a = series([0.1, 0.9])
        v = od.check_hr(a, a)
        assert v.holds and v.margin == 0.0

    def test_exponential_laws_hold(self):
        # series([0, 0]) is series([1, 1]) shifted left by 1 and its hazard
        # increases, so r_a(x) = r_b(x + 1) >= r_b(x); disp and lu follow
        assert od.check_hr(series([0, 0]), series([1, 1]), direction=FS).holds


class TestStochastic:
    def test_identical(self):
        a = series([0.4, 1.1])
        assert od.check_st(a, a).holds

    def test_hr_holds_implies_st_not_fails(self):
        # parallel componentwise-dominance instances: lr holds, so hr and st
        # must come out consistent
        g = stream(32, "st")
        for _ in range(25):
            mus_b = g.uniform(-2, 2, 3)
            mus_a = mus_b + g.uniform(0, 1.5, 3)
            a, b = parallel(mus_a), parallel(mus_b)
            grid = sy.make_grid(a, b, 513)
            if od.check_hr(a, b, grid=grid, direction=FG).holds:
                assert od.check_st(a, b, grid=grid, direction=FG).outcome is not Outcome.FAILS

    def test_series_majorization_instance(self):
        a, b = series([2, 0]), series([1, 1])
        grid = sy.make_grid(a, b, 4097)
        # oracle: cdf dominance via scipy.stats survival products
        xs = grid
        sf_a = (1 - np.exp(-np.exp(-(xs - 2)))) * (1 - np.exp(-np.exp(-xs)))
        sf_b = (1 - np.exp(-np.exp(-(xs - 1)))) ** 2
        assert np.all(sf_a <= sf_b + 1e-12)
        assert od.check_st(a, b, grid=grid, direction=FS).holds


class TestDispersive:
    def test_identical_margin_zero(self):
        a = series([0.5, -0.5])
        v = od.check_disp(a, a)
        assert v.holds and v.margin == 0.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, np.nan, np.inf, -0.5])
    def test_p_grid_outside_the_unit_interval_names_its_first_bad_point(self, bad):
        a = series([0.5, -0.5])
        with pytest.raises(DomainError, match=rf"strictly inside \(0, 1\), got {bad!r}$"):
            od.check_disp(a, a, p_grid=[0.5, bad, 2.0])

    @pytest.mark.parametrize("direction,outcome", [(FG, Outcome.HOLDS), (FS, Outcome.FAILS)])
    def test_descending_p_grid_rejected(self, direction, outcome):
        # both verdicts were INCONCLUSIVE on the reversed grid: the quantile
        # spread's steps were read backwards and disagreed with the densities
        a, b = series([1.0, -1.0]), series([0.0, 0.0])
        ps = od.make_p_grid(33)
        assert od.check_disp(a, b, ps, direction).outcome is outcome
        with pytest.raises(UsageError, match="^a grid must be ascending"):
            od.check_disp(a, b, ps[::-1], direction)

    def test_series_majorization_pair_fails(self):
        # the quantile spread of the more homogeneous system does not
        # dominate; both dual criteria agree on the failure
        v = od.check_disp(series([2, 0]), series([1, 1]), direction=FS)
        assert v.outcome is Outcome.FAILS

    def test_dual_criteria_agree_on_random_pairs(self):
        g = stream(33, "disp")
        ps = od.make_p_grid(65)
        for _ in range(60):
            u, v = random_majorization_pair(g, 3)
            verdict = od.check_disp(series(u), series(v), p_grid=ps, direction=FS)
            assert verdict.outcome is not Outcome.INCONCLUSIVE

    def test_exponential_laws_hold(self):
        assert od.check_disp(series([0, 0]), series([1, 1]), direction=FS).holds

    def test_criteria_that_disagree_are_inconclusive(self):
        # the density criterion fails by 1.7e-10, beyond its tolerance, while
        # the quantile spread shrinks by 2e-11, within its slack; the verdict
        # keeps the density criterion's margin
        a = series([2.3683238991715507, -1.3685654294032785])
        b = series([2.9200675819026545, -0.657515859943111])
        ps = np.array([0.18671725702973693, 0.4972682929395346])
        v = od.check_disp(a, b, p_grid=ps, direction=FS)
        assert (v.outcome, v.witness) == (Outcome.INCONCLUSIVE, None)
        assert v.margin == pytest.approx(-1.6886e-10, rel=1e-3)

    def test_p_grid_too_small(self):
        with pytest.raises(UsageError, match="^count must be >= 33, got 5$"):
            od.make_p_grid(5)

    def test_p_grid_domain(self):
        with pytest.raises(gs.DomainError):
            od.check_disp(series([0]), series([0]), p_grid=np.array([0.0, 0.5]))

    def test_series_starts_are_tangents_right_of_each_root(self):
        # the log survival is concave, so the tangents at the two grid points
        # bracketing a target reach it at or right of its root, which the
        # Newton loop's stop test needs; a chord start lies left of the root
        ps = od.make_p_grid()
        for a, b in golden_pairs(gs.Topology.SERIES):
            grid = sy.make_grid(a, b)
            closed = sy._quantile_roots((a, b), ps)
            for s, (x, _), (x0, _) in zip((a, b), sy._quantile_roots((a, b), ps, grid), closed):
                starts = sy._tangent_starts(s, grid, np.log1p(-ps), np.inf)
                assert np.isfinite(starts).all() and (starts >= x).all(), s
                # the roots move by ulps from those of the closed-form start
                ulp = np.spacing(np.maximum(np.abs(x0), s.sigma))
                assert (np.abs(x - x0) <= 16 * ulp).all(), s

    def test_series_passes_after_a_warm_grid(self, monkeypatch):
        # the grid pass lr made starts the Newton loop: 4 kernel passes here,
        # where the closed-form start took 7
        g = stream(1, "verdicts", "series", 4, 1.0, 0)
        a, b = (series(m) for m in random_majorization_pair(g, 4))
        od.check_lr(a, b, sy.make_grid(a, b))
        calls = []
        rows = sy._series_rows
        monkeypatch.setattr(sy, "_series_rows", lambda *args: calls.append(1) or rows(*args))
        od.check_disp(a, b)
        assert 0 < len(calls) <= 4

    def test_closed_form_starts_where_the_grid_raises(self):
        # 2049 points do not fit between the quantiles near 1e15, where the
        # doubles are 0.125 apart; disp still runs, from closed-form starts
        a, b = series([1e15, 1e15 - 0.5]), series([1e15 - 0.25, 1e15 - 0.25])
        with pytest.raises(DomainError, match="holds too few doubles for 2049 points"):
            sy.make_grid(a, b)
        v = od.check_disp(a, b)
        assert (v.outcome, v.margin) == (Outcome.INCONCLUSIVE, -0.05544978752506807)


class TestLessUncertainty:
    def test_identical_holds(self):
        a = series([0.5, -0.5])
        v = od.check_lu(a, a, t_grid=np.linspace(-2, 3, 8))
        assert v.holds

    def test_series_majorization_pair_fails(self):
        v = od.check_lu(series([2, 0]), series([1, 1]), direction=FS)
        assert v.outcome is Outcome.FAILS

    def test_exponential_laws_hold(self):
        assert od.check_lu(series([0, 0]), series([1, 1]), direction=FS).holds

    def test_nonconverged_quadrature_is_inconclusive(self):
        # a tolerance at the rounding floor with no bisection: the two forms
        # agree to about c**2 (c the tail mass cutoff), so a looser spec
        # converges
        a, b = series([2, 0]), series([1, 1])
        strict = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
        v = od.check_lu(a, b, t_grid=np.linspace(-1, 2, 6), quad=strict)
        assert v.outcome is Outcome.INCONCLUSIVE


def _lu_reference(a, b, ts, quad, direction):
    """check_lu as two residual_entropy calls, one per system, and the
    verdict from their values."""
    if direction is FG:
        a, b = b, a
    ts = od.make_t_grid(a, b) if ts is None else ts
    ha, hb = gs.residual_entropy(a, ts, quad), gs.residual_entropy(b, ts, quad)
    if not all(v.converged for v in ha + hb):
        return od.OrderVerdict(Relation.LU, direction, Outcome.INCONCLUSIVE, None, 0.0)
    va = np.array([v.value for v in ha])
    vb = np.array([v.value for v in hb])
    errs = np.array([x.error_estimate + y.error_estimate for x, y in zip(ha, hb)])
    tol = 2.0 * (errs + quad.rel_tol * np.maximum(1.0, np.maximum(np.abs(va), np.abs(vb))))
    return od._dominance_verdict(Relation.LU, direction, ts, vb, va, tol)


class TestLessUncertaintyPair:
    """check_lu solves both systems in one pass and gives the verdict of one
    residual_entropy call per system, to the bit."""

    STRICT = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)

    @pytest.mark.parametrize("a,b", [
        (series([2.0, 0.0]), series([1.0, 1.0])),
        (series([1.5, -0.5], 0.5), series([1.0, 0.5, -0.5], 0.5)),  # two kernel groups
        (parallel([2.0, 0.0]), parallel([1.0, 1.0])),
        (series([0.5]), series([0.0])),
    ], ids=["series", "series-2-3", "parallel", "one-component"])
    @pytest.mark.parametrize("direction", [FS, FG])
    @pytest.mark.parametrize("ts,quad", [
        (None, QuadratureSpec()),
        (np.linspace(-1.0, 2.0, 6), QuadratureSpec()),
        (np.linspace(-1.0, 2.0, 6), STRICT),
    ], ids=["default", "grid", "strict"])
    def test_matches_one_call_per_system(self, a, b, direction, ts, quad):
        got = od.check_lu(a, b, t_grid=ts, quad=quad, direction=direction)
        assert got == _lu_reference(a, b, ts, quad, direction)
        if quad is self.STRICT:
            assert got.outcome is Outcome.INCONCLUSIVE

    def test_default_t_grid_is_make_t_grid(self):
        for a, b in golden_pairs():
            for d in (FS, FG):
                assert od.check_lu(a, b, direction=d) == od.check_lu(
                    a, b, od.make_t_grid(*((b, a) if d is FG else (a, b))), direction=d)

    @pytest.mark.parametrize("a,b,passes", [
        (series([1.0, 0.0]), series([0.5, 0.5]), 10),
        (series([2.0, 0.3, -1.0]), series([1.0, 0.5, -0.2]), 8),
    ], ids=["n2", "n3"])
    def test_default_check_is_one_newton_loop(self, monkeypatch, a, b, passes):
        # one root solve for the t grid's ends, closed-form cuts, and one log
        # survival pass per system at the times, whether the grid is the
        # default or the caller's make_t_grid: 15 and 16 kernel passes when
        # the cuts depended on the times and the survival was taken twice, and
        # 12 and 10 with make_t_grid when the cuts were Newton roots
        calls = {}
        for module, name in ((sy, "_series_rows"), (sy, "_quantile_roots"),
                             (en, "system_log_survival")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        for run in (lambda: od.check_lu(a, b), lambda: od.check_lu(a, b, od.make_t_grid(a, b))):
            calls.clear()
            run()
            assert calls == {"_series_rows": passes, "_quantile_roots": 1,
                             "system_log_survival": 2}

    def test_outcomes_covered(self):
        outcomes = {od.check_lu(a, b, direction=d).outcome
                    for a, b in ((series([2.0, 0.0]), series([1.0, 1.0])),
                                 (parallel([2.0, 0.0]), parallel([1.0, 1.0])))
                    for d in (FS, FG)}
        assert outcomes == {Outcome.HOLDS, Outcome.FAILS}


class TestMonotoneShape:
    def test_parallel_reversed_hazard_decays_in_time(self):
        s = parallel([0.5, -0.5])
        grid = sy.make_grid(s, s, 257)
        assert (np.diff(sy.system_reversed_hazard(s, grid)) < 0).all()

    def test_series_hazard_rises_in_time(self):
        s = series([0.0])
        grid = sy.make_grid(s, s, 257)
        assert (np.diff(sy.system_hazard(s, grid)) >= 0).all()


class TestDefaultGrid:
    @staticmethod
    def t_window(ends: str, reason: str) -> str:
        return re.escape(f"the window {ends} from Q(0.001) to Q(0.999) {reason}") + "$"

    @pytest.mark.parametrize("make,ends", [(series, "[-inf, inf]"),
                                           (parallel, "[-1.2394975533561202e+308, inf]")],
                             ids=["series", "parallel"])
    def test_t_window_beyond_the_doubles_rejected(self, make, ends):
        # linspace over [-inf, inf] warned and returned NaN times
        a, b = make([1.0, 0.0], 1e308), make([0.5, 0.5], 1e308)
        with pytest.raises(DomainError, match=self.t_window(ends, "has an end beyond the doubles")):
            od.make_t_grid(a, b)

    @pytest.mark.parametrize("make", [series, parallel], ids=["series", "parallel"])
    def test_t_window_wider_than_the_doubles_rejected(self, make):
        s = make([-1e308], 3e307)  # one component: the same law either way
        wide = self.t_window("[-1.5797934201748197e+308, 1.0721765211571146e+308]",
                             "is wider than the largest double")
        with pytest.raises(DomainError, match=wide):
            od.make_t_grid(s, s)

    def test_t_window_narrower_than_its_points_rejected(self):
        # both ends 1e16 apart by 4 ulps of 2: linspace gave 64 times with 5
        # distinct values
        s = parallel([1e16])
        few = self.t_window("[9999999999999998.0, 1.0000000000000006e+16]",
                            "holds too few doubles for 64 points")
        with pytest.raises(DomainError, match=few):
            od.make_t_grid(s, s, 64)
        with pytest.raises(DomainError, match=few):
            od.check_lu(s, s)
        assert (np.diff(od.make_t_grid(s, s, 5)) > 0).all()

    def test_t_grid_count_below_one(self):
        with pytest.raises(UsageError, match="^count must be >= 1, got 0$"):
            od.make_t_grid(series([0.0]), series([0.0]), 0)

    def test_collapsed_t_window_rejected(self):
        # both 0.001 and 0.999 quantiles round to one double near 7.36e307: the
        # grid was four equal times, and lu failed later in the quadrature
        a = series([1.6104411864331818e308, 7.36332474468469e307])
        b = series([1.6104411864331818e308, 7.36332474468469e307 - 1e293])
        ends = "[7.36332474468468e+307, 7.36332474468468e+307]"
        with pytest.raises(DomainError, match=self.t_window(ends, "holds too few doubles for 4 "
                                                                  "points")):
            od.make_t_grid(a, b, 4)
        with pytest.raises(DomainError, match=self.t_window(ends, "holds too few doubles for 64 "
                                                                  "points")):
            od.check_lu(a, b)

    @pytest.mark.parametrize("topology", ["series", "parallel"])
    def test_default_grid_is_the_quantile_window(self, topology):
        # min/max of the scalar 1e-8 and 1 - 1e-8 quantiles, 2049 points
        make = series if topology == "series" else parallel
        pairs = [(make([1.2, -0.4, 0.3], 0.8), make([0.4, 0.4, 0.3], 0.8)),
                 (make([2.0, 0.0]), make([1.0, 1.0]))]
        for a, b in pairs:
            lo = min(sy.system_quantiles(a, 1e-8), sy.system_quantiles(b, 1e-8))
            hi = max(sy.system_quantiles(a, 1.0 - 1e-8), sy.system_quantiles(b, 1.0 - 1e-8))
            window = np.linspace(lo, hi, od.DEFAULT_X_POINTS)
            for check in (od.check_lr, od.check_hr, od.check_rh, od.check_st):
                assert check(a, b) == check(a, b, window)


class TestParallelClosedForm:
    """A parallel system is Gumbel(L, sigma), so for a shared sigma the pair
    is a location family with a log-concave density: lr, hr, rh and st hold
    in direction first_greater iff L_a >= L_b, and disp holds both ways."""

    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
           st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
           st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_verdicts_follow_the_location(self, mus_a, mus_b, log_sigma):
        sigma = 10.0 ** log_sigma
        a = parallel([m * sigma for m in mus_a], sigma)
        b = parallel([m * sigma for m in mus_b], sigma)
        gap = od.parallel_rh_log_margin(a, b)  # (L_a - L_b)/sigma
        # closer than this, the checks' slack lets both directions hold
        if abs(gap) <= 1e-6 * max(1.0, sigma):
            return
        grid = sy.make_grid(a, b)
        for rel in (Relation.LR, Relation.HR, Relation.RH, Relation.ST):
            v = od.check(rel, a, b, FG, grid=grid)
            assert (v.outcome is Outcome.HOLDS) == (gap > 0), (rel, gap, v)
        for direction in (FG, FS):
            assert od.check_disp(a, b, direction=direction).outcome is Outcome.HOLDS

    @given(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5),
           st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5),
           st.sampled_from([0.5, 1.0, 2.0, 10.0]))
    @settings(max_examples=40, deadline=None)
    def test_lu_follows_the_location(self, mus_a, mus_b, sigma):
        # the residual entropy of Gumbel(L, sigma) is H0((t - L)/sigma) +
        # log sigma, and H0 decreases for an IFR law (Ebrahimi, 1996): lu
        # first_greater holds iff L_a >= L_b, first_smaller iff L_a <= L_b
        a = parallel([m * sigma for m in mus_a], sigma)
        b = parallel([m * sigma for m in mus_b], sigma)
        gap = od.parallel_rh_log_margin(a, b)  # (L_a - L_b)/sigma
        # closer than this, the quadrature tolerance lets both directions
        # hold; measured, they did up to a gap of 3.2e-9
        if abs(gap) <= 1e-7:
            return
        for direction, holds in ((FG, gap > 0), (FS, gap < 0)):
            v = od.check_lu(a, b, direction=direction)
            assert (v.outcome is Outcome.HOLDS) == holds, (direction, gap, v)


class TestInvariance:
    def test_location_equivariance(self):
        a, b = parallel([2, 0]), parallel([1, 1])
        va = od.check_rh(a, b, direction=FG)
        shift = 3.7
        a2 = parallel([m + shift for m in a.mus])
        b2 = parallel([m + shift for m in b.mus])
        vb = od.check_rh(a2, b2, direction=FG)
        assert va.outcome == vb.outcome
        assert va.margin == pytest.approx(vb.margin, rel=1e-6, abs=1e-12)

    def test_permutation_invariance_exact(self):
        a1, b = series([2.0, 0.0, 1.0]), series([1.0, 1.0, 1.0])
        a2 = series([0.0, 1.0, 2.0])
        g = sy.make_grid(a1, b, 129)
        v1 = od.check_hr(a1, b, grid=g, direction=FS)
        v2 = od.check_hr(a2, b, grid=g, direction=FS)
        assert v1.margin == v2.margin and v1.outcome == v2.outcome

    @given(st.sampled_from(["series", "parallel"]),
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
           st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
           st.floats(-3.0, 3.0), st.sampled_from([FG, FS]), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_swap_and_flip(self, topology, mus_a, mus_b, log_sigma, direction, rnd):
        self._assert_swap_and_flip(topology, mus_a, mus_b, log_sigma, direction, rnd)

    @pytest.mark.parametrize("n", [16, sy.MAX_COMPONENTS])
    @pytest.mark.parametrize("topology", ["series", "parallel"])
    @given(data=st.data(), log_sigma=st.floats(-3.0, 3.0), direction=st.sampled_from([FG, FS]),
           rnd=st.randoms())
    @settings(max_examples=5, deadline=None)
    def test_swap_and_flip_up_to_max_components(self, n, topology, data, log_sigma,
                                                direction, rnd):
        mus_a = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        mus_b = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=n))
        self._assert_swap_and_flip(topology, mus_a, mus_b, log_sigma, direction, rnd)

    @staticmethod
    def _assert_swap_and_flip(topology, mus_a, mus_b, log_sigma, direction, rnd):
        # a before b in one direction is b before a in the other: the same
        # statement, so the same outcome, margin and witness; the default
        # grids are symmetric in the pair
        sigma = 10.0 ** log_sigma
        make = series if topology == "series" else parallel
        a, b = make([m * sigma for m in mus_a], sigma), make([m * sigma for m in mus_b], sigma)
        shuffled = make([m * sigma for m in rnd.sample(mus_a, len(mus_a))], sigma)
        for rel in Relation:
            v = od.check(rel, a, b, direction)
            swapped = od.check(rel, b, a, FLIPPED[direction])
            assert (swapped.outcome, swapped.margin, swapped.witness) == \
                (v.outcome, v.margin, v.witness), (rel, v, swapped)
            assert od.check(rel, shuffled, b, direction) == v, rel


class TestAudit:
    def test_identical_systems_all_hold(self):
        a = series([0.2, -0.8])
        rep = od.implication_audit(a, a)
        assert rep.consistent
        assert all(v.holds for v in rep.verdicts.values())

    def test_parallel_dominance_instances(self):
        g = stream(34, "audit")
        for _ in range(10):
            mus_b = g.uniform(-2, 2, 3)
            mus_a = mus_b + g.uniform(0, 1.5, 3)
            rep = od.implication_audit(parallel(mus_a), parallel(mus_b))
            assert rep.consistent
            assert rep.verdicts[(Relation.LR, FG)].holds
            assert rep.verdicts[(Relation.HR, FG)].outcome is not Outcome.FAILS
            assert rep.verdicts[(Relation.RH, FG)].outcome is not Outcome.FAILS

    def test_random_pairs_zero_violations(self):
        g = stream(35, "audit")
        for k in range(60):
            topo_series = bool(g.integers(0, 2))
            mk = series if topo_series else parallel
            sigma = float(g.choice([0.5, 1.0, 2.0]))
            a = mk(g.uniform(-3, 3, 3), sigma)
            b = mk(g.uniform(-3, 3, 3), sigma)
            rep = od.implication_audit(a, b)
            assert rep.consistent, rep.violations

    def test_flat_tail_hazard_is_no_violation(self):
        # on this tail grid both hazards equal 2/sigma within rounding, so hr
        # holds both ways; lu failing one way contradicts no implication
        rep = od.implication_audit(series([0, 0]), series([1, 1]),
                                   grid=np.linspace(25, 35, 200),
                                   include_entropy_orders=True)
        assert rep.verdicts[(Relation.HR, FG)].holds
        assert rep.verdicts[(Relation.LU, FG)].outcome is Outcome.FAILS
        assert rep.consistent, rep.violations

    def test_entropy_orders_use_the_given_grids(self):
        a, b = series([0.0, 0.0]), series([1.0, 1.0])
        ps, ts = od.make_p_grid(33), np.array([0.0, 0.5, 1.0])
        rep = od.implication_audit(a, b, sy.make_grid(a, b, 129), ps, ts,
                                   include_entropy_orders=True)
        for direction in (FS, FG):
            assert rep.verdicts[(Relation.DISP, direction)] == od.check_disp(a, b, ps, direction)
            assert rep.verdicts[(Relation.LU, direction)] == \
                od.check_lu(a, b, ts, direction=direction)
            assert rep.verdicts[(Relation.LU, direction)] != \
                od.check_lu(a, b, direction=direction)

    @pytest.mark.parametrize("run", [od.check_hr, od.check_lu, od.implication_audit],
                             ids=["hr", "lu", "audit"])
    def test_non_system_argument_rejected(self, run):
        with pytest.raises(UsageError, match="SystemModel"):
            run(series([0.0]), object())
        with pytest.raises(UsageError, match="SystemModel"):
            run(gumbel_r(0.0, 1.0), series([0.0]))

    @pytest.mark.parametrize("run", [od.check_lr, od.check_hr, od.check_rh, od.check_st,
                                     od.check_disp, od.check_lu, od.implication_audit],
                             ids=["lr", "hr", "rh", "st", "disp", "lu", "audit"])
    def test_empty_grid_rejected(self, run):
        # numpy used to raise a bare ValueError here, and lr held on no points
        with pytest.raises(UsageError, match="at least one point"):
            run(series([1.0, 0.0]), series([0.5, 0.5]), np.array([]))


class TestVerdictType:
    def test_witness_iff_fails(self):
        with pytest.raises(UsageError):
            od.OrderVerdict(Relation.ST, FS, Outcome.HOLDS,
                            od.Witness(0.0, 1.0, 2.0), 0.1)
        with pytest.raises(UsageError):
            od.OrderVerdict(Relation.ST, FS, Outcome.FAILS, None, -0.1)

    def test_margin_finite(self):
        with pytest.raises(UsageError):
            od.OrderVerdict(Relation.ST, FS, Outcome.HOLDS, None, np.nan)

    def test_direction_flip(self):
        assert FLIPPED[FG] is FS and FLIPPED[FS] is FG and set(FLIPPED) == set(Direction)
        # every check runs FIRST_GREATER on (a, b) as FIRST_SMALLER on (b, a)
        a, b = series([1.0, 0.0]), series([0.5, 0.5])
        assert od._validate_pair(a, b, FG)[:2] == (b, a)
        assert od._validate_pair(a, b, FS)[:2] == (a, b)
