"""Broken-trend estimation, break test, and bootstrap intervals."""

from __future__ import annotations

import datetime as dt
import math
from fractions import Fraction

import numpy as np
import pytest

from gaptrend import (
    AwbConfig,
    break_analysis,
    break_ci,
    break_test,
    draw_multipliers,
    empirical_quantile,
    estimate_break,
    fourier_design,
    observed_days,
    run_replicates,
    slope_cis,
    trimming_set,
)
from gaptrend import SingularDesignError, gen_mask, simulate_series
from gaptrend import breaktrend
from gaptrend.awb import block_size
from gaptrend.breaktrend import BreakScan, BrokenTrendFit

from conftest import gappy_series, make_series, replicate_budget


def kinked_line(T, alpha=1.0, beta=0.5, delta=0.3, kink=60):
    t = np.arange(1, T + 1, dtype=float)
    return alpha + beta * t + delta * np.maximum(0.0, t - kink)


def naive_fit(series, break_at, n_harmonics):
    """Independent oracle: direct least squares on the unscaled design."""
    T = len(series)
    t = np.arange(1, T + 1, dtype=float)
    X = np.column_stack([
        np.ones(T), t, np.maximum(0.0, t - break_at),
        fourier_design(series.calendar_years(), n_harmonics),
    ])
    obs = series.mask == 1
    coef, _, _, _ = np.linalg.lstsq(X[obs], series.values[obs], rcond=None)
    resid = series.values[obs] - X[obs] @ coef
    return coef, float(resid @ resid)


def naive_scan(series, trim, n_harmonics):
    best, best_ssr = None, np.inf
    for c in trim:
        _, ssr = naive_fit(series, int(c), n_harmonics)
        if best is None or ssr < best_ssr - 1e-12 * max(best_ssr, 1.0):
            best, best_ssr = int(c), ssr
    t = np.arange(1, len(series) + 1, dtype=float)
    X0 = np.column_stack([np.ones(len(series)), t,
                          fourier_design(series.calendar_years(), n_harmonics)])
    obs = series.mask == 1
    coef0, _, _, _ = np.linalg.lstsq(X0[obs], series.values[obs], rcond=None)
    r0 = series.values[obs] - X0[obs] @ coef0
    return best, best_ssr, float(r0 @ r0)


class TestTrimmingSet:
    def test_bounds(self):
        for T, fraction, ends in ((100, 0.1, [10, 90]), (285, 0.1, [29, 256]), (10, 0.45, [5, 5]),
                                  (100, 1e-12, [1, 99])):
            trim = trimming_set(T, fraction)
            assert np.issubdtype(trim.dtype, np.integer)
            assert trim[[0, -1]].tolist() == ends
            assert np.array_equal(trim, np.arange(ends[0], ends[1] + 1))
            assert 1 <= trim[0] and trim[-1] <= T - 1

    def test_bounds_match_exact_arithmetic(self):
        # Oracle: ceil(fraction*T) and floor((1-fraction)*T) in rational
        # arithmetic on the decimal fraction. The product rounds past an
        # integer at, e.g., 0.3 * 90 (floor of 0.7 * 90 gives 62, not 63),
        # 0.017 * 3000 and 0.021 * 12000 (ceil gives 52 and 253, not 51
        # and 252).
        for k in range(1, 500):
            exact = Fraction(k, 1000)
            for T in (*range(10, 200), 3000, 12000):
                lo, hi = math.ceil(exact * T), math.floor((1 - exact) * T)
                if lo > hi:
                    with pytest.raises(ValueError, match="empty"):
                        trimming_set(T, k / 1000)
                    continue
                trim = trimming_set(T, k / 1000)
                assert (trim[0], trim[-1]) == (lo, hi), (k, T)

    def test_validation(self):
        with pytest.raises(ValueError):
            trimming_set(100, 0.0)
        with pytest.raises(ValueError):
            trimming_set(100, 0.5)
        with pytest.raises(ValueError):
            trimming_set(3, 0.45)

    def test_unsupported_sides_rejected(self):
        # No observations beyond the upper trim edge: the hinge cannot be
        # identified there.
        mask = np.ones(100, dtype=np.uint8)
        mask[85:] = 0
        series = make_series(kinked_line(100), mask)
        with pytest.raises(ValueError, match="observed points on one side"):
            estimate_break(series, trimming_set(100, 0.1), n_harmonics=0)


def impose_break(series, break_at, n_harmonics):
    return estimate_break(series, np.array([break_at]), n_harmonics)


class TestImposedBreak:
    def test_noiseless_exact(self):
        series = make_series(kinked_line(100))
        fit = impose_break(series, 60, n_harmonics=0)
        assert fit.break_index == 60
        assert fit.alpha == pytest.approx(1.0, abs=1e-8)
        assert fit.beta == pytest.approx(0.5, abs=1e-8)
        assert fit.delta == pytest.approx(0.3, abs=1e-8)
        assert fit.ssr == pytest.approx(0.0, abs=1e-8)

    def test_misplaced_break_cannot_fit(self):
        series = make_series(kinked_line(100))
        assert impose_break(series, 50, n_harmonics=0).ssr > 1.0

    def test_matches_naive_refit_with_gaps_and_harmonics(self, rng):
        # Oracle: closed-form least squares on the same design.
        T = 150
        mask = (rng.random(T) < 0.8).astype(np.uint8)
        mask[[0, -1]] = 1
        series = make_series(1.0 + 0.2 * np.arange(1, T + 1) + rng.normal(0, 0.5, T), mask)
        for n_harmonics in (0, 1):
            for c in (40, 75, 110):
                fit = impose_break(series, c, n_harmonics)
                coef, ssr = naive_fit(series, c, n_harmonics)
                assert fit.break_index == c
                assert [fit.alpha, fit.beta, fit.delta] == pytest.approx(coef[:3], abs=1e-9)
                assert fit.seasonal.a == pytest.approx(coef[3:3 + n_harmonics], abs=1e-9)
                assert fit.seasonal.b == pytest.approx(coef[3 + n_harmonics:], abs=1e-9)
                assert fit.ssr == pytest.approx(ssr, rel=1e-10, abs=1e-9)

    def test_no_change_data_gives_small_delta(self, rng):
        # Oracle: closed-form least squares on the same design.
        T = 150
        series = make_series(1.0 + 0.2 * np.arange(1, T + 1) + rng.normal(0, 0.5, T))
        for c in (40, 75, 110):
            fit = impose_break(series, c, n_harmonics=0)
            coef, ssr = naive_fit(series, c, 0)
            assert fit.delta == pytest.approx(coef[2], abs=1e-9)
            assert fit.ssr == pytest.approx(ssr, rel=1e-10, abs=1e-9)
            t = np.arange(1, T + 1, dtype=float)
            X = np.column_stack([np.ones(T), t, np.maximum(0.0, t - c)])
            sigma2 = ssr / (T - 3)
            se = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[2, 2])
            assert abs(fit.delta) < 4.0 * se

    def test_position_bounds(self):
        series = make_series(kinked_line(50))
        for break_at in (0, 50):
            with pytest.raises(ValueError, match="1..T-1"):
                impose_break(series, break_at, n_harmonics=0)

    def test_unordered_candidates_rejected(self):
        series = make_series(kinked_line(50))
        for trim in (np.array([30, 20]), np.array([20, 20]), np.array([20, 22, 23])):
            with pytest.raises(ValueError, match="ascending"):
                estimate_break(series, trim, n_harmonics=0)

    def test_fitted_trend_continuous_at_break(self):
        series = make_series(kinked_line(100))
        fit = impose_break(series, 60, n_harmonics=0)
        trend = fit.trend_values()
        steps = np.diff(trend)
        # Slope changes at the break, but the level never jumps.
        assert np.max(np.abs(steps)) < 1.0


class TestEstimateBreak:
    def test_noiseless_kink_found(self):
        series = make_series(kinked_line(100))
        fit = estimate_break(series, trimming_set(100, 0.1), n_harmonics=0)
        assert fit.break_index == 60
        assert fit.ssr == pytest.approx(0.0, abs=1e-8)

    def test_pure_line_still_returns_a_break(self, rng):
        series = make_series(2.0 + 0.1 * np.arange(1, 101) + rng.normal(0, 1e-3, 100))
        fit = estimate_break(series, trimming_set(100, 0.1), n_harmonics=0)
        assert 10 <= fit.break_index <= 90

    def test_scan_matches_naive_refit(self, rng):
        for trial in range(4):
            T = int(rng.integers(60, 120))
            mask = (rng.random(T) < 0.7).astype(np.uint8)
            mask[:3] = mask[-3:] = 1
            values = kinked_line(T, delta=rng.uniform(-1, 1), kink=T // 2)
            series = make_series(values + rng.normal(0, 1.0, T), mask)
            trim = trimming_set(T, 0.15)
            fit = estimate_break(series, trim, n_harmonics=0)
            best, best_ssr, _ = naive_scan(series, trim, 0)
            assert fit.break_index == best
            assert fit.ssr == pytest.approx(best_ssr, rel=1e-9, abs=1e-9)

    def test_minimal_ssr_over_all_candidates(self, rng):
        T = 90
        series = make_series(kinked_line(T, kink=45) + rng.normal(0, 0.8, T))
        trim = trimming_set(T, 0.1)
        fit = estimate_break(series, trim, n_harmonics=0)
        for c in trim[::7]:
            assert fit.ssr <= impose_break(series, int(c), n_harmonics=0).ssr + 1e-9

    def test_break_recovery_montecarlo(self):
        # Oracle: repeated synthetic draws; the kink should be located
        # within a few grid steps in the large majority of draws.
        from gaptrend.mcharness import LinearTrendSpec, McDesign, simulate_series

        design = McDesign(
            n_time=285, missing="30%", sigma_eta=26.0,
            trend=LinearTrendSpec(4000.0, -0.5, 1.0, 0.6, "grid"),
            replications=200, n_boot=1, seed=99,
        )
        trim = trimming_set(285, 0.1)
        truth = round(0.6 * 285)
        close = 0
        for draw in range(200):
            series = simulate_series(design, draw)
            fit = estimate_break(series, trim, n_harmonics=0)
            close += int(abs(fit.break_index - truth) <= 10)
        assert close / 200 >= 0.7


def line_test(series, cfg):
    """The break test of the best no-harmonics fit over the default trimming set."""
    return break_test(estimate_break(series, n_harmonics=0), cfg)


class TestBreakTest:
    def test_exact_line_gives_zero_statistic_and_p_one(self):
        series = make_series(2.0 + 0.25 * np.arange(1, 121))
        res = line_test(series, AwbConfig(seed=3, n_boot=49))
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_statistic_nonnegative_and_pvalue_range(self, rng):
        series = make_series(rng.normal(0, 1, 80))
        res = line_test(series, AwbConfig(seed=4, n_boot=39))
        assert res.statistic >= 0.0
        B = 39
        assert 1.0 / (B + 1) <= res.p_value <= 1.0

    def test_clear_break_rejected(self, rng):
        values = kinked_line(200, beta=-0.3, delta=0.6, kink=120) + rng.normal(0, 1.0, 200)
        series = make_series(values)
        res = line_test(series, AwbConfig(seed=5, n_boot=99))
        assert res.reject
        assert res.p_value <= 0.05

    def test_shift_invariance(self, rng):
        noise = rng.normal(0, 1.0, 90)
        a = make_series(kinked_line(90, kink=50) + noise)
        b = make_series(kinked_line(90, kink=50) + noise + 123.0)
        cfg = AwbConfig(seed=8, n_boot=29)
        ra = line_test(a, cfg)
        rb = line_test(b, cfg)
        assert ra.statistic == pytest.approx(rb.statistic, rel=1e-7)
        assert ra.p_value == rb.p_value
        fa = estimate_break(a, n_harmonics=0)
        fb = estimate_break(b, n_harmonics=0)
        assert fa.break_index == fb.break_index
        assert fa.beta == pytest.approx(fb.beta, abs=1e-8)
        assert fa.delta == pytest.approx(fb.delta, abs=1e-8)
        assert fb.alpha - fa.alpha == pytest.approx(123.0, abs=1e-6)

    def test_scale_equivariance_with_matched_seeds(self, rng):
        noise = rng.normal(0, 1.0, 90)
        values = kinked_line(90, kink=50) + noise
        cfg = AwbConfig(seed=8, n_boot=29)
        ra = line_test(make_series(values), cfg)
        rb = line_test(make_series(3.0 * values), cfg)
        assert rb.statistic == pytest.approx(9.0 * ra.statistic, rel=1e-9)
        assert rb.p_value == ra.p_value

    def test_threads_do_not_change_results(self, rng):
        series = make_series(kinked_line(100) + rng.normal(0, 0.5, 100))
        serial = line_test(series, AwbConfig(seed=12, n_boot=32, threads=1))
        threaded = line_test(series, AwbConfig(seed=12, n_boot=32, threads=4))
        assert np.array_equal(serial.draws, threaded.draws)

    def test_alpha_outside_unit_interval_raises_before_any_scan(self, rng, scan_calls):
        # The fit's own scan is the only one: a refused alpha rescans nothing.
        fit = estimate_break(make_series(kinked_line(100) + rng.normal(0, 0.5, 100)),
                             n_harmonics=0)
        for alpha in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="alpha must lie in"):
                break_test(fit, AwbConfig(seed=1, n_boot=9), alpha)
        assert scan_calls == {"init": 1, "scan": [1]}

    def test_statistic_is_the_fits_ssr_reduction(self, rng):
        # Oracle: the no-break and the broken fit by direct least squares.
        series = make_series(kinked_line(100) + rng.normal(0, 0.5, 100))
        fit = estimate_break(series, n_harmonics=0)
        res = break_test(fit, AwbConfig(seed=1, n_boot=9))
        best, best_ssr, ssr0 = naive_scan(series, trimming_set(100), 0)
        assert (fit.break_index, fit.ssr) == (best, pytest.approx(best_ssr, rel=1e-9))
        assert res.statistic == fit.state.f_stat
        assert res.statistic == pytest.approx(ssr0 - best_ssr, rel=1e-9)


class TestBreakCi:
    def test_noiseless_degenerate_interval(self):
        series = make_series(kinked_line(100))
        fit = estimate_break(series, n_harmonics=0)
        ci = break_ci(fit, AwbConfig(seed=3, n_boot=49))
        assert ci.lower_index == ci.upper_index == 60
        assert ci.length == 0
        assert np.all(ci.bootstrap_indices == 60)

    def test_interval_brackets_eventually(self, rng):
        values = kinked_line(200, beta=-0.2, delta=0.5, kink=120) + rng.normal(0, 1.5, 200)
        series = make_series(values)
        fit = estimate_break(series, n_harmonics=0)
        ci = break_ci(fit, AwbConfig(seed=5, n_boot=99))
        assert ci.lower_index <= fit.break_index <= ci.upper_index
        assert not ci.clipped
        assert (ci.lower_index, ci.upper_index) == (ci.basic_lower, ci.basic_upper)

    def test_trim_choice_gives_similar_intervals(self, rng):
        values = kinked_line(300, beta=-0.2, delta=0.4, kink=180) + rng.normal(0, 2.0, 300)
        series = make_series(values)
        cfg = AwbConfig(seed=6, n_boot=99)
        out = {}
        for lam in (0.05, 0.10):
            trim = trimming_set(300, lam)
            fit = estimate_break(series, trim, n_harmonics=0)
            out[lam] = break_ci(fit, cfg)
        a, b = out[0.05], out[0.10]
        assert max(a.lower_index, b.lower_index) <= min(a.upper_index, b.upper_index)
        la, lb = max(a.length, 1), max(b.length, 1)
        assert max(la, lb) / min(la, lb) < 3.0

    def test_replicates_rescan_the_fits_candidates(self, rng):
        # Without a break, replicate breaks spread over whatever set is scanned.
        series = make_series(0.1 * np.arange(1, 201) + rng.normal(0, 4.0, 200))
        trim = trimming_set(200, 0.3)
        fit = estimate_break(series, trim, n_harmonics=0)
        ci = break_ci(fit, AwbConfig(seed=7, n_boot=99))
        assert set(ci.bootstrap_indices.tolist()) <= set(trim.tolist())

    @pytest.mark.parametrize("cell, level, collapses", [(3, 0.95, False), (12, 0.95, False),
                                                         (12, 0.2, True)])
    def test_interval_stays_on_the_candidates(self, cell, level, collapses):
        # Panel A draws at T=666 with 70% missing and no break. The basic
        # interval starts hundreds of days before the record; in cell 12
        # the estimate sits on the lower trimming edge, and at level 0.2
        # the basic interval lies wholly below it.
        from gaptrend.mcharness import N_HARMONICS, TRIM_FRACTION, bootstrap_config, panel_cells

        design = panel_cells("A", 2, 99, 1)[cell]
        series = simulate_series(design, 0)
        trim = trimming_set(design.n_time, TRIM_FRACTION)
        fit = estimate_break(series, trim, N_HARMONICS)
        ci = break_ci(fit, bootstrap_config(design, 0), level=level)
        assert trim[0] <= ci.lower_index <= fit.break_index <= ci.upper_index <= trim[-1]
        assert ci.basic_lower < trim[0] and ci.clipped
        assert ci.lower_index == trim[0]
        if collapses:
            assert ci.basic_upper < trim[0]
            assert ci.upper_index == trim[0]
        else:
            # Where the basic interval meets the candidates, clipping keeps
            # exactly the candidates it covers.
            assert ci.upper_index == ci.basic_upper
            basic = (ci.basic_lower <= trim) & (trim <= ci.basic_upper)
            clipped = (ci.lower_index <= trim) & (trim <= ci.upper_index)
            assert np.array_equal(basic, clipped)


class TestBreakAnalysis:
    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("imposed", [False, True])
    def test_matches_break_test_then_break_ci(self, threads, imposed, multiplier_draws):
        # Oracle: the two public bootstrap passes, one after the other, on a
        # gappy T=397 series with two harmonics. Over the 0.15 trimming set
        # the basic break-date interval starts before the candidates, so
        # clipping moves its lower end; one imposed candidate pins every
        # replicate's break.
        series = gappy_series(np.random.default_rng(41), 397, 0.6, gaps=[(150, 215)])
        trim = np.array([230]) if imposed else trimming_set(397, 0.15)
        fit = estimate_break(series, trim, n_harmonics=2)
        cfg = AwbConfig(seed=8, n_boot=29, threads=threads)
        test, ci = break_analysis(fit, cfg, alpha=0.1, level=0.8)
        assert sorted(b for ids in multiplier_draws for b in ids) == list(range(cfg.n_boot))
        ref = break_test(fit, cfg, alpha=0.1)
        ref_ci = break_ci(fit, cfg, level=0.8)

        for name in ("statistic", "critical_value", "p_value", "alpha"):
            assert getattr(test, name) == getattr(ref, name)
        assert np.array_equal(test.draws, ref.draws)
        for name in ("break_index", "lower_index", "upper_index", "basic_lower", "basic_upper",
                     "level"):
            assert getattr(ci, name) == getattr(ref_ci, name)
        assert np.array_equal(ci.bootstrap_indices, ref_ci.bootstrap_indices)
        assert ci.bootstrap_indices.dtype == ref_ci.bootstrap_indices.dtype
        assert ci.slopes == ref_ci.slopes
        if imposed:
            assert ci.bootstrap_indices.tolist() == [230] * cfg.n_boot
        else:
            assert ci.clipped and ci.basic_lower < ci.lower_index == trim[0]

    def test_each_replicate_draws_and_scans_once(self, scan_calls, multiplier_draws):
        # Per-replicate call budget: the fit's own scan, then one multiplier
        # draw and one scan per replicate, for the test, the intervals and
        # both together. At T=397 a block holds 20 ids: B=17 is one block,
        # B=45 two full blocks and one of 5.
        series = gappy_series(np.random.default_rng(42), 397, 0.6, gaps=[(150, 215)])
        for n_boot in (17, 45):
            cfg = AwbConfig(seed=3, n_boot=n_boot)
            for procedure in (break_test, break_ci, break_analysis):
                scan_calls.update(init=0, scan=[])
                multiplier_draws.clear()
                procedure(estimate_break(series, trimming_set(397, 0.15), n_harmonics=2), cfg)
                assert scan_calls["init"] == 1, procedure.__name__
                replicate_budget(multiplier_draws, scan_calls["scan"], n_boot, 397)

    def test_rates_checked_before_any_scan(self, rng, scan_calls):
        # The fit's own scan is the only one: a refused rate rescans nothing.
        fit = estimate_break(make_series(kinked_line(100) + rng.normal(0, 0.5, 100)),
                             n_harmonics=0)
        cfg = AwbConfig(seed=1, n_boot=9)
        with pytest.raises(ValueError, match="alpha must lie in"):
            break_analysis(fit, cfg, alpha=1.0)
        with pytest.raises(ValueError, match="level must lie in"):
            break_analysis(fit, cfg, level=1.5)
        assert scan_calls == {"init": 1, "scan": [1]}


class TestSlopeCis:
    def test_one_pass_matches_replicates_rebuilt_by_hand(self, rng):
        # Oracle: every replicate rebuilt on the broken fit from its
        # multiplier path and rescanned. break_ci reaches the same scan by
        # shifting the scan of the replicate on the no-break fit, so the
        # breaks agree exactly and the coefficients to rounding: the slope
        # ends to 1e-12 relative, and the intercept's, whose lower end lies
        # near 0 here, to 1e-12 of the larger end.
        values = kinked_line(150, beta=-0.3, delta=0.5, kink=90) + rng.normal(0, 2.0, 150)
        mask = (rng.random(150) < 0.7).astype(np.uint8)
        series = make_series(values, mask)
        trim = trimming_set(150, 0.2)
        fit = estimate_break(series, trim, n_harmonics=1)
        cfg = AwbConfig(seed=12, n_boot=9)
        ci = break_ci(fit, cfg, level=0.8)

        scan = BreakScan(series.mask, series.calendar_years(), trim, 1)
        fitted = fit.fitted_values()
        u_hat = series.mask * (series.values - fitted)
        days = observed_days(cfg, series.mask)
        rows = []
        for b in range(cfg.n_boot):
            xi = np.zeros(150)
            xi[days.positions] = draw_multipliers(cfg, days, [b])[0]
            y = fitted + series.mask * xi * u_hat
            state = scan.scan(y[None])
            coef = scan.coefficients(state)
            rows.append((state.best[0], coef["alpha"][0], coef["beta"][0], coef["delta"][0]))
        best, alphas, betas, deltas = np.array(rows).T
        assert ci.bootstrap_indices.tolist() == best.astype(int).tolist()

        def interval(estimate, boot):
            centered = boot - estimate
            return (estimate - empirical_quantile(centered, 0.9),
                    estimate - empirical_quantile(centered, 0.1))

        for got, estimate, boot in (
            (ci.slopes.intercept, fit.alpha, alphas),
            (ci.slopes.slope_before, fit.beta, betas),
            (ci.slopes.slope_change, fit.delta, deltas),
            (ci.slopes.slope_after, fit.beta + fit.delta, betas + deltas),
        ):
            lower, upper = interval(estimate, boot)
            scale = max(abs(lower), abs(upper)) if got is ci.slopes.intercept else 0.0
            assert got.lower == pytest.approx(lower, rel=1e-12, abs=1e-12 * scale)
            assert got.upper == pytest.approx(upper, rel=1e-12, abs=1e-12 * scale)
        assert slope_cis(fit, cfg, level=0.8) == ci.slopes

    def test_noiseless_zero_width_at_truth(self):
        series = make_series(kinked_line(100, alpha=2.0, beta=-0.4, delta=0.9, kink=60))
        fit = estimate_break(series, n_harmonics=0)
        cis = slope_cis(fit, AwbConfig(seed=3, n_boot=29))
        assert cis.slope_before.estimate == pytest.approx(-0.4, abs=1e-8)
        assert cis.slope_change.estimate == pytest.approx(0.9, abs=1e-8)
        for ci in (cis.intercept, cis.slope_before, cis.slope_change, cis.slope_after):
            assert ci.upper - ci.lower < 1e-6
            assert ci.lower - 1e-7 <= ci.estimate <= ci.upper + 1e-7

    def test_v_shape_sign_pattern(self, rng):
        values = kinked_line(200, beta=-0.5, delta=1.0, kink=120) + rng.normal(0, 1.0, 200)
        series = make_series(values)
        fit = estimate_break(series, n_harmonics=0)
        cis = slope_cis(fit, AwbConfig(seed=4, n_boot=49))
        assert cis.slope_before.upper < 0.0
        assert cis.slope_after.lower > 0.0
        per_year = cis.per_year()
        assert per_year["slope_before"].estimate == pytest.approx(fit.beta * 365.25)

    @pytest.mark.slow
    def test_slope_coverage_montecarlo(self):
        # Oracle: Monte Carlo coverage count for the pre-break slope.
        from gaptrend.mcharness import (
            LinearTrendSpec,
            McDesign,
            bootstrap_config,
            simulate_series,
        )

        design = McDesign(
            n_time=666, missing="30%", sigma_eta=26.0,
            trend=LinearTrendSpec(4000.0, -0.5, 1.0, 0.6, "grid"),
            replications=500, n_boot=399, seed=27,
        )
        trim = trimming_set(666, 0.1)
        covered = 0
        for draw in range(design.replications):
            series = simulate_series(design, draw)
            fit = estimate_break(series, trim, n_harmonics=0)
            cis = slope_cis(fit, bootstrap_config(design, draw))
            covered += int(cis.slope_before.lower <= -0.5 <= cis.slope_before.upper)
        assert 0.90 <= covered / design.replications <= 0.98


class TestScanInternals:
    @pytest.mark.parametrize("n_time", [285, 666, 3000])
    @pytest.mark.parametrize("n_harmonics", [0, 3])
    def test_block_scan_rows_match_one_row_scans(self, n_time, n_harmonics):
        # Oracle: each row of a block scanned alone, as a block of one, over
        # the trimming set and over one imposed candidate, with and without
        # the shift onto a broken fit. The block is one of the runner's
        # (block_size(T) rows) and never fewer than 5.
        rng = np.random.default_rng(n_time + n_harmonics)
        gap = (n_time // 3, n_time // 3 + n_time // 10)
        series = gappy_series(rng, n_time, 0.6, gaps=[gap])
        k = max(block_size(n_time), 5)
        trend = kinked_line(n_time, beta=-0.004, delta=0.01, kink=int(0.6 * n_time))
        block = (trend + rng.normal(0.0, 0.3, (k, n_time))) * series.mask
        years = series.calendar_years()
        for trim in (trimming_set(n_time, 0.15), np.array([n_time // 2])):
            scan = BreakScan(series.mask, years, trim, n_harmonics)
            shift = scan.shift(rng.normal(0.0, 0.3, n_time))
            for extra in ((), (shift,)):
                state = scan.scan(block, *extra)
                rows = [scan.scan(y[None], *extra) for y in block]
                if extra:
                    state, rows = state[1], [shifted for _, shifted in rows]
                coef = scan.coefficients(state)
                for i, one in enumerate(rows):
                    ref = scan.coefficients(one)
                    assert state.best[i] == one.best[0], (trim.size, i)
                    for name in ("f_stat", "ssr0"):
                        assert getattr(state, name)[i] == pytest.approx(
                            getattr(one, name)[0], rel=1e-10), name
                    got = np.r_[coef["alpha"][i], coef["beta"][i] * n_time,
                                coef["delta"][i] * n_time, coef["harmonics"][i], coef["ssr"][i]]
                    want = np.r_[ref["alpha"][0], ref["beta"][0] * n_time,
                                 ref["delta"][0] * n_time, ref["harmonics"][0], ref["ssr"][0]]
                    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), i

    def test_fit_is_its_series_and_scan(self, rng):
        values = kinked_line(300, beta=-0.2, delta=0.4, kink=170) + rng.normal(0, 2.0, 300)
        mask = (rng.random(300) < 0.7).astype(np.uint8)
        series = make_series(values, mask)
        trim = trimming_set(300, 0.15)
        fit = BrokenTrendFit(series, BreakScan(series.mask, series.calendar_years(), trim, 2))
        ref = estimate_break(series, trim, n_harmonics=2)
        for name in ("alpha", "beta", "delta", "break_index", "ssr"):
            assert getattr(fit, name) == getattr(ref, name)
        for name in ("a", "b", "fitted", "extra"):
            assert np.array_equal(getattr(fit.seasonal, name), getattr(ref.seasonal, name))
        assert fit.state.f_stat == ref.state.f_stat and fit.state.best == ref.break_index
        assert np.array_equal(fit.fitted_values(), ref.fitted_values())

        # Oracle: the no-break least-squares fit on the observed days.
        t = np.arange(1, 301, dtype=float)
        Z = np.column_stack([np.ones(300), t, fourier_design(series.calendar_years(), 2)])
        obs = mask == 1
        coef, _, _, _ = np.linalg.lstsq(Z[obs], values[obs], rcond=None)
        assert np.max(np.abs(fit.null_trend - Z @ coef)) <= 1e-10 * np.max(np.abs(Z @ coef))

        cfg = AwbConfig(seed=8, n_boot=7)
        residuals = series.with_values(values - fit.fitted_values())
        expected = run_replicates(cfg, fit.null_trend, residuals, lambda y: y.copy())
        assert np.array_equal(fit.bootstrap(cfg, fit.null_trend, lambda y: y.copy()), expected)

    @pytest.mark.parametrize("design", ["fewer_days_than_columns", "one_day_of_year"])
    def test_singular_fixed_design_raises(self, design):
        # Too few observed days is bad input, refused before any
        # factorization; ten days on one day of the year leave the
        # harmonics collinear, a singular design.
        if design == "fewer_days_than_columns":
            T = 400
            mask = np.zeros(T, dtype=np.uint8)
            mask[[0, 50, 100, 200, 300, 399]] = 1  # 6 days, 8 fixed columns and the hinge
            error, match = ValueError, "need more than 9 observed points, have 6"
        else:
            step = 4 * 365 + 1  # leap-cycle spacing keeps the year fraction fixed
            T = step * 9 + 1
            mask = np.zeros(T, dtype=np.uint8)
            mask[::step] = 1
            error, match = SingularDesignError, "fixed design is singular"
        series = make_series(np.ones(T), mask)
        with pytest.raises(error, match=match):
            BreakScan(mask, series.calendar_years(), trimming_set(T), 3)

    def test_null_fit_and_statistic_match_lstsq_on_short_harmonic_design(self):
        # Oracle: direct least squares on every candidate of a T=285
        # mcharness-style design with three harmonics, the worst-conditioned
        # fixed design the break panels use.
        rng = np.random.default_rng(285)
        T = 285
        mask = gen_mask("30%", T, rng)
        mask[0] = mask[-1] = 1
        series = make_series(kinked_line(T, delta=0.1, kink=150) + rng.normal(0, 18.0, T), mask)
        trim = trimming_set(T, 0.1)
        scan = BreakScan(mask, series.calendar_years(), trim, 3)
        state = scan.scan(series.values[None])

        tau = np.arange(1, T + 1) / T
        Z = np.column_stack([np.ones(T), tau, fourier_design(series.calendar_years(), 3)])
        obs = mask == 1
        y = series.values[obs]
        beta0, _, _, _ = np.linalg.lstsq(Z[obs], y, rcond=None)
        r0 = y - Z[obs] @ beta0
        reductions = []
        for c in trim:
            X = np.column_stack([Z, np.maximum(0.0, tau - c / T)])[obs]
            coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
            r = y - X @ coef
            reductions.append(r0 @ r0 - r @ r)
        assert np.max(np.abs(state.beta0[0] - beta0)) <= 1e-10 * np.max(np.abs(beta0))
        assert state.ssr0[0] == pytest.approx(r0 @ r0, rel=1e-10)
        assert state.f_stat[0] == pytest.approx(max(reductions), rel=1e-10)
        assert state.best[0] == trim[int(np.argmax(reductions))]

    def test_shifted_scan_matches_a_direct_scan(self):
        # Oracle: the scan of y + d made directly, where scan(y, shift)
        # adds d's sums to those of y; the scan of y itself is unchanged.
        # The two responses are scanned as one block.
        rng = np.random.default_rng(43)
        series = gappy_series(rng, 397, 0.6, gaps=[(150, 215)])
        fit = estimate_break(series, trimming_set(397, 0.15), n_harmonics=2)
        scan = fit.scan
        d = fit.fitted_values() - fit.null_trend
        y = np.stack([fit.null_trend + rng.normal(0.0, 0.3, 397), series.values])
        null, shifted = scan.scan(y, scan.shift(d))
        alone, direct = scan.scan(y), scan.scan(y + d)
        for name in ("ssr0", "f_stat", "best", "num"):
            assert np.array_equal(getattr(null, name), getattr(alone, name)), name
        assert np.array_equal(shifted.best, direct.best)
        np.testing.assert_allclose(shifted.ssr0, direct.ssr0, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(shifted.f_stat, direct.f_stat, rtol=1e-10, atol=0.0)
        scale = np.max(np.abs(direct.num), axis=1, keepdims=True)
        assert np.all(np.abs(shifted.num - direct.num) <= 1e-10 * scale)
        assert np.allclose(shifted.beta0, direct.beta0, rtol=1e-10, atol=0.0)

    def test_observed_row_scan_matches_lstsq_at_paper_scale(self):
        # Oracle: least-squares refits on the long station's design, 33
        # years of days with about a quarter observed, a yearly block gap
        # on days 160-219 and three harmonics. The SSR the scan gives at
        # the best break, at 40 candidates spread over the trimming set and
        # at the best break's neighbours matches the refit, and no refit
        # beats the best break.
        rng = np.random.default_rng(12000)
        T = 12000
        days = np.datetime64("1986-01-01") + np.arange(T)
        day_of_year = (days - days.astype("datetime64[Y]")).astype(int) + 1
        mask = (rng.random(T) < 0.3) & ((day_of_year < 160) | (day_of_year > 219))
        mask[[0, -1]] = True
        t = np.arange(1, T + 1, dtype=float)
        years = 1986.0 + (t - 1.0) / 365.25
        values = (3.0 - 1.65 * t / 6600 + 2.0 * np.maximum(0.0, t - 6600) / 5400
                  + 0.32 * np.cos(2 * np.pi * years) + rng.normal(0.0, 0.3, T))
        series = make_series(values, mask.astype(np.uint8), t0=dt.date(1986, 1, 1))
        assert 0.23 < series.observed_fraction < 0.27
        trim = trimming_set(T)
        fit = estimate_break(series, trim, n_harmonics=3)

        tau = t / T
        Z = np.column_stack([np.ones(T), tau, fourier_design(series.calendar_years(), 3)])[mask]
        y = values[mask]

        def refit_ssr(c):
            X = np.column_stack([Z, np.maximum(0.0, tau - c / T)[mask]])
            coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
            r = y - X @ coef
            return float(r @ r)

        best = fit.break_index
        spread = set(np.linspace(trim[0], trim[-1], 40).round().astype(int).tolist())
        for c in sorted(spread | {best - 1, best, best + 1}):
            ssr = fit.scan.coefficients(fit.state._replace(best=np.array([c])))["ssr"][0]
            ref = refit_ssr(c)
            assert ssr == pytest.approx(ref, rel=1e-10), c
            assert fit.ssr <= ref * (1 + 1e-10), c
        assert fit.ssr == pytest.approx(refit_ssr(best), rel=1e-10)

    def test_unidentified_candidates_are_counted_and_never_picked(self, monkeypatch):
        # Observed days: one day of the year every leap cycle (1461 days)
        # for 12 cycles, then the last 40 days. Candidate c0 falls on that
        # day of the year one cycle on, where a three-harmonic term that
        # vanishes on that day follows the hinge over the last 40 days:
        # lstsq leaves 2e-14 of the hinge's squared norm. The scan's own
        # Schur complement there is rounding noise of about 1e-10 of it, at
        # the default tolerance, so the tolerance is raised to 1e-8; the
        # other candidates keep more than 5e-7.
        c0 = 1461 * 12 + 1
        T = c0 + 43
        mask = np.zeros(T, dtype=np.uint8)
        mask[0:c0 - 1:1461] = 1
        mask[T - 40:] = 1
        series = make_series(np.arange(T, dtype=float) % 7, mask)
        trim = np.arange(1461 * 11 + 2, T - 40)
        monkeypatch.setattr(breaktrend, "_SCHUR_RTOL", 1e-8)
        with pytest.warns(UserWarning, match=r"^1 break candidate\(s\) skipped") as caught:
            scan = estimate_break(series, trim).scan
        assert caught[0].filename == __file__
        assert scan.n_skipped == 1
        assert trim[~scan._valid].tolist() == [c0]

        tau = np.arange(1, T + 1) / T
        Z = np.column_stack([np.ones(T), tau, fourier_design(series.calendar_years(), 3)])
        obs = mask == 1
        for c in (c0 - 1, c0, c0 + 1):
            h = np.maximum(0.0, tau - c / T)[obs]
            coef, _, _, _ = np.linalg.lstsq(Z[obs], h, rcond=None)
            r = h - Z[obs] @ coef
            assert ((r @ r) / (h @ h) < 1e-12) == (c == c0)

        for y in (series.values, np.where(np.arange(T) >= c0, np.arange(T) - c0, 0.0)):
            assert scan.scan(y[None]).best[0] != c0
