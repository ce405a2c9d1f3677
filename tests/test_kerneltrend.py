"""Kernel trend estimation, bandwidth cross-validation, and confidence bands."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptrend import (
    AwbConfig,
    bandwidth_grid,
    confidence_bands,
    default_leave_out,
    local_extrema,
    mcv_scan,
    nw_estimate,
    pilot_bandwidth,
    pointwise_bands,
    run_replicates,
    simultaneous_bands,
)
from gaptrend.awb import basic_interval, quantile_row
from gaptrend.kerneltrend import _window_sums, nw_smoother, window_bounds

from conftest import gappy_series, make_series, random_masked_series, traced_peak


def naive_nw(values, mask, h, T):
    """Independent oracle: direct evaluation of the kernel-average formula."""
    out = np.full(T, np.nan)
    for t in range(1, T + 1):
        num = den = 0.0
        for s in range(1, T + 1):
            x = (s / T - t / T) / h
            if abs(x) <= 1.0 and mask[s - 1]:
                w = 0.75 * (1.0 - x * x)
                num += w * values[s - 1]
                den += w
        if den > 0:
            out[t - 1] = num / den
    return out


def naive_mcv(values, mask, h, k, T):
    """Independent oracle: leave-(2k+1)-out score by direct summation."""
    total = 0.0
    any_defined = False
    for t in range(1, T + 1):
        if not mask[t - 1]:
            continue
        num = den = 0.0
        for s in range(1, T + 1):
            if abs(s - t) <= k or not mask[s - 1]:
                continue
            x = (s / T - t / T) / h
            if abs(x) <= 1.0:
                w = 0.75 * (1.0 - x * x)
                num += w * values[s - 1]
                den += w
        if den > 0:
            any_defined = True
            total += (num / den - values[t - 1]) ** 2
    return total / T if any_defined else np.inf


def direct_window_sums(x, h, leave_out=None, chunk=256):
    """Oracle at realistic sizes: every window's weighted sums formed directly,
    a block of centres at a time.

    Returns the kernel sums of x, of |x| (the scale of x's sums) and of the
    indicator x != 0 (zero where no nonzero value carries weight).
    """
    T = x.shape[0]
    m = h * T
    reach = min(int(np.floor(m)), T - 1)
    cols = np.stack([x, np.abs(x), (x != 0).astype(np.float64)], axis=1)
    out = np.empty((T, 3))
    for lo in range(0, T, chunk):
        centres = np.arange(lo, min(lo + chunk, T))
        near = np.arange(max(lo - reach, 0), min(centres[-1] + reach + 1, T))
        d = near[None, :] - centres[:, None]
        # (m - d)(m + d) keeps the digits of the outermost weights, which
        # 1 - (d/m)^2 loses when hT lies just above an integer.
        w = np.where(np.abs(d) <= m, 0.75 * (m - d) * (m + d) / (m * m), 0.0)
        if leave_out is not None:
            w[np.abs(d) <= leave_out] = 0.0
        out[centres] = w @ cols[near]
    return out[:, 0], out[:, 1], out[:, 2]


def direct_mcv(values, mask, h, k):
    """Oracle at realistic sizes: the leave-(2k+1)-out score from direct window sums."""
    T = values.shape[0]
    num = direct_window_sums(np.where(mask == 1, values, 0.0), h, k)[0]
    den = direct_window_sums(mask.astype(np.float64), h, k)[0]
    ok = (mask == 1) & (den > 0)
    if not ok.any():
        return np.inf
    return float(((num[ok] / den[ok] - values[ok]) ** 2).sum()) / T


def check_window_bounds(obs, centres, h, T):
    """``window_bounds`` against the brute-force rule |o - t| < h*T."""
    lo, hi = window_bounds(obs, centres, h, T)
    inside = np.abs(obs[None, :] - centres[:, None]) < h * T
    index = np.arange(obs.shape[0])
    np.testing.assert_array_equal((index >= lo[:, None]) & (index < hi[:, None]), inside)


class TestWindowBounds:
    # hT = 120 and 600 exactly, and 420 + 6e-14 for h = 0.035.
    @pytest.mark.parametrize("h", [0.01, 0.035, 0.05, 0.25, 2.0])
    def test_matches_brute_force_at_long_series(self, h):
        T = 12000
        rng = np.random.default_rng(T)
        obs = np.flatnonzero(rng.random(T) < 0.3)
        centres = np.unique(np.r_[0, T - 1, rng.integers(0, T, 400), obs[:100] + 120])
        check_window_bounds(obs, centres, h, T)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 800), st.floats(1e-3, 1.5))
    def test_matches_brute_force(self, seed, T, h):
        rng = np.random.default_rng(seed)
        obs = np.flatnonzero(rng.random(T) < rng.uniform(0.05, 1.0))
        check_window_bounds(obs, np.arange(T), h, T)


class TestWindowSums:
    T = 12000

    @pytest.fixture(scope="class")
    def inputs(self):
        # A 25%-observed mask with two long gaps, each holding one lone
        # observed day, so that empty windows and windows holding only
        # leave-out observations occur at the smaller bandwidths.
        rng = np.random.default_rng(12000)
        mask = (rng.random(self.T) < 0.25).astype(np.float64)
        mask[2000:2600] = 0.0
        mask[5000:6400] = 0.0
        mask[[2300, 5700]] = 1.0
        return {
            "mask": mask,
            "positive": mask * rng.uniform(0.5, 3.0, self.T),
            "signed": mask * rng.normal(0.0, 1.0, self.T),
        }

    # hT = 120, 600 and 3000 exactly; 0.035 * 12000 lies just above 420, so
    # the outermost offsets +-420 carry a weight of about 1e-16.
    @pytest.mark.parametrize("h", [0.01, 0.035, 0.05, 0.25])
    @pytest.mark.parametrize("leave_out", [None, "default"])
    def test_matches_direct_sums_at_realistic_size(self, inputs, h, leave_out):
        k = default_leave_out(self.T) if leave_out == "default" else None
        for name, x in inputs.items():
            got = _window_sums(x, h, k)
            want, scale, support = direct_window_sums(x, h, k)
            err = np.abs(got - want)
            assert np.all(err <= 1e-10 * scale), (name, float(np.max(err / np.maximum(scale, 1e-300))))
            assert np.all(got[support == 0] == 0.0), name
        if h == 0.01:
            assert (support == 0).any()  # the exact-zero check was exercised

    # Blocks are L = max(r, 1) long, r = min(ceil(hT) - 1, T - 1) the reach:
    # hT = 0.999 and 1.798 give one-position blocks; 0.035 * T lies just
    # above an integer at T = 3000 and 12000; h >= 1 caps the reach at T - 1;
    # and T is no multiple of L except at L = 1 and at (12000, 0.0007), L = 8.
    @pytest.mark.parametrize("T, h", [
        (285, 0.05), (285, 1.0), (666, 0.0015), (666, 0.0027), (666, 2.0),
        (3000, 0.013), (3000, 0.035), (12000, 0.0007), (12000, 0.035),
    ])
    # "edges" leaves only the two outermost offsets, "reach" nothing at all.
    @pytest.mark.parametrize("leave_out", [None, 0, "default", "edges", "reach"])
    def test_matches_direct_sums_across_sizes(self, T, h, leave_out):
        rng = np.random.default_rng(T)
        mask = (rng.random(T) < 0.25).astype(np.float64)
        mask[T // 6: T // 6 + T // 20] = 0.0
        mask[T // 6 + T // 40] = 1.0
        r = min(int(np.ceil(h * T)) - 1, T - 1)
        k = {"default": default_leave_out(T), "edges": max(r - 1, 0), "reach": r}.get(
            leave_out, leave_out)
        for x in (mask, mask * rng.uniform(0.5, 3.0, T), mask * rng.normal(0.0, 1.0, T)):
            got = _window_sums(x, h, k)
            want, scale, support = direct_window_sums(x, h, k)
            assert np.all(np.abs(got - want) <= 1e-10 * scale)
            assert np.all(got[support == 0] == 0.0)

    @pytest.mark.parametrize("h", [0.01, 0.05])
    def test_peak_memory_within_eleven_series(self, inputs, h):
        # The padded blocks' three prefix sums (3.1-3.3 T), the difference
        # piece of the block before (3 T), the output and one weighted piece.
        peak = traced_peak(lambda: _window_sums(inputs["signed"], h))
        assert peak <= 11 * self.T * 8

    def test_window_of_two_outermost_observations(self):
        # hT = 105 + 1.4e-14: two observations 210 days apart with none
        # between are the only ones in the window of their midpoint, both
        # at weight ~1e-16, far below the rounding of the moment sums.
        T, h = 3000, 0.035
        mask = np.zeros(T, dtype=np.uint8)
        mask[:1000:3] = 1
        mask[[1000, 1210]] = 1
        mask[1213::3] = 1
        values = np.where(mask == 1, 2.0, 0.0)
        values[[1000, 1210]] = 1.3, 2.9
        fit = nw_estimate(make_series(values, mask), h)
        assert fit.g_hat[1105] == pytest.approx(2.1, abs=1e-12)

    def test_mcv_matches_direct_sums_at_realistic_size(self):
        rng = np.random.default_rng(2400)
        T = 2400
        mask = (rng.random(T) < 0.4).astype(np.uint8)
        mask[600:900] = 0
        mask[[0, 750, T - 1]] = 1
        t = np.arange(1, T + 1) / T
        series = make_series(np.sin(4.0 * t) + rng.normal(0.0, 0.3, T), mask)
        grid = np.array([0.02, 0.05, 0.1, 0.25])
        res = mcv_scan(series, grid)
        assert res.k == default_leave_out(T)
        for h, score in zip(grid, res.scores):
            oracle = direct_mcv(series.values, series.mask, h, res.k)
            assert score == pytest.approx(oracle, rel=1e-10)


class TestNwEstimate:
    def test_constant_series(self, rng):
        series = random_masked_series(rng, 80)
        series = make_series(np.full(80, 4.2), series.mask)
        fit = nw_estimate(series, 0.15)
        g = fit.g_hat[fit.defined]
        assert np.max(np.abs(g - 4.2)) < 1e-12

    def test_single_point_window(self):
        mask = np.zeros(101, dtype=np.uint8)
        mask[[10, 90]] = 1
        values = np.zeros(101)
        values[10], values[90] = 3.0, -1.5
        series = make_series(values, mask)
        fit = nw_estimate(series, 0.05)  # window of 5 grid steps each side
        assert fit.g_hat[10] == 3.0
        assert fit.g_hat[90] == -1.5
        assert np.isnan(fit.g_hat[50])  # desert gap flagged, not fabricated

    def test_one_observation_windows_return_the_observation(self):
        # Observations 200 days apart, windows of 59 days each side: every
        # defined position sees one observation, so the trend is a
        # staircase of the observed values with one minimum, the run
        # around day 801.
        T = 3000
        mask = np.zeros(T, dtype=np.uint8)
        mask[::200] = 1
        t = np.linspace(0.0, 1.0, T)
        series = make_series(t * t - t / 2.0, mask)
        fit = nw_estimate(series, 0.02)
        at = np.flatnonzero(fit.defined)
        nearest = np.round(at / 200.0).astype(np.int64) * 200
        assert np.array_equal(fit.g_hat[at], series.values[nearest])
        assert local_extrema(fit.g_hat, "min").tolist() == [801 - 59]
        assert local_extrema(fit.g_hat, "max").size == 0

    def test_smoother_takes_the_observed_values(self):
        # The smoother reads a series' values on the observed days and gives
        # the trend on the whole grid: a 400-day gap holding one lone day
        # puts undefined, one-observation and averaged windows side by side.
        # h T = 60.9 keeps every day off the window's zero-weight edge, where
        # the oracle's rounding may count a day the smoother leaves out.
        # A grid-length row on this mask is refused, not read.
        T = 3000
        series = gappy_series(np.random.default_rng(T), T, 0.4, gaps=[(1000, 1400)],
                              singles=[1200])
        fit = nw_estimate(series, 0.0203)
        trend = fit.smooth(series.values[series.mask == 1])
        assert trend.tobytes() == fit.g_hat.tobytes()
        np.testing.assert_allclose(trend, naive_nw(series.values, series.mask, 0.0203, T),
                                   rtol=0.0, atol=1e-12, equal_nan=True)
        assert trend[1200] == series.values[1200] and np.isnan(trend[1100])
        with pytest.raises(ValueError):
            fit.smooth(series.values)

    def test_toy_matches_hand_table(self):
        series = make_series([1.0, 2.0, 0.0, 4.0, 5.0], [1, 1, 0, 1, 1])
        fit = nw_estimate(series, 0.45)
        oracle = naive_nw(series.values, series.mask, 0.45, 5)
        np.testing.assert_allclose(fit.g_hat, oracle, atol=1e-12)

    def test_matches_oracle_random_instances(self, rng):
        for _ in range(5):
            T = int(rng.integers(20, 120))
            series = random_masked_series(rng, T, observed_fraction=0.5)
            h = float(rng.uniform(0.03, 0.4))
            fit = nw_estimate(series, h)
            oracle = naive_nw(series.values, series.mask, h, T)
            np.testing.assert_allclose(fit.g_hat, oracle, atol=1e-12, equal_nan=True)

    def test_convex_combination_bounds(self, rng):
        series = random_masked_series(rng, 150, observed_fraction=0.4)
        fit = nw_estimate(series, 0.1)
        obs_vals = series.values[series.mask == 1]
        g = fit.g_hat[fit.defined]
        assert g.min() >= obs_vals.min() - 1e-12
        assert g.max() <= obs_vals.max() + 1e-12

    def test_shift_and_scale_equivariance(self, rng):
        series = random_masked_series(rng, 100)
        fit = nw_estimate(series, 0.12)
        shifted = nw_estimate(series.with_values(series.values + 5.0), 0.12)
        scaled = nw_estimate(series.with_values(series.values * -2.5), 0.12)
        d = fit.defined
        np.testing.assert_allclose(shifted.g_hat[d], fit.g_hat[d] + 5.0, atol=1e-10)
        np.testing.assert_allclose(scaled.g_hat[d], fit.g_hat[d] * -2.5, atol=1e-10)

    def test_large_bandwidth_approaches_global_mean(self, rng):
        series = random_masked_series(rng, 120, observed_fraction=0.7)
        mean = series.values[series.mask == 1].mean()
        fit = nw_estimate(series, 50.0)
        spread = np.ptp(series.values[series.mask == 1])
        assert np.max(np.abs(fit.g_hat - mean)) < 2e-3 * max(spread, 1.0)

    def test_rejects_bad_inputs(self, rng):
        series = random_masked_series(rng, 30)
        with pytest.raises(ValueError):
            nw_estimate(series, 0.0)


class TestMcv:
    def test_k_zero_equals_leave_one_out(self, rng):
        # Oracle: an independently coded leave-one-out score.
        T = 50
        series = random_masked_series(rng, T, observed_fraction=0.8)
        for h in (0.1, 0.2, 0.35):
            res = mcv_scan(series, np.array([h]), k=0)
            assert res.scores[0] == pytest.approx(
                naive_mcv(series.values, series.mask, h, 0, T), rel=1e-10
            )

    def test_matches_oracle_general_k(self, rng):
        for _ in range(4):
            T = int(rng.integers(30, 90))
            series = random_masked_series(rng, T, observed_fraction=0.6)
            h = float(rng.uniform(0.08, 0.35))
            k = int(rng.integers(0, 6))
            res = mcv_scan(series, np.array([h]), k=k)
            oracle = naive_mcv(series.values, series.mask, h, k, T)
            assert res.scores[0] == pytest.approx(oracle, rel=1e-10)

    def test_monotone_increasing_curve_flagged(self, rng):
        # A steep smooth signal with faint noise always prefers the
        # smallest bandwidth, so the score curve has no interior minimum.
        T = 300
        t = np.arange(1, T + 1) / T
        series = make_series(np.sin(6 * np.pi * t) * 10 + rng.normal(0, 0.01, T))
        res = mcv_scan(series, bandwidth_grid(0.02, 0.12, 0.01), k=0)
        assert res.no_interior_minimum
        assert res.local_minima.size == 0
        with pytest.raises(ValueError, match="no interior"):
            res.pick(0)

    def test_inclusive_grid_count(self):
        grid = bandwidth_grid(0.01, 0.25, 0.005)
        assert grid.size == 49
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.25)

    def test_empty_leave_out_scores_infinite_with_warning(self, rng):
        series = random_masked_series(rng, 60)
        with pytest.warns(UserWarning, match="empty leave-out"):
            res = mcv_scan(series, np.array([0.03]), k=10)  # hole swallows the window
        assert np.isinf(res.scores[0])

    def test_multiple_minima_reported_and_pickable(self, rng):
        T = 240
        t = np.arange(1, T + 1) / T
        values = np.sin(2 * np.pi * t) + rng.normal(0, 0.4, T)
        series = make_series(values)
        res = mcv_scan(series, bandwidth_grid(0.02, 0.3, 0.02), k=2)
        if res.local_minima.size:
            assert not res.no_interior_minimum
            assert res.pick(0) == res.grid[res.local_minima[0]]
            with pytest.raises(ValueError, match="out of range"):
                res.pick(res.local_minima.size)

    def test_default_leave_out_width(self):
        from gaptrend import default_leave_out

        assert default_leave_out(666) == int(np.ceil(1.75 * 666 ** (1 / 3)))


class TestPilotBandwidth:
    def test_formula(self):
        # Oracle: high-precision evaluation of 0.5 * h^(5/9).
        oracle = 0.5 * np.exp((5.0 / 9.0) * np.log(0.1))
        assert pilot_bandwidth(0.1) == pytest.approx(0.139128, abs=1e-6)
        assert pilot_bandwidth(0.1) == pytest.approx(oracle, abs=1e-14)
        assert pilot_bandwidth(0.1) > 0.1  # oversmoothing by construction

    def test_fit_pilot_is_the_trend_at_the_pilot_bandwidth(self):
        series = gappy_series(np.random.default_rng(5), 1500, 0.4, gaps=[(600, 700)])
        fit = nw_estimate(series, 0.03)
        expected = nw_smoother(series.mask, pilot_bandwidth(0.03))(series.values[series.mask == 1])
        assert np.array_equal(fit.pilot, expected, equal_nan=True)
        assert fit.pilot is fit.pilot  # formed once

    def test_fit_bootstrap_resamples_the_residuals_around_the_pilot(self, rng):
        series = random_masked_series(rng, 300)
        fit = nw_estimate(series, 0.1)
        cfg = AwbConfig(seed=3, n_boot=7)
        residuals = series.with_values(series.values - fit.pilot)
        expected = run_replicates(cfg, fit.pilot, residuals, lambda y: y.copy())
        assert np.array_equal(fit.bootstrap(cfg, fit.pilot, lambda y: y.copy()), expected)


def isolated_v_series(spacing=30, n_points=9, h=0.05):
    """Observed points so far apart that each sits alone in every window,
    making the pilot residuals exactly zero."""
    T = spacing * n_points
    mask = np.zeros(T, dtype=np.uint8)
    positions = np.arange(n_points) * spacing + spacing // 2
    mask[positions] = 1
    depth = np.abs(np.arange(n_points) - n_points // 2).astype(float)
    values = np.zeros(T)
    values[positions] = depth
    return make_series(values, mask), positions


def scanned_bands(g_hat, deviations, level):
    """Oracle: the band calibration as a linear scan over every admissible
    rate, reading the full sort of the deviations. Returns (alpha_s, joint
    coverage, lower, upper, pointwise lower, pointwise upper)."""
    alpha = 1.0 - level
    B = deviations.shape[0]
    ordered = np.sort(deviations, axis=0)
    pointwise = basic_interval(g_hat, ordered, alpha)
    defined = np.isfinite(g_hat) & np.isfinite(deviations).all(axis=0)
    grid = list(np.arange(1, int(np.floor(B * alpha)) + 1) / B)
    if not grid:
        grid = [1.0 / B]
    elif grid[-1] < alpha:
        grid.append(alpha)
    best_ap, best_score, best_cov = None, np.inf, 0.0
    for ap in grid:
        lo = np.where(defined, ordered[quantile_row(ap / 2.0, B)], -np.inf)
        hi = np.where(defined, ordered[quantile_row(1.0 - ap / 2.0, B)], np.inf)
        inside = (~((deviations < lo) | (deviations > hi)).any(axis=1)).mean()
        score = abs(inside - level)
        if score < best_score:
            best_ap, best_score, best_cov = ap, score, inside
    lower, upper = basic_interval(np.where(defined, g_hat, np.nan), ordered, best_ap)
    return (float(best_ap), float(best_cov), lower, upper) + pointwise


def calibrated_bands(g_hat, deviations, level):
    """The two band layers in the order ``confidence_bands`` calls them,
    returned as :func:`scanned_bands` returns its result."""
    ordered, pointwise_lower, pointwise_upper = pointwise_bands(g_hat, deviations, level)
    return simultaneous_bands(g_hat, deviations, ordered, level) + (pointwise_lower,
                                                                     pointwise_upper)


def band_toy(rng, B, T, case):
    """Smooth deviation paths, three random walks mixed plus a little noise,
    so joint coverage falls gradually along the rates, with the trend's
    value 0 and the defects of ``case``: values rounded to 0.1 (``ties``),
    undefined trend columns, undefined path entries, or no defined column
    at all."""
    walks = np.cumsum(rng.normal(size=(3, T)), axis=1) / np.sqrt(T)
    dev = rng.normal(size=(B, 3)) @ walks + rng.uniform(0.0, 0.1) * rng.normal(size=(B, T))
    g = np.zeros(T)
    if case == "ties":
        dev = np.round(dev, 1)
    elif case == "nan_trend":
        g[rng.choice(T, size=T // 5, replace=False)] = np.nan
    elif case == "nan_paths":
        dev[rng.integers(0, B, size=T // 4), rng.integers(0, T, size=T // 4)] = np.nan
    elif case == "undefined":
        g[:] = np.nan
    return g, dev


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestBands:
    def test_zero_residuals_give_zero_width(self):
        series, _ = isolated_v_series()
        fit = nw_estimate(series, 0.02)
        band = confidence_bands(fit, AwbConfig(seed=1, n_boot=29), level=0.95)
        d = fit.defined
        np.testing.assert_allclose(band.pointwise_lower[d], fit.g_hat[d], atol=1e-12)
        np.testing.assert_allclose(band.pointwise_upper[d], fit.g_hat[d], atol=1e-12)

    def test_simultaneous_contains_pointwise(self, rng):
        series = random_masked_series(rng, 200, observed_fraction=0.6)
        fit = nw_estimate(series, 0.1)
        band = confidence_bands(fit, AwbConfig(seed=2, n_boot=99))
        d = fit.defined
        assert np.all(band.lower[d] <= band.pointwise_lower[d] + 1e-12)
        assert np.all(band.upper[d] >= band.pointwise_upper[d] - 1e-12)
        assert np.all(band.pointwise_lower[d] <= fit.g_hat[d] + 1e-12)
        assert np.all(band.pointwise_upper[d] >= fit.g_hat[d] - 1e-12)
        assert band.alpha_s <= 1.0 - band.level + 1e-12

    def test_band_level_nesting(self, rng):
        series = random_masked_series(rng, 150, observed_fraction=0.7)
        fit = nw_estimate(series, 0.12)
        cfg = AwbConfig(seed=3, n_boot=199)
        b95 = confidence_bands(fit, cfg, level=0.95)
        b99 = confidence_bands(fit, cfg, level=0.99)
        d = fit.defined
        assert np.all(b99.lower[d] <= b95.lower[d] + 1e-12)
        assert np.all(b99.upper[d] >= b95.upper[d] - 1e-12)

    def test_alpha_s_matches_brute_force_on_toy(self):
        # Oracle: exhaustive scan over the admissible pointwise rates, on
        # the columns where the trend and every path are defined.
        rng = np.random.default_rng(7)
        B, T = 40, 8
        dev = rng.normal(size=(B, T))
        g = np.zeros(T)
        g[2] = np.nan
        dev[5, 6] = np.nan
        ordered, _, _ = pointwise_bands(g, dev, 0.75)
        alpha_s, joint, lower, upper = simultaneous_bands(g, dev, ordered, 0.75)

        defined = [0, 1, 3, 4, 5, 7]
        D = dev[:, defined]
        s = np.sort(D, axis=0)

        def rows(ap):
            lo_i = min(max(int(np.ceil(ap / 2 * B)) - 1, 0), B - 1)
            hi_i = min(max(int(np.ceil((1 - ap / 2) * B)) - 1, 0), B - 1)
            return lo_i, hi_i

        def coverage(ap):
            lo_i, hi_i = rows(ap)
            inside = (D >= s[lo_i]) & (D <= s[hi_i])
            return inside.all(axis=1).mean()

        grid = [k / B for k in range(1, int(np.floor(B * 0.25)) + 1)]
        scores = [abs(coverage(ap) - 0.75) for ap in grid]
        best = grid[int(np.argmin(scores))]
        assert alpha_s == pytest.approx(best)
        assert joint == coverage(best)
        lo_i, hi_i = rows(best)
        np.testing.assert_array_equal(lower[defined], -s[hi_i])
        np.testing.assert_array_equal(upper[defined], -s[lo_i])
        assert np.isnan(lower[[2, 6]]).all() and np.isnan(upper[[2, 6]]).all()

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("B", [19, 20, 40, 99, 149, 999])
    def test_calibration_is_bit_identical_to_a_scan_over_every_rate(self, B, level):
        # 300 columns cross one chunk boundary of the sort and of the
        # coverage count.
        rng = np.random.default_rng(1000 * B + int(100 * level))
        for case in ("plain", "ties", "nan_trend", "nan_paths", "undefined"):
            g, dev = band_toy(rng, B, 300, case)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                expected = scanned_bands(g, dev, level)
                got = calibrated_bands(g, dev, level)
            assert got[:2] == expected[:2], case
            for name, a, b in zip(("lower", "upper", "pointwise lower", "pointwise upper"),
                                  got[2:], expected[2:]):
                assert same_bits(a, b), (case, name)
            assert len(seen) == int(B * (1.0 - level) < 1.0)

    def test_tie_between_plateau_and_first_rate_below_takes_the_plateau(self):
        # B=16 at level 0.75 admits rates 1/16..4/16, reading rows (0, 15),
        # (0, 14), (1, 14) and (1, 13). Paths 0 and 1 hold rows 15 and 0 in
        # every column and paths 2-5 row 14 in one column each, so coverage
        # runs 1, 14/16, 14/16, 10/16: the plateau at 0.875 and the rate
        # below it at 0.625 both lie 0.125 from the level, exactly. A scan
        # takes the first rate of the plateau, 2/16.
        B, T = 16, 4
        dev = np.empty((B, T))
        for t in range(T):
            top, bottom = (0, 1) if t % 2 == 0 else (1, 0)
            order = [bottom] + [b for b in range(6, B)] + [b for b in range(2, 6) if b != 2 + t]
            order += [2 + t, top]
            dev[order, t] = np.arange(B)
        g = np.zeros(T)
        alpha_s, joint, lower, upper, _, _ = calibrated_bands(g, dev, 0.75)
        assert (alpha_s, joint) == (2 / 16, 0.875)
        np.testing.assert_array_equal(lower, -np.full(T, 14.0))
        np.testing.assert_array_equal(upper, np.zeros(T))
        assert (alpha_s, joint) == scanned_bands(g, dev, 0.75)[:2]

    def test_band_layers_hold_little_beside_the_deviations(self):
        # The calibration reads the tail rows of the sort and counts
        # coverage a column chunk at a time: well under half the deviation
        # matrix beside it, where a sorted copy alone would be all of it.
        rng = np.random.default_rng(11)
        B, T = 199, 6000
        dev = rng.normal(size=(B, T))
        g = np.zeros(T)
        g[2000:2400] = np.nan
        dev[5, 100] = np.nan

        def both():
            ordered, _, _ = pointwise_bands(g, dev, 0.95)
            simultaneous_bands(g, dev, ordered, 0.95)

        assert traced_peak(both) <= 0.5 * B * T * 8

    def test_widest_band_warning_when_level_unreachable(self, rng):
        dev = rng.normal(size=(9, 4))
        g = np.zeros(4)
        ordered, _, _ = pointwise_bands(g, dev, 0.99)
        with pytest.warns(UserWarning):
            alpha_s, _, _, _ = simultaneous_bands(g, dev, ordered, 0.99)
        assert alpha_s == pytest.approx(1.0 / 9.0)

    def test_warns_when_the_full_envelope_over_covers(self):
        # B=40 at level 0.95 admits rates 1/40 and 2/40. At h=0.02 on 600
        # days the band spans many nearly independent stretches, so 2/40
        # covers far too few paths and 1/40, the full envelope, is chosen at
        # coverage 1.0: 0.05 from the level against a Monte Carlo error of
        # 0.034.
        series = random_masked_series(np.random.default_rng(1), 600, observed_fraction=0.6)
        fit = nw_estimate(series, 0.02)
        with pytest.warns(UserWarning, match="Monte Carlo error 0.034"):
            band = confidence_bands(fit, AwbConfig(seed=1, n_boot=40), level=0.95)
        assert (band.alpha_s, band.joint_coverage) == (pytest.approx(1 / 40), 1.0)

    def test_no_warning_within_monte_carlo_error(self):
        # A wide bandwidth makes the paths smooth, so coverage falls in steps
        # of about 1/B: 0.9447 at B=199, within 0.0154 of the level.
        series = random_masked_series(np.random.default_rng(3), 300, observed_fraction=0.6)
        fit = nw_estimate(series, 0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            band = confidence_bands(fit, AwbConfig(seed=3, n_boot=199), level=0.95)
        assert band.joint_coverage == pytest.approx(188 / 199)

    def test_memory_one_deviation_matrix_sorted_once(self):
        # The bands hold the deviations and the tail rows of their sort,
        # nothing more; the gap leaves undefined positions, which take no
        # sliced copy.
        T, B = 3000, 199
        series = gappy_series(np.random.default_rng(3), T, 0.6, gaps=[(1400, 1700)])
        fit = nw_estimate(series, 0.04)
        assert not fit.defined.all()
        peak = traced_peak(lambda: confidence_bands(fit, AwbConfig(seed=1, n_boot=B)))
        assert peak <= 2.5 * B * T * 8

    @pytest.mark.slow
    def test_pointwise_coverage_montecarlo(self):
        # Oracle: Monte Carlo coverage of the true trend value at mid-sample.
        from gaptrend.mcharness import McDesign, SmoothTransitionSpec, bootstrap_config, simulate_series

        design = McDesign(
            n_time=400, missing="30%", phi=0.1, sigma_eta=0.5,
            trend=SmoothTransitionSpec(), replications=300, n_boot=199, seed=31,
        )
        from gaptrend import gen_trend

        truth = gen_trend(design.trend, 400)
        mid = 199
        covered = n_ok = 0
        for draw in range(design.replications):
            series = simulate_series(design, draw)
            fit = nw_estimate(series, 0.1)
            if not np.isfinite(fit.g_hat[mid]):
                continue
            band = confidence_bands(fit, bootstrap_config(design, draw), level=0.95)
            n_ok += 1
            covered += int(band.pointwise_lower[mid] <= truth[mid] <= band.pointwise_upper[mid])
        assert n_ok > 250
        assert 0.88 <= covered / n_ok <= 0.99

    def test_horizontal_line_rarely_fits_in_band_on_trending_data(self):
        # A flat line should almost never embed in the band over a
        # segment where the trend clearly rises.
        from gaptrend.mcharness import LinearTrendSpec, McDesign, bootstrap_config, simulate_series

        design = McDesign(
            n_time=300, missing="30%", phi=0.1, sigma_eta=0.35,
            trend=LinearTrendSpec(0.0, 1.5, 0.0, 0.5, "rescaled"),
            replications=60, n_boot=99, seed=37,
        )
        embeds = 0
        for draw in range(design.replications):
            series = simulate_series(design, draw)
            fit = nw_estimate(series, 0.1)
            band = confidence_bands(fit, bootstrap_config(design, draw), level=0.95)
            seg = slice(60, 240)
            lo, hi = band.lower[seg], band.upper[seg]
            ok = np.isfinite(lo) & np.isfinite(hi)
            embeds += int(np.nanmax(lo[ok]) <= np.nanmin(hi[ok]))
        assert embeds / design.replications <= 0.15
