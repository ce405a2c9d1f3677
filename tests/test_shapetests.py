"""Extremum location, linearity test from the trend minimum, and monotonicity tests."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaptrend import (
    AwbConfig,
    NoInteriorExtremumError,
    extremum_ci,
    linearity_test,
    local_extrema,
    monotonicity_tests,
    nw_estimate,
    trend_minimum,
    u_stat_bandwidth,
)
from gaptrend import kerneltrend, shapetests
from gaptrend.shapetests import nearest_extremum

from conftest import (
    gappy_series,
    make_series,
    on_caller_threads,
    random_masked_series,
    traced_peak,
)


def u_stat_profiles(series, interval, h_u=None):
    """Pairwise-test profiles at every grid position of ``interval`` (1-based),
    from a ``UStatEngine`` over the observed days, built as
    ``monotonicity_tests`` builds it; ``h_u`` defaults to its bandwidth."""
    T = len(series)
    lo, hi = interval
    obs = np.flatnonzero(series.mask == 1)
    h_u = u_stat_bandwidth(T) if h_u is None else h_u
    return shapetests.UStatEngine(obs, np.arange(lo - 1, hi), T, h_u).profiles(series.values[obs])


def naive_u_profiles(obs_pos, y_obs, eval_pos, T, h_u):
    """Independent oracle: direct double sum over observed pairs."""
    u1 = np.zeros(eval_pos.shape[0])
    u2 = np.zeros(eval_pos.shape[0])
    scale = -2.0 / (T * (T - 1.0))
    for k, t in enumerate(eval_pos):
        w = np.zeros(obs_pos.shape[0])
        for i, p in enumerate(obs_pos):
            x = ((p - t) / T) / h_u
            if abs(x) < 1.0:
                w[i] = 0.75 * (1.0 - x * x) / h_u
        s1 = s2 = 0.0
        n = obs_pos.shape[0]
        for i in range(n):
            if w[i] == 0.0:
                continue
            for j in range(i + 1, n):
                if w[j] == 0.0:
                    continue
                diff = y_obs[j] - y_obs[i]
                s1 += np.sign(diff) * w[i] * w[j]
                s2 += diff * w[i] * w[j]
        u1[k] = scale * s1
        u2[k] = scale * s2
    return u1, u2


def direct_u_profiles(obs_pos, y_obs, eval_pos, T, h_u):
    """Oracle at realistic sizes: the pair sum of each window, one position at a time."""
    u1 = np.empty(eval_pos.shape[0])
    u2 = np.empty(eval_pos.shape[0])
    scale = -2.0 / (T * (T - 1.0))
    for k, t in enumerate(eval_pos):
        sel = np.abs(obs_pos - t) < h_u * T
        x = (obs_pos[sel] - t) / T / h_u
        w = 0.75 * (1.0 - x * x) / h_u
        diff = np.triu(y_obs[sel][None, :] - y_obs[sel][:, None], k=1)  # y_j - y_i, i < j
        ww = np.outer(w, w)
        u1[k] = scale * (np.sign(diff) * ww).sum()
        u2[k] = scale * (diff * ww).sum()
    return u1, u2


class ReferenceLayoutEngine:
    """The pairwise engine in its former layout, kept as an oracle for the
    dense blocks: u2 from fixed blocks of 32 evaluation positions padded to
    the widest block's span, u1 band sums from the events sorted by band
    length, read in chunks over the longest band of each chunk with the part
    past the shortest band masked. Event construction and quadratic form
    are those of ``UStatEngine``."""

    CHUNK = 1 << 15
    ROWS = 32

    def __init__(self, o, t, n_time, h_u):
        windows = np.lib.stride_tricks.sliding_window_view
        self.n_eval = n = t.shape[0]
        scale = -2.0 / (n_time * (n_time - 1.0))
        r = h_u * n_time
        lo = np.searchsorted(o, t - r, side="right")
        hi = np.searchsorted(o, t + r, side="left")

        n_blocks = -(-n // self.ROWS)
        first = np.arange(n_blocks) * self.ROWS
        last = np.minimum(first + self.ROWS, n) - 1
        self.block_lo = lo[first]
        self.span = span = max(int((hi[last] - lo[first]).max()), 1)
        coef = np.zeros((n_blocks * self.ROWS, span))
        for b in range(n_blocks):
            tb = t[first[b]: last[b] + 1]
            ob = o[lo[first[b]]: hi[last[b]]]
            z = (ob[None, :] - tb[:, None]) / n_time / h_u
            w = np.maximum(0.75 * (1.0 - z * z), 0.0) / h_u
            before = np.cumsum(w, axis=1) - w
            total = w.sum(axis=1, keepdims=True)
            coef[first[b]: last[b] + 1, : ob.shape[0]] = w * (2.0 * before + w - total)
        coef *= scale
        self.u2_coef = coef.reshape(n_blocks, self.ROWS, span)

        seg_len = max(int(r), 1)
        seg = (t - t[0]) // seg_len
        restart = np.ones(n, dtype=bool)
        restart[1:] = seg[1:] != seg[:-1]
        origin = t[0] + seg * seg_len + seg_len // 2
        prev_lo = np.where(restart, lo, np.roll(lo, 1))
        prev_hi = np.where(restart, lo, np.roll(hi, 1))
        n_leave = np.maximum(np.minimum(lo, prev_hi) - prev_lo, 0)
        first_enter = np.maximum(prev_hi, lo)
        leave, leave_at = shapetests._concat_ranges(prev_lo, n_leave)
        enter, enter_at = shapetests._concat_ranges(first_enter, hi - first_enter)
        point = np.concatenate((leave, enter))
        at = np.concatenate((leave_at, enter_at))
        band_start = np.concatenate((leave + 1, lo[enter_at]))
        band_len = np.concatenate((prev_hi[leave_at], enter)) - band_start
        keep = np.flatnonzero(band_len > 0)
        keep = keep[np.argsort(at[keep], kind="stable")]
        point, at, band_start, band_len = point[keep], at[keep], band_start[keep], band_len[keep]
        self.through = np.searchsorted(at, np.arange(n), side="right")
        seg_first = np.searchsorted(at, np.flatnonzero(restart), side="left")
        self.before = seg_first[np.cumsum(restart) - 1]
        self.origin = origin[at].astype(np.float64)
        x = (o[point] - origin[at]).astype(np.float64)
        self.phi = np.stack((np.ones_like(x), x, x * x), axis=1)
        tau = (t - origin).astype(np.float64)
        a = np.stack((r * r - tau * tau, 2.0 * tau, -np.ones(n)), axis=1)
        form = (a[:, :, None] * a[:, None, :]).reshape(n, 9)
        form *= -scale * (0.75 / (h_u * r * r)) ** 2
        form[hi - lo < 2] = 0.0
        self.form = form

        by_len = np.argsort(band_len, kind="stable")
        self.time_order = np.argsort(by_len)
        self.point = point[by_len]
        self.band_start = band_start[by_len]
        band_len = band_len[by_len]
        width_max = int(band_len[-1]) if band_len.shape[0] else 1
        rows = max(self.CHUNK // width_max, 1)
        self.pad = np.zeros(max(width_max, span))
        pos = np.concatenate((o.astype(np.float64), self.pad))
        pos2 = pos * pos
        self.chunks = []
        for e0 in range(0, band_len.shape[0], rows):
            e1 = min(e0 + rows, band_len.shape[0])
            full, width = int(band_len[e0]), int(band_len[e1 - 1])
            tail = (np.arange(full, width) < band_len[e0:e1, None]).astype(np.float64)
            self.chunks.append((e0, e1, width, full, tail, windows(pos, width),
                                windows(pos2, width)))

    def band_sums(self, y_obs):
        """Band sums of sign(y_partner - y_point) * (1, o, o^2), in time order."""
        windows = np.lib.stride_tricks.sliding_window_view
        y_pad = np.concatenate((y_obs, self.pad))
        sums = np.empty((self.point.shape[0], 3))
        y_point = y_obs[self.point]
        for e0, e1, width, full, tail, pos, pos2 in self.chunks:
            start = self.band_start[e0:e1]
            sgn = windows(y_pad, width)[start]
            sgn -= y_point[e0:e1, None]
            np.sign(sgn, out=sgn)
            sgn[:, full:] *= tail
            sums[e0:e1, 0] = sgn.sum(axis=1)
            sums[e0:e1, 1] = np.einsum("ek,ek->e", sgn, pos[start])
            sums[e0:e1, 2] = np.einsum("ek,ek->e", sgn, pos2[start])
        return sums[self.time_order]

    def profiles(self, y_obs):
        windows = np.lib.stride_tricks.sliding_window_view
        y_pad = np.concatenate((y_obs, self.pad))
        yb = windows(y_pad, self.span)[self.block_lo]
        yb -= yb[:, :1]
        u2 = np.matmul(self.u2_coef, yb[:, :, None]).reshape(-1)[: self.n_eval]

        d = self.band_sums(y_obs)
        s0, s1, s2 = d.T
        c = self.origin
        d1 = s1 - c * s0
        d[:, 2] = s2 - c * (s1 + d1)
        d[:, 1] = d1
        steps = (d[:, :, None] * self.phi[:, None, :]).reshape(-1, 9)
        cum = np.zeros((steps.shape[0] + 1, 9))
        np.cumsum(steps, axis=0, out=cum[1:])
        moments = cum[self.through]
        moments -= cum[self.before]
        return np.einsum("nk,nk->n", self.form, moments), u2


def traced_setup(build) -> tuple[int, int]:
    """Bytes that ``build()`` leaves allocated (its result kept alive), and
    its peak, both beyond what was allocated before, as ``tracemalloc``
    sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = build()
        held, peak = tracemalloc.get_traced_memory()
        del kept
        return held - base, peak - base
    finally:
        tracemalloc.stop()


class TestBandwidth:
    def test_reference_values(self):
        assert round(u_stat_bandwidth(2935), 3) == 0.101
        assert round(u_stat_bandwidth(814), 3) == 0.131
        assert round(u_stat_bandwidth(1399), 3) == 0.117

    def test_validation(self):
        with pytest.raises(ValueError):
            u_stat_bandwidth(1)


class TestLocalExtrema:
    def test_example_sequence(self):
        g = np.array([3.0, 1.0, 2.0, 0.0, 5.0])
        assert local_extrema(g, "min").tolist() == [2, 4]
        assert local_extrema(g, "max").tolist() == [3]
        assert nearest_extremum(np.array([2, 4]), 4) == 4
        assert nearest_extremum(np.array([2, 4]), 1) == 2

    def test_tie_goes_to_earlier_index(self):
        assert nearest_extremum(np.array([2, 6]), 4) == 2

    def test_plateau_counted_once_at_first_position(self):
        g = np.array([1.0, 0.0, 0.0, 1.0])
        assert local_extrema(g, "min").tolist() == [2]

    def test_monotone_has_none(self):
        assert local_extrema(np.arange(6.0), "min").size == 0
        assert local_extrema(np.arange(6.0)[::-1], "min").size == 0

    def test_staircases_have_no_extrema(self):
        down = np.array([3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0])
        for g in (down, down[::-1], -down, -down[::-1]):
            assert local_extrema(g, "min").size == 0
            assert local_extrema(g, "max").size == 0

    def test_plateau_between_higher_levels_is_one_minimum(self):
        g = np.array([2.0, 1.0, 1.0, 1.0, 3.0, 3.0, 0.5, 0.5])
        assert local_extrema(g, "min").tolist() == [2]
        assert local_extrema(g, "max").tolist() == [5]

    def test_nan_gaps_use_defined_neighbours(self):
        g = np.array([3.0, np.nan, 1.0, np.nan, 2.0])
        assert local_extrema(g, "min").tolist() == [3]

    def test_run_edge_next_to_undefined_stretch_is_not_an_extremum(self):
        # The trend may keep falling (rising) inside the undefined stretch.
        g = np.array([3.0, 2.0, 1.0, np.nan, np.nan, 2.0, 3.0])
        assert local_extrema(g, "min").size == 0
        assert local_extrema(-g, "max").size == 0
        # Inside a run the usual test applies.
        g = np.array([3.0, 1.0, 2.0, np.nan, 4.0, 0.5, 5.0])
        assert local_extrema(g, "min").tolist() == [2, 6]

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            local_extrema(np.arange(4.0), "saddle")


def isolated_series(values_at_points, spacing=40):
    n = len(values_at_points)
    T = spacing * n
    mask = np.zeros(T, dtype=np.uint8)
    pos = np.arange(n) * spacing + spacing // 2
    mask[pos] = 1
    vals = np.zeros(T)
    vals[pos] = values_at_points
    return make_series(vals, mask)


class TestExtremumCi:
    def test_noiseless_v_degenerates_to_point(self):
        # Observed points spaced wider than every kernel window make the
        # pilot residuals exactly zero, so every replicate reproduces the
        # original trend.
        series = isolated_series([3.0, 2.0, 1.0, 2.0, 3.0])
        fit = nw_estimate(series, 0.03)
        res = extremum_ci(fit, AwbConfig(seed=2, n_boot=49), kind="min")
        assert res.location == res.lower_index == res.upper_index
        assert np.all(res.bootstrap_locations == res.location)
        assert res.value == 1.0

    def test_monotone_trend_raises(self):
        series = isolated_series([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = nw_estimate(series, 0.03)
        with pytest.raises(NoInteriorExtremumError):
            extremum_ci(fit, AwbConfig(seed=2, n_boot=19), kind="min")

    def test_decreasing_trend_raises(self):
        series = isolated_series([5.0, 4.0, 3.0, 2.0, 1.0])
        fit = nw_estimate(series, 0.03)
        with pytest.raises(NoInteriorExtremumError):
            extremum_ci(fit, AwbConfig(seed=2, n_boot=19), kind="min")

    def test_monotone_trend_raises_for_maximum(self):
        series = isolated_series([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = nw_estimate(series, 0.03)
        with pytest.raises(NoInteriorExtremumError):
            extremum_ci(fit, AwbConfig(seed=2, n_boot=19), kind="max")

    def test_maximum_kind(self):
        series = isolated_series([1.0, 2.0, 4.0, 2.0, 1.0])
        fit = nw_estimate(series, 0.03)
        res = extremum_ci(fit, AwbConfig(seed=2, n_boot=29), kind="max")
        assert res.location == res.lower_index == res.upper_index
        assert res.value == 4.0

    def test_no_extremum_beside_an_undefined_run(self):
        # A V whose bottom falls in a long gap: the trend is undefined at
        # 120-231 and falls into that stretch from the left.
        T = 400
        mask = np.ones(T, dtype=np.uint8)
        mask[100:250] = 0
        series = make_series(np.abs(np.arange(1, T + 1) - 175.0) / T, mask)
        fit = nw_estimate(series, 0.05)
        assert np.isnan(fit.g_hat[119:231]).all()
        assert local_extrema(fit.g_hat, "min").size == 0
        with pytest.raises(NoInteriorExtremumError):
            extremum_ci(fit, AwbConfig(seed=2, n_boot=19), kind="min")

    def test_estimate_is_lowest_interior_extremum(self):
        # The trend is lowest at the sample end, which is no interior minimum.
        T = 300
        t = np.arange(1, T + 1) / T
        series = make_series(np.cos(3.0 * np.pi * t) * (1.0 - 0.1 * t) - 0.8 * t)
        fit = nw_estimate(series, 0.05)
        assert int(np.nanargmin(fit.g_hat)) + 1 == T
        cands = local_extrema(fit.g_hat, "min")
        lowest = int(cands[np.argmin(fit.g_hat[cands - 1])])
        res = extremum_ci(fit, AwbConfig(seed=1, n_boot=49), kind="min")
        assert res.location == lowest
        assert res.value == fit.g_hat[lowest - 1]
        assert res.lower_index <= res.location <= res.upper_index
        flipped = make_series(-series.values)
        res_max = extremum_ci(nw_estimate(flipped, 0.05), AwbConfig(seed=1, n_boot=49), kind="max")
        assert res_max.location == lowest

    def test_estimate_ties_go_to_the_earliest(self):
        series = isolated_series([3.0, 1.0, 2.0, 1.0, 3.0])
        fit = nw_estimate(series, 0.03)
        res = extremum_ci(fit, AwbConfig(seed=2, n_boot=19), kind="min")
        assert res.location == local_extrema(fit.g_hat, "min")[0] < 100

    def test_interval_orders_and_dates(self, rng):
        T = 300
        t = np.arange(1, T + 1) / T
        trend = (t - 0.5) ** 2 * 8.0
        series = make_series(trend + rng.normal(0, 0.3, T))
        fit = nw_estimate(series, 0.12)
        res = extremum_ci(fit, AwbConfig(seed=5, n_boot=99), kind="min")
        assert res.lower_index <= res.location <= res.upper_index
        assert abs(res.location - 150) < 60

    def test_coverage_montecarlo(self):
        # Oracle: Monte Carlo coverage of the true minimum position for a
        # dip-shaped smooth trend.
        from gaptrend.mcharness import McDesign, SmoothTransitionSpec, bootstrap_config, simulate_series
        from gaptrend import gen_trend

        trend = SmoothTransitionSpec(base=2.0, shift1=-1.5, shift2=1.8,
                                     steepness=8.0, center1=0.25, center2=0.65)
        design = McDesign(n_time=400, missing="30%", phi=0.1, sigma_eta=0.4,
                          trend=trend, replications=300, n_boot=99, seed=41)
        truth = int(np.argmin(gen_trend(trend, 400))) + 1
        covered = n_ok = 0
        for draw in range(design.replications):
            series = simulate_series(design, draw)
            fit = nw_estimate(series, 0.1)
            try:
                res = extremum_ci(fit, bootstrap_config(design, draw), kind="min")
            except NoInteriorExtremumError:
                continue
            n_ok += 1
            covered += int(res.lower_index - 5 <= truth <= res.upper_index + 5)
        assert n_ok > 250
        assert covered / n_ok >= 0.88

    def test_memory_holds_no_replicate_matrix(self):
        # Each replicate keeps one position, so the peak stays far below
        # one (B, T) float matrix.
        T, B = 3000, 199
        series = gappy_series(np.random.default_rng(3), T, 0.6, gaps=[(1400, 1700)])
        fit = nw_estimate(series, 0.04)
        peak = traced_peak(lambda: extremum_ci(fit, AwbConfig(seed=1, n_boot=B)))
        assert peak <= 0.5 * B * T * 8


class TestLinearityTest:
    def test_piecewise_linear_statistics_shrink_with_bandwidth(self):
        T = 200
        t = np.arange(1, T + 1, dtype=float)
        kink = 100
        values = np.where(t <= kink, kink - t, t - kink) / T
        series = make_series(values)
        fit = nw_estimate(series, 2.5 / T)
        res = linearity_test(fit, AwbConfig(seed=3, n_boot=29))
        assert res.anchor_index == trend_minimum(fit) == kink
        spread = values.max() - values.min()
        assert res.sup.statistic < (spread * 0.05) ** 2
        assert res.ave.statistic <= res.sup.statistic

    def test_sup_dominates_ave(self, rng):
        noise = random_masked_series(rng, 240, observed_fraction=0.7)
        fit = nw_estimate(noise.with_values(noise.values + np.abs(np.arange(240) - 120) / 60), 0.1)
        res = linearity_test(fit, AwbConfig(seed=4, n_boot=39))
        assert 0.0 <= res.ave.statistic <= res.sup.statistic

    def test_requires_points_after_anchor(self):
        # At h*T = 1 the trend is the series itself, lowest on day T-1:
        # the window from there to the end holds two days.
        T = 100
        values = np.r_[np.arange(T - 1, 0, -1.0), 5.0]
        fit = nw_estimate(make_series(values), 1.0 / T)
        assert trend_minimum(fit) == T - 1
        with pytest.raises(ValueError, match="fewer than 3 observed points"):
            linearity_test(fit, AwbConfig(seed=1, n_boot=9))

    def test_strong_curvature_rejected(self, rng):
        T = 400
        t = np.arange(1, T + 1) / T
        trend = 2.0 * np.sin(np.pi * t)  # rises then falls: nothing like a line
        series = make_series(trend + rng.normal(0, 0.15, T))
        fit = nw_estimate(series, 0.1)
        res = linearity_test(fit, AwbConfig(seed=6, n_boot=99))
        assert res.ave.p_value <= 0.05
        assert res.ave.reject

    def test_alpha_outside_unit_interval_raises_before_any_replicate(self, rng, monkeypatch):
        series = random_masked_series(rng, 150, observed_fraction=0.8)
        fit = nw_estimate(series, 0.12)
        monkeypatch.setattr(kerneltrend, "run_replicates", None)
        for alpha in (0.0, 1.0, 1.2):
            with pytest.raises(ValueError, match="alpha must lie in"):
                linearity_test(fit, AwbConfig(n_boot=9), alpha)
            with pytest.raises(ValueError, match="alpha must lie in"):
                monotonicity_tests(fit, (20, 140), AwbConfig(n_boot=9), alpha)

    def test_pvalue_convention(self, rng):
        series = random_masked_series(rng, 150, observed_fraction=0.8)
        fit = nw_estimate(series, 0.12)
        res = linearity_test(fit, AwbConfig(seed=7, n_boot=19))
        assert 1.0 / 20.0 <= res.ave.p_value <= 1.0
        assert 1.0 / 20.0 <= res.sup.p_value <= 1.0


class TestUStatistics:
    def test_strictly_increasing_series_negative_everywhere(self):
        T = 120
        series = make_series(np.arange(T, dtype=float))
        p1, p2 = u_stat_profiles(series, (15, 105))
        assert p1.max() < 0.0
        assert p2.max() < 0.0

    def test_matches_naive_oracle(self, rng):
        for _ in range(4):
            T = int(rng.integers(50, 160))
            series = random_masked_series(rng, T, observed_fraction=0.5)
            h_u = float(rng.uniform(0.08, 0.3))
            lo = int(rng.integers(1, T // 3))
            hi = int(rng.integers(2 * T // 3, T))
            p1, p2 = u_stat_profiles(series, (lo, hi), h_u)
            obs = np.flatnonzero(series.mask == 1)
            o1, o2 = naive_u_profiles(obs, series.values[obs], np.arange(lo - 1, hi), T, h_u)
            np.testing.assert_allclose(p1, o1, atol=1e-12)
            np.testing.assert_allclose(p2, o2, atol=1e-12)

    @pytest.mark.parametrize(
        "T, fraction, h_u, gaps, singles, decimals, interval",
        [
            # Default bandwidth (origin restarts every 218 positions).
            (2000, 0.5, None, [], [], None, (700, 2000)),
            # Gaps longer than the window (2 h_u T = 240) leave windows with
            # no point or one point; values on a 0.1 grid tie often.
            (2400, 0.4, 0.05, [(800, 1150), (1500, 1800)], [1650], 1, (300, 2300)),
            # The whole range of a station-like mask, a 60-day gap each year:
            # the origin restarts every 326 positions, 10 times after the first.
            (3300, 0.3, None, [(day, day + 60) for day in range(160, 3300, 365)], [], None,
             (1, 3300)),
        ],
    )
    def test_matches_direct_sums_at_realistic_size(
        self, T, fraction, h_u, gaps, singles, decimals, interval
    ):
        rng = np.random.default_rng(T)
        series = gappy_series(rng, T, fraction, gaps, singles, decimals)
        if h_u is None:
            h_u = u_stat_bandwidth(T)
        lo, hi = interval
        assert hi - lo >= 3 * h_u * T  # crosses at least three origin restarts
        p1, p2 = u_stat_profiles(series, interval, h_u)
        obs = np.flatnonzero(series.mask == 1)
        eval_pos = np.arange(lo - 1, hi)
        o1, o2 = direct_u_profiles(obs, series.values[obs], eval_pos, T, h_u)
        np.testing.assert_allclose(p1, o1, rtol=0, atol=1e-12 * np.abs(o1).max())
        np.testing.assert_allclose(p2, o2, rtol=0, atol=1e-12 * np.abs(o2).max())
        counts = (np.abs(obs[None, :] - eval_pos[:, None]) < h_u * T).sum(axis=1)
        assert np.all(p1[counts < 2] == 0.0) and np.all(p2[counts < 2] == 0.0)
        if any(end - start > 2 * h_u * T for start, end in gaps):
            assert (counts == 0).any() and (counts == 1).any()
        if decimals is not None:
            assert np.unique(series.values[obs]).size < obs.size

    def test_masked_points_contribute_nothing(self, rng):
        # Doubling the grid with masked filler leaves the observed-pair sums
        # intact once the kernel rescaling of the denser grid is applied.
        T = 60
        series = random_masked_series(rng, T, observed_fraction=0.6)
        obs = np.flatnonzero(series.mask == 1)
        h_u = 0.2
        direct = naive_u_profiles(obs, series.values[obs], np.arange(9, 50), T, h_u)
        p1, p2 = u_stat_profiles(series, (10, 50), h_u)
        np.testing.assert_allclose(p1, direct[0], atol=1e-12)
        np.testing.assert_allclose(p2, direct[1], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sign_version_invariant_to_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        T = 50
        series = random_masked_series(rng, T, observed_fraction=0.7)
        base1, _ = u_stat_profiles(series, (5, 45), 0.25)
        for transform in (np.exp, lambda x: x**3 + 2 * x, lambda x: np.arctan(x) * 7):
            mapped = series.with_values(transform(series.values))
            p1, _ = u_stat_profiles(mapped, (5, 45), 0.25)
            np.testing.assert_array_equal(p1, base1)

    def test_magnitude_version_scale_and_shift(self, rng):
        series = random_masked_series(rng, 80, observed_fraction=0.6)
        _, base2 = u_stat_profiles(series, (10, 70), 0.2)
        _, shifted = u_stat_profiles(series.with_values(series.values + 11.0), (10, 70), 0.2)
        _, scaled = u_stat_profiles(series.with_values(series.values * 3.0), (10, 70), 0.2)
        np.testing.assert_allclose(shifted, base2, atol=1e-12)
        np.testing.assert_allclose(scaled, 3.0 * base2, rtol=1e-10, atol=1e-14)


class TestDenseBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 400), st.sampled_from([5, 60, 3000, 20000]))
    def test_blocks_cover_the_rows_in_order(self, seed, n_rows, widest):
        rng = np.random.default_rng(seed)
        starts = np.sort(rng.integers(0, 4 * n_rows, n_rows))
        ends = starts + rng.integers(0, widest, n_rows)
        blocks = shapetests._dense_blocks(starts, ends)
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == n_rows
        for r0, r1, c0, c1 in blocks:
            assert c0 == starts[r0] and c1 == ends[r0:r1].max()
            size = (r1 - r0) * (c1 - c0)
            assert size <= shapetests._BLOCK or r1 - r0 == 1
            if r1 < n_rows:  # one more row would overfill the block
                assert (r1 + 1 - r0) * (max(c1, ends[r1]) - c0) > shapetests._BLOCK

    @pytest.mark.parametrize("T", [285, 666, 3000, 12000])
    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_matches_the_reference_layout(self, T, fraction):
        # u1 is a sum of exact integers, so it must match the sign pass bit
        # for bit: on the series, on tie-free normals, on values on a 0.1
        # grid (ties inside the bands) and on a constant (every pair tied);
        # u2 moves in its last digits.
        rng = np.random.default_rng([T, int(10 * fraction)])
        series = gappy_series(rng, T, fraction)
        obs = np.flatnonzero(series.mask == 1)
        eval_pos = np.arange(T // 4, T)
        h_u = u_stat_bandwidth(T)
        engine = shapetests.UStatEngine(obs, eval_pos, T, h_u)
        reference = ReferenceLayoutEngine(obs, eval_pos, T, h_u)
        normal = rng.normal(size=obs.size)
        assert np.unique(normal).size == obs.size
        rounded = np.round(series.values[obs], 1)
        for y in (series.values[obs], normal, rounded, np.full(obs.size, 2.5)):
            p1, p2 = engine.profiles(y)
            r1, r2 = reference.profiles(y)
            np.testing.assert_array_equal(p1, r1)
            assert np.abs(p2 - r2).max() <= 1e-12 * np.abs(r2).max()
        # The rounded values tie inside the bands: without the tie term the
        # band sums are not the sign sums.
        untied = 2.0 * engine._band_sums(np.greater, rounded) - engine._band_powers
        assert not np.array_equal(untied[engine._time_order], reference.band_sums(rounded))

    @pytest.mark.parametrize("T, n_eval", [(3000, 1351), (12000, 5400)])
    def test_memory_within_the_reference_layout(self, T, n_eval):
        # The bench stations' designs, about 25% observed with a 60-day gap
        # every year: the station-monotone interval (the last 1351 of 3000
        # positions) and the long station's last 45%. The engine holds no
        # (positions x points) array, so set-up leaves a few MB at most.
        gaps = [(day, day + 60) for day in range(160, T, 365)]
        series = gappy_series(np.random.default_rng(T), T, 0.3, gaps)
        obs = np.flatnonzero(series.mask == 1)
        assert 0.23 < obs.size / T < 0.27
        eval_pos = np.arange(T - n_eval, T)
        h_u = u_stat_bandwidth(T)
        held, peak = traced_setup(lambda: shapetests.UStatEngine(obs, eval_pos, T, h_u))
        ref_held, ref_peak = traced_setup(lambda: ReferenceLayoutEngine(obs, eval_pos, T, h_u))
        assert held <= min(ref_held, 8 * 2**20)
        assert peak <= ref_peak

    def test_refuses_a_design_past_exact_sign_sums(self):
        # The band sums are exact while K T^2 < 2^53, K the most points in
        # one window. Here every point lies in the window of position 0.
        T = 2**25
        h_u = u_stat_bandwidth(T)
        eval_pos = np.arange(5)
        shapetests.UStatEngine(np.arange(7) * 1000, eval_pos, T, h_u)  # 7 * 2^50
        with pytest.raises(ValueError, match=r"2\^53"):
            shapetests.UStatEngine(np.arange(8) * 1000, eval_pos, T, h_u)  # 2^53
        with pytest.raises(ValueError, match=r"2\^53"):
            shapetests.UStatEngine(np.array([5, 70, 900]), eval_pos, 2**27,
                                   u_stat_bandwidth(2**27))

    @pytest.mark.parametrize("end", [False, True])
    def test_exact_at_the_largest_accepted_design(self, end):
        # The 7-point design above, and its mirror at the end of the grid,
        # where o^2 is near 2^50 and twice the comparison sums pass 2^53.
        T = 2**25
        h_u = u_stat_bandwidth(T)
        obs, eval_pos = np.arange(7) * 1000, np.arange(5)
        if end:
            obs, eval_pos = T - 1 - obs[::-1], T - 1 - eval_pos[::-1]
        engine = shapetests.UStatEngine(obs, eval_pos, T, h_u)
        reference = ReferenceLayoutEngine(obs, eval_pos, T, h_u)
        tied = np.array([0.5, 0.5, 0.2, 0.9, 0.2, 0.5, 0.1])
        untied = np.random.default_rng(7).normal(size=7)
        for y in (tied, untied):
            np.testing.assert_array_equal(engine.profiles(y)[0], reference.profiles(y)[0])


class TestMonotonicityTests:
    def test_interval_validation(self, rng):
        series = random_masked_series(rng, 60)
        cfg = AwbConfig(seed=1, n_boot=9)
        with pytest.raises(ValueError, match="interval"):
            monotonicity_tests(nw_estimate(series, 0.1), (0, 50), cfg)
        with pytest.raises(ValueError, match="interval"):
            monotonicity_tests(nw_estimate(series, 0.1), (10, 61), cfg)

    def test_increasing_trend_not_rejected(self, rng):
        T = 300
        series = make_series(0.5 * np.arange(1, T + 1) / T + rng.normal(0, 0.1, T))
        res = monotonicity_tests(nw_estimate(series, 0.1), (30, 270), AwbConfig(seed=2, n_boot=49))
        assert res.sign.statistic < res.sign.critical_value
        assert res.magnitude.statistic < res.magnitude.critical_value
        assert not res.sign.reject and not res.magnitude.reject

    def test_clear_decline_rejected(self, rng):
        T = 300
        t = np.arange(1, T + 1) / T
        trend = np.where(t < 0.5, t, 1.0 - t) * 4.0
        series = make_series(trend + rng.normal(0, 0.1, T))
        res = monotonicity_tests(nw_estimate(series, 0.08), (30, 270), AwbConfig(seed=3, n_boot=99))
        assert res.sign.reject
        assert res.magnitude.reject
        assert res.sign.p_value <= 0.05 and res.magnitude.p_value <= 0.05

    def test_default_bandwidth_recorded(self, rng):
        series = random_masked_series(rng, 200)
        res = monotonicity_tests(nw_estimate(series, 0.1), (20, 180), AwbConfig(seed=4, n_boot=19))
        assert res.h_u == pytest.approx(u_stat_bandwidth(200))
        assert res.interval == (20, 180)

    def test_default_interval_runs_from_the_trend_minimum_to_the_end(self, rng):
        series = random_masked_series(rng, 200)
        fit = nw_estimate(series, 0.1)
        cfg = AwbConfig(seed=4, n_boot=19)
        res = monotonicity_tests(fit, cfg=cfg)
        assert res.interval == (trend_minimum(fit), 200)
        explicit = monotonicity_tests(fit, res.interval, cfg)
        assert np.array_equal(res.sign.draws, explicit.sign.draws)
        assert np.array_equal(res.magnitude.draws, explicit.magnitude.draws)

    def test_default_interval_refused_when_the_minimum_is_the_last_day(self):
        # A falling trend: its minimum is day T, and the default interval
        # from there to the end would hold that one day.
        T = 800
        rng = np.random.default_rng(3)
        mask = (rng.random(T) < 0.6).astype(np.uint8)
        mask[[0, -1]] = 1
        series = make_series(-0.01 * np.arange(T) + rng.normal(0.0, 0.3, T), mask)
        fit = nw_estimate(series, 0.08)
        assert trend_minimum(fit) == T
        cfg = AwbConfig(n_boot=49)
        for tail_test in (monotonicity_tests, linearity_test):
            with pytest.raises(ValueError, match=rf"^trend minimum at the sample end \(day {T}\)"):
                tail_test(fit, cfg=cfg)
        # An explicit interval keeps its meaning, a one-day one included.
        assert monotonicity_tests(fit, (T, T), cfg).interval == (T, T)
        assert monotonicity_tests(fit, (600, T), cfg).interval == (600, T)

    def test_threads_identical(self, rng):
        # The tests run on three caller threads at once give the serial draws.
        series = random_masked_series(rng, 150)
        fit = nw_estimate(series, 0.1)
        cfg = AwbConfig(seed=5, n_boot=24)
        a = monotonicity_tests(fit, (15, 135), cfg)
        for b in on_caller_threads(lambda: monotonicity_tests(fit, (15, 135), cfg), 3):
            assert np.array_equal(a.sign.draws, b.sign.draws)
            assert np.array_equal(a.magnitude.draws, b.magnitude.draws)

    def test_threads_identical_at_realistic_size(self):
        rng = np.random.default_rng(7)
        series = gappy_series(rng, 2000, 0.4, gaps=[(900, 1200)])
        fit = nw_estimate(series, 0.08)
        cfg = AwbConfig(seed=6, n_boot=19)
        a = monotonicity_tests(fit, (600, 2000), cfg)
        for b in on_caller_threads(lambda: monotonicity_tests(fit, (600, 2000), cfg), 2):
            assert np.array_equal(a.sign.draws, b.sign.draws)
            assert np.array_equal(a.magnitude.draws, b.magnitude.draws)
