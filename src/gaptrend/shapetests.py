"""Inference on the shape of the nonparametric trend.

Three tools, all sharing the bootstrap engine: a confidence interval for
the position of a trend extremum, a test of an anchored linear shape over
the tail of the sample, and two kernel-weighted pairwise tests of
monotonicity (one using only the signs of increments, one their
magnitudes). Pairwise statistics run over observed pairs only. Each
statistic of the linearity and monotonicity tests comes back as one
``awb.BootstrapTest`` record. Each tool takes a kernel-trend fit alone and
resamples through ``fit.bootstrap``, around the fit's pilot ``fit.pilot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .awb import AwbConfig, BootstrapTest, bootstrap_test, check_rate, quantile_row
from .exceptions import NoInteriorExtremumError
from .kerneltrend import KernelTrendFit, window_bounds


def u_stat_bandwidth(n_time: int) -> float:
    """Pairwise-test bandwidth 0.5 * T^(-1/5)."""
    if n_time < 2:
        raise ValueError("need at least 2 time points")
    return 0.5 * float(n_time) ** (-0.2)


# ---------------------------------------------------------------------------
# Extremum location


@dataclass(frozen=True)
class TrendAnchor:
    """A pinned point (grid position, trend value) used to anchor a null shape."""

    location: int
    value: float


def trend_minimum(fit: KernelTrendFit) -> TrendAnchor:
    """Global minimum of the defined trend values (boundary allowed)."""
    pos = int(np.nanargmin(fit.g_hat))
    return TrendAnchor(location=pos + 1, value=float(fit.g_hat[pos]))


def local_extrema(values: np.ndarray, kind: str = "min") -> np.ndarray:
    """1-based positions of interior local extrema of the defined values.

    Each run of equal defined values is one level; a level is a minimum
    (maximum) when it lies strictly below (above) the levels on both sides
    of it, and it is reported at its first position. The first and last
    levels are never extrema, so a staircase has none.

    Undefined (NaN) positions split the values into defined runs. A level
    is compared with its nearest defined neighbours, but a neighbour
    across an undefined stretch counts only for a flat run: a run whose
    values still change cannot show whether the trend keeps falling
    (rising) into the stretch, so a level at its edge is never an
    extremum. A flat run is what the smoother gives around observations
    spaced wider than its window; such a run is one level, compared with
    the levels on either side.
    """
    if kind not in ("min", "max"):
        raise ValueError("kind must be 'min' or 'max'")
    idx = np.flatnonzero(np.isfinite(values))
    if idx.size < 3:
        return np.empty(0, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)[idx]
    first = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    last = np.r_[first[1:] - 1, v.size - 1]
    level = v[first]
    if kind == "min":
        hit = (level[1:-1] < level[:-2]) & (level[1:-1] < level[2:])
    else:
        hit = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    first, last = first[1:-1][hit], last[1:-1][hit]
    if idx[-1] - idx[0] >= idx.size:  # undefined positions between defined ones
        jump = np.diff(idx) > 1
        run_start = np.flatnonzero(np.r_[True, jump])
        run = np.cumsum(np.r_[False, jump])
        flat = np.minimum.reduceat(v, run_start) == np.maximum.reduceat(v, run_start)
        keep = (~jump[first - 1] | flat[run[first]]) & (~jump[last] | flat[run[last]])
        first = first[keep]
    return idx[first] + 1


def nearest_extremum(candidates: np.ndarray, target: int) -> int:
    """Candidate closest to ``target``; distance ties go to the earlier one."""
    if candidates.size == 0:
        raise ValueError("no candidates")
    dist = np.abs(candidates - target)
    order = np.lexsort((candidates, dist))
    return int(candidates[order[0]])


@dataclass(frozen=True)
class ExtremumResult:
    """Grid position of a trend extremum with its bootstrap confidence interval."""

    location: int
    value: float
    kind: str
    level: float
    lower_index: int
    upper_index: int
    bootstrap_locations: np.ndarray = field(repr=False, default=None)


def extremum_ci(
    fit: KernelTrendFit,
    cfg: AwbConfig | None = None,
    kind: str = "min",
    level: float = 0.95,
) -> ExtremumResult:
    """Bootstrap interval for the position of the trend extremum.

    The estimate is the interior local extremum (see ``local_extrema``)
    with the lowest value for a minimum, the highest for a maximum; ties
    go to the earliest. Each replicate re-smooths a bootstrap series and
    records the interior local extremum of its trend nearest to the
    estimate (a replicate trend without one falls back to its global
    extremum). A replicate keeps only that position, and the interval is
    read from the empirical quantiles of those positions.

    Raises
    ------
    NoInteriorExtremumError
        The estimated trend has no interior local extremum of this kind.
    """
    check_rate("level", level)
    cfg = cfg or AwbConfig()
    g = fit.g_hat
    cands = local_extrema(g, kind)
    if cands.size == 0:
        raise NoInteriorExtremumError(
            f"trend has no interior local {kind}imum; it looks monotone"
        )
    at = g[cands - 1]
    t_ext = int(cands[np.argmin(at) if kind == "min" else np.argmax(at)])
    value = float(g[t_ext - 1])

    def position(eps_star: np.ndarray) -> int:
        g_star = fit.smooth(eps_star)
        cands = local_extrema(g_star, kind)
        if cands.size == 0:
            return int(np.nanargmin(g_star) if kind == "min" else np.nanargmax(g_star)) + 1
        return nearest_extremum(cands, t_ext)

    locs = fit.bootstrap(cfg, fit.pilot, position).astype(np.int64)
    ordered, a = np.sort(locs), 1.0 - level
    lo, hi = (int(ordered[quantile_row(q, locs.size)]) for q in (a / 2.0, 1.0 - a / 2.0))
    return ExtremumResult(
        location=t_ext,
        value=value,
        kind=kind,
        level=level,
        lower_index=lo,
        upper_index=hi,
        bootstrap_locations=locs,
    )


# ---------------------------------------------------------------------------
# Anchored linear shape test


@dataclass(frozen=True)
class ShapeTestResult:
    """Bootstrap tests of the average and supremum squared gaps, with the
    null line's slope (per rescaled time) and anchor."""

    ave: BootstrapTest
    sup: BootstrapTest
    slope: float
    anchor_index: int
    anchor_value: float


def linearity_test(
    fit: KernelTrendFit,
    anchor: TrendAnchor | ExtremumResult,
    cfg: AwbConfig | None = None,
    alpha: float = 0.05,
) -> ShapeTestResult:
    """Test whether the trend is linear from the anchor to the sample end.

    The null shape is the least-squares line through the anchor point
    (only the slope is free, fitted to the observed values on the test
    window). The pointwise statistic is the squared gap between the
    smoothed trend and that line; its average and supremum over the
    window are compared against bootstrap replicates regenerated from a
    composite trend equal to the null line on the window and the
    smoothed trend elsewhere. Replicate errors resample the residuals
    around the oversmoothed pilot fit, so curvature the null line cannot
    absorb stays in the statistic rather than inflating the bootstrap
    errors. Each replicate re-applies the anchoring rule: its line is
    pinned where its own re-smoothed trend is lowest within a few kernel
    windows of the original anchor (the locational resolution of a
    smoothed minimum), so the low bias that pinning at a minimum
    produces under the null is reproduced in the critical values instead
    of inflating the statistic relative to them.
    """
    check_rate("alpha", alpha)
    cfg = cfg or AwbConfig()
    eps = fit.series
    T = len(eps)
    t_min = int(anchor.location)
    g_min = float(anchor.value)
    if not 1 <= t_min <= T:
        raise ValueError("anchor position outside the sample")
    window = np.arange(t_min - 1, T)
    obs_w = window[eps.mask[window] == 1]
    if obs_w.size < 3:
        raise ValueError("fewer than 3 observed points after the anchor")

    tau = np.arange(1, T + 1, dtype=np.float64) / T
    defined_w = np.isfinite(fit.g_hat[window])
    defined_pos = window[defined_w]
    # Replicates re-pin within this many smoothing windows of the anchor.
    hunt_radius = int(round(3.0 * fit.h * T))
    hunt = defined_pos[np.abs(defined_pos - (t_min - 1)) <= hunt_radius]
    if hunt.size == 0:
        hunt = defined_pos

    def gap_stats(
        values: np.ndarray, g_hat: np.ndarray, pin_pos: int, pin_val: float | None = None
    ) -> tuple[float, float, float, np.ndarray]:
        if pin_val is None:
            pin_val = float(g_hat[pin_pos])
        x = tau[window] - tau[pin_pos]
        x_obs = tau[obs_w] - tau[pin_pos]
        denom = float((x_obs * x_obs).sum())
        slope = float(((values[obs_w] - pin_val) * x_obs).sum() / denom)
        line = pin_val + slope * x
        gaps = (g_hat[window][defined_w] - line[defined_w]) ** 2
        return float(gaps.mean()), float(gaps.max()), slope, line

    q_ave, q_sup, slope, line = gap_stats(eps.values, fit.g_hat, t_min - 1, g_min)

    composite = fit.g_hat.copy()
    composite[window] = line

    def statistic(eps_star: np.ndarray) -> tuple[float, float]:
        g_star = fit.smooth(eps_star)
        pin_star = int(hunt[np.argmin(g_star[hunt])])
        ave, sup, _, _ = gap_stats(eps_star, g_star, pin_star)
        return ave, sup

    stats = fit.bootstrap(cfg, composite, statistic)
    return ShapeTestResult(
        ave=bootstrap_test(q_ave, stats[:, 0], alpha),
        sup=bootstrap_test(q_sup, stats[:, 1], alpha),
        slope=slope,
        anchor_index=t_min,
        anchor_value=g_min,
    )


# ---------------------------------------------------------------------------
# Monotonicity tests


# Entries per dense block of the pairwise sums: 2**13 float64 values
# (64 KB) keep a block in cache. Larger blocks read and store more of the
# zeros outside each row's range.
_BLOCK = 1 << 13


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ranges ``[s, s + c)`` and, per entry, the index of its range."""
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    offset = np.arange(owner.shape[0]) - (np.cumsum(counts) - counts)[owner]
    return starts[owner] + offset, owner


def _dense_blocks(starts: np.ndarray, ends: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Consecutive dense blocks ``(r0, r1, c0, c1)`` over rows whose column
    ranges ``[starts, ends)`` have ascending starts: rows r0..r1-1 read
    columns c0..c1-1, which hold each of their ranges. A block has at most
    ``_BLOCK`` entries, unless it is a single row wider than that."""
    starts, ends = starts.tolist(), ends.tolist()
    blocks, r0 = [], 0
    while r0 < len(starts):
        r1, c0, c1 = r0 + 1, starts[r0], ends[r0]
        while r1 < len(starts) and (r1 + 1 - r0) * (max(c1, ends[r1]) - c0) <= _BLOCK:
            c1 = max(c1, ends[r1])
            r1 += 1
        blocks.append((r0, r1, c0, c1))
        r0 = r1
    return blocks


class UStatEngine:
    """Kernel-weighted pairwise sums over observed pairs, for many centres.

    For each evaluation position t the statistic is a bilinear form
    sum_{i<j} f(y_j - y_i) * w(i, t) * w(j, t) over the observed points in
    the kernel window of t, with f the sign (u1) or the identity (u2).
    Everything that depends only on the mask is built once, so evaluating
    bootstrap values costs O(m * K) each, with m the observed points the
    windows touch and K the most points in one window.

    u2 is linear in the values: sum_{i<j} (y_j - y_i) w_i w_j equals
    sum_k y_k w_k (2 C_k + w_k - W), with C_k the window weight before k
    and W the window total, so it is one product with a precomputed
    coefficient matrix. Both sums read the values in dense blocks
    (``_dense_blocks``), each one matrix product; u2's rows are the
    evaluation positions.

    u1 uses that the Epanechnikov weight is quadratic in position. With an
    integer origin c, x = o - c and tau = t - c, the weight is proportional
    to (r^2 - tau^2) + 2 tau x - x^2 = a(t) . (1, x, x^2) for r = h_u T, so
    u1(t) is proportional to a(t)' M(t) a(t) with
    M = sum_{i<j in window} sign(y_j - y_i) phi_i phi_j', phi = (1, x, x^2).
    M changes only where a point leaves or enters the window. A point
    leaving removes its pairs with the later points of the previous window;
    a point entering adds its pairs with the earlier points of the new
    window. Each such event adds the rank-one term -D phi' (only the
    symmetric part enters the quadratic form), where D sums
    sign(y_partner - y_point) phi_partner over the event's band of
    partners. The origin restarts every h_u T positions, where the window's
    points are added in order; this keeps x and tau small against r, so
    the quadratic form loses few digits. Only signs enter u1: the band sums
    of sign * (1, o, o^2) come from dense blocks of the events sorted by
    band start, each with a stored mask of its bands. On a band, sign(y_j -
    y_i) = 2 [y_j > y_i] - 1 + [y_j = y_i], so the sums are twice those of
    one comparison, less the mask-only sums built from the same blocks at
    set-up, plus the sums of the ties, which are formed only when two
    values are equal. Every term and partial sum is an integer of magnitude
    below K T^2, so each sum, the doubling and the final difference are
    exact in any order while K T^2 < 2^53; the engine refuses a design past
    that bound.
    """

    def __init__(
        self,
        obs_positions: np.ndarray,
        eval_positions: np.ndarray,
        n_time: int,
        h_u: float,
    ):
        """``obs_positions`` and ``eval_positions`` are ascending 0-based grid positions."""
        o = np.asarray(obs_positions, dtype=np.int64)
        t = np.asarray(eval_positions, dtype=np.int64)
        self.n_eval = n = t.shape[0]
        scale = -2.0 / (n_time * (n_time - 1.0))
        r = h_u * n_time
        # Window of position k: observed indices lo[k] <= i < hi[k].
        lo, hi = window_bounds(o, t, h_u, n_time)
        most = int((hi - lo).max()) if n else 0
        if most * int(n_time) ** 2 >= 2**53:
            raise ValueError(f"{most} points in one window of {n_time} days: sign sums pass 2^53")

        # u2 coefficients, one (positions, points) matrix per dense block.
        self._u2_blocks = []
        for r0, r1, c0, c1 in _dense_blocks(lo, hi):
            z = (o[c0:c1] - t[r0:r1, None]) / n_time / h_u
            w = np.maximum(0.75 * (1.0 - z * z), 0.0) / h_u
            before = np.cumsum(w, axis=1) - w
            coef = w * (2.0 * before + w - w.sum(axis=1, keepdims=True)) * scale
            self._u2_blocks.append((r0, r1, c0, c1, coef))

        # u1 events. A segment starts where the origin restarts; there the
        # previous window counts as empty and every window point is added.
        seg_len = max(int(r), 1)
        seg = (t - t[0]) // seg_len
        restart = np.ones(n, dtype=bool)
        restart[1:] = seg[1:] != seg[:-1]
        origin = t[0] + seg * seg_len + seg_len // 2
        prev_lo = np.where(restart, lo, np.roll(lo, 1))
        prev_hi = np.where(restart, lo, np.roll(hi, 1))
        n_leave = np.maximum(np.minimum(lo, prev_hi) - prev_lo, 0)
        first_enter = np.maximum(prev_hi, lo)
        leave, leave_at = _concat_ranges(prev_lo, n_leave)
        enter, enter_at = _concat_ranges(first_enter, hi - first_enter)
        point = np.concatenate((leave, enter))
        at = np.concatenate((leave_at, enter_at))
        band_start = np.concatenate((leave + 1, lo[enter_at]))
        band_end = np.concatenate((prev_hi[leave_at], enter))
        keep = np.flatnonzero(band_end > band_start)
        keep = keep[np.argsort(at[keep], kind="stable")]
        point, at, band_start, band_end = point[keep], at[keep], band_start[keep], band_end[keep]

        # M(t) is the sum of the events from its segment's start through t.
        self._through = np.searchsorted(at, np.arange(n), side="right")
        seg_first = np.searchsorted(at, np.flatnonzero(restart), side="left")
        self._before = seg_first[np.cumsum(restart) - 1]
        self._origin = origin[at].astype(np.float64)
        x = (o[point] - origin[at]).astype(np.float64)
        self._phi = np.stack((np.ones_like(x), x, x * x), axis=1)
        tau = (t - origin).astype(np.float64)
        a = np.stack((r * r - tau * tau, 2.0 * tau, -np.ones(n)), axis=1)
        form = (a[:, :, None] * a[:, None, :]).reshape(n, 9)
        form *= -scale * (0.75 / (h_u * r * r)) ** 2
        form[hi - lo < 2] = 0.0  # no pair: exactly zero
        self._form = form

        # Band sums run over the events sorted by band start, in dense blocks
        # that keep their band mask and (1, o, o^2); the mask's own sums are
        # the -1 of every sign.
        by_start = np.argsort(band_start, kind="stable")
        self._time_order = np.argsort(by_start)
        self._point = point[by_start]
        band_start, band_end = band_start[by_start], band_end[by_start]
        powers = np.stack((np.ones(o.shape[0]), o, o * o), axis=1)
        self._u1_blocks = []
        self._band_powers = np.empty((point.shape[0], 3))
        for r0, r1, c0, c1 in _dense_blocks(band_start, band_end):
            cols = np.arange(c0, c1)
            inside = (cols >= band_start[r0:r1, None]) & (cols < band_end[r0:r1, None])
            np.matmul(inside, powers[c0:c1], out=self._band_powers[r0:r1])
            self._u1_blocks.append((r0, r1, c0, c1, inside, powers[c0:c1]))

    def _band_sums(self, compare: np.ufunc, y_obs: np.ndarray) -> np.ndarray:
        """Band sums of [compare(y_partner, y_point)] * (1, o, o^2), one row per event."""
        sums = np.empty((self._point.shape[0], 3))
        y_point = y_obs[self._point]
        for r0, r1, c0, c1, inside, powers in self._u1_blocks:
            hit = compare(y_obs[c0:c1], y_point[r0:r1, None])
            hit &= inside
            np.matmul(hit, powers, out=sums[r0:r1])
        return sums

    def profiles(self, y_obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sign-based and magnitude-based profiles at every evaluation position."""
        # A window's u2 coefficients sum to zero, so shifting a block's values
        # by its first one changes nothing but the rounding.
        u2 = np.empty(self.n_eval)
        for r0, r1, c0, c1, coef in self._u2_blocks:
            u2[r0:r1] = coef @ (y_obs[c0:c1] - y_obs[c0:c0 + 1])

        # Band sums of sign * o^p for p = 0, 1, 2: 2 [>] - 1 + [=] on a band.
        sums = self._band_sums(np.greater, y_obs)
        sums *= 2.0
        sums -= self._band_powers
        ordered = np.sort(y_obs)
        if (ordered[1:] == ordered[:-1]).any():
            sums += self._band_sums(np.equal, y_obs)

        # D = band sums of sign * (1, x, x^2) about the segment origin c.
        d = sums[self._time_order]
        s0, s1, s2 = d.T
        c = self._origin
        d1 = s1 - c * s0
        d[:, 2] = s2 - c * (s1 + d1)
        d[:, 1] = d1
        steps = (d[:, :, None] * self._phi[:, None, :]).reshape(-1, 9)
        cum = np.zeros((steps.shape[0] + 1, 9))
        np.cumsum(steps, axis=0, out=cum[1:])
        moments = cum[self._through]
        moments -= cum[self._before]
        return np.einsum("nk,nk->n", self._form, moments), u2


@dataclass(frozen=True)
class MonotonicityResult:
    """Bootstrap tests of the supremum statistics of both pairwise tests:
    ``sign`` of the sign version u1, ``magnitude`` of the magnitude version u2.

    Both statistics are negative under a monotonically increasing trend;
    large positive values are evidence against it.
    """

    sign: BootstrapTest
    magnitude: BootstrapTest
    h_u: float
    interval: tuple[int, int]


def monotonicity_tests(
    fit: KernelTrendFit,
    interval: tuple[int, int] | None = None,
    cfg: AwbConfig | None = None,
    alpha: float = 0.05,
) -> MonotonicityResult:
    """Bootstrap tests of a monotonically increasing trend of ``fit.series``
    over ``interval``.

    The statistics are suprema over the interval of kernel-weighted
    pairwise sums (sign version and magnitude version), at the bandwidth
    ``u_stat_bandwidth(T)``. Critical values come from bootstrap samples
    whose trend is set to zero, so the null of no decreasing segment is
    imposed; residuals are taken around the oversmoothed pilot fit at
    bandwidth 0.5 * fit.h^(5/9).

    Parameters
    ----------
    interval : (int, int), optional
        1-based inclusive grid range to test; by default from the trend
        minimum (:func:`trend_minimum`) to the end, refused when that is day T.
    """
    check_rate("alpha", alpha)
    cfg = cfg or AwbConfig()
    eps = fit.series
    T = len(eps)
    lo, hi = map(int, (trend_minimum(fit).location, T) if interval is None else interval)
    if interval is None and lo == T:
        raise ValueError(f"trend minimum at the sample end (day {T}): pass an interval to test")
    if not (1 <= lo <= hi <= T):
        raise ValueError("interval outside the sample")
    h_u = u_stat_bandwidth(T)
    obs_pos = np.flatnonzero(eps.mask == 1)
    engine = UStatEngine(obs_pos, np.arange(lo - 1, hi), T, h_u)
    prof1, prof2 = engine.profiles(eps.values[obs_pos])
    u1, u2 = float(prof1.max()), float(prof2.max())

    def statistic(y_star: np.ndarray) -> tuple[float, float]:
        p1, p2 = engine.profiles(y_star[obs_pos])
        return float(p1.max()), float(p2.max())

    # The null trend is zero: no decreasing segment.
    stats = fit.bootstrap(cfg, np.zeros(T), statistic)
    return MonotonicityResult(
        sign=bootstrap_test(u1, stats[:, 0], alpha),
        magnitude=bootstrap_test(u2, stats[:, 1], alpha),
        h_u=float(h_u),
        interval=(lo, hi),
    )
