"""Inference on the shape of the nonparametric trend.

Three tools, all sharing the bootstrap engine: a confidence interval for
the position of a trend extremum, a test of an anchored linear shape over
the tail of the sample, and two kernel-weighted pairwise tests of
monotonicity (one using only the signs of increments, one their
magnitudes). Pairwise statistics run over observed pairs only.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .awb import AwbConfig, empirical_quantile, run_replicates
from .exceptions import NoInteriorExtremumError
from .kerneltrend import KernelTrendFit, nw_smoother, pilot_residuals, trend_bootstrap_paths
from .series import ObservedSeries


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
    """1-based positions of interior local extrema of the defined subsequence.

    A plateau counts once, at its earliest position: the test is strict
    against the left neighbour and non-strict against the right.
    """
    if kind not in ("min", "max"):
        raise ValueError("kind must be 'min' or 'max'")
    idx = np.flatnonzero(np.isfinite(values))
    if idx.size < 3:
        return np.empty(0, dtype=np.int64)
    v = np.asarray(values, dtype=np.float64)[idx]
    if kind == "min":
        hit = (v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:])
    else:
        hit = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
    return idx[1:-1][hit] + 1


def nearest_extremum(candidates: np.ndarray, target: int) -> int:
    """Candidate closest to ``target``; distance ties go to the earlier one."""
    if candidates.size == 0:
        raise ValueError("no candidates")
    dist = np.abs(candidates - target)
    order = np.lexsort((candidates, dist))
    return int(candidates[order[0]])


@dataclass(frozen=True)
class ExtremumResult:
    """Location of a trend extremum with its bootstrap confidence interval."""

    location: int
    value: float
    kind: str
    level: float
    lower_index: int
    upper_index: int
    date: dt.date
    lower_date: dt.date
    upper_date: dt.date
    bootstrap_locations: np.ndarray = field(repr=False, default=None)


def extremum_ci(
    eps: ObservedSeries,
    fit: KernelTrendFit,
    cfg: AwbConfig | None = None,
    kind: str = "min",
    level: float = 0.95,
    threads: int = 1,
) -> ExtremumResult:
    """Bootstrap interval for the position of the global trend extremum.

    Each replicate re-smooths a bootstrap series and records the interior
    local extremum of its trend nearest to the original position (a
    replicate trend without one falls back to its global extremum). The
    interval is read from the empirical quantiles of those positions.

    Raises
    ------
    NoInteriorExtremumError
        The estimated trend is monotone over its defined range.
    """
    cfg = cfg or AwbConfig()
    g = fit.g_hat
    if local_extrema(g, kind).size == 0:
        raise NoInteriorExtremumError(
            f"trend has no interior local {kind}imum; it looks monotone"
        )
    pos = int(np.nanargmin(g) if kind == "min" else np.nanargmax(g))
    t_ext = pos + 1
    value = float(g[pos])

    _, paths = trend_bootstrap_paths(eps, fit, cfg, threads=threads)
    locs = np.empty(paths.shape[0], dtype=np.int64)
    for b in range(paths.shape[0]):
        cands = local_extrema(paths[b], kind)
        if cands.size == 0:
            p = np.nanargmin(paths[b]) if kind == "min" else np.nanargmax(paths[b])
            locs[b] = int(p) + 1
        else:
            locs[b] = nearest_extremum(cands, t_ext)

    a = 1.0 - level
    lo = int(empirical_quantile(locs, a / 2.0))
    hi = int(empirical_quantile(locs, 1.0 - a / 2.0))
    return ExtremumResult(
        location=t_ext,
        value=value,
        kind=kind,
        level=level,
        lower_index=lo,
        upper_index=hi,
        date=eps.date_at(t_ext),
        lower_date=eps.date_at(lo),
        upper_date=eps.date_at(hi),
        bootstrap_locations=locs,
    )


# ---------------------------------------------------------------------------
# Anchored linear shape test


@dataclass(frozen=True)
class ShapeTestResult:
    """Average and supremum gap statistics with bootstrap critical values."""

    q_ave: float
    q_sup: float
    cv_ave: float
    cv_sup: float
    p_ave: float
    p_sup: float
    slope: float
    anchor_index: int
    anchor_value: float
    test_start: int
    test_end: int
    alpha: float
    bootstrap_stats: np.ndarray = field(repr=False, default=None)

    @property
    def reject_ave(self) -> bool:
        return self.q_ave > self.cv_ave

    @property
    def reject_sup(self) -> bool:
        return self.q_sup > self.cv_sup


def _pinned_slope(
    values_obs: np.ndarray, x_obs: np.ndarray, anchor_value: float, denom: float
) -> float:
    return float(((values_obs - anchor_value) * x_obs).sum() / denom)


def linearity_test(
    eps: ObservedSeries,
    fit: KernelTrendFit,
    anchor: TrendAnchor | ExtremumResult,
    cfg: AwbConfig | None = None,
    alpha: float = 0.05,
    threads: int = 1,
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
    cfg = cfg or AwbConfig()
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
        slope = _pinned_slope(values[obs_w], x_obs, pin_val, denom)
        line = pin_val + slope * x
        gaps = (g_hat[window][defined_w] - line[defined_w]) ** 2
        return float(gaps.mean()), float(gaps.max()), slope, line

    q_ave, q_sup, slope, line = gap_stats(eps.values, fit.g_hat, t_min - 1, g_min)

    composite = fit.g_hat.copy()
    composite[window] = line
    composite_masked = np.where(eps.mask == 1, composite, 0.0)
    _, u_hat = pilot_residuals(eps, fit.h)
    smooth = nw_smoother(eps.mask, fit.h)

    def statistic(eps_star: np.ndarray) -> tuple[float, float]:
        g_star = smooth(eps_star)
        pin_star = int(hunt[np.argmin(g_star[hunt])])
        ave, sup, _, _ = gap_stats(eps_star, g_star, pin_star)
        return ave, sup

    stats = run_replicates(cfg, composite_masked, u_hat, eps.mask, statistic, threads=threads)
    B = stats.shape[0]
    p_ave = (1.0 + float((stats[:, 0] >= q_ave).sum())) / (B + 1.0)
    p_sup = (1.0 + float((stats[:, 1] >= q_sup).sum())) / (B + 1.0)
    return ShapeTestResult(
        q_ave=q_ave,
        q_sup=q_sup,
        cv_ave=empirical_quantile(stats[:, 0], 1.0 - alpha),
        cv_sup=empirical_quantile(stats[:, 1], 1.0 - alpha),
        p_ave=p_ave,
        p_sup=p_sup,
        slope=slope,
        anchor_index=t_min,
        anchor_value=g_min,
        test_start=t_min,
        test_end=T,
        alpha=alpha,
        bootstrap_stats=stats,
    )


# ---------------------------------------------------------------------------
# Monotonicity tests


class UStatEngine:
    """Kernel-weighted pairwise sums over observed pairs, for many centres.

    For each evaluation position t the statistic is a bilinear form
    sum_{i<j} f(y_j - y_i) * w(i, t) * w(j, t) over observed grid
    positions within the kernel window. Evaluation positions are
    processed in blocks so the pair matrices stay small; the weight
    blocks depend only on the mask and are precomputed once, which makes
    repeated evaluation on bootstrap values cheap.
    """

    def __init__(
        self,
        obs_positions: np.ndarray,
        eval_positions: np.ndarray,
        n_time: int,
        h_u: float,
        block: int = 64,
    ):
        if h_u <= 0:
            raise ValueError("bandwidth must be positive")
        self.n_time = n_time
        self.h_u = h_u
        self.n_eval = eval_positions.shape[0]
        self._scale = -2.0 / (n_time * (n_time - 1.0))
        radius = h_u * n_time
        self._blocks: list[tuple[int, int, np.ndarray]] = []
        for start in range(0, self.n_eval, block):
            t_blk = eval_positions[start: start + block]
            lo = int(np.searchsorted(obs_positions, t_blk[0] - radius, side="left"))
            hi = int(np.searchsorted(obs_positions, t_blk[-1] + radius, side="right"))
            o = obs_positions[lo:hi]
            z = (o[None, :] - t_blk[:, None]) / n_time / h_u
            w = np.maximum(0.75 * (1.0 - z * z), 0.0) / h_u
            self._blocks.append((lo, hi, w))

    def profiles(self, y_obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sign-based and magnitude-based profiles at every evaluation position."""
        u1 = np.empty(self.n_eval)
        u2 = np.empty(self.n_eval)
        out = 0
        for lo, hi, w in self._blocks:
            nt = w.shape[0]
            v = y_obs[lo:hi]
            if v.shape[0] < 2:
                u1[out: out + nt] = 0.0
                u2[out: out + nt] = 0.0
                out += nt
                continue
            diff = np.triu(v[None, :] - v[:, None], k=1)
            sgn = np.sign(diff)
            u1[out: out + nt] = self._scale * ((w @ sgn) * w).sum(axis=1)
            u2[out: out + nt] = self._scale * ((w @ diff) * w).sum(axis=1)
            out += nt
        return u1, u2


@dataclass(frozen=True)
class MonotonicityResult:
    """Supremum statistics of both pairwise tests with bootstrap critical values.

    Both statistics are negative under a monotonically increasing trend;
    large positive values are evidence against it.
    """

    u1: float
    u2: float
    cv1: float
    cv2: float
    p1: float
    p2: float
    h_u: float
    interval: tuple[int, int]
    alpha: float
    u1_profile: np.ndarray = field(repr=False, default=None)
    u2_profile: np.ndarray = field(repr=False, default=None)
    bootstrap_stats: np.ndarray = field(repr=False, default=None)

    @property
    def reject_sign(self) -> bool:
        return self.u1 > self.cv1

    @property
    def reject_magnitude(self) -> bool:
        return self.u2 > self.cv2


def u_stat_profiles(
    eps: ObservedSeries, interval: tuple[int, int], h_u: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise-test profiles at every grid position of ``interval`` (1-based)."""
    T = len(eps)
    lo, hi = int(interval[0]), int(interval[1])
    if not (1 <= lo <= hi <= T):
        raise ValueError("interval outside the sample")
    if h_u is None:
        h_u = u_stat_bandwidth(T)
    obs_pos = np.flatnonzero(eps.mask == 1)
    engine = UStatEngine(obs_pos, np.arange(lo - 1, hi), T, h_u)
    return engine.profiles(eps.values[obs_pos])


def monotonicity_tests(
    eps: ObservedSeries,
    interval: tuple[int, int],
    cfg: AwbConfig | None = None,
    *,
    h: float,
    h_u: float | None = None,
    alpha: float = 0.05,
    threads: int = 1,
) -> MonotonicityResult:
    """Bootstrap tests of a monotonically increasing trend over ``interval``.

    The statistics are suprema over the interval of kernel-weighted
    pairwise sums (sign version and magnitude version). Critical values
    come from bootstrap samples whose trend is set to zero, so the null
    of no decreasing segment is imposed; residuals are taken around an
    oversmoothed pilot fit at bandwidth 0.5 * h^(5/9).

    Parameters
    ----------
    interval : (int, int)
        1-based inclusive grid range to test.
    h : float
        Trend bandwidth whose oversmoothed pilot supplies the residuals.
    h_u : float, optional
        Pairwise-test bandwidth; defaults to 0.5 * T^(-1/5).
    """
    cfg = cfg or AwbConfig()
    T = len(eps)
    lo, hi = int(interval[0]), int(interval[1])
    if not (1 <= lo <= hi <= T):
        raise ValueError("interval outside the sample")
    if h_u is None:
        h_u = u_stat_bandwidth(T)

    obs_pos = np.flatnonzero(eps.mask == 1)
    engine = UStatEngine(obs_pos, np.arange(lo - 1, hi), T, h_u)
    prof1, prof2 = engine.profiles(eps.values[obs_pos])
    u1, u2 = float(prof1.max()), float(prof2.max())

    _, u_hat = pilot_residuals(eps, h)

    def statistic(y_star: np.ndarray) -> tuple[float, float]:
        p1, p2 = engine.profiles(y_star[obs_pos])
        return float(p1.max()), float(p2.max())

    # The null trend is zero: no decreasing segment.
    stats = run_replicates(cfg, np.zeros(T), u_hat, eps.mask, statistic, threads=threads)
    B = stats.shape[0]
    return MonotonicityResult(
        u1=u1,
        u2=u2,
        cv1=empirical_quantile(stats[:, 0], 1.0 - alpha),
        cv2=empirical_quantile(stats[:, 1], 1.0 - alpha),
        p1=(1.0 + float((stats[:, 0] >= u1).sum())) / (B + 1.0),
        p2=(1.0 + float((stats[:, 1] >= u2).sum())) / (B + 1.0),
        h_u=float(h_u),
        interval=(lo, hi),
        alpha=alpha,
        u1_profile=prof1,
        u2_profile=prof2,
        bootstrap_stats=stats,
    )
