"""Nonparametric trend: local-constant kernel smoothing on the full daily
grid, bandwidth selection by leave-(2k+1)-out cross-validation, and bootstrap
pointwise intervals calibrated into simultaneous confidence bands.

All smoothing runs in rescaled time t/T with an Epanechnikov kernel. Grid
positions whose kernel window contains no observation (long gaps wider than
the window) are reported as undefined rather than filled in, and a window
holding one observation gives that observation exactly.

Every kernel sum (smoothing, the cross-validation windows, bootstrap
re-smoothing) comes from block-local prefix sums of x, o*x and o^2*x: the
kernel is quadratic in the offset o, so a window sum costs O(1) and a whole
pass O(T), whatever the bandwidth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .awb import (AwbConfig, basic_interval, check_rate, dependence_length, quantile_row,
                  run_replicates)
from .series import ObservedSeries


def _reach(h: float, n_time: int) -> int:
    """Widest grid offset with positive Epanechnikov weight, |offset| < h*T,
    capped at T - 1 (no window reaches further than the grid)."""
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    return min(int(np.ceil(h * n_time)) - 1, n_time - 1)


def _window_sums(x: np.ndarray, h: float, leave_out: int | None = None) -> np.ndarray:
    """Epanechnikov-weighted sums of ``x`` over the window around every grid position.

    The weight 0.75 * (1 - (d/m)^2) at offset d, m = h*T, is quadratic in
    d, so a window sum is a fixed combination of the window moments
    S_p = sum x_j o_j^p, p = 0, 1, 2. The grid is cut into blocks of
    L = q + 1 centres, q = r - 1 for r the widest offset with positive
    weight. Each block reads its L + 2q values as one row and takes
    row-wise cumulative sums of x, o*x and o^2*x, with o counted from the
    block's first centre; centre i of the block then gets
    0.75/m^2 * [(m^2 - i^2) S0 + 2i S1 - S2] over the offsets |d| <= q.
    The block-local origin keeps |o| <= 2q, so the cumulative sums keep
    their digits at any T. The two outermost offsets +-r are added on
    their own: their weight is as small as rounding when hT lies just above
    an integer, too small to survive the cancellation in the moment
    combination. The cost is O(T) for any h.

    With ``leave_out = k`` the positions within k grid steps of the centre
    are dropped: the moments are summed over the two sides of that hole
    before the weights are applied, so a window whose nonzero values all
    lie in the hole, like one with none at all, reads exactly 0.
    This is the one place kernel sums are formed.
    """
    T = x.shape[0]
    r = _reach(h, T)
    m = h * T
    q = max(r - 1, 0)
    L = q + 1
    n_blocks = -(-T // L)
    xp = np.zeros(n_blocks * L + 2 * q)
    xp[q: q + T] = x
    rows = np.lib.stride_tricks.sliding_window_view(xp, L + 2 * q)[::L]
    o = np.arange(-q, L + q, dtype=np.float64)
    cum = np.zeros((3, n_blocks, L + 2 * q + 1))
    np.cumsum(rows * np.stack([np.ones_like(o), o, o * o])[:, None, :], axis=2,
              out=cum[:, :, 1:])
    if leave_out is None:
        s = cum[:, :, 2 * q + 1:] - cum[:, :, :L]
    else:
        k = min(leave_out, q)
        s = ((cum[:, :, 2 * q + 1:] - cum[:, :, q + k + 1: q + k + 1 + L])
             + (cum[:, :, q - k: q - k + L] - cum[:, :, :L]))
    i = np.arange(L, dtype=np.float64)
    sums = (0.75 / (m * m)) * ((m * m - i * i) * s[0] + 2.0 * i * s[1] - s[2])
    sums = sums.reshape(-1)[:T]
    if r > q and (leave_out is None or leave_out < r):
        edges = np.zeros(T)
        edges[r:] += x[:T - r]
        edges[:T - r] += x[r:]
        sums += (0.75 * (m - r) * (m + r) / (m * m)) * edges
    return sums


def nw_smoother(mask: np.ndarray, h: float) -> Callable[[np.ndarray], np.ndarray]:
    """Local-constant smoother at bandwidth ``h`` for series on one mask.

    The observed-weight sums and the observation count of every window
    are formed once, so smoothing many series that share the mask
    (bootstrap replicates) costs one window sum each. The returned
    function takes masked values (zero where unobserved) and gives NaN
    wherever the kernel window holds no observation, and the observation
    itself, exactly, wherever it holds one.
    """
    T = mask.shape[0]
    r = _reach(h, T)
    pos = np.flatnonzero(mask)
    centres = np.arange(T)
    first = np.searchsorted(pos, centres - r)
    count = np.searchsorted(pos, centres + r, side="right") - first
    undefined = count == 0
    single = np.flatnonzero(count == 1)
    source = pos[first[single]]
    den = _window_sums(mask.astype(np.float64), h)

    def smooth(masked_values: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            g = _window_sums(masked_values, h) / den
        g[single] = masked_values[source]
        g[undefined] = np.nan
        return g

    return smooth


@dataclass(frozen=True)
class KernelTrendFit:
    """Local-constant trend estimate on the full grid.

    ``g_hat`` is NaN wherever the kernel window holds no observation;
    every defined value is a convex combination of observed points.
    """

    g_hat: np.ndarray
    h: float

    @property
    def defined(self) -> np.ndarray:
        return np.isfinite(self.g_hat)


def nw_estimate(eps: ObservedSeries, h: float) -> KernelTrendFit:
    """Kernel-weighted local average of the observed points at t/T, t = 1..T."""
    g = nw_smoother(eps.mask, h)(eps.values)
    return KernelTrendFit(g_hat=g, h=float(h))


def default_leave_out(n_time: int) -> int:
    """Leave-out half-width matched to the bootstrap dependence length."""
    return int(np.ceil(dependence_length(n_time)))


@dataclass(frozen=True)
class McvResult:
    """Cross-validation scores over a bandwidth grid.

    The score curve can have several local minima; all of them are
    reported and the choice is left to the caller.
    """

    grid: np.ndarray
    scores: np.ndarray
    k: int
    local_minima: np.ndarray  # indices into grid

    @property
    def no_interior_minimum(self) -> bool:
        return self.local_minima.size == 0

    def pick(self, which: int) -> float:
        """Bandwidth at the ``which``-th local minimum (0-based)."""
        if self.no_interior_minimum:
            raise ValueError("score curve has no interior local minimum")
        if not 0 <= which < self.local_minima.size:
            raise ValueError(f"minimum index {which} out of range")
        return float(self.grid[self.local_minima[which]])


def mcv_scan(eps: ObservedSeries, grid: np.ndarray, k: int | None = None) -> McvResult:
    """Leave-(2k+1)-out cross-validation of the trend bandwidth.

    For each candidate bandwidth the estimator at t/T omits every
    position within k grid steps of t, blunting the tendency of
    dependent errors to drag the choice toward undersmoothing. k = 0 is
    classical leave-one-out.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("empty bandwidth grid")
    if k is None:
        k = default_leave_out(len(eps))
    if k < 0:
        raise ValueError("k must be >= 0")

    T = len(eps)
    mask_f = eps.mask.astype(np.float64)
    obs = eps.mask == 1
    scores = np.empty(grid.size)
    for i, h in enumerate(grid):
        num = _window_sums(eps.values, h, leave_out=k)
        den = _window_sums(mask_f, h, leave_out=k)
        ok = obs & (den > 0.0)
        if not ok.any():
            warnings.warn(
                f"bandwidth {h:g}: every evaluation point has an empty leave-out window",
                stacklevel=2,
            )
            scores[i] = np.inf
            continue
        g = np.zeros(T)
        g[ok] = num[ok] / den[ok]
        scores[i] = float(((g[ok] - eps.values[ok]) ** 2).sum()) / T

    interior = np.flatnonzero(
        (scores[1:-1] < scores[:-2]) & (scores[1:-1] <= scores[2:])
    ) + 1 if scores.size >= 3 else np.empty(0, dtype=np.int64)
    return McvResult(
        grid=grid,
        scores=scores,
        k=k,
        local_minima=np.asarray(interior, dtype=np.int64),
    )


def bandwidth_grid(lo: float = 0.01, hi: float = 0.25, step: float = 0.005) -> np.ndarray:
    """Inclusive bandwidth grid lo, lo+step, ..., hi."""
    if step <= 0:
        raise ValueError("bandwidth grid step must be positive")
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


def pilot_bandwidth(h: float) -> float:
    """Oversmoothing bandwidth 0.5 * h^(5/9) used to form bootstrap residuals."""
    return 0.5 * h ** (5.0 / 9.0)


@dataclass(frozen=True)
class BandResult:
    """Pointwise intervals and simultaneous bands for the trend curve.

    ``alpha_s`` is the calibrated pointwise error rate whose per-point
    intervals hold jointly at the requested level; it never exceeds
    1 - level, so the simultaneous band contains the pointwise band.
    ``deviations`` keeps the centered bootstrap paths for reuse.
    """

    level: float
    alpha_s: float
    g_hat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    pointwise_lower: np.ndarray
    pointwise_upper: np.ndarray
    deviations: np.ndarray = field(repr=False, default=None)


def pilot_residuals(eps: ObservedSeries, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Oversmoothed pilot fit at bandwidth 0.5 * h^(5/9) and its residuals.

    Returns (pilot values, residuals), the residuals zero at unobserved
    positions. Every bootstrap of the kernel trend and the shape tests
    resamples these residuals.
    """
    pilot = nw_smoother(eps.mask, pilot_bandwidth(h))(eps.values)
    return pilot, np.where(eps.mask == 1, eps.values - pilot, 0.0)


def trend_bootstrap_paths(
    eps: ObservedSeries,
    fit: KernelTrendFit,
    cfg: AwbConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap trend re-estimates around an oversmoothed pilot.

    Residuals are taken from the pilot fit at bandwidth 0.5 * h^(5/9);
    replicate series are rebuilt as mask * (pilot + multiplier * residual)
    and re-smoothed at the original bandwidth.

    Returns (pilot values, (B, T) matrix of replicate trend estimates).
    """
    pilot, u_hat = pilot_residuals(eps, fit.h)
    pilot_masked = np.where(eps.mask == 1, pilot, 0.0)
    paths = run_replicates(cfg, pilot_masked, u_hat, eps.mask, nw_smoother(eps.mask, fit.h))
    return pilot, paths


def pointwise_bands(
    eps: ObservedSeries,
    fit: KernelTrendFit,
    cfg: AwbConfig | None = None,
    level: float = 0.95,
) -> BandResult:
    """Pointwise bootstrap intervals for the trend at every defined position.

    The interval at t/T is [g - q(1-a/2), g - q(a/2)] formed from the
    replicate deviations around the oversmoothed pilot. The returned
    result carries the deviation paths; feed it to
    :func:`simultaneous_bands` to calibrate joint coverage.
    """
    check_rate("level", level)
    cfg = cfg or AwbConfig()
    pilot, paths = trend_bootstrap_paths(eps, fit, cfg)
    deviations = paths - pilot
    a = 1.0 - level
    lower, upper = basic_interval(fit.g_hat, np.sort(deviations, axis=0), a)
    return BandResult(
        level=level,
        alpha_s=a,
        g_hat=fit.g_hat,
        lower=lower.copy(),
        upper=upper.copy(),
        pointwise_lower=lower,
        pointwise_upper=upper,
        deviations=deviations,
    )


def simultaneous_bands(band: BandResult) -> BandResult:
    """Calibrate the pointwise error rate until bands hold jointly at the
    band's own level.

    Scans candidate pointwise rates a_p in [1/B, alpha] and, for each,
    counts the fraction of bootstrap deviation paths lying inside their
    per-point intervals at every defined position simultaneously. The
    rate whose joint coverage is closest to the target becomes alpha_s
    (ties to the widest band). If even 1/B under-covers, the widest band
    is returned with a warning. Positions where the trend or any
    deviation path is undefined get NaN bands.
    """
    if band.deviations is None:
        raise ValueError("band result carries no bootstrap deviations")
    level = band.level
    alpha = 1.0 - level
    dev = band.deviations
    B = dev.shape[0]
    defined = np.isfinite(band.g_hat) & np.isfinite(dev).all(axis=0)
    D = dev[:, defined]
    Ds = np.sort(D, axis=0)

    ks = np.arange(1, int(np.floor(B * alpha)) + 1)
    grid = list(ks / B)
    if not grid:
        warnings.warn(
            f"target level {level:g} finer than 1/B with B={B}; using the widest band",
            stacklevel=2,
        )
        grid = [1.0 / B]
    elif grid[-1] < alpha:
        grid.append(alpha)

    best_ap, best_score, best_cov = None, np.inf, 0.0
    for ap in grid:
        lo, hi = Ds[quantile_row(ap / 2.0, B)], Ds[quantile_row(1.0 - ap / 2.0, B)]
        inside = ((D >= lo) & (D <= hi)).all(axis=1).mean()
        score = abs(inside - level)
        if score < best_score:
            best_ap, best_score, best_cov = ap, score, inside
    if best_cov < level and best_ap == grid[0]:
        warnings.warn(
            f"joint coverage {best_cov:.3f} below {level:g} even at the widest "
            "admissible band",
            stacklevel=2,
        )

    lower = np.full(band.g_hat.shape, np.nan)
    upper = np.full(band.g_hat.shape, np.nan)
    lower[defined], upper[defined] = basic_interval(band.g_hat[defined], Ds, best_ap)
    return BandResult(
        level=level,
        alpha_s=float(best_ap),
        g_hat=band.g_hat,
        lower=lower,
        upper=upper,
        pointwise_lower=band.pointwise_lower,
        pointwise_upper=band.pointwise_upper,
        deviations=dev,
    )


def confidence_bands(
    eps: ObservedSeries,
    fit: KernelTrendFit,
    cfg: AwbConfig | None = None,
    level: float = 0.95,
) -> BandResult:
    """Pointwise intervals plus calibrated simultaneous bands in one call."""
    return simultaneous_bands(pointwise_bands(eps, fit, cfg, level))
