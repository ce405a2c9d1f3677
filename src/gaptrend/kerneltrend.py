"""Nonparametric trend: local-constant kernel smoothing on the full daily
grid, bandwidth selection by leave-(2k+1)-out cross-validation, and bootstrap
pointwise intervals calibrated into simultaneous confidence bands.

All smoothing runs in rescaled time t/T with an Epanechnikov kernel. Grid
positions whose kernel window contains no observation (long gaps wider than
the window) are reported as undefined rather than filled in, and a window
holding one observation gives that observation exactly.

Every kernel sum (smoothing, the cross-validation windows, bootstrap
re-smoothing) comes from prefix sums of x, o*x and o^2*x within
non-overlapping blocks: the kernel is quadratic in the offset o, so a window
sum costs O(1) and a whole pass, reading each value once, O(T).

A fit is built from its series and bandwidth alone and runs every bootstrap
of the estimate through ``fit.bootstrap``, around its pilot ``fit.pilot``.
The bands read one (B, T) matrix of bootstrap deviations from the pilot
and, of that matrix sorted along the replicates, only the tail rows that
some calibration rate reads. Joint coverage never rises along the rates, so
the simultaneous rate is found by bisection, not by a scan.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .awb import (AwbConfig, basic_interval, check_rate, dependence_length, mc_error,
                  quantile_row, run_replicates)
from .series import ObservedSeries


def _reach(h: float, n_time: int) -> int:
    """Widest grid offset with positive Epanechnikov weight, |offset| < h*T,
    capped at T - 1 (no window reaches further than the grid)."""
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    return min(int(np.ceil(h * n_time)) - 1, n_time - 1)


def window_bounds(obs: np.ndarray, centres: np.ndarray, h: float,
                  n_time: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-open bounds [lo, hi) of the ascending observed positions ``obs``
    in the kernel window |o - t| < h*T of every centre t, read off the
    integer reach, so no rounding of t +- h*T moves a bound."""
    r = _reach(h, n_time)
    return np.searchsorted(obs, centres - r), np.searchsorted(obs, centres + r, side="right")


def _window_sums(x: np.ndarray, h: float, leave_out: int | None = None) -> np.ndarray:
    """Epanechnikov-weighted sums of ``x`` over the window around every grid position.

    The weight 0.75 * (1 - (d/m)^2) at offset d, m = h*T, is quadratic in
    d, so a window sum combines the moments S_p = sum x_j o_j^p, p = 0, 1, 2.
    The grid, padded by one block on each side, is cut into blocks of
    L = max(r, 1) positions, r the widest offset with positive weight, and
    each block takes cumulative sums of x, o*x and o^2*x, o counted from its
    first position. The offsets |d| < L of centre i of block b cover block
    b-1 after offset i, all of block b and block b+1 before offset i; each
    piece is a difference of cumulative sums, weighted in its own block's
    origin as (m^2 - c^2) S0 + 2c S1 - S2, c = i + L, i, i - L. As |o| < L
    and |c| < 2L, no scaled term exceeds 3 (L/m)^2 times the sum of |x| over
    the three blocks, and each value is read once: O(T) for any h. The
    outermost offsets +-r are added on their own: their weight is as small
    as rounding when hT lies just above an integer, too small to survive
    the cancellation in the moment combination.

    With ``leave_out = k`` the positions within k grid steps of the centre
    are dropped: each piece is summed over the two sides of that hole
    before the weights are applied, so a window whose nonzero values all
    lie in the hole, like one with none at all, reads exactly 0.
    This is the one place kernel sums are formed.
    """
    T = x.shape[0]
    r = _reach(h, T)
    m = h * T
    L = max(r, 1)
    n_blocks = -(-T // L)
    o = np.arange(L, dtype=np.float64)
    cum = np.zeros((3, n_blocks + 2, L + 1))
    cum[0, 1:, 1:] = np.concatenate([x, np.zeros((n_blocks + 1) * L - T)]).reshape(-1, L)
    cum[1:, :, 1:] = cum[0, :, 1:] * np.stack([o, o * o])[:, None]
    np.cumsum(cum, axis=2, out=cum)
    before = cum[:, :-2, L:] - cum[:, :-2, 1:]
    whole = cum[:, 1:-1, L:]
    after = cum[:, 2:, :L]
    if leave_out is not None:
        # The hole [i - k, i + k] shortens the first k centres' piece of block
        # b-1 and the last k centres' piece of block b+1, and splits block b;
        # ``after`` views ``cum``, so it is edited last.
        k = min(leave_out, L - 1)
        before[..., :k] = cum[:, :-2, L - k: L] - cum[:, :-2, 1: k + 1]
        whole = np.zeros((3, n_blocks, L))
        np.subtract(cum[:, 1:-1, L:], cum[:, 1:-1, k + 1:], out=whole[..., :L - k])
        whole[..., k:] += cum[:, 1:-1, :L - k]
        after[..., L - k:] -= cum[:, 2:, 1: k + 1]
    sums = np.zeros((n_blocks, L))
    for c, piece in ((o + L, before), (o, whole), (o - L, after)):
        sums += np.einsum("pbi,pi->bi", piece, np.stack([m * m - c * c, 2.0 * c, -np.ones(L)]))
    sums = (0.75 / (m * m)) * sums.reshape(-1)[:T]
    if r > 0 and (leave_out is None or leave_out < r):
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
    function takes a series' values on the observed days and gives its
    trend on every day: NaN wherever the kernel window holds no
    observation, and the observation itself, exactly, wherever it holds
    one. Each call scatters the values into a fresh grid, so a caller's
    own threads may share the function."""
    T = mask.shape[0]
    pos = np.flatnonzero(mask)
    first, end = window_bounds(pos, np.arange(T), h, T)
    count = end - first
    undefined = count == 0
    single = np.flatnonzero(count == 1)
    source = first[single]
    den = _window_sums(mask.astype(np.float64), h)

    def smooth(values: np.ndarray) -> np.ndarray:
        grid = np.zeros(T)
        grid[pos] = values
        with np.errstate(divide="ignore", invalid="ignore"):
            g = _window_sums(grid, h) / den
        g[single] = values[source]
        g[undefined] = np.nan
        return g

    return smooth


@dataclass(frozen=True)
class KernelTrendFit:
    """Local-constant trend estimate of ``series`` at bandwidth ``h``.

    Its smoother ``smooth`` and trend ``g_hat`` are built at construction.
    ``g_hat`` is NaN wherever the kernel window holds no observation;
    every defined value is a convex combination of observed points. Every
    bootstrap of the estimate runs through ``bootstrap``, around ``pilot``.
    """

    series: ObservedSeries = field(repr=False, compare=False)
    h: float
    smooth: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    g_hat: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        smooth = nw_smoother(self.series.mask, self.h)
        object.__setattr__(self, "smooth", smooth)
        object.__setattr__(self, "g_hat", smooth(self.series.values[self.series.mask == 1]))

    @property
    def defined(self) -> np.ndarray:
        return np.isfinite(self.g_hat)

    @cached_property
    def pilot(self) -> np.ndarray:
        """Oversmoothed trend at bandwidth 0.5 * h^(5/9), on every position."""
        eps = self.series
        return nw_smoother(eps.mask, pilot_bandwidth(self.h))(eps.values[eps.mask == 1])

    def bootstrap(self, cfg: AwbConfig, base: np.ndarray,
                  statistic: Callable[[np.ndarray], object]) -> np.ndarray:
        """``run_replicates`` of ``statistic`` on replicate series built on
        ``base`` from the residuals of ``series`` around the pilot: the
        statistic reads a block of replicates as the rows of one (k, n_obs)
        array of their observed values and returns one row per replicate."""
        eps = self.series
        return run_replicates(cfg, base, eps.with_values(eps.values - self.pilot), statistic)


def nw_estimate(eps: ObservedSeries, h: float) -> KernelTrendFit:
    """Kernel-weighted local average of the observed points at t/T, t = 1..T."""
    return KernelTrendFit(eps, float(h))


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

    mask_f = eps.mask.astype(np.float64)
    obs = eps.mask == 1
    scores = np.empty(grid.size)
    for i, h in enumerate(grid):
        num = _window_sums(eps.values, h, leave_out=k)
        den = _window_sums(mask_f, h, leave_out=k)
        ok = np.flatnonzero(obs & (den > 0.0))
        if ok.size == 0:
            warnings.warn(
                f"bandwidth {h:g}: every evaluation point has an empty leave-out window",
                stacklevel=2,
            )
            scores[i] = np.inf
            continue
        scores[i] = float(((num[ok] / den[ok] - eps.values[ok]) ** 2).sum()) / len(eps)

    interior = np.flatnonzero((scores[1:-1] < scores[:-2]) & (scores[1:-1] <= scores[2:])) + 1
    return McvResult(grid=grid, scores=scores, k=k, local_minima=interior)


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

    ``alpha_s`` is the calibrated pointwise error rate at which the share of
    bootstrap deviation paths inside the per-point intervals at every
    defined position, ``joint_coverage`` (the report's
    ``simultaneous_joint_coverage``), comes closest to the requested level.
    It is at most max(1 - level, 1/B). Where 1 - level is at least 1/B, the
    simultaneous band therefore contains the pointwise band; where it is
    finer (B < 1/(1 - level)), ``alpha_s`` is 1/B, the band is the full
    replicate envelope, and :func:`simultaneous_bands` warns that the
    level is finer than 1/B.
    """

    level: float
    alpha_s: float
    joint_coverage: float
    lower: np.ndarray
    upper: np.ndarray
    pointwise_lower: np.ndarray
    pointwise_upper: np.ndarray


def trend_bootstrap_paths(fit: KernelTrendFit, cfg: AwbConfig) -> np.ndarray:
    """Bootstrap deviations of the trend re-estimates from the fit's pilot.

    Replicate series are rebuilt on the pilot by ``fit.bootstrap`` and
    re-smoothed by ``fit.smooth``, which takes each row of a block, a
    replicate's observed values, back to the (T,) grid. Returns the (B, T)
    matrix of replicate trend estimates minus the pilot, the pilot
    subtracted in place.
    """
    deviations = fit.bootstrap(cfg, fit.pilot, lambda block: [fit.smooth(y) for y in block])
    deviations -= fit.pilot
    return deviations


_CHUNK = 256  # columns of the deviation matrix sorted at a time
_BLOCK = 2**16  # entries of the deviation matrix compared at a time


def _calibration_rates(n_boot: int, level: float) -> list[float]:
    """Candidate pointwise rates k/B, k = 1..floor(B (1 - level)), then
    1 - level itself when it lies past the last; 1/B alone when 1 - level
    is finer than 1/B."""
    alpha = 1.0 - level
    rates = list(np.arange(1, int(np.floor(n_boot * alpha)) + 1) / n_boot)
    if not rates:
        return [1.0 / n_boot]
    if rates[-1] < alpha:
        rates.append(alpha)
    return rates


class SortedRows:
    """Some rows of a (B, T) matrix sorted along its replicates.

    ``self[i]`` is row i of ``np.sort(matrix, axis=0)`` bit for bit, NaN
    last, for each kept row i; ``shape`` is the whole matrix's, so
    ``basic_interval`` reads it as it reads the full sort. The kept rows
    are gathered from column chunks sorted one at a time, so no sorted
    copy of the whole matrix is ever held.
    """

    def __init__(self, matrix: np.ndarray, rows: list[int]) -> None:
        self.shape = matrix.shape
        self._at = {row: i for i, row in enumerate(rows)}
        self._values = np.empty((len(rows), matrix.shape[1]))
        for c in range(0, matrix.shape[1], _CHUNK):
            lanes = np.ascontiguousarray(matrix[:, c:c + _CHUNK].T)
            lanes.sort(axis=1)
            self._values[:, c:c + _CHUNK] = lanes[:, rows].T

    def __getitem__(self, row: int) -> np.ndarray:
        return self._values[self._at[row]]


def pointwise_bands(
    g_hat: np.ndarray, deviations: np.ndarray, level: float
) -> tuple[SortedRows, np.ndarray, np.ndarray]:
    """Pointwise bootstrap intervals for the trend at every position.

    The interval at t/T is [g - q(1-a/2), g - q(a/2)], a = 1 - level, from
    the (B, T) replicate deviations around the pilot. Returns (the tail
    rows of the deviations sorted along axis 0, lower, upper): the rows
    q(a_p/2) and q(1 - a_p/2) of every calibration rate a_p and of a, the
    only rows either band reads.
    """
    n_boot = deviations.shape[0]
    rows = {quantile_row(q, n_boot) for ap in [*_calibration_rates(n_boot, level), 1.0 - level]
            for q in (ap / 2.0, 1.0 - ap / 2.0)}
    ordered = SortedRows(deviations, sorted(rows))
    lower, upper = basic_interval(g_hat, ordered, 1.0 - level)
    return ordered, lower, upper


def simultaneous_bands(
    g_hat: np.ndarray, deviations: np.ndarray, ordered: SortedRows, level: float
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Calibrate the pointwise error rate until bands hold jointly at ``level``.

    The joint coverage of a candidate pointwise rate a_p in [1/B, alpha]
    is the fraction of bootstrap deviation paths lying inside their
    per-point intervals at every defined position simultaneously. The
    intervals shrink as a_p grows, so coverage never rises along the
    rates, and a bisection finds the first rate whose coverage falls below
    the level and the first rate of the plateau just above it. Of those
    two, the one whose coverage is closer to the level becomes alpha_s,
    the earlier (wider band) on a tie: the first closest rate of a scan
    over all of them. A rate's coverage is counted once, over a block of
    paths at a time, so no (B, T) comparison is ever held.
    :func:`confidence_bands` warns when that coverage still misses the
    level. Positions where the trend or any deviation path is undefined get
    NaN bands and put no path outside. ``ordered`` is what
    :func:`pointwise_bands` returned at the same level.
    Returns (alpha_s, joint coverage at alpha_s, lower, upper).
    """
    B, T = deviations.shape
    rates = _calibration_rates(B, level)
    if B * (1.0 - level) < 1.0:
        warnings.warn(
            f"target level {level:g} finer than 1/B with B={B}; using the widest band",
            stacklevel=2,
        )
    # NaN sorts last and -inf first, so the envelope (rate 1/B) tells the
    # columns where every path is finite.
    defined = np.isfinite(g_hat) & np.isfinite(ordered[0]) & np.isfinite(ordered[B - 1])
    rows = max(1, _BLOCK // T)
    covered: dict[int, float] = {}

    def coverage(i: int) -> float:
        if i not in covered:
            ap = rates[i]
            # Undefined columns read (-inf, inf) and NaN compares False: no path falls out there.
            lo = np.where(defined, ordered[quantile_row(ap / 2.0, B)], -np.inf)
            hi = np.where(defined, ordered[quantile_row(1.0 - ap / 2.0, B)], np.inf)
            out = np.empty(B, dtype=bool)
            for r in range(0, B, rows):
                paths = deviations[r:r + rows]
                out[r:r + rows] = ((paths < lo) | (paths > hi)).any(axis=1)
            covered[i] = (~out).mean()
        return covered[i]

    below = bisect_left(range(len(rates)), True, key=lambda i: coverage(i) < level)
    candidates = []
    if below > 0:  # the first rate of the plateau just above the level
        plateau = coverage(below - 1)
        candidates.append(bisect_left(range(below), True, key=lambda i: coverage(i) <= plateau))
    if below < len(rates):
        candidates.append(below)
    # min keeps the first of equal scores: the earlier rate, the wider band.
    best = min(candidates, key=lambda i: abs(coverage(i) - level))

    lower, upper = basic_interval(np.where(defined, g_hat, np.nan), ordered, rates[best])
    return float(rates[best]), float(coverage(best)), lower, upper


def confidence_bands(
    fit: KernelTrendFit,
    cfg: AwbConfig | None = None,
    level: float = 0.95,
) -> BandResult:
    """Pointwise intervals plus calibrated simultaneous bands from one deviation matrix.

    Warns when the calibrated joint coverage misses the level by more than
    its Monte Carlo error sqrt(level (1 - level) / B), above or below: the
    full replicate envelope may over-cover while the next rate
    under-covers, and even rate 1/B may under-cover.
    """
    check_rate("level", level)
    deviations = trend_bootstrap_paths(fit, cfg or AwbConfig())
    n_boot = deviations.shape[0]
    ordered, pointwise_lower, pointwise_upper = pointwise_bands(fit.g_hat, deviations, level)
    alpha_s, coverage, lower, upper = simultaneous_bands(fit.g_hat, deviations, ordered, level)
    error = mc_error(level, n_boot)
    if abs(coverage - level) > error:
        warnings.warn(
            f"joint coverage {coverage:.3f} misses {level:g} by more than its Monte Carlo "
            f"error {error:.3f} at the closest admissible rate {alpha_s:.4g}",
            stacklevel=2,
        )
    return BandResult(
        level=level,
        alpha_s=alpha_s,
        joint_coverage=coverage,
        lower=lower,
        upper=upper,
        pointwise_lower=pointwise_lower,
        pointwise_upper=pointwise_upper,
    )
