"""Continuous broken linear trend: estimation, break test, bootstrap intervals.

The trend is linear with one slope change at an unknown grid position; the
hinge regressor keeps the fitted line continuous at the break. Estimation
minimizes the mask-weighted sum of squared residuals jointly over the trend,
the slope change, and the seasonal harmonics, scanning every admissible
break candidate. The scan exploits the fact that only the hinge column
changes between candidates: with the fixed-column Gram matrix factorized
once, each candidate costs a rank-one update built from suffix sums over
the observed days, so a full scan is O(n_obs * p + |candidates| * p)
instead of |candidates| full refits.
The break is estimated once, when a :class:`BrokenTrendFit` is built from
its series and its candidate scan; the fit keeps that scan's state, the
break-test statistic and the no-break coefficients among it, so the test
and the intervals take the fit alone. The test's statistic, critical value
and p-value come as one ``awb.BootstrapTest`` record.

The test and the intervals bootstrap the fit's residuals with the same
multiplier paths, through the fit's ``bootstrap``, on one base, the
no-break trend ``null_trend``. Their replicates rescan the candidates the
fit was chosen from, so on a fit with an imposed break the test tests that
break alone. The intervals need each replicate on the broken fit instead:
the scan's sums are linear in the response, so one scan of the replicate
gives that too, shifted by the fixed difference of the two fits. Every
replicate is scanned once, in one scan of its block of replicates: a scan
takes a (k, T) block and gives one row per response, and the fit's own
scan is a block of one. :func:`break_analysis`, the CLI's entry, is
:func:`break_test` and :func:`break_ci` from one pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .awb import (
    AwbConfig, BootstrapTest, basic_interval, bootstrap_test, check_rate, run_replicates,
)
from .exceptions import SingularDesignError
from .seasonal import SeasonalFit, fourier_design
from .series import DAYS_PER_YEAR, ObservedSeries

DEFAULT_TRIM_FRACTION = 0.1

# Reductions below this fraction of the total sum of squares are numerical
# noise from the least-squares solve, not evidence of a break.
_NOISE_FLOOR = 1e-20
# A candidate whose hinge column is this close to the span of the fixed
# columns (Schur complement relative to the raw hinge norm) is unidentified.
_SCHUR_RTOL = 1e-10


def _suffix_sums(x: np.ndarray) -> np.ndarray:
    """Sums of x[..., i:] along the last axis for i = 0..n, the last one 0."""
    out = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
    np.add.accumulate(x[..., ::-1], axis=-1, out=out[..., -2::-1])
    return out


def trimming_set(n_time: int, fraction: float = DEFAULT_TRIM_FRACTION) -> np.ndarray:
    """Break candidates ceil(fraction*T) .. floor((1-fraction)*T): 1-based grid
    positions, ascending, bounded away from both sample ends. A fraction*T
    within 1e-9 of an integer k counts as k, as in ``awb.quantile_row``, and
    floor((1-fraction)*T) is T - ceil(fraction*T) exactly."""
    if not 0.0 < fraction < 0.5:
        raise ValueError("trimming fraction must lie in (0, 0.5)")
    lo = max(int(np.ceil(fraction * n_time - 1e-9)), 1)
    hi = n_time - lo
    if lo > hi:
        raise ValueError(f"empty trimming set for T={n_time}, fraction={fraction}")
    return np.arange(lo, hi + 1)


@dataclass(frozen=True)
class BrokenTrendFit:
    """Joint fit of intercept, slopes, break position, and seasonal pattern
    of ``series`` over the break candidates of ``scan``.

    The series is scanned once, at construction: ``state`` is that scan, a
    block of one row, which holds the break-test statistic and the
    no-break fit, and the break is its best candidate. ``beta`` and
    ``delta`` are per grid step (one day); multiply by 365.25 for per-year
    rates. The fitted trend is continuous at ``break_index`` by
    construction of the hinge regressor.
    Every bootstrap of the fit runs through ``bootstrap``, which resamples
    the residuals of ``series`` around the fit; its statistics rescan the
    candidates of ``scan``.
    """

    series: ObservedSeries = field(repr=False, compare=False)
    scan: BreakScan = field(repr=False, compare=False)
    state: ScanState = field(init=False, repr=False, compare=False)
    alpha: float = field(init=False)
    beta: float = field(init=False)
    delta: float = field(init=False)
    break_index: int = field(init=False)
    seasonal: SeasonalFit = field(init=False)
    ssr: float = field(init=False)

    def __post_init__(self) -> None:
        state = self.scan.scan(self.series.values[None])
        coef = self.scan.coefficients(state)
        S, harmonics = self.scan.n_harmonics, coef.pop("harmonics")[0]
        seasonal = SeasonalFit(harmonics[:S], harmonics[S:], S, self.scan._Z[:, 2:] @ harmonics)
        values = {name: float(value[0]) for name, value in coef.items()}
        for name, value in dict(values, state=state, break_index=int(state.best[0]),
                                seasonal=seasonal).items():
            object.__setattr__(self, name, value)

    @property
    def null_trend(self) -> np.ndarray:
        """The no-break fit, trend plus seasonal pattern, on every position."""
        return self.scan._Z @ self.state.beta0[0]

    def trend_values(self) -> np.ndarray:
        t = np.arange(1, self.scan.n_time + 1, dtype=np.float64)
        return self.alpha + self.beta * t + self.delta * np.maximum(0.0, t - self.break_index)

    def fitted_values(self) -> np.ndarray:
        return self.trend_values() + self.seasonal.fitted

    def bootstrap(self, cfg: AwbConfig, base: np.ndarray,
                  statistic: Callable[[np.ndarray], object]) -> np.ndarray:
        """``run_replicates`` of ``statistic`` on replicate series built on
        ``base`` from the residuals of ``series`` around the fit: the
        statistic reads a block of replicates as the rows of one (k, T)
        array and returns one row per replicate."""
        eps = self.series
        return run_replicates(cfg, base, eps.with_values(eps.values - self.fitted_values()),
                              statistic)


@dataclass(frozen=True)
class BreakDateCi:
    """Confidence interval for the break position, in grid positions, with the
    slope intervals of the same bootstrap replicates. ``lower_index`` and
    ``upper_index`` are the basic interval's ends ``basic_lower`` and
    ``basic_upper`` clipped to the range of the scanned candidates."""

    break_index: int
    lower_index: int
    upper_index: int
    basic_lower: int
    basic_upper: int
    level: float
    bootstrap_indices: np.ndarray
    slopes: SlopeCis

    @property
    def length(self) -> int:
        return self.upper_index - self.lower_index

    @property
    def clipped(self) -> bool:
        return (self.lower_index, self.upper_index) != (self.basic_lower, self.basic_upper)


@dataclass(frozen=True)
class ParamCi:
    estimate: float
    lower: float
    upper: float


@dataclass(frozen=True)
class SlopeCis:
    """Bootstrap intervals for intercept, slopes, and slope change (per grid step)."""

    intercept: ParamCi
    slope_before: ParamCi
    slope_change: ParamCi
    slope_after: ParamCi
    level: float

    def per_year(self) -> dict[str, ParamCi]:
        """The three slope intervals per year: per day times 365.25."""
        s = DAYS_PER_YEAR
        out = {}
        for name in ("slope_before", "slope_change", "slope_after"):
            ci: ParamCi = getattr(self, name)
            out[name] = ParamCi(ci.estimate * s, ci.lower * s, ci.upper * s)
        return out


class ScanState(NamedTuple):
    """The scans of a block of k responses over every candidate of a
    :class:`BreakScan`, one row per response."""

    ssr0: np.ndarray  # (k,) no-break SSR
    f_stat: np.ndarray  # (k,) largest SSR reduction over the candidates
    best: np.ndarray  # (k,) position of the winning candidate, ties to the smallest
    beta0: np.ndarray  # (k, p0) no-break coefficients, internal scaling
    num: np.ndarray  # (k, n_cand) per-candidate hinge numerators, read by coefficients


class ScanShift(NamedTuple):
    """A fixed shift d of a scan's response and its sums, from
    :meth:`BreakScan.shift`: the scan of y + d adds them to those of y."""

    d: np.ndarray  # the shift on the observed days
    dd: float  # d'd
    u: np.ndarray  # (1, p0) L^-1 Z'd
    num: np.ndarray  # (1, n_cand) per-candidate hinge numerators of d


class BreakScan:
    """Reusable scan state for one (mask, harmonics, candidates) design.

    Everything that does not depend on the response is precomputed here,
    so that a bootstrap replicate pays O(n_obs * p) per scan over the
    observed rows, plus O(p) per candidate. The fixed columns are the
    intercept, rescaled time t/T, and the Fourier harmonics; each
    candidate adds one hinge column handled by partitioned regression.
    The candidates must be one contiguous ascending range of 1-based
    positions, such as a :func:`trimming_set` or one imposed break, so
    that a candidate's index is its position less the first one's.
    ``n_skipped`` counts the candidates whose hinge is not identified on
    the mask; scans never pick them.
    """

    def __init__(
        self,
        mask: np.ndarray,
        calendar_years: np.ndarray,
        candidates: np.ndarray,
        n_harmonics: int,
    ):
        mask = np.asarray(mask)
        T = mask.shape[0]
        self.n_time = T
        self.candidates = np.asarray(candidates, dtype=np.int64)
        if self.candidates.size == 0:
            raise ValueError("no break candidates")
        if self.candidates.min() < 1 or self.candidates.max() > T - 1:
            raise ValueError("break candidates must lie in 1..T-1")
        if np.any(np.diff(self.candidates) != 1):
            raise ValueError("break candidates must be one contiguous ascending range")
        self._span = slice(int(self.candidates[0]), int(self.candidates[-1]) + 1)

        m = mask.astype(np.float64)
        tau = np.arange(1, T + 1, dtype=np.float64) / T
        Z = np.hstack([np.ones((T, 1)), tau[:, None], fourier_design(calendar_years, n_harmonics)])
        self.n_harmonics = n_harmonics
        self.n_params = Z.shape[1] + 1  # fixed columns plus the hinge
        n_observed = int(np.count_nonzero(mask))
        if n_observed <= self.n_params:
            raise ValueError(f"need more than {self.n_params} observed points, have {n_observed}")
        self._Z = Z
        Zm = Z * m[:, None]
        # The scans read the observed rows alone. A hinge at candidate c
        # reaches the observed days from grid index c on; _at holds, per
        # candidate, the first of them as an observed index, where its
        # suffix sums are read.
        obs = np.flatnonzero(mask)
        self._obs, self._tau_o = obs, tau[obs]
        self._Zo_t = np.ascontiguousarray(Z[obs].T)
        self._at = np.searchsorted(obs, self.candidates)

        # The Cholesky factor G = L L^T of the fixed-column Gram matrix
        # fails on a singular G. L^-1 is p0 x p0, so each scan solves for
        # the no-break coefficients with two small matvecs.
        try:
            self._chol_inv = np.linalg.inv(np.linalg.cholesky(Z.T @ Zm))
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(f"fixed design is singular: {exc}") from exc

        c = self.candidates
        tau_c = self._tau_c = c / T
        p0 = Z.shape[1]
        sums = _suffix_sums(np.vstack([Zm.T, (Zm * tau[:, None]).T, m, m * tau, m * tau * tau]))
        s_mz, s_mtz = sums[:p0], sums[p0: 2 * p0]
        s_m, s_mt, s_mtt = sums[2 * p0:]
        # Observed-point support at the trimming edges; the hinge needs
        # identifying variation on both sides of every candidate.
        n_left = s_m[0] - s_m[c[0]]
        n_right = s_m[c[-1]]
        if min(n_left, n_right) < self.n_params + 1:
            raise ValueError(
                "trimming leaves fewer than n_params + 1 observed points on one side; "
                "increase the trimming fraction"
            )

        # Hinge cross products for every candidate at once.
        Zd_t = s_mtz[:, c] - tau_c * s_mz[:, c]                # Zd', (p0, n_cand)
        dd = s_mtt[c] - 2.0 * tau_c * s_mt[c] + tau_c**2 * s_m[c]
        # Hinge cross products in the whitened basis, V = L^-1 Zd'. The
        # Schur complement dd - |V|^2 cancels most of dd, so it is formed
        # from V rather than from G^-1 Zd', which loses digits there.
        self._V = self._chol_inv @ Zd_t                        # (p0, n_cand)
        self._W = self._chol_inv.T @ self._V                   # G^-1 Zd'
        schur = dd - np.einsum("pc,pc->c", self._V, self._V)
        self._schur = schur
        self._valid = schur > np.maximum(dd, 1e-300) * _SCHUR_RTOL
        if not self._valid.any():
            raise SingularDesignError("every break candidate is unidentified on this mask")
        # A skipped candidate's reduction divides by inf, then reads -inf.
        self._skipped = np.flatnonzero(~self._valid)
        self._schur_valid = np.where(self._valid, schur, np.inf)
        self.n_skipped = int(self._skipped.size)

    def _sums(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (k, T) block y on the observed days, u = L^-1 Z'y and the
        per-candidate hinge numerators, one row per response; the last two
        are linear in y."""
        # y and y*tau on the observed days as the rows of one array for one
        # suffix pass.
        rows = np.empty((2, y.shape[0], self._obs.size))
        # The indices are in range; "clip" spares the copy "raise" makes of out.
        yo = np.take(y, self._obs, axis=1, out=rows[0], mode="clip")
        np.multiply(yo, self._tau_o, out=rows[1])
        u = (self._chol_inv @ (self._Zo_t @ yo.T)).T
        sy, sty = _suffix_sums(rows).take(self._at, axis=-1)
        num = sty - self._tau_c * sy
        num -= u @ self._V
        return yo, u, num

    def _state(self, yy: np.ndarray, u: np.ndarray, num: np.ndarray) -> ScanState:
        """The no-break fits and the best candidates of responses with sums
        y'y, u and num, one row each."""
        beta0 = (self._chol_inv.T @ u.T).T
        ssr0 = np.maximum(yy - np.vecdot(u, u), 0.0)
        red = num * num
        red /= self._schur_valid
        red[red < yy[:, None] * _NOISE_FLOOR] = 0.0
        red[:, self._skipped] = -np.inf
        best = red.argmax(axis=1)
        f_stat = red[np.arange(best.size), best]
        return ScanState(ssr0, f_stat, self._span.start + best, beta0, num)

    def shift(self, d: np.ndarray) -> ScanShift:
        """The fixed shift ``d`` of a response, with its sums, for ``scan``."""
        do, u, num = self._sums(d[None])
        return ScanShift(do[0].copy(), float(do[0] @ do[0]), u, num)

    def scan(self, y: np.ndarray,
             shift: ScanShift | None = None) -> ScanState | tuple[ScanState, ScanState]:
        """Fit the no-break model and every candidate to each row of the
        (k, T) block y on the observed days; return the best break of
        each. Given a ``shift`` d, return the scans of y and of y + d, the
        second built from the sums of the first by linearity, with y'y
        gaining 2 d'y + d'd."""
        yo, u, num = self._sums(y)
        yy = np.vecdot(yo, yo)
        state = self._state(yy, u, num)
        if shift is None:
            return state
        return state, self._state(yy + 2.0 * np.vecdot(yo, shift.d) + shift.dd, u + shift.u,
                                  num + shift.num)

    def coefficients(self, state: ScanState) -> dict:
        """Full coefficient vectors of the scanned models with the break at
        ``state.best``, the best candidate of each row, which a scan always
        identifies: one entry per row."""
        pos = state.best - self._span.start
        num = state.num[np.arange(pos.size), pos]
        delta_tau = num / self._schur[pos]
        bz = state.beta0 - self._W[:, pos].T * delta_tau[:, None]
        red = delta_tau * num
        T = self.n_time
        return {
            "alpha": bz[:, 0],
            "beta": bz[:, 1] / T,
            "delta": delta_tau / T,
            "harmonics": bz[:, 2:],
            "ssr": np.maximum(state.ssr0 - red, 0.0),
        }


def estimate_break(
    series: ObservedSeries,
    trim: np.ndarray | None = None,
    n_harmonics: int = 3,
) -> BrokenTrendFit:
    """Exhaustive scan of the candidate positions ``trim`` (default
    :func:`trimming_set`); smallest-SSR break wins.

    ``trim`` must be one contiguous ascending range of positions; any
    other array raises ``ValueError``. Ties are broken toward the smallest
    candidate position. The estimator always returns a break; whether it
    is significant is the test's job. A one-candidate array imposes the
    break there. Candidates whose hinge the mask does not identify are
    skipped, with a warning that names the caller's line.
    """
    if trim is None:
        trim = trimming_set(len(series))
    scan = BreakScan(series.mask, series.calendar_years(), trim, n_harmonics)
    if scan.n_skipped:
        warnings.warn(f"{scan.n_skipped} break candidate(s) skipped: hinge not identified on "
                      "the observed points", stacklevel=2)
    return BrokenTrendFit(series, scan)


def _replicate_scans(fit: BrokenTrendFit) -> Callable[[np.ndarray], np.ndarray]:
    """The statistic of a block of replicates on ``fit.null_trend``, from
    one scan of the block: per replicate, its break-test statistic, then,
    with the replicate shifted onto the broken fit by the fitted values
    minus ``fit.null_trend``, the re-estimated break position and its
    trend coefficients."""
    shift = fit.scan.shift(fit.fitted_values() - fit.null_trend)

    def statistic(block: np.ndarray) -> np.ndarray:
        null, broken = fit.scan.scan(block, shift)
        coef = fit.scan.coefficients(broken)
        return np.column_stack((null.f_stat, broken.best, coef["alpha"], coef["beta"],
                                coef["delta"]))

    return statistic


def _date_ci(fit: BrokenTrendFit, draws: np.ndarray, level: float) -> BreakDateCi:
    """Break-date and slope intervals from the (B, 4) draws of the broken
    replicates, columns 1-4 of :func:`_replicate_scans`."""
    locs, alphas, betas, deltas = draws.T
    # The break position, then the SlopeCis fields in order: intercept,
    # slope before, slope change and slope after.
    estimates = np.array([fit.break_index, fit.alpha, fit.beta, fit.delta, fit.beta + fit.delta])
    centered = np.column_stack((locs, alphas, betas, deltas, betas + deltas)) - estimates
    centered.sort(axis=0)
    lower, upper = basic_interval(estimates, centered, 1.0 - level)
    cis = np.column_stack((estimates, lower, upper)).tolist()
    position, *slopes = (ParamCi(*ci) for ci in cis)
    lower_i, upper_i = int(round(position.lower)), int(round(position.upper))
    c_min, c_max = int(fit.scan.candidates[0]), int(fit.scan.candidates[-1])
    return BreakDateCi(
        break_index=fit.break_index,
        lower_index=min(max(lower_i, c_min), c_max),
        upper_index=min(max(upper_i, c_min), c_max),
        basic_lower=lower_i,
        basic_upper=upper_i,
        level=level,
        bootstrap_indices=locs.astype(np.int64),
        slopes=SlopeCis(*slopes, level=level),
    )


def break_test(
    fit: BrokenTrendFit,
    cfg: AwbConfig | None = None,
    alpha: float = 0.05,
) -> BootstrapTest:
    """Bootstrap test of a single slope change against a straight trend.

    The statistic is the drop in the observed-point sum of squared
    residuals from the best one-break model, ``fit``, relative to the
    no-break model, both read off the scan ``fit`` was chosen on.
    Bootstrap samples are regenerated under the no-break null, on
    ``fit.null_trend``; each replicate rescans the candidates the fit was
    chosen from (``fit.scan``), so on an imposed break the test tests that
    break alone. Rejection: statistic above the (1 - alpha) bootstrap
    quantile.

    The bootstrap errors are the residuals of ``fit``, the best one-break
    fit, which keeps break-like noise patterns out of the resampled
    errors: with no-break residuals, a draw whose noise happens to look
    break-like would inflate its own critical value.
    """
    check_rate("alpha", alpha)
    draws = fit.bootstrap(cfg or AwbConfig(), fit.null_trend,
                          lambda block: fit.scan.scan(block).f_stat)
    return bootstrap_test(fit.state.f_stat[0], draws, alpha)


def break_ci(
    fit: BrokenTrendFit,
    cfg: AwbConfig | None = None,
    level: float = 0.95,
) -> BreakDateCi:
    """Bootstrap confidence intervals for the break position and the slopes.

    Samples are regenerated from the residuals of ``fit`` on
    ``fit.series`` with the estimated break imposed: the replicates of
    :func:`break_test`, shifted onto ``fit`` by its fitted values minus
    ``fit.null_trend``. Each re-estimates the break over the candidates
    the fit was chosen from
    (``fit.scan``; for an imposed break that is the break alone) and reads
    off its coefficients at that break, so the uncertainty of the break
    location flows into the slope intervals.
    Every interval comes from the quantiles of the centered replicate
    values; for the break position that is the basic interval
    [T1 - q(1-a/2), T1 - q(a/2)], whose ends are then clipped to the
    candidate range. Where the basic interval meets that range, clipping
    keeps exactly the candidates it covers, so whether it covers a break
    among the candidates never changes; a basic interval wholly past one
    end collapses to that end's candidate.
    """
    check_rate("level", level)
    draws = fit.bootstrap(cfg or AwbConfig(), fit.null_trend, _replicate_scans(fit))
    return _date_ci(fit, draws[:, 1:], level)


def break_analysis(
    fit: BrokenTrendFit,
    cfg: AwbConfig | None = None,
    alpha: float = 0.05,
    level: float = 0.95,
) -> tuple[BootstrapTest, BreakDateCi]:
    """:func:`break_test` and then :func:`break_ci` on ``fit``, bit for bit,
    from one bootstrap pass.

    Both bootstrap the residuals of ``fit`` on ``fit.null_trend`` with the
    multiplier paths of ids 0..B-1 and scan each replicate once: the test
    reads the scan's statistic, the intervals its move onto the broken
    fit. Here one pass keeps both.
    """
    check_rate("alpha", alpha)
    check_rate("level", level)
    draws = fit.bootstrap(cfg or AwbConfig(), fit.null_trend, _replicate_scans(fit))
    return (bootstrap_test(fit.state.f_stat[0], draws[:, 0], alpha),
            _date_ci(fit, draws[:, 1:], level))


def slope_cis(
    fit: BrokenTrendFit,
    cfg: AwbConfig | None = None,
    level: float = 0.95,
) -> SlopeCis:
    """Bootstrap intervals for the trend coefficients; see :func:`break_ci`,
    whose replicates they come from."""
    return break_ci(fit, cfg, level).slopes
