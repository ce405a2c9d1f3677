"""Continuous broken linear trend: estimation, break test, bootstrap intervals.

The trend is linear with one slope change at an unknown grid position; the
hinge regressor keeps the fitted line continuous at the break. Estimation
minimizes the mask-weighted sum of squared residuals jointly over the trend,
the slope change, and the seasonal harmonics, scanning every admissible
break candidate. The scan exploits the fact that only the hinge column
changes between candidates: with the fixed-column Gram matrix factorized
once, each candidate costs a rank-one update built from suffix sums, so a
full scan is O(T + |candidates| * p^2) instead of |candidates| full refits.
"""

from __future__ import annotations

import datetime as dt
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .awb import AwbConfig, basic_interval, bootstrap_test, check_rate, run_replicates
from .exceptions import SingularDesignError
from .seasonal import SeasonalFit, fourier_design
from .series import ObservedSeries

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
    np.cumsum(x[..., ::-1], axis=-1, out=out[..., -2::-1])
    return out


@dataclass(frozen=True)
class TrimmingSet:
    """Admissible break positions, bounded away from both sample ends."""

    fraction: float
    candidates: np.ndarray  # 1-based grid positions, ascending


def trimming_set(n_time: int, fraction: float = DEFAULT_TRIM_FRACTION) -> TrimmingSet:
    """Candidates ceil(fraction*T) .. floor((1-fraction)*T)."""
    if not 0.0 < fraction < 0.5:
        raise ValueError("trimming fraction must lie in (0, 0.5)")
    lo = int(np.ceil(fraction * n_time))
    hi = int(np.floor((1.0 - fraction) * n_time))
    if lo < 1 or hi > n_time - 1 or lo > hi:
        raise ValueError(f"empty trimming set for T={n_time}, fraction={fraction}")
    return TrimmingSet(fraction=fraction, candidates=np.arange(lo, hi + 1))


@dataclass(frozen=True)
class BrokenTrendFit:
    """Joint fit of intercept, slopes, break position, and seasonal pattern.

    ``beta`` and ``delta`` are per grid step; multiply by 365.25 (or divide
    by the series grid_step) for per-year rates. The fitted trend is
    continuous at ``break_index`` by construction of the hinge regressor.
    ``scan`` is the candidate scan the fit was chosen on; bootstrap
    intervals rescan its candidates.
    """

    alpha: float
    beta: float
    delta: float
    break_index: int
    seasonal: SeasonalFit
    ssr: float
    n_time: int
    scan: BreakScan = field(repr=False, compare=False)

    def trend_values(self) -> np.ndarray:
        t = np.arange(1, self.n_time + 1, dtype=np.float64)
        return self.alpha + self.beta * t + self.delta * np.maximum(0.0, t - self.break_index)

    def fitted_values(self) -> np.ndarray:
        return self.trend_values() + self.seasonal.fitted


@dataclass(frozen=True)
class BreakTestResult:
    """Break-test statistic with its bootstrap distribution and the best
    one-break fit of the observed series."""

    statistic: float
    bootstrap_stats: np.ndarray
    critical_value: float
    p_value: float
    alpha: float
    fit: BrokenTrendFit

    @property
    def reject(self) -> bool:
        return self.statistic > self.critical_value


@dataclass(frozen=True)
class BreakDateCi:
    """Confidence interval for the break position, in grid and calendar units,
    with the slope intervals of the same bootstrap replicates."""

    break_index: int
    break_date: dt.date
    lower_index: int
    upper_index: int
    lower_date: dt.date
    upper_date: dt.date
    level: float
    bootstrap_indices: np.ndarray
    slopes: SlopeCis

    @property
    def length(self) -> int:
        return self.upper_index - self.lower_index


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

    def per_year(self, grid_step: float) -> dict[str, ParamCi]:
        s = 1.0 / grid_step
        out = {}
        for name in ("slope_before", "slope_change", "slope_after"):
            ci: ParamCi = getattr(self, name)
            out[name] = ParamCi(ci.estimate * s, ci.lower * s, ci.upper * s)
        return out


class ScanState(NamedTuple):
    """One scan of a response over every candidate of a :class:`BreakScan`."""

    ssr0: float  # no-break SSR
    f_stat: float  # largest SSR reduction over the candidates
    best: int  # position of the winning candidate, ties to the smallest
    beta0: np.ndarray  # no-break coefficients, internal scaling
    num: np.ndarray  # per-candidate hinge numerators, read by coefficients_at


class BreakScan:
    """Reusable scan state for one (mask, harmonics, candidates) design.

    Everything that does not depend on the response is precomputed here,
    so that bootstrap replicates pay only O(T * p) per scan. The fixed
    columns are the intercept, rescaled time t/T, and the Fourier
    harmonics; each candidate adds one hinge column handled by
    partitioned regression.
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

        m = mask.astype(np.float64)
        tau = np.arange(1, T + 1, dtype=np.float64) / T
        Z = np.hstack([np.ones((T, 1)), tau[:, None], fourier_design(calendar_years, n_harmonics)])
        self.n_harmonics = n_harmonics
        self.n_params = Z.shape[1] + 1  # fixed columns plus the hinge
        self._m = m
        self._tau = tau
        self._Z = Z
        self._Zm = Z * m[:, None]

        # The Cholesky factor G = L L^T of the fixed-column Gram matrix
        # fails on a singular G. L^-1 is p0 x p0, so each scan solves for
        # the no-break coefficients with two small matvecs.
        try:
            self._chol_inv = np.linalg.inv(np.linalg.cholesky(Z.T @ self._Zm))
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(f"fixed design is singular: {exc}") from exc

        c = self.candidates
        tau_c = c / T
        p0 = Z.shape[1]
        sums = _suffix_sums(np.vstack([self._Zm.T, (self._Zm * tau[:, None]).T,
                                       m, m * tau, m * tau * tau]))
        s_mz, s_mtz = sums[:p0], sums[p0: 2 * p0]
        s_m, s_mt, s_mtt = sums[2 * p0:]

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
        n_bad = int((~self._valid).sum())
        if n_bad:
            warnings.warn(
                f"{n_bad} break candidate(s) skipped: hinge not identified on the observed points",
                stacklevel=2,
            )
        # Observed-point support at the trimming edges; the hinge needs
        # identifying variation on both sides of every candidate.
        n_left = s_m[0] - s_m[self.candidates[0]]
        n_right = s_m[self.candidates[-1]]
        if min(n_left, n_right) < self.n_params + 1:
            raise ValueError(
                "trimming leaves fewer than n_params + 1 observed points on one side; "
                "increase the trimming fraction"
            )

    def scan(self, y: np.ndarray) -> ScanState:
        """Fit the no-break model and every candidate; return the best break."""
        # y*m and y*m*tau as the rows of one array for one suffix pass.
        rows = np.empty((2, self.n_time))
        ym = np.multiply(y, self._m, out=rows[0])
        np.multiply(ym, self._tau, out=rows[1])
        yy = float(ym @ y)
        u = self._chol_inv @ (self._Zm.T @ y)
        beta0 = self._chol_inv.T @ u
        ssr0 = max(yy - float(u @ u), 0.0)

        sy, sty = _suffix_sums(rows)
        c = self.candidates
        dy = sty[c] - (c / self.n_time) * sy[c]

        num = dy - u @ self._V
        with np.errstate(divide="ignore", invalid="ignore"):
            red = np.where(self._valid, num * num / self._schur, -np.inf)
        red[self._valid & (red < yy * _NOISE_FLOOR)] = 0.0

        best = int(np.argmax(red))
        return ScanState(ssr0, float(red[best]), int(self.candidates[best]), beta0, num)

    def coefficients_at(self, state: ScanState, break_at: int) -> dict:
        """Full coefficient vector of the scanned model with the break at ``break_at``."""
        pos = int(np.searchsorted(self.candidates, break_at))
        if pos >= self.candidates.size or self.candidates[pos] != break_at:
            raise ValueError(f"{break_at} is not among the scan candidates")
        if not self._valid[pos]:
            raise SingularDesignError(f"candidate {break_at} is not identified")
        delta_tau = float(state.num[pos] / self._schur[pos])
        bz = state.beta0 - self._W[:, pos] * delta_tau
        red = delta_tau * state.num[pos]
        T = self.n_time
        return {
            "alpha": float(bz[0]),
            "beta": float(bz[1]) / T,
            "delta": delta_tau / T,
            "harmonics": bz[2:].copy(),
            "ssr": max(state.ssr0 - red, 0.0),
        }

    def null_fitted(self, beta0: np.ndarray) -> np.ndarray:
        """Fitted values (trend plus seasonal) of the no-break model, full grid."""
        return self._Z @ beta0

    def seasonal_fit(self, harmonics: np.ndarray) -> SeasonalFit:
        S = self.n_harmonics
        fourier = self._Z[:, 2:]
        return SeasonalFit(
            a=harmonics[:S].copy(),
            b=harmonics[S:].copy(),
            n_harmonics=S,
            fitted=fourier @ harmonics if S else np.zeros(self.n_time),
        )


def _fit_from_scan(
    series: ObservedSeries, scan: BreakScan, state: ScanState, break_at: int
) -> BrokenTrendFit:
    coef = scan.coefficients_at(state, break_at)
    return BrokenTrendFit(
        alpha=coef["alpha"],
        beta=coef["beta"],
        delta=coef["delta"],
        break_index=break_at,
        seasonal=scan.seasonal_fit(coef["harmonics"]),
        ssr=coef["ssr"],
        n_time=len(series),
        scan=scan,
    )


def fit_given_break(
    series: ObservedSeries, break_at: int, n_harmonics: int = 3
) -> BrokenTrendFit:
    """Mask-weighted least squares with the break imposed at ``break_at``."""
    if not 1 <= break_at <= len(series) - 1:
        raise ValueError("break position must lie in 1..T-1")
    scan = BreakScan(series.mask, series.calendar_years(), np.array([break_at]), n_harmonics)
    return _fit_from_scan(series, scan, scan.scan(series.values), break_at)


def _best_fit(
    series: ObservedSeries, trim: TrimmingSet | None, n_harmonics: int
) -> tuple[BrokenTrendFit, ScanState]:
    """Best one-break fit over the trimming set, with the scan state it came from."""
    trim = trim or trimming_set(len(series))
    scan = BreakScan(series.mask, series.calendar_years(), trim.candidates, n_harmonics)
    state = scan.scan(series.values)
    return _fit_from_scan(series, scan, state, state.best), state


def estimate_break(
    series: ObservedSeries,
    trim: TrimmingSet | None = None,
    n_harmonics: int = 3,
) -> BrokenTrendFit:
    """Exhaustive scan of the trimming set; smallest-SSR break wins.

    Ties are broken toward the smallest candidate position. The estimator
    always returns a break; whether it is significant is the test's job.
    """
    return _best_fit(series, trim, n_harmonics)[0]


def break_test(
    series: ObservedSeries,
    trim: TrimmingSet | None = None,
    cfg: AwbConfig | None = None,
    n_harmonics: int = 3,
    alpha: float = 0.05,
) -> BreakTestResult:
    """Bootstrap test of a single slope change against a straight trend.

    The statistic is the drop in the observed-point sum of squared
    residuals from the best one-break model relative to the no-break
    model. Bootstrap samples are regenerated under the no-break null;
    each replicate reruns the full candidate scan. Rejection: statistic
    above the (1 - alpha) bootstrap quantile.

    The bootstrap errors are the residuals of the best one-break fit,
    which keeps break-like noise patterns out of the resampled errors:
    with no-break residuals, a draw whose noise happens to look
    break-like would inflate its own critical value. That fit, the
    estimate of :func:`estimate_break`, is returned as ``fit``.
    """
    check_rate("alpha", alpha)
    cfg = cfg or AwbConfig()
    fit, state = _best_fit(series, trim, n_harmonics)
    u_hat = series.mask * (series.values - fit.fitted_values())

    def statistic(y_star: np.ndarray) -> float:
        return fit.scan.scan(y_star).f_stat

    stats = run_replicates(cfg, fit.scan.null_fitted(state.beta0), u_hat, series.mask, statistic)
    critical_value, p_value = bootstrap_test(state.f_stat, stats, alpha)
    return BreakTestResult(
        statistic=state.f_stat,
        bootstrap_stats=stats,
        critical_value=critical_value,
        p_value=p_value,
        alpha=alpha,
        fit=fit,
    )


def break_ci(
    series: ObservedSeries,
    fit: BrokenTrendFit,
    cfg: AwbConfig | None = None,
    level: float = 0.95,
) -> BreakDateCi:
    """Bootstrap confidence intervals for the break position and the slopes.

    Samples are regenerated with the estimated break imposed; each
    replicate re-estimates the break over the candidates the fit was
    chosen from (``fit.scan``; for :func:`fit_given_break` that is the
    imposed break alone) and reads off its coefficients at that break, so
    the uncertainty of the break location flows into the slope intervals.
    Every interval comes from the quantiles of the centered replicate
    values; for the break position that is [T1 - q(1-a/2), T1 - q(a/2)].
    """
    check_rate("level", level)
    cfg = cfg or AwbConfig()
    fitted = fit.fitted_values()
    u_hat = series.mask * (series.values - fitted)

    def statistic(y_star: np.ndarray) -> tuple[int, float, float, float]:
        state = fit.scan.scan(y_star)
        coef = fit.scan.coefficients_at(state, state.best)
        return state.best, coef["alpha"], coef["beta"], coef["delta"]

    draws = run_replicates(cfg, fitted, u_hat, series.mask, statistic)
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
    return BreakDateCi(
        break_index=fit.break_index,
        break_date=series.date_at(fit.break_index),
        lower_index=lower_i,
        upper_index=upper_i,
        lower_date=series.date_at(lower_i),
        upper_date=series.date_at(upper_i),
        level=level,
        bootstrap_indices=locs.astype(np.int64),
        slopes=SlopeCis(*slopes, level=level),
    )


def slope_cis(
    series: ObservedSeries,
    fit: BrokenTrendFit,
    cfg: AwbConfig | None = None,
    level: float = 0.95,
) -> SlopeCis:
    """Bootstrap intervals for the trend coefficients; see :func:`break_ci`,
    whose replicates they come from."""
    return break_ci(series, fit, cfg, level).slopes
