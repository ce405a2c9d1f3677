"""Deterministic intra-annual seasonal pattern via Fourier harmonics.

The pattern is a sum of sine/cosine pairs whose j-th harmonic completes j
cycles per calendar year, so the phase is anchored to the calendar rather
than to the sample length. Fitting is least squares on the observed points
only; when trend columns are supplied they are estimated jointly with the
harmonics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SingularDesignError
from .series import ObservedSeries

DEFAULT_HARMONICS = 3


def fourier_design(calendar_years: np.ndarray, n_harmonics: int) -> np.ndarray:
    """Design matrix [cos(2pi j y) ... | sin(2pi j y) ...] for j = 1..n_harmonics."""
    if n_harmonics < 0:
        raise ValueError("n_harmonics must be >= 0")
    y = np.asarray(calendar_years, dtype=np.float64)
    angles = 2.0 * np.pi * np.outer(y, np.arange(1, n_harmonics + 1))
    return np.hstack([np.cos(angles), np.sin(angles)])


@dataclass(frozen=True)
class SeasonalFit:
    """Fitted harmonic coefficients and the seasonal curve on the full grid.

    Attributes
    ----------
    a, b : np.ndarray
        Cosine and sine coefficients, one per harmonic.
    n_harmonics : int
        Number of sine/cosine pairs.
    fitted : np.ndarray
        Seasonal values at every grid position (observed or not).
    extra : np.ndarray
        Coefficients of any extra regressor columns passed to the fit,
        in column order; empty when none were supplied.
    """

    a: np.ndarray
    b: np.ndarray
    n_harmonics: int
    fitted: np.ndarray
    extra: np.ndarray = field(default_factory=lambda: np.empty(0))


def fit_seasonal(
    series: ObservedSeries,
    regressors: np.ndarray | None = None,
    n_harmonics: int = DEFAULT_HARMONICS,
) -> SeasonalFit:
    """Least-squares fit of the harmonic pattern over the observed points.

    Parameters
    ----------
    series : ObservedSeries
        Input data; only positions with ``mask == 1`` enter the fit.
    regressors : array of shape (T, k), optional
        Extra columns (intercept, trend terms, ...) estimated jointly
        with the harmonics.
    n_harmonics : int
        Number of sine/cosine pairs.

    Raises
    ------
    ValueError
        Too few observed points for the requested design.
    SingularDesignError
        Rank-deficient design on the observed points (e.g. every
        observation falling in one season).
    """
    T = len(series)
    fourier = fourier_design(series.calendar_years(), n_harmonics)
    if regressors is None:
        extra_cols = np.empty((T, 0))
    else:
        extra_cols = np.asarray(regressors, dtype=np.float64)
        if extra_cols.ndim == 1:
            extra_cols = extra_cols[:, None]
        if extra_cols.shape[0] != T:
            raise ValueError("regressors must have one row per grid position")

    design = np.hstack([extra_cols, fourier])
    n_params = design.shape[1]
    if series.n_observed <= n_params:
        raise ValueError(
            f"need more than {n_params} observed points, have {series.n_observed}"
        )

    obs = series.mask == 1
    coef, _, rank, _ = np.linalg.lstsq(design[obs], series.values[obs], rcond=None)
    if rank < n_params:
        raise SingularDesignError(
            f"design rank {rank} < {n_params}; observations do not identify the fit"
        )

    k = extra_cols.shape[1]
    harm = coef[k:]
    return SeasonalFit(
        a=harm[:n_harmonics].copy(),
        b=harm[n_harmonics:].copy(),
        n_harmonics=n_harmonics,
        fitted=fourier @ harm,
        extra=coef[:k].copy(),
    )


def deseasonalize(series: ObservedSeries, fit: SeasonalFit) -> ObservedSeries:
    """Subtract the fitted seasonal curve at the observed points.

    The mask is unchanged; masked positions keep the 0.0 sentinel.
    """
    if fit.fitted.shape[0] != len(series):
        raise ValueError(
            f"seasonal fit covers {fit.fitted.shape[0]} positions, series has {len(series)}"
        )
    return series.with_values(series.values - fit.fitted)
