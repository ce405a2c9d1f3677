"""Harmonic seasonal fitting and removal."""

from __future__ import annotations

import numpy as np
import pytest

from gaptrend import (
    SingularDesignError,
    deseasonalize,
    fit_seasonal,
    fourier_design,
    gen_mask,
)
from gaptrend.seasonal import SeasonalFit

from conftest import make_series


def seasonal_values(series, a, b):
    design = fourier_design(series.calendar_years(), len(a))
    return design @ np.concatenate([a, b])


class TestFitSeasonal:
    def test_exact_single_cosine(self):
        T = 900
        base = make_series(np.zeros(T))
        values = 2.0 * np.cos(2.0 * np.pi * base.calendar_years())
        fit = fit_seasonal(make_series(values), n_harmonics=3)
        assert fit.a[0] == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(fit.a[1:])) < 1e-10
        assert np.max(np.abs(fit.b)) < 1e-10

    def test_constant_series_with_intercept(self):
        T = 500
        series = make_series(np.full(T, 7.5))
        fit = fit_seasonal(series, regressors=np.ones((T, 1)), n_harmonics=3)
        assert np.max(np.abs(np.concatenate([fit.a, fit.b]))) < 1e-10
        assert fit.extra[0] == pytest.approx(7.5)

    def test_coefficient_recovery_under_markov_missingness(self, rng):
        # Oracle: simulate, fit, and compare against plain least-squares
        # standard errors; the 3-sigma bands should almost always cover.
        T = 800
        a_true = np.array([1.5, -0.4, 0.2])
        b_true = np.array([0.7, 0.1, -0.3])
        inside = total = 0
        for rep in range(200):
            mask = gen_mask("30%", T, np.random.default_rng(1000 + rep))
            base = make_series(np.zeros(T), mask)
            noise = rng.normal(0, 0.5, T)
            series = make_series(seasonal_values(base, a_true, b_true) + noise, mask)
            fit = fit_seasonal(series, n_harmonics=3)
            design = fourier_design(series.calendar_years(), 3)[mask == 1]
            resid = series.values[mask == 1] - design @ np.concatenate([fit.a, fit.b])
            dof = design.shape[0] - design.shape[1]
            cov = np.linalg.inv(design.T @ design) * (resid @ resid / dof)
            se = np.sqrt(np.diag(cov))
            err = np.abs(np.concatenate([fit.a - a_true, fit.b - b_true]))
            inside += int((err <= 3.0 * se).sum())
            total += 6
        assert inside / total >= 0.975

    def test_joint_fit_with_trend_column(self):
        T = 600
        base = make_series(np.zeros(T))
        t = np.arange(1, T + 1, dtype=float)
        values = 3.0 + 0.01 * t + seasonal_values(base, [1.0, 0, 0], [0.5, 0, 0])
        series = make_series(values)
        fit = fit_seasonal(series, regressors=np.column_stack([np.ones(T), t]), n_harmonics=3)
        assert fit.extra[0] == pytest.approx(3.0, abs=1e-8)
        assert fit.extra[1] == pytest.approx(0.01, abs=1e-10)
        assert fit.a[0] == pytest.approx(1.0, abs=1e-8)
        assert fit.b[0] == pytest.approx(0.5, abs=1e-8)

    def test_zero_harmonics(self, rng):
        # No harmonics: a float64 (T, 0) design and a zero curve, with the
        # regressors fitted alone as plain least squares.
        T = 200
        mask = (rng.random(T) < 0.6).astype(np.uint8)
        series = make_series(2.0 + rng.normal(size=T), mask)
        design = fourier_design(series.calendar_years(), 0)
        assert design.shape == (T, 0) and design.dtype == np.float64
        t = np.arange(1, T + 1, dtype=float)
        for regressors in (None, np.column_stack([np.ones(T), t])):
            fit = fit_seasonal(series, regressors=regressors, n_harmonics=0)
            assert fit.n_harmonics == 0 and fit.a.shape == fit.b.shape == (0,)
            assert fit.fitted.dtype == np.float64 and np.array_equal(fit.fitted, np.zeros(T))
            if regressors is None:
                assert fit.extra.shape == (0,)
            else:
                obs = mask == 1
                expected, _, _, _ = np.linalg.lstsq(regressors[obs], series.values[obs],
                                                    rcond=None)
                assert np.allclose(fit.extra, expected, rtol=1e-12, atol=0.0)

    def test_too_few_points(self):
        series = make_series(np.ones(10), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="observed points"):
            fit_seasonal(series, n_harmonics=3)

    def test_singular_when_one_day_of_year(self):
        # Observations on the same calendar day each year give near-identical
        # harmonic rows, so nothing but a level is identified.
        step = 4 * 365 + 1  # leap-cycle spacing keeps the year fraction fixed
        T = step * 9 + 1
        mask = np.zeros(T, dtype=np.uint8)
        mask[::step] = 1
        series = make_series(np.ones(T), mask)
        assert series.n_observed == 10
        with pytest.raises(SingularDesignError):
            fit_seasonal(series, n_harmonics=3)


class TestDeseasonalize:
    def test_zero_fit_is_identity(self):
        series = make_series([1.0, 2.0, 3.0])
        fit = SeasonalFit(a=np.zeros(1), b=np.zeros(1), n_harmonics=1, fitted=np.zeros(3))
        out = deseasonalize(series, fit)
        assert np.array_equal(out.values, series.values)
        assert np.array_equal(out.mask, series.mask)

    def test_exact_fit_leaves_zero_residuals(self):
        T = 400
        base = make_series(np.zeros(T))
        values = seasonal_values(base, [2.0, 0, 0], [1.0, 0, 0])
        series = make_series(values)
        fit = fit_seasonal(series, n_harmonics=3)
        out = deseasonalize(series, fit)
        assert np.max(np.abs(out.values[out.mask == 1])) < 1e-9

    def test_mask_unchanged_and_sentinel_zeroed(self, rng):
        mask = (rng.random(300) < 0.5).astype(np.uint8)
        mask[:2] = 1
        series = make_series(rng.normal(size=300), mask)
        fit = fit_seasonal(series, n_harmonics=2)
        out = deseasonalize(series, fit)
        assert np.array_equal(out.mask, mask)
        assert np.all(out.values[mask == 0] == 0.0)

    def test_length_mismatch(self):
        series = make_series([1.0, 2.0, 3.0])
        fit = SeasonalFit(a=np.zeros(1), b=np.zeros(1), n_harmonics=1, fitted=np.zeros(5))
        with pytest.raises(ValueError, match="positions"):
            deseasonalize(series, fit)


class TestInvariants:
    def test_residuals_orthogonal_to_harmonics(self, rng):
        mask = (rng.random(700) < 0.6).astype(np.uint8)
        mask[:2] = 1
        series = make_series(rng.normal(0, 3.0, 700), mask)
        fit = fit_seasonal(series, n_harmonics=3)
        eps = deseasonalize(series, fit)
        design = fourier_design(series.calendar_years(), 3)
        obs = mask == 1
        scale = np.abs(series.values[obs]).max() * obs.sum()
        inner = design[obs].T @ eps.values[obs]
        assert np.max(np.abs(inner)) < 1e-8 * scale

    def test_doubling_harmonics_never_increases_ssr(self, rng):
        mask = (rng.random(500) < 0.7).astype(np.uint8)
        mask[:2] = 1
        series = make_series(rng.normal(0, 1.0, 500) + 2.0, mask)
        obs = mask == 1

        def ssr(n_harmonics):
            fit = fit_seasonal(series, n_harmonics=n_harmonics)
            r = series.values[obs] - fit.fitted[obs]
            return r @ r

        assert ssr(6) <= ssr(3) + 1e-12
