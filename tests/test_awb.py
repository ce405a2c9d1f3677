"""Multiplier process, replicate orchestration, and quantile machinery."""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import signal, stats

from gaptrend import (
    AwbConfig,
    ReplicateError,
    bootstrap_errors,
    default_gamma,
    dependence_length,
    draw_multipliers,
    empirical_quantile,
    run_replicates,
)
from gaptrend import awb


class TestGammaDefault:
    def test_reference_values(self):
        # Oracle: exp(ln(theta) / (1.75 T^(1/3))) evaluated directly.
        for T, expected in ((2935, 0.9122), (8, 0.5179)):
            assert default_gamma(T) == pytest.approx(expected, abs=5e-5)
            oracle = float(np.exp(np.log(0.1) / (1.75 * T ** (1.0 / 3.0))))
            assert default_gamma(T) == pytest.approx(oracle, abs=1e-14)

    def test_monotone_in_theta(self):
        gammas = [default_gamma(100, th) for th in (0.05, 0.1, 0.3, 0.6, 0.9)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            default_gamma(1)
        with pytest.raises(ValueError):
            default_gamma(100, theta=1.5)
        assert dependence_length(8) == pytest.approx(3.5)


class TestMultipliers:
    def test_iid_limit_variance(self):
        cfg = AwbConfig(seed=11, gamma=1e-12)
        xi = draw_multipliers(cfg, 10**6, 0)
        assert xi.var() == pytest.approx(1.0, rel=0.01)

    def test_unit_marginal_variance_beginning_middle_end(self):
        # Oracle: exact stationary AR(1) moments (unit variance everywhere).
        cfg = AwbConfig(seed=5, gamma=0.85)
        T, B = 40, 100_000
        cols = np.empty((B, 3))
        for b in range(B):
            xi = draw_multipliers(cfg, T, b)
            cols[b] = xi[0], xi[T // 2], xi[-1]
        tol = 3.0 * np.sqrt(2.0 / B)
        for j in range(3):
            assert abs(cols[:, j].var() - 1.0) < tol

    def test_lag_one_autocorrelation_matches_gamma(self):
        cfg = AwbConfig(seed=6, gamma=0.7)
        B = 100_000
        pairs = np.empty((B, 2))
        for b in range(B):
            xi = draw_multipliers(cfg, 12, b)
            pairs[b] = xi[5], xi[6]
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert corr == pytest.approx(0.7, abs=0.01)

    def test_marginals_standard_normal(self):
        cfg = AwbConfig(seed=7, gamma=0.6)
        B = 20_000
        first = np.empty(B)
        last = np.empty(B)
        for b in range(B):
            xi = draw_multipliers(cfg, 25, b)
            first[b], last[b] = xi[0], xi[-1]
        qs = np.linspace(0.1, 0.9, 9)
        for sample in (first, last):
            dev = np.quantile(sample, qs) - stats.norm.ppf(qs)
            assert np.max(np.abs(dev)) < 0.04

    def test_counter_keyed_determinism(self):
        cfg = AwbConfig(seed=42, gamma=0.5)
        a = draw_multipliers(cfg, 64, 3)
        b = draw_multipliers(cfg, 64, 3)
        c = draw_multipliers(cfg, 64, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gamma_resolution_from_series_length(self):
        cfg = AwbConfig(seed=0)
        assert cfg.resolve_gamma(2935) == pytest.approx(0.9122, abs=5e-5)
        assert AwbConfig(seed=0, gamma=0.3).resolve_gamma(2935) == 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AwbConfig(gamma=1.5)
        with pytest.raises(ValueError):
            AwbConfig(theta=0.0)
        with pytest.raises(ValueError):
            AwbConfig(n_boot=0)

    def test_threads_must_be_positive(self):
        assert AwbConfig().threads == 1
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                AwbConfig(threads=threads)


def lfilter_multipliers(cfg, n_time, replicate_id):
    """Oracle: the AR(1) recursion as a direct-form filter on the same draws."""
    gamma = cfg.resolve_gamma(n_time)
    z = awb._stream(cfg.seed, replicate_id).standard_normal(n_time)
    driving = np.concatenate([z[:1], np.sqrt(1.0 - gamma * gamma) * z[1:]])
    return signal.lfilter([1.0], [1.0, -gamma], driving)


def decimal_multipliers(cfg, n_time, replicate_id):
    """Oracle: the AR(1) recursion in 40-digit decimal arithmetic."""
    gamma = cfg.resolve_gamma(n_time)
    z = awb._stream(cfg.seed, replicate_id).standard_normal(n_time)
    scale = np.sqrt(1.0 - gamma * gamma)
    with localcontext() as ctx:
        ctx.prec = 40
        g, s = Decimal(gamma), Decimal(float(scale))
        out, acc = [], Decimal(0)
        for i, zi in enumerate(z.tolist()):
            acc = Decimal(zi) if i == 0 else g * acc + s * Decimal(zi)
            out.append(float(acc))
    return np.array(out)


class TestMultiplierRecursion:
    """The blocked prefix-sum recursion against direct recursions."""

    @pytest.mark.parametrize("n_time", [285, 666, 3000, 12000, 40000])
    @pytest.mark.parametrize("gamma", [0.01, 0.3, None, 0.99])
    def test_matches_lfilter(self, n_time, gamma):
        cfg = AwbConfig(seed=3, gamma=gamma)
        for b in range(2):
            ref = lfilter_multipliers(cfg, n_time, b)
            xi = draw_multipliers(cfg, n_time, b)
            assert np.max(np.abs(xi - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_time", [285, 3000, 12000, 40000])
    @pytest.mark.parametrize("gamma", [0.01, None, 0.9999])
    def test_matches_exact_recursion(self, n_time, gamma):
        # Near gamma = 1 the rounding of any float recursion, lfilter's
        # included, grows like sqrt(1 / (1 - gamma)) ulps (lfilter's own
        # error reaches 9e-15 of the path at 0.9999), so the reference here
        # is the recursion carried to 40 digits.
        cfg = AwbConfig(seed=8, gamma=gamma)
        for b in range(2):
            ref = decimal_multipliers(cfg, n_time, b)
            xi = draw_multipliers(cfg, n_time, b)
            assert np.max(np.abs(xi - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rows_carry_the_recursion(self):
        # Small gamma cuts the path into rows of 75 positions and the
        # default into two rows, so the oracles above cover the carry
        # between rows; the first value is z_0 itself.
        assert awb._ar1_factors(12000, 0.01)[0].shape == (160, 75)
        assert awb._ar1_factors(12000, default_gamma(12000))[0].shape[0] == 2
        cfg = AwbConfig(seed=2, gamma=0.01)
        z0 = awb._stream(2, 5).standard_normal(1)[0]
        assert draw_multipliers(cfg, 12000, 5)[0] == z0

    def test_identical_for_any_thread_count_and_order(self):
        cfg = AwbConfig(seed=12, n_boot=12)
        T = 12000
        forward = [draw_multipliers(cfg, T, b) for b in range(cfg.n_boot)]
        backward = [draw_multipliers(cfg, T, b) for b in reversed(range(cfg.n_boot))]
        assert all(np.array_equal(a, b) for a, b in zip(forward, backward[::-1]))
        ones = np.ones(T)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for threads in (1, 2, 4):
                # A cold cache lets the threads race to build the weights.
                awb._ar1_factors.cache_clear()
                threaded = AwbConfig(seed=12, n_boot=12, threads=threads)
                out = run_replicates(threaded, np.zeros(T), ones, ones, lambda y: y)
                assert np.array_equal(out, np.array(forward))
        finally:
            sys.setswitchinterval(interval)

    def test_weights_are_read_only(self):
        for arr in awb._ar1_factors(666, 0.9):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestBootstrapErrors:
    def test_trivial_cases(self):
        xi = draw_multipliers(AwbConfig(seed=1, gamma=0.5), 4, 0)
        assert np.all(bootstrap_errors(np.zeros(4), np.ones(4), xi) == 0.0)
        assert np.all(bootstrap_errors(np.ones(4), np.zeros(4), xi) == 0.0)

    def test_direct_product(self):
        xi = np.array([0.5, -2.0])
        out = bootstrap_errors(np.array([1.0, 1.0]), np.array([1, 1]), xi)
        assert out.tolist() == [0.5, -2.0]

    def test_length_mismatch(self):
        xi = draw_multipliers(AwbConfig(seed=1, gamma=0.5), 4, 0)
        with pytest.raises(ValueError, match="length"):
            bootstrap_errors(np.zeros(5), np.ones(5), xi)


class TestRunReplicates:
    @staticmethod
    def run(cfg, n_time, statistic):
        """Replicate series equal to the multiplier paths themselves."""
        ones = np.ones(n_time)
        return run_replicates(cfg, np.zeros(n_time), ones, ones, statistic)

    def test_constant_kernel(self):
        cfg = AwbConfig(seed=0, gamma=0.5, n_boot=3)
        out = self.run(cfg, 8, lambda y: 2.5)
        assert out.tolist() == [2.5, 2.5, 2.5]

    def test_replicate_series_is_base_plus_masked_errors(self, rng):
        # Oracle: each replicate rebuilt from its own multiplier path.
        cfg = AwbConfig(seed=4, gamma=0.6, n_boot=6)
        base, residuals = rng.normal(size=20), rng.normal(size=20)
        mask = (rng.random(20) < 0.6).astype(np.uint8)
        out = run_replicates(cfg, base, residuals, mask, lambda y: y)
        for b in range(cfg.n_boot):
            expected = base + mask * draw_multipliers(cfg, 20, b) * residuals
            assert np.array_equal(out[b], expected)

    def test_same_seed_identical(self):
        cfg = AwbConfig(seed=9, gamma=0.4, n_boot=16)
        kernel = lambda y: float(y.sum())  # noqa: E731
        assert np.array_equal(self.run(cfg, 30, kernel), self.run(cfg, 30, kernel))

    def test_threaded_matches_serial(self):
        # Oracle: the serial run defines the contract for any schedule.
        kernel = lambda y: float((y**2).sum())  # noqa: E731
        serial = self.run(AwbConfig(seed=9, gamma=0.4, n_boot=24, threads=1), 50, kernel)
        for threads in (2, 5):
            cfg = AwbConfig(seed=9, gamma=0.4, n_boot=24, threads=threads)
            assert np.array_equal(serial, self.run(cfg, 50, kernel))

    def test_kernel_failure_carries_replicate_id(self):
        cfg = AwbConfig(seed=1, gamma=0.5, n_boot=5)
        third = draw_multipliers(cfg, 10, 3)

        def kernel(y):
            if np.array_equal(y, third):
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(ReplicateError, match="replicate 3"):
            self.run(cfg, 10, kernel)


class TestEmpiricalQuantile:
    def brute_force(self, values, alpha):
        ordered = np.sort(values)
        n = len(ordered)
        for u in ordered:
            if (ordered <= u).sum() / n >= alpha:
                return float(u)
        return float(ordered[-1])

    def test_matches_brute_force_scan(self, rng):
        for trial in range(50):
            values = rng.normal(size=rng.integers(1, 40))
            alpha = float(rng.uniform(0.001, 0.999))
            assert empirical_quantile(values, alpha) == self.brute_force(values, alpha)

    def test_edge_alphas(self):
        values = np.array([3.0, 1.0, 2.0])
        assert empirical_quantile(values, 0.0) == 1.0
        assert empirical_quantile(values, 1.0) == 3.0
        assert empirical_quantile(values, 1e-9) == 1.0
        with pytest.raises(ValueError):
            empirical_quantile(values, 1.2)
        with pytest.raises(ValueError):
            empirical_quantile(np.array([]), 0.5)

    def test_columns_match_one_dimensional_brute_force(self, rng):
        # Ties (values on a coarse grid) and every exact multiple k/B of 1/B,
        # where alpha * B lands within rounding of an integer: 43/149 * 149
        # rounds to 43.000000000000007, and the row must still be 42.
        for B in (1, 2, 19, 149):
            values = np.round(rng.normal(size=(B, 4)), 1)
            alphas = [k / B for k in range(B + 1)] + [0.0, 1.0, 0.05, 0.975, 1e-9]
            for alpha in alphas:
                got = empirical_quantile(values, alpha)
                assert got.shape == (4,)
                for j in range(4):
                    assert got[j] == self.brute_force(values[:, j], alpha)
                    assert empirical_quantile(values[:, j], alpha) == got[j]


class TestBootstrapTest:
    def brute_force(self, observed, draws, need):
        """Smallest draw with at least ``need`` draws at or below it, and the p-value."""
        cv = min(u for u in draws if sum(d <= u for d in draws) >= need)
        return float(cv), (1.0 + sum(d >= observed for d in draws)) / (len(draws) + 1.0)

    def test_matches_brute_force(self, rng):
        for B in (1, 2, 19, 149):
            draws = np.round(rng.normal(size=(B, 3)), 1)
            # Observed values equal to a draw: equal draws count as >= observed.
            observed = np.array([draws[0, 0], 0.05, draws[-1, 2]])
            # alpha = k/B needs B - k draws at or below the critical value.
            cases = [(k / B, max(B - k, 1)) for k in {0, 1, 2, B // 2, B - 1, B} if k <= B]
            cases.append((0.05, math.ceil(Fraction(19, 20) * B)))
            for alpha, need in cases:
                for j in range(3):
                    column = draws[:, j]
                    test = awb.bootstrap_test(observed[j], column, alpha)
                    cv, p = self.brute_force(observed[j], column, need)
                    assert (test.critical_value, test.p_value) == (cv, p)
                    assert (test.statistic, test.alpha) == (observed[j], alpha)
                    assert test.reject == (observed[j] > cv)
                    assert test.draws is column
                    assert all(type(x) is float
                               for x in (test.statistic, test.critical_value, test.p_value))
                    # A statistic equal to the critical value does not reject,
                    # and its p-value counts the tie.
                    tie = awb.bootstrap_test(cv, column, alpha)
                    assert not tie.reject
                    assert tie.p_value == self.brute_force(cv, column, need)[1]


class TestBasicInterval:
    def test_matches_per_parameter_formula(self, rng):
        for B in (1, 2, 19, 149):
            estimates = rng.normal(size=5)
            boot = estimates + np.round(rng.normal(size=(B, 5)), 2)
            ordered = np.sort(boot - estimates, axis=0)
            for a in (0.05, 0.1, 2.0 / B, 0.5):
                lower, upper = awb.basic_interval(estimates, ordered, a)
                for j in range(5):
                    centered = boot[:, j] - estimates[j]
                    assert lower[j] == estimates[j] - empirical_quantile(centered, 1.0 - a / 2.0)
                    assert upper[j] == estimates[j] - empirical_quantile(centered, a / 2.0)
