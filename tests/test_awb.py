"""Multiplier process, replicate orchestration, and quantile machinery."""

from __future__ import annotations

import math
import random
from dataclasses import astuple
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy import signal, stats

from gaptrend import (
    AwbConfig,
    ReplicateError,
    default_gamma,
    dependence_length,
    draw_multipliers,
    empirical_quantile,
    observed_days,
    run_replicates,
)
from gaptrend import awb

from conftest import gappy_series, make_series, on_caller_threads, random_masked_series


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


def complete(cfg, n_time):
    """The observed days of a complete grid of ``n_time`` days."""
    return observed_days(cfg, np.ones(n_time, dtype=np.uint8))


def complete_path(cfg, n_time, replicate_id):
    """The multiplier path of a replicate on a complete grid."""
    return draw_multipliers(cfg, complete(cfg, n_time), [replicate_id])[0]


class TestMultipliers:
    def test_iid_limit_variance(self):
        cfg = AwbConfig(seed=11, gamma=1e-12)
        xi = complete_path(cfg, 10**6, 0)
        assert xi.var() == pytest.approx(1.0, rel=0.01)

    def test_unit_marginal_variance_beginning_middle_end(self):
        # Oracle: exact stationary AR(1) moments (unit variance everywhere).
        cfg = AwbConfig(seed=5, gamma=0.85)
        T, B = 40, 100_000
        cols = draw_multipliers(cfg, complete(cfg, T), range(B))[:, [0, T // 2, -1]]
        tol = 3.0 * np.sqrt(2.0 / B)
        for j in range(3):
            assert abs(cols[:, j].var() - 1.0) < tol

    def test_lag_one_autocorrelation_matches_gamma(self):
        cfg = AwbConfig(seed=6, gamma=0.7)
        B = 100_000
        pairs = draw_multipliers(cfg, complete(cfg, 12), range(B))[:, [5, 6]]
        corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert corr == pytest.approx(0.7, abs=0.01)

    def test_marginals_standard_normal(self):
        cfg = AwbConfig(seed=7, gamma=0.6)
        B = 20_000
        paths = draw_multipliers(cfg, complete(cfg, 25), range(B))
        first, last = paths[:, 0], paths[:, -1]
        qs = np.linspace(0.1, 0.9, 9)
        for sample in (first, last):
            dev = np.quantile(sample, qs) - stats.norm.ppf(qs)
            assert np.max(np.abs(dev)) < 0.04

    def test_counter_keyed_determinism(self):
        cfg = AwbConfig(seed=42, gamma=0.5)
        a = complete_path(cfg, 64, 3)
        b = complete_path(cfg, 64, 3)
        c = complete_path(cfg, 64, 4)
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


def gappy_mask(n_time, seed):
    """A mask whose gaps between observed days run from 1 day to 5000 (or
    half the grid): mostly single days, some weeks and months, one long
    gap from a quarter of the grid on, and a first observed day past the
    grid's start."""
    rng = np.random.default_rng(seed)
    gaps = rng.choice([1, 2, 3, 7, 30, 200], p=[0.6, 0.15, 0.1, 0.08, 0.05, 0.02], size=n_time)
    positions = 3 + np.cumsum(gaps) - gaps[0]
    mask = np.zeros(n_time, dtype=np.uint8)
    mask[positions[positions < n_time]] = 1
    long_gap, lo = min(5000, n_time // 2), n_time // 4
    mask[lo:lo + long_gap] = 0
    mask[[lo - 1, lo - 1 + long_gap]] = 1
    return mask


def masks(n_time):
    return {"complete": np.ones(n_time, dtype=np.uint8), "gappy": gappy_mask(n_time, n_time)}


def exact_scales(positions, gamma):
    """sqrt(1 - gamma^(2 gap)) for each observed day after the first, and 1
    for the first, carried to 40 digits and rounded."""
    with localcontext() as ctx:
        ctx.prec = 40
        g = Decimal(gamma)
        gaps = np.diff(positions).tolist()
        return np.array([1.0] + [float((1 - g ** (2 * k)).sqrt()) for k in gaps])


def lfilter_multipliers(cfg, mask, replicate_id):
    """Oracle: the calendar AR(1) recursion as a direct-form filter, driven by
    the scaled normals on observed days and 0 on the others, read at the
    observed days."""
    gamma = cfg.resolve_gamma(mask.size)
    positions = np.flatnonzero(mask)
    z = awb._stream(cfg.seed, replicate_id).standard_normal(positions.size)
    driving = np.zeros(mask.size)
    driving[positions] = exact_scales(positions, gamma) * z
    return signal.lfilter([1.0], [1.0, -gamma], driving)[positions]


def decimal_multipliers(cfg, mask, replicate_id):
    """Oracle: the recursion xi_k = gamma^gap xi_(k-1) + sqrt(1 - gamma^(2 gap)) z_k
    over the observed days, in 40-digit decimal arithmetic."""
    gamma = cfg.resolve_gamma(mask.size)
    positions = np.flatnonzero(mask)
    z = awb._stream(cfg.seed, replicate_id).standard_normal(positions.size)
    with localcontext() as ctx:
        ctx.prec = 40
        g = Decimal(gamma)
        out, acc, prev = [], Decimal(0), None
        for t, zt in zip(positions.tolist(), z.tolist()):
            if prev is None:
                acc = Decimal(zt)
            else:
                decay = g ** (t - prev)
                acc = decay * acc + (1 - decay * decay).sqrt() * Decimal(zt)
            out.append(float(acc))
            prev = t
    return np.array(out)


def rekey_gamma(n_time):
    """The default gamma, or 0.3 where one position leaves it undefined."""
    return None if n_time > 1 else 0.3


def fresh_multipliers(seed, replicate_id, n_time):
    """Oracle: the multiplier path on a complete grid, drawn from a generator
    built for its key, in rows of L positions over which gamma^-i stays
    below 1e150, each a scaled prefix sum run over the whole row."""
    cfg = AwbConfig(seed=seed, gamma=rekey_gamma(n_time))
    gamma = cfg.resolve_gamma(n_time)
    width = int(min(n_time, max(1, np.log(1e150) // -np.log(gamma))))
    i = np.arange(width, dtype=np.float64)
    scale = np.full(n_time, np.sqrt(-np.expm1(2.0 * np.log(gamma))))
    scale[0] = 1.0
    weights = np.tile(gamma**-i, -(-n_time // width))[:n_time] * scale
    buf = np.zeros(-(-n_time // width) * width)
    buf[:n_time] = awb._stream(seed, replicate_id).standard_normal(n_time) * weights
    xi = buf.reshape(-1, width)
    np.cumsum(xi, axis=1, out=xi)
    decay = gamma**i
    carry = decay * gamma
    xi *= decay
    if xi.shape[0] > 1:
        xi[1:] += xi[:-1, -1:] * carry
    return buf[:n_time]


class TestMultiplierRecursion:
    """The blocked prefix-sum recursion against direct recursions, on a
    complete grid and on a mask with gaps of 1 to 5000 days, for blocks of
    one id and of several."""

    @pytest.mark.parametrize("n_time", [285, 666, 3000, 12000, 40000])
    @pytest.mark.parametrize("gamma", [0.01, 0.3, None, 0.99])
    def test_matches_lfilter(self, n_time, gamma):
        cfg = AwbConfig(seed=3, gamma=gamma)
        for name, mask in masks(n_time).items():
            days = observed_days(cfg, mask)
            paths = draw_multipliers(cfg, days, range(3))
            for b in range(3):
                ref = lfilter_multipliers(cfg, mask, b)
                xi = paths[b]
                assert np.max(np.abs(xi - ref)) <= 1e-14 * np.max(np.abs(ref)), name
                # A row does not depend on the ids beside it.
                assert xi.tobytes() == draw_multipliers(cfg, days, [b])[0].tobytes(), name

    @pytest.mark.parametrize("n_time", [285, 3000, 12000, 40000])
    @pytest.mark.parametrize("gamma", [0.01, None, 0.9999])
    def test_matches_exact_recursion(self, n_time, gamma):
        # Near gamma = 1 the rounding of any float recursion, lfilter's
        # included, grows like sqrt(1 / (1 - gamma)) ulps (lfilter's own
        # error reaches 9e-15 of the path at 0.9999), so the reference here
        # is the recursion over the observed days carried to 40 digits,
        # scales included: sqrt(1 - gamma^2) formed in floats errs by 5e-13
        # at 0.9999.
        cfg = AwbConfig(seed=8, gamma=gamma)
        for name, mask in masks(n_time).items():
            days = observed_days(cfg, mask)
            paths = draw_multipliers(cfg, days, [1, 0])
            for b in range(2):
                ref = decimal_multipliers(cfg, mask, b)
                xi = paths[1 - b]
                assert np.max(np.abs(xi - ref)) <= 1e-14 * np.max(np.abs(ref)), name

    def test_a_row_without_observed_days_carries_nothing(self):
        # Oracle: lfilter over the calendar. Row 1 of L positions holds no
        # observed day, so the carry into row 2, whose first position is
        # observed, is gamma^(L+1) of the path at the end of row 0, below
        # rounding, and no carry from row 0 may reach row 2 directly.
        cfg = AwbConfig(seed=4, gamma=0.3)
        width = complete(cfg, 1000).spans[0][1]
        mask = np.zeros(1000, dtype=np.uint8)
        mask[:width] = 1
        mask[2 * width:] = 1
        days = observed_days(cfg, mask)
        assert days.spans[1][0] == days.spans[1][1] == width
        paths = draw_multipliers(cfg, days, range(3))
        for b in range(3):
            ref = lfilter_multipliers(cfg, mask, b)
            assert np.max(np.abs(paths[b] - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_gappy_mask_spans_one_day_to_5000(self):
        for n_time in (285, 666, 3000, 12000, 40000):
            mask = gappy_mask(n_time, n_time)
            gaps = np.diff(np.flatnonzero(mask))
            assert gaps.min() == 1 and min(5000, n_time // 2) in gaps
            assert gaps.max() == 5000 if n_time >= 10000 else gaps.max() < 5000
            assert mask[:4].tolist() == [0, 0, 0, 1]

    def test_covariance_at_observed_days_is_gamma_to_the_gap(self):
        # Oracle: the stationary AR(1) law read at the observed days, unit
        # variance and E[xi_t xi_s] = gamma^|t - s|, over pairs whose gap
        # spans one day to the long gap. A product of two standard normals
        # with correlation rho has variance 1 + rho^2.
        cfg = AwbConfig(seed=14, gamma=0.9)
        mask = gappy_mask(1200, 7)
        days = observed_days(cfg, mask)
        B = 40_000
        paths = draw_multipliers(cfg, days, range(B))
        positions = days.positions
        gaps = np.diff(positions)
        # Neighbours one gap of each size apart, the long gap among them,
        # and days several observed days apart.
        firsts = [int(np.flatnonzero(gaps == g)[0]) for g in (1, 2, 3, 7, 30, 200, 600)]
        pairs = [(k, k + 1) for k in firsts] + [(3, 9), (20, 23), (0, 5)]
        long_gap = firsts[-1]
        for j, k in pairs:
            rho = 0.9 ** float(positions[k] - positions[j])
            got = float(np.mean(paths[:, j] * paths[:, k]))
            assert abs(got - rho) <= 3.0 * np.sqrt((1.0 + rho * rho) / B), (j, k)
        for k in (0, long_gap + 1, positions.size - 1):
            assert abs(np.mean(paths[:, k] ** 2) - 1.0) <= 3.0 * np.sqrt(2.0 / B), k

    def test_rows_carry_the_recursion(self):
        # Small gamma cuts the path into rows of 75 positions and the
        # default into two rows, so the oracles above cover the carry
        # between rows; the first value is z_0 itself.
        cfg = AwbConfig(seed=2, gamma=0.01)
        spans = complete(cfg, 12000).spans
        assert (len(spans), spans[0]) == (160, (0, 75))
        assert len(complete(AwbConfig(), 12000).spans) == 2
        z0 = awb._stream(2, 5).standard_normal(1)[0]
        assert complete_path(cfg, 12000, 5)[0] == z0

    def test_identical_for_any_thread_count_and_order(self):
        cfg = AwbConfig(seed=12, n_boot=12)
        T = 12000
        days = complete(cfg, T)
        forward = draw_multipliers(cfg, days, range(cfg.n_boot))
        backward = [draw_multipliers(cfg, days, [b])[0] for b in reversed(range(cfg.n_boot))]
        assert all(np.array_equal(a, b) for a, b in zip(forward, backward[::-1]))
        # Each thread re-keys one generator per draw. Oracle: the path from a
        # fresh generator on the same key, over keys at both ends of the
        # 64-bit range and lengths from one position to several rows.
        cases = [(seed, b, n)
                 for seed in (0, 3, 2**63 + 5, 2**64 - 1)
                 for b in (0, 1, 998, 2**64 - 1)
                 for n in (1, 2, 285, 12000)]
        expected = {case: fresh_multipliers(*case) for case in cases}

        def draw(case):
            seed, b, n = case
            return complete_path(AwbConfig(seed=seed, gamma=rekey_gamma(n)), n, b)

        shuffled = random.Random(5).sample(cases, len(cases))
        out = run_replicates(cfg, np.zeros(T), make_series(np.ones(T)), lambda y: y.copy())
        assert np.array_equal(out, forward)
        # Draws on a caller's own threads, switched as often as possible.
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for threads in (2, 4):
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    paths = list(pool.map(draw, shuffled))
                for case, xi in zip(shuffled, paths):
                    assert xi.tobytes() == expected[case].tobytes(), case
        finally:
            sys.setswitchinterval(interval)
        # A generator held mid-stream, as simulate_series holds two, is
        # neither disturbed by the draws nor disturbs them.
        held, reference = awb._stream(3, 0), awb._stream(3, 0)
        assert np.array_equal(held.random(5), reference.random(5))
        for case in shuffled[:8]:
            assert draw(case).tobytes() == expected[case].tobytes(), case
            assert np.array_equal(held.standard_normal(3), reference.standard_normal(3))


def replicate_oracle(cfg, base, residuals, ids):
    """The replicates ``ids`` built by hand on the observed days: the base
    there plus each id's multiplier path times the residuals there."""
    days = observed_days(cfg, residuals.mask)
    obs = days.positions
    return base[obs] + draw_multipliers(cfg, days, ids) * residuals.values[obs]


class TestRunReplicates:
    @staticmethod
    def run(cfg, n_time, statistic):
        """Replicate series equal to the multiplier paths themselves."""
        return run_replicates(cfg, np.zeros(n_time), make_series(np.ones(n_time)), statistic)

    def test_constant_kernel(self):
        cfg = AwbConfig(seed=0, gamma=0.5, n_boot=3)
        out = self.run(cfg, 8, lambda block: np.full(len(block), 2.5))
        assert out.tolist() == [2.5, 2.5, 2.5]

    def test_blocks_of_consecutive_ids_fixed_by_the_series_length(self):
        # k = max(1, 2^13 // T) ids a block, in id order; the last block
        # holds what is left of B.
        assert [awb.block_size(T) for T in (8, 285, 666, 3000, 12000)] == [1024, 28, 12, 2, 1]
        seen = []

        def kernel(block):
            seen.append(block.shape)
            return block[:, 0]

        self.run(AwbConfig(seed=0, n_boot=49), 666, kernel)
        assert seen == [(12, 666)] * 4 + [(1, 666)]

    def test_result_shape_fixed_by_the_first_replicate(self):
        # The results fill one (B, ...) array; a later block whose rows
        # have another shape, or that gives another number of rows, is
        # refused, not broadcast into its rows. At T=4096 a block holds
        # two ids.
        cfg = AwbConfig(seed=0, gamma=0.5, n_boot=3)
        first = complete_path(cfg, 4096, 0)
        for later in (np.full((1,), 2.5), np.zeros((1, 3)), np.zeros((2, 2))):
            def kernel(block, later=later):
                return np.zeros((2, 2)) if np.array_equal(block[0], first) else later
            with pytest.raises(ValueError, match=r"replicate 2 gave shape \("):
                self.run(cfg, 4096, kernel)
        with pytest.raises(ValueError, match=r"replicates 0-1 gave shape \(\), expected \(2,\)"):
            self.run(cfg, 4096, lambda block: 2.5)

    def test_replicate_series_is_base_plus_masked_errors(self, rng):
        # Oracle: each block rebuilt from its own multiplier paths. At
        # T=1000 a block holds 8 ids; the statistic receives every block as
        # the replicates' values on the observed days, (k, n_obs), and the
        # base is NaN off them, so any read of an unobserved day shows.
        cfg = AwbConfig(seed=4, gamma=0.6, n_boot=20)
        residuals = random_masked_series(rng, 1000, observed_fraction=0.4)
        base = rng.normal(size=1000)
        base[residuals.mask == 0] = np.nan
        blocks = []
        out = run_replicates(cfg, base, residuals, lambda y: blocks.append(y.copy()) or y)
        assert [block.shape for block in blocks] == [(8, residuals.n_observed)] * 2 + [
            (4, residuals.n_observed)]
        for lo, block in zip(range(0, 20, 8), blocks):
            ids = range(lo, min(lo + 8, 20))
            assert block.tobytes() == replicate_oracle(cfg, base, residuals, ids).tobytes()
        assert out.tobytes() == np.vstack(blocks).tobytes()

    def test_zero_residuals_give_the_masked_base(self, rng):
        cfg = AwbConfig(seed=1, gamma=0.5, n_boot=10)
        mask = (rng.random(1000) < 0.4).astype(np.uint8)
        base = rng.normal(size=1000)
        blocks = []
        run_replicates(cfg, base, make_series(np.zeros(1000), mask),
                       lambda y: blocks.append(y.copy()) or y)
        observed = base[mask == 1]
        assert [block.shape for block in blocks] == [(8, observed.size), (2, observed.size)]
        for block in blocks:
            assert all(row.tobytes() == observed.tobytes() for row in block)

    @pytest.mark.parametrize("shape", [(6,), (2, 6), (4,), (2, 4), (2, 5)],
                             ids=["longer", "stacked-longer", "shorter", "stacked-shorter",
                                  "stacked"])
    def test_base_of_another_length_fails_before_any_draw(self, shape, multiplier_draws):
        # A base is one series of the residuals' length; a stack of bases
        # is refused too.
        cfg = AwbConfig(seed=1, gamma=0.5, n_boot=3)
        with pytest.raises(ValueError, match=r"base has shape \("):
            run_replicates(cfg, np.zeros(shape), make_series(np.ones(5)), lambda y: 0.0)
        assert multiplier_draws == []

    def test_same_seed_identical(self):
        cfg = AwbConfig(seed=9, gamma=0.4, n_boot=16)
        kernel = lambda block: block.sum(axis=1)  # noqa: E731
        assert np.array_equal(self.run(cfg, 30, kernel), self.run(cfg, 30, kernel))

    def test_threaded_matches_serial(self):
        # Oracle: the run on the test's own thread. The same run made on
        # several caller threads at once gives it on each. At T=50 the 24
        # replicates are one block, at T=1000 three of 8.
        kernel = lambda block: (block**2).sum(axis=1)  # noqa: E731
        cfg = AwbConfig(seed=9, gamma=0.4, n_boot=24)
        for n_time in (50, 1000):
            serial = self.run(cfg, n_time, kernel)
            for threads in (2, 5):
                for out in on_caller_threads(lambda: self.run(cfg, n_time, kernel), threads):
                    assert out.tobytes() == serial.tobytes()

    def test_procedures_identical_for_any_thread_count(self):
        # Every bootstrap procedure run on 1, 2 and 5 caller threads at
        # once. At T=666 a block holds 12 ids, so B=49 runs four full blocks
        # and one of a single id, interleaved differently for each count.
        from gaptrend import break_analysis, estimate_break, monotonicity_tests, nw_estimate
        from gaptrend.kerneltrend import trend_bootstrap_paths

        rng = np.random.default_rng(666)
        series = gappy_series(rng, 666, 0.6, gaps=[(200, 260)])
        fit = estimate_break(series, n_harmonics=1)
        trend = nw_estimate(series, 0.1)
        cfg = AwbConfig(seed=4, n_boot=49)

        def procedures():
            test, ci = break_analysis(fit, cfg)
            mono = monotonicity_tests(trend, (300, 666), cfg)
            return [test.draws, ci.bootstrap_indices,
                    np.array([astuple(ci.slopes.slope_before), astuple(ci.slopes.intercept)]),
                    trend_bootstrap_paths(trend, cfg), mono.sign.draws, mono.magnitude.draws]

        serial = procedures()
        for threads in (1, 2, 5):
            for run in on_caller_threads(procedures, threads):
                for got, want in zip(run, serial, strict=True):
                    assert got.tobytes() == want.tobytes()

    def test_kernel_failure_carries_replicate_id(self):
        # At T=3000 blocks hold two ids: replicate 3 fails in block 2-3,
        # whose first id the error carries.
        cfg = AwbConfig(seed=1, gamma=0.5, n_boot=5)
        third = complete_path(cfg, 3000, 3)

        def kernel(block):
            if any(np.array_equal(y, third) for y in block):
                raise RuntimeError("boom")
            return block[:, 0]

        with pytest.raises(ReplicateError, match="^replicates 2-3: boom$") as caught:
            self.run(cfg, 3000, kernel)
        assert caught.value.replicate_id == 2
        assert ReplicateError(range(4, 5), "boom").args == ("replicate 4: boom",)


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

    def test_mc_error_by_hand(self):
        # Two of four draws reach 0.6: p = 3/5, and sqrt(3/5 * 2/5 / 4) = sqrt(0.06).
        test = awb.bootstrap_test(0.6, np.array([0.1, 0.5, 0.9, 2.0]), 0.05)
        assert (test.p_value, test.mc_error) == (0.6, pytest.approx(0.24494897427831781))
        assert test.mc_error == awb.mc_error(0.6, 4)
        # Above all 999 draws: p = 1/1000, and sqrt(1/1000 * 999/1000 / 999) = 1/1000.
        top = awb.bootstrap_test(1000.0, np.arange(999.0), 0.05)
        assert (top.p_value, top.mc_error) == (0.001, pytest.approx(0.001, rel=1e-14))
        # Below every draw: p = 1 carries no Monte Carlo error.
        assert awb.bootstrap_test(-1.0, np.arange(19.0), 0.05).mc_error == 0.0


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
