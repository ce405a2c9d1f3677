"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is fixed
here; the panel cells use pinned seeds, so each criterion is a
deterministic computation.
"""

from __future__ import annotations

import datetime as dt
import json

import numpy as np
import pytest

from gaptrend import (
    AwbConfig,
    LinearTrendSpec,
    McDesign,
    SmoothTransitionSpec,
    break_ci,
    break_test,
    confidence_bands,
    estimate_break,
    extremum_ci,
    mcv_scan,
    nw_estimate,
    trimming_set,
    u_stat_bandwidth,
)
from gaptrend.mcharness import (
    SIGMA_ETA_BREAK_PANELS,
    SIGMA_ETA_SHAPE_POWER_PANELS,
    SIGMA_ETA_SHAPE_SIZE_PANELS,
    run_break_ci_cell,
    run_break_test_cell,
    run_linearity_cell,
    run_monotonicity_cell,
)

from conftest import make_series, random_masked_series
from test_breaktrend import kinked_line, naive_fit, naive_scan
from test_kerneltrend import isolated_v_series, naive_mcv, naive_nw
from test_shapetests import naive_u_profiles, u_stat_profiles


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_bandwidth_constants():
    values = {T: round(u_stat_bandwidth(T), 3) for T in (2935, 814, 1399)}
    ok = values == {2935: 0.101, 814: 0.131, 1399: 0.117}
    report(1, ok, f"pairwise-test bandwidths {values}")


@pytest.mark.slow
def test_criterion_2_break_test_size_and_power_ordering():
    rates = {}
    for delta in (0.0, 0.05, 0.1):
        design = McDesign(
            n_time=666, missing="30%", phi=0.0, psi=0.0,
            sigma_eta=SIGMA_ETA_BREAK_PANELS,
            trend=LinearTrendSpec(4000.0, -0.5, delta, 0.6, "grid"),
            replications=500, n_boot=399, seed=0,
        )
        rates[delta] = run_break_test_cell(design).estimates["rejection_rate"][0]
    size_ok = 0.076 - 0.04 <= rates[0.0] <= 0.076 + 0.04
    order_ok = rates[0.0] < rates[0.05] < rates[0.1]
    report(
        2, size_ok and order_ok,
        f"break-test size {rates[0.0]:.3f} (target 0.076 +/- 0.04); "
        f"power {rates[0.05]:.3f} @ slope-change 0.05, {rates[0.1]:.3f} @ 0.1; "
        f"strict ordering {'holds' if order_ok else 'violated'}",
    )


@pytest.mark.slow
def test_criterion_3_break_date_interval_coverage_and_length():
    design = McDesign(
        n_time=666, missing="30%", phi=0.0, psi=0.0,
        sigma_eta=SIGMA_ETA_BREAK_PANELS,
        trend=LinearTrendSpec(4000.0, -0.5, 1.0, 0.6, "grid"),
        replications=300, n_boot=399, seed=0,
    )
    result = run_break_ci_cell(design)
    coverage = result.estimates["coverage"][0]
    length = result.estimates["mean_length"][0]
    cov_ok = 0.87 <= coverage <= 0.98
    len_ok = 13.03 / 2.0 <= length <= 13.03 * 2.0
    report(
        3, cov_ok and len_ok,
        f"break-date interval coverage {coverage:.3f} (band [0.87, 0.98]); "
        f"mean length {length:.2f} grid steps (within x2 of 13.03)",
    )


@pytest.mark.slow
def test_criterion_4_linearity_test_size_and_power():
    size_design = McDesign(
        n_time=666, missing="70%", phi=0.1, psi=0.0,
        sigma_eta=SIGMA_ETA_SHAPE_SIZE_PANELS,
        trend=LinearTrendSpec(4000.0, 0.5, 0.0, 0.6, "rescaled"),
        replications=200, n_boot=399, seed=0, h=0.08,
    )
    size = run_linearity_cell(size_design)
    size_ave = size.estimates["rejection_rate_ave"][0]
    size_sup = size.estimates["rejection_rate_sup"][0]

    power_design = McDesign(
        n_time=666, missing="30%", phi=0.1, psi=0.0,
        sigma_eta=SIGMA_ETA_SHAPE_POWER_PANELS,
        trend=SmoothTransitionSpec(),
        replications=200, n_boot=399, seed=0, h=0.08,
    )
    power = run_linearity_cell(power_design)
    pow_ave = power.estimates["rejection_rate_ave"][0]
    pow_sup = power.estimates["rejection_rate_sup"][0]

    ok = (0.02 <= size_ave <= 0.12) and (0.01 <= size_sup <= 0.11) and (
        pow_ave >= 0.9 and pow_sup >= 0.9
    )
    report(
        4, ok,
        f"linearity size ave {size_ave:.3f} in [0.02, 0.12], sup {size_sup:.3f} in "
        f"[0.01, 0.11]; smooth-transition power ave {pow_ave:.3f}, sup {pow_sup:.3f} (>= 0.9)",
    )


@pytest.mark.slow
def test_criterion_5_monotonicity_size_and_power():
    size_design = McDesign(
        n_time=666, missing="70%", phi=0.1, psi=0.0,
        sigma_eta=SIGMA_ETA_SHAPE_SIZE_PANELS,
        trend=LinearTrendSpec(4000.0, 0.5, 0.0, 0.6, "rescaled"),
        replications=200, n_boot=199, seed=0, h=0.06,
    )
    size = run_monotonicity_cell(size_design)
    u1_size = size.estimates["rejection_rate_sign"][0]

    power_design = McDesign(
        n_time=666, missing="70%", phi=0.1, psi=0.0,
        sigma_eta=SIGMA_ETA_SHAPE_POWER_PANELS,
        trend=SmoothTransitionSpec(),
        replications=200, n_boot=199, seed=0, h=0.06,
    )
    power = run_monotonicity_cell(power_design)
    u2_power = power.estimates["rejection_rate_magnitude"][0]

    ok = (0.02 <= u1_size <= 0.13) and u2_power >= 0.5
    report(
        5, ok,
        f"sign-test size {u1_size:.3f} in [0.02, 0.13] (reference 0.069); "
        f"magnitude-test power {u2_power:.3f} >= 0.5 (reference 0.675)",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = {"nw": 0.0, "mcv": 0.0, "fstat": 0.0, "u1": 0.0, "u2": 0.0}

    for _ in range(25):
        T = int(rng.integers(60, 201))
        series = random_masked_series(rng, T, observed_fraction=float(rng.uniform(0.45, 0.9)))

        h = float(rng.uniform(0.05, 0.35))
        fit = nw_estimate(series, h)
        oracle = naive_nw(series.values, series.mask, h, T)
        both = np.isfinite(fit.g_hat) & np.isfinite(oracle)
        assert np.array_equal(np.isfinite(fit.g_hat), np.isfinite(oracle))
        worst["nw"] = max(worst["nw"], float(np.max(np.abs(fit.g_hat[both] - oracle[both]), initial=0.0)))

        k = int(rng.integers(0, 5))
        score = mcv_scan(series, np.array([h]), k=k).scores[0]
        mcv_oracle = naive_mcv(series.values, series.mask, h, k, T)
        if np.isfinite(score) or np.isfinite(mcv_oracle):
            worst["mcv"] = max(worst["mcv"], abs(score - mcv_oracle) / max(abs(mcv_oracle), 1.0))

        trim = trimming_set(T, 0.15)
        from gaptrend.breaktrend import BreakScan

        scan_state = BreakScan(series.mask, series.calendar_years(), trim, 0).scan(
            series.values[None, series.mask == 1]
        )
        best, best_ssr, ssr0 = naive_scan(series, trim, 0)
        assert scan_state.best[0] == best
        f_naive = ssr0 - best_ssr
        worst["fstat"] = max(
            worst["fstat"], abs(scan_state.f_stat[0] - f_naive) / max(abs(f_naive), 1.0)
        )

        h_u = float(rng.uniform(0.1, 0.3))
        lo = int(rng.integers(1, T // 2))
        hi = min(lo + 6, T)
        p1, p2 = u_stat_profiles(series, (lo, hi), h_u)
        obs = np.flatnonzero(series.mask == 1)
        o1, o2 = naive_u_profiles(obs, series.values[obs], np.arange(lo - 1, hi), T, h_u)
        worst["u1"] = max(worst["u1"], float(np.max(np.abs(p1 - o1), initial=0.0)))
        worst["u2"] = max(worst["u2"], float(np.max(np.abs(p2 - o2), initial=0.0)))

    ok = all(v <= 1e-10 for v in worst.values())
    report(
        6, ok,
        "incremental vs brute-force deviations: "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (all <= 1e-10 over 25 instances)",
    )


def test_criterion_7_noiseless_exactness():
    # Kinked-line recovery: exact break index and coefficients.
    series = make_series(kinked_line(100, alpha=1.0, beta=0.5, delta=0.3, kink=60))
    fit = estimate_break(series, trimming_set(100, 0.1), n_harmonics=0)
    kink_ok = (
        fit.break_index == 60
        and abs(fit.alpha - 1.0) < 1e-8
        and abs(fit.beta - 0.5) < 1e-8
        and abs(fit.delta - 0.3) < 1e-8
        and fit.ssr < 1e-8
    )

    # Exactly linear data: zero statistic and p-value one.
    line = make_series(2.0 + 0.25 * np.arange(1, 121))
    test = break_test(estimate_break(line, n_harmonics=0), AwbConfig(seed=1, n_boot=99))
    line_ok = test.statistic == 0.0 and test.p_value == 1.0

    # Symmetric V with isolated observations: degenerate extremum interval.
    v_series, _ = isolated_v_series()
    v_fit = nw_estimate(v_series, 0.02)
    res = extremum_ci(v_fit, AwbConfig(seed=2, n_boot=99), kind="min")
    v_ok = res.lower_index == res.location == res.upper_index

    report(
        7, kink_ok and line_ok and v_ok,
        f"kink recovery exact={kink_ok}; linear series statistic {test.statistic:g} with "
        f"p={test.p_value:g}; symmetric-V interval degenerate={v_ok}",
    )


def test_criterion_8_invariant_property_suites():
    checks = {}

    # Multiplier moments: unit variance at both ends, lag-1 correlation.
    from gaptrend import draw_multipliers, observed_days

    cfg = AwbConfig(seed=8, gamma=0.8)
    days = observed_days(cfg, np.ones(30, dtype=np.uint8))
    draws = draw_multipliers(cfg, days, range(40_000))
    var_dev = max(abs(draws[:, 0].var() - 1.0), abs(draws[:, -1].var() - 1.0))
    corr = np.corrcoef(draws[:, 14], draws[:, 15])[0, 1]
    checks["multiplier moments"] = var_dev < 0.02 and abs(corr - 0.8) < 0.01

    # Shift/scale equivariance of the break machinery.
    rng = np.random.default_rng(88)
    noise = rng.normal(0, 1.0, 90)
    base_vals = kinked_line(90, kink=50) + noise
    cfg_b = AwbConfig(seed=9, n_boot=29)
    r1, r2, r3 = (break_test(estimate_break(make_series(v), n_harmonics=0), cfg_b)
                  for v in (base_vals, base_vals + 77.0, base_vals * 2.0))
    checks["break shift/scale"] = (
        abs(r1.statistic - r2.statistic) < 1e-6 * max(r1.statistic, 1.0)
        and r1.p_value == r2.p_value == r3.p_value
        and abs(r3.statistic - 4.0 * r1.statistic) < 1e-9 * max(r3.statistic, 1.0)
    )

    # Kernel-trend equivariance and band nesting at matched seeds.
    series = random_masked_series(rng, 150, observed_fraction=0.7)
    fit = nw_estimate(series, 0.12)
    shifted = nw_estimate(series.with_values(series.values + 3.0), 0.12)
    d = fit.defined
    equiv = np.allclose(shifted.g_hat[d], fit.g_hat[d] + 3.0, atol=1e-10)
    cfg_k = AwbConfig(seed=10, n_boot=99)
    b95 = confidence_bands(fit, cfg_k, level=0.95)
    b99 = confidence_bands(fit, cfg_k, level=0.99)
    nesting = np.all(b99.lower[d] <= b95.lower[d] + 1e-12) and np.all(
        b99.upper[d] >= b95.upper[d] - 1e-12
    )
    checks["trend equivariance + band nesting"] = bool(equiv and nesting)

    # Sign-test invariance to strictly increasing transforms.
    series_u = random_masked_series(rng, 60, observed_fraction=0.7)
    p1, _ = u_stat_profiles(series_u, (6, 54), 0.25)
    inv = all(
        np.array_equal(u_stat_profiles(series_u.with_values(f(series_u.values)), (6, 54), 0.25)[0], p1)
        for f in (np.exp, lambda x: x**3 + x, lambda x: 5 * np.arctan(x))
    )
    checks["sign-test transform invariance"] = bool(inv)

    # Determinism of every bootstrap path: the same config run twice gives
    # bit-identical draws and bands.
    series_d = random_masked_series(rng, 120, observed_fraction=0.6)
    cfg_d = AwbConfig(seed=11, n_boot=24)
    fit_b = estimate_break(series_d, n_harmonics=0)
    fit_d = nw_estimate(series_d, 0.15)
    draws = [break_test(fit_b, cfg_d).draws for _ in range(2)]
    bands = [confidence_bands(fit_d, cfg_d) for _ in range(2)]
    checks["re-run determinism"] = draws[0].tobytes() == draws[1].tobytes() and all(
        getattr(bands[0], side).tobytes() == getattr(bands[1], side).tobytes()
        for side in ("lower", "upper"))

    ok = all(checks.values())
    report(8, ok, "; ".join(f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()))


def test_criterion_9_cli_byte_determinism(tmp_path):
    import csv

    from gaptrend.cli import run

    rng = np.random.default_rng(99)
    T = 360
    t = np.arange(1, T + 1, dtype=float)
    trend = 4.0 - 0.02 * t + 0.05 * np.maximum(0.0, t - 200)
    year = 2000.0 + (t - 1) / 365.25
    values = trend + 0.5 * np.cos(2 * np.pi * year) + rng.normal(0, 0.3, T)
    mask = rng.random(T) < 0.7
    mask[[0, -1]] = True
    data = tmp_path / "series.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for i in range(T):
            if mask[i]:
                day = (dt.date(2000, 1, 1) + dt.timedelta(days=i)).isoformat()
                writer.writerow([day, repr(float(values[i]))])

    outs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"]
    # --threads 1 is accepted and changes nothing.
    for out, threads in zip(outs, (["--threads", "1"], [], [])):
        base = ["--out", str(out), "--seed", "17", *threads]
        assert run(base + ["ingest", "--input", str(data)]) == 0
        assert run(base + ["break", "--input", str(data), "--B", "49"]) == 0
        assert run(base + ["smooth", "--input", str(data), "--bandwidth", "0.1",
                           "--B", "49", "--svg"]) == 0
        fit = str(out / "trend_fit.json")
        assert run(base + ["extremum", "--fit", fit, "--B", "49"]) == 0
        assert run(base + ["lintest", "--fit", fit, "--B", "49"]) == 0
        assert run(base + ["monotest", "--fit", fit, "--B", "49"]) == 0
        assert run(base + ["mc", "--panel", "D", "--replications", "2", "--B", "19"]) == 0

    # Every file each run wrote, with no exclusions.
    listings = [sorted(p.name for p in out.iterdir()) for out in outs]
    names = sorted(set().union(*listings))
    mismatched = [
        name for name in names
        if any(name not in listing for listing in listings)
        or not ((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                == (outs[2] / name).read_bytes())
    ]
    # The p-values must also be meaningful, not vacuously equal.
    rep = json.loads((outs[0] / "break_report.json").read_text())
    sane = 0.0 < rep["results"]["p_value"] <= 1.0
    ok = not mismatched and sane
    report(
        9, ok,
        f"all {len(names)} output files byte-identical across three runs, one with --threads 1"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
