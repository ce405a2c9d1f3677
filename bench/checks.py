"""Output checks of the benchmark workloads.

Each check recomputes what a report claims from the input CSV with plain
numpy (least squares, direct kernel sums, direct pairwise sums), or tests
a property the method must have. None compares against stored output. A
check raises ``CheckFailed`` with the first mismatch it finds.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DAYS_PER_YEAR = 365.25
N_HARMONICS = 3


class CheckFailed(Exception):
    pass


def ensure(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def ensure_close(actual, expected, what: str, rtol: float = 1e-9, atol: float = 0.0) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    ensure(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    ensure(np.array_equal(np.isnan(actual), np.isnan(expected)), f"{what}: undefined positions differ")
    ok = np.isnan(expected) | (np.abs(actual - expected) <= atol + rtol * np.abs(expected))
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise CheckFailed(f"{what}: {actual.flat[i]!r} != {expected.flat[i]!r} at {i}")


def ensure_p_value(p: float, n_boot: int, what: str) -> None:
    """A bootstrap p-value is (1 + k) / (B + 1) with 0 <= k <= B."""
    k = p * (n_boot + 1) - 1
    ensure(abs(k - round(k)) < 1e-6 and 0 <= round(k) <= n_boot,
           f"{what}: {p!r} is not (1+k)/({n_boot}+1)")


def report(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def floats(column: list[str]) -> np.ndarray:
    return np.array([float(v) if v != "" else np.nan for v in column])


@dataclass(frozen=True)
class Grid:
    """The input CSV on its daily grid, read without the package."""

    t0: dt.date
    values: np.ndarray  # NaN on days without an observation
    mask: np.ndarray  # bool

    @property
    def n_time(self) -> int:
        return self.values.shape[0]

    def dates(self) -> list[str]:
        return [(self.t0 + dt.timedelta(days=i)).isoformat() for i in range(self.n_time)]

    def date_at(self, position: int) -> str:
        return (self.t0 + dt.timedelta(days=position - 1)).isoformat()

    def fourier(self) -> np.ndarray:
        start = self.t0.year + (self.t0.timetuple().tm_yday - 1) / DAYS_PER_YEAR
        years = start + np.arange(self.n_time) / DAYS_PER_YEAR
        angles = 2.0 * np.pi * np.outer(years, np.arange(1, N_HARMONICS + 1))
        return np.hstack([np.cos(angles), np.sin(angles)])


def read_grid(path: Path) -> Grid:
    with open(path, newline="") as fh:
        rows = [(dt.date.fromisoformat(r["date"]), float(r["value"])) for r in csv.DictReader(fh)]
    t0 = min(d for d, _ in rows)
    n_time = (max(d for d, _ in rows) - t0).days + 1
    values = np.full(n_time, np.nan)
    for day, value in rows:
        values[(day - t0).days] = value
    return Grid(t0, values, ~np.isnan(values))


# ---------------------------------------------------------------------------
# station-break


def check_ingest(out: Path, grid: Grid) -> None:
    res = report(out, "ingest_report.json")["results"]
    ensure(res["n_grid"] == grid.n_time, f"n_grid {res['n_grid']} != {grid.n_time}")
    ensure(res["n_observed"] == int(grid.mask.sum()), "n_observed differs from the input rows")
    ensure(res["first_date"] == grid.t0.isoformat(), "first_date differs")
    ensure(res["last_date"] == grid.date_at(grid.n_time), "last_date differs")
    canon = read_columns(out / "canonical.csv")
    ensure(canon["date"] == grid.dates(), "canonical.csv dates are not the daily grid")
    ensure(canon["observed"] == [str(int(m)) for m in grid.mask], "canonical.csv mask differs")
    ensure(np.array_equal(floats(canon["value"]), grid.values, equal_nan=True),
           "canonical.csv values are not the input values")


def _hinge_design(grid: Grid, fourier: np.ndarray, break_at: int | None) -> np.ndarray:
    T = grid.n_time
    t = np.arange(1, T + 1, dtype=np.float64)
    cols = [np.ones(T), t / T]
    if break_at is not None:
        cols.append(np.maximum(0.0, t - break_at) / T)
    return np.column_stack(cols + [fourier])


def _lstsq(grid: Grid, X: np.ndarray) -> tuple[np.ndarray, float]:
    obs = grid.mask
    coef = np.linalg.lstsq(X[obs], grid.values[obs], rcond=None)[0]
    resid = grid.values[obs] - X[obs] @ coef
    return coef, float(resid @ resid)


def check_break(out: Path, grid: Grid) -> None:
    rep = report(out, "break_report.json")
    par, res = rep["parameters"], rep["results"]
    T = grid.n_time
    k = res["break_index"]
    lo, hi = math.ceil(par["lambda"] * T), math.floor((1.0 - par["lambda"]) * T)
    ensure(lo <= k <= hi, f"break {k} outside the trimming set {lo}..{hi}")
    ensure(res["break_date"] == grid.date_at(k), "break_date is not the date of break_index")

    fourier = grid.fourier()
    coef, ssr = _lstsq(grid, _hinge_design(grid, fourier, k))
    _, ssr0 = _lstsq(grid, _hinge_design(grid, fourier, None))
    ensure_close(res["ssr"], ssr, "SSR at the reported break", rtol=1e-8)
    ensure_close(res["statistic"], ssr0 - ssr, "statistic vs SSR0 - SSR", atol=1e-9 * ssr0)

    # Every other candidate fits worse: brute-force refits over a spread.
    others = set(np.linspace(lo, hi, 40).round().astype(int)) | {k - 7, k - 1, k + 1, k + 7}
    for c in sorted(c for c in others if lo <= c <= hi and c != k):
        _, ssr_c = _lstsq(grid, _hinge_design(grid, fourier, c))
        ensure(ssr <= ssr_c * (1 + 1e-10), f"candidate {c} has SSR {ssr_c!r} < {ssr!r} at {k}")

    per_year = DAYS_PER_YEAR / T
    slopes = res["slopes_per_year"]
    expected = {
        "slope_before": coef[1] * per_year,
        "slope_change": coef[2] * per_year,
        "slope_after": (coef[1] + coef[2]) * per_year,
    }
    for name, value in expected.items():
        ensure_close(slopes[name]["estimate"], value, f"{name} estimate", rtol=1e-7)
        lower, upper = slopes[name]["ci"]
        ensure(lower <= upper, f"{name} interval is reversed")
    ensure_close(res["intercept"]["estimate"], coef[0], "intercept", rtol=1e-7)

    ensure_p_value(res["p_value"], par["B"], "break p-value")
    ensure(res["reject"] == (res["statistic"] > res["critical_value"]), "reject disagrees")
    lower, upper = (dt.date.fromisoformat(d) for d in res["break_ci"])
    ensure(lower <= upper, "break interval is reversed")
    ensure(res["break_ci_length_days"] == (upper - lower).days, "break interval length")

    cols = read_columns(out / "break_trend.csv")
    ensure(cols["date"] == grid.dates(), "break_trend.csv dates are not the daily grid")
    ensure(np.array_equal(floats(cols["observed"]), grid.values, equal_nan=True),
           "break_trend.csv observed column is not the input")
    X = _hinge_design(grid, fourier, k)
    trend = X[:, :3] @ coef[:3]
    scale = float(np.abs(trend).max())
    ensure_close(floats(cols["trend"]), trend, "break trend", atol=1e-8 * scale)
    ensure_close(floats(cols["trend_plus_seasonal"]), X @ coef, "trend plus seasonal",
                 atol=1e-8 * scale)


# ---------------------------------------------------------------------------
# station-smooth


def epanechnikov(h: float, n_time: int) -> np.ndarray:
    """Weights at integer offsets -floor(hT)..floor(hT)."""
    m = h * n_time
    j = np.arange(-math.floor(m), math.floor(m) + 1, dtype=np.float64)
    return np.maximum(0.75 * (1.0 - (j / m) ** 2), 0.0)


def kernel_means(eps: np.ndarray, obs: np.ndarray, h: float, at: np.ndarray,
                 hole: int = -1) -> np.ndarray:
    """Direct weighted means of the observed eps around each position in ``at``,
    leaving out offsets |j| <= hole; NaN where no weight remains."""
    T = eps.shape[0]
    w = epanechnikov(h, T)
    half = (w.shape[0] - 1) // 2
    if hole >= 0:
        w[max(half - hole, 0): half + hole + 1] = 0.0
    out = np.full(at.shape[0], np.nan)
    for n, t in enumerate(at):
        lo, hi = max(t - half, 0), min(t + half + 1, T)
        wt = w[lo - t + half: hi - t + half] * obs[lo:hi]
        den = wt.sum()
        if den > 0:
            out[n] = (wt * np.where(obs[lo:hi], eps[lo:hi], 0.0)).sum() / den
    return out


def deseasonalized(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic least-squares fit on the observed days and y minus the fit."""
    fourier = grid.fourier()
    coef = np.linalg.lstsq(fourier[grid.mask], grid.values[grid.mask], rcond=None)[0]
    return coef, grid.values - fourier @ coef


def check_smooth(out: Path, grid: Grid) -> None:
    rep = report(out, "smooth_report.json")
    par, res = rep["parameters"], rep["results"]
    T = grid.n_time
    obs = grid.mask
    coef, eps = deseasonalized(grid)
    scale = float(np.nanmax(np.abs(eps)))
    ensure_close(res["seasonal_cos"], coef[:N_HARMONICS], "seasonal cosine terms", rtol=1e-7,
                 atol=1e-12)
    ensure_close(res["seasonal_sin"], coef[N_HARMONICS:], "seasonal sine terms", rtol=1e-7,
                 atol=1e-12)

    cols = read_columns(out / "trend_bands.csv")
    ensure(cols["date"] == grid.dates(), "trend_bands.csv dates are not the daily grid")
    ensure_close(floats(cols["deseasonalized"]), eps, "deseasonalized", atol=1e-10 * scale)

    h = res["bandwidth"]
    trend = floats(cols["trend"])
    ensure_close(trend, kernel_means(eps, obs, h, np.arange(T)), "kernel trend",
                 atol=1e-10 * scale)
    ensure(res["n_undefined_positions"] == int(np.isnan(trend).sum()), "undefined count")

    scores = read_columns(out / "mcv_scores.csv")
    bw, sc = floats(scores["bandwidth"]), floats(scores["score"])
    flags = [int(f) for f in scores["is_local_minimum"]]
    k = par["mcv_k"]
    at = np.flatnonzero(obs)
    for i in sorted({0, len(bw) // 3, 2 * len(bw) // 3, len(bw) - 1}):
        g = kernel_means(eps, obs, bw[i], at, hole=k)
        ok = ~np.isnan(g)
        if not ok.any():  # the leave-out hole covers the whole kernel window
            ensure(sc[i] == np.inf, f"CV score at h={bw[i]} should be inf")
            continue
        ensure_close(sc[i], ((g[ok] - eps[at][ok]) ** 2).sum() / T, f"CV score at h={bw[i]}",
                     rtol=1e-8)
    minima = [0] + [int(sc[i] < sc[i - 1] and sc[i] <= sc[i + 1]) for i in range(1, len(sc) - 1)]
    ensure(flags == minima + [0], "CV minimum flags disagree with the scores")
    ensure_close(res["mcv_local_minima"], bw[np.array(flags) == 1], "reported CV minima")

    level = par["level"]
    ensure(0.0 < res["calibrated_pointwise_alpha"] <= 1.0 - level + 1e-12,
           "calibrated pointwise rate exceeds 1 - level")
    pw_lo, pw_hi = floats(cols["pointwise_lower"]), floats(cols["pointwise_upper"])
    sim_lo, sim_hi = floats(cols["simultaneous_lower"]), floats(cols["simultaneous_upper"])
    ok = ~np.isnan(pw_lo)
    ensure((sim_lo[ok] <= pw_lo[ok]).all() and (sim_hi[ok] >= pw_hi[ok]).all(),
           "simultaneous band does not contain the pointwise band")

    fit = json.loads((out / "trend_fit.json").read_text())
    g_fit = np.array([np.nan if v is None else v for v in fit["fit"]["g_hat"]])
    ensure(np.array_equal(g_fit, trend, equal_nan=True), "trend_fit.json trend differs")
    ensure(fit["fit"]["h"] == h, "trend_fit.json bandwidth differs")


def check_extremum(out: Path, grid: Grid) -> None:
    res = report(out, "extremum_report.json")["results"]
    trend = floats(read_columns(out / "trend_bands.csv")["trend"])
    pos = int(np.nanargmin(trend)) + 1
    ensure(res["location_index"] == pos, f"minimum at {res['location_index']}, argmin is {pos}")
    ensure(res["value"] == trend[pos - 1], "minimum value is not the trend there")
    ensure(res["location_date"] == grid.date_at(pos), "minimum date")
    lo, hi = res["ci_indices"]
    ensure(1 <= lo <= hi <= grid.n_time, f"interval {lo}..{hi} is not within 1..T")
    ensure(res["ci_dates"] == [grid.date_at(lo), grid.date_at(hi)], "interval dates")


def check_lintest(out: Path, grid: Grid) -> None:
    rep = report(out, "lintest_report.json")
    par, res = rep["parameters"], rep["results"]
    T = grid.n_time
    cols = read_columns(out / "trend_bands.csv")
    eps, trend = floats(cols["deseasonalized"]), floats(cols["trend"])
    anchor = int(np.nanargmin(trend))  # 0-based
    ensure(res["anchor_index"] == anchor + 1, "anchor is not the trend minimum")
    ensure(res["test_window"] == [anchor + 1, T], "test window is not minimum..T")
    tau = np.arange(1, T + 1) / T
    window = np.arange(anchor, T)
    obs_w = window[grid.mask[window]]
    x_obs = tau[obs_w] - tau[anchor]
    slope = ((eps[obs_w] - trend[anchor]) * x_obs).sum() / (x_obs * x_obs).sum()
    line = trend[anchor] + slope * (tau[window] - tau[anchor])
    defined = ~np.isnan(trend[window])
    gaps = (trend[window][defined] - line[defined]) ** 2
    ensure_close(res["slope_per_rescaled_time"], slope, "pinned slope", rtol=1e-8)
    ensure_close(res["q_ave"], gaps.mean(), "q_ave", rtol=1e-8)
    ensure_close(res["q_sup"], gaps.max(), "q_sup", rtol=1e-8)
    ensure(res["q_ave"] <= res["q_sup"], "q_ave exceeds q_sup")
    ensure_p_value(res["p_ave"], par["B"], "p_ave")
    ensure_p_value(res["p_sup"], par["B"], "p_sup")


# ---------------------------------------------------------------------------
# station-monotone


def check_monotest(out: Path, grid: Grid) -> None:
    rep = report(out, "monotest_report.json")
    par, res = rep["parameters"], rep["results"]
    T = grid.n_time
    h_u = 0.5 * T ** -0.2
    ensure_close(res["h_u"], h_u, "h_u", rtol=1e-12)
    fit = json.loads((out / "trend_fit.json").read_text())
    values = np.array([np.nan if v is None else v for v in fit["series"]["values"]])
    ensure(np.array_equal(~np.isnan(values), grid.mask), "fit artifact mask is not the input's")

    lo, hi = par["interval"]
    pos = np.flatnonzero(grid.mask)
    y = values[pos]
    radius = h_u * T
    scale = -2.0 / (T * (T - 1.0))
    u1 = np.empty(hi - lo + 1)
    u2 = np.empty(hi - lo + 1)
    for n, t in enumerate(range(lo - 1, hi)):
        sel = np.abs(pos - t) < radius
        z = (pos[sel] - t) / T / h_u
        w = 0.75 * (1.0 - z * z) / h_u
        diff = np.triu(y[sel][None, :] - y[sel][:, None], k=1)  # y_j - y_i for i < j
        ww = np.outer(w, w)
        u1[n] = scale * (np.sign(diff) * ww).sum()
        u2[n] = scale * (diff * ww).sum()
    # Signed sums cancel, so the tolerance scales with the profile's size.
    ensure_close(res["u1"], u1.max(), "u1 by direct pairwise sums",
                 atol=1e-11 * np.abs(u1).max())
    ensure_close(res["u2"], u2.max(), "u2 by direct pairwise sums",
                 atol=1e-11 * np.abs(u2).max())
    ensure_p_value(res["p1"], par["B"], "p1")
    ensure_p_value(res["p2"], par["B"], "p2")


# ---------------------------------------------------------------------------
# mc-break-panel

_PANEL_A_CELLS = set(itertools.product(
    ("285", "666"), ("30%", "70%"), ("0.0", "0.5"), ("0.0", "0.5"),
    ("constant", "varying"), ("0.0", "0.05", "0.1"),
))


def check_panel(out: Path, replications: int, n_boot: int) -> None:
    """Check panel A's table against the command's replications and B."""
    cols = read_columns(out / "panel_A.csv")
    rows = [dict(zip(cols, r)) for r in zip(*cols.values())]
    ensure(len(rows) == 54, f"{len(rows)} rows, expected 54")
    cells = {(r["T"], r["missing"], r["phi"], r["psi"], r["volatility"], r["delta"]) for r in rows}
    ensure(len(cells) == 54 and cells <= _PANEL_A_CELLS, "cells are not panel A's design grid")
    for r in rows:
        n, fails = int(r["n_effective"]), int(r["failures"])
        ensure(r["statistic"] == "rejection_rate", "unexpected statistic")
        ensure(int(r["replications"]) == replications and int(r["n_boot"]) == n_boot,
               "replications or B differ from the command")
        ensure(n + fails == replications, "n_effective + failures != replications")
        hits = round(float(r["value"]) * n)
        p = hits / n
        ensure(r["value"] == f"{p:.6g}", f"rate {r['value']} is not k/{n}")
        ensure(r["mc_se"] == f"{math.sqrt(p * (1 - p) / n):.3g}", "mc_se != sqrt(p(1-p)/n)")
