"""Seeded synthetic station records shaped like a daily FTIR ethane series.

Each record is a decline-then-rise kinked trend with an interior minimum,
a three-harmonic annual cycle anchored to the calendar, and ARMA(1,1)
errors under a smooth volatility profile. About 25% of days are observed:
first-order Markov gaps thin the record to 30% of the days outside a
yearly block gap (day of year 160-219, a summer campaign break). Trend,
errors and gaps come from the ``gaptrend.mcharness`` generators; the
seasonal term and the block gap are added here.

The observed count of every calendar month is pinned to 30% of its
available days. Without that, the Markov mask's observed fraction wanders
by about 4% from seed to seed at T=3000, and the pairwise monotonicity
engine, whose cost grows with the square of the points in a window,
would change its run time by twice that with the seed.
"""

from __future__ import annotations

import csv
import datetime as dt

import numpy as np

from gaptrend.mcharness import LinearTrendSpec, McDesign, gen_errors, gen_mask, gen_trend

DAYS_PER_YEAR = 365.25
OBSERVED_SHARE = 0.3
BLOCK_GAP_DAYS = (160, 220)  # day-of-year range [lo, hi) never observed
# Cosine and sine amplitudes of harmonics 1..3, in 1e15 molecules/cm^2.
SEASONAL_COS = (0.30, 0.06, 0.015)
SEASONAL_SIN = (0.12, -0.04, 0.02)

STATIONS = {
    # ~33 years of daily grid.
    "long": {"t0": dt.date(1986, 1, 1), "n_time": 12000},
    # ~8 years of daily grid.
    "short": {"t0": dt.date(2010, 1, 1), "n_time": 3000},
}

# Minimum at 55% of the record: 3.0 falls to 1.35, then rises to 2.7. The
# kink is steep against the noise so that the smoothed minimum, which sets
# the monotonicity interval and with it that test's cost, moves little with
# the seed.
TREND = LinearTrendSpec(
    intercept=3.0, slope=-3.0, slope_change=6.0, break_fraction=0.55, time_unit="rescaled"
)
# Error and gap settings; gen_errors and gen_mask take the length themselves.
ERRORS = McDesign(n_time=2, missing="70%", phi=0.6, psi=0.2, sigma_eta=0.1,
                  heteroskedastic=True)


def _calendar_years(t0: dt.date, n_time: int) -> np.ndarray:
    start = t0.year + (t0.timetuple().tm_yday - 1) / DAYS_PER_YEAR
    return start + np.arange(n_time, dtype=np.float64) / DAYS_PER_YEAR


def seasonal_cycle(t0: dt.date, n_time: int) -> np.ndarray:
    y = _calendar_years(t0, n_time)
    out = np.zeros(n_time)
    for j, (a, b) in enumerate(zip(SEASONAL_COS, SEASONAL_SIN), start=1):
        out += a * np.cos(2.0 * np.pi * j * y) + b * np.sin(2.0 * np.pi * j * y)
    return out


def _observation_mask(t0: dt.date, n_time: int, rng: np.random.Generator) -> np.ndarray:
    days = [t0 + dt.timedelta(days=i) for i in range(n_time)]
    doy = np.array([d.timetuple().tm_yday for d in days])
    month = np.array([d.year * 12 + d.month for d in days])
    allowed = (doy < BLOCK_GAP_DAYS[0]) | (doy >= BLOCK_GAP_DAYS[1])
    mask = gen_mask(ERRORS.missing, n_time, rng) * allowed
    for m in np.unique(month):
        idx = np.flatnonzero((month == m) & allowed)
        target = int(round(OBSERVED_SHARE * idx.size))
        on, off = idx[mask[idx] == 1], idx[mask[idx] == 0]
        if on.size > target:
            mask[rng.choice(on, on.size - target, replace=False)] = 0
        elif on.size < target:
            mask[rng.choice(off, target - on.size, replace=False)] = 1
    # The grid spans first to last observed day, so pin both ends.
    mask[0] = mask[-1] = 1
    return mask.astype(np.uint8)


def station_series(
    station: str, seed: int, n_time: int | None = None
) -> tuple[dt.date, np.ndarray, np.ndarray]:
    """(first date, daily values, observation mask) of one seeded record.

    ``n_time`` shortens the record for quick runs.
    """
    t0 = STATIONS[station]["t0"]
    n_time = n_time or STATIONS[station]["n_time"]
    key = seed % 2**63  # default_rng refuses negative entropy
    rng_mask = np.random.default_rng([key, 1])
    rng_err = np.random.default_rng([key, 2])
    mask = _observation_mask(t0, n_time, rng_mask)
    values = (gen_trend(TREND, n_time) + seasonal_cycle(t0, n_time)
              + gen_errors(ERRORS, n_time, rng_err))
    return t0, values, mask


def minimum_to_end(station: str, n_time: int | None = None) -> str:
    """``first:last`` dates from the generating trend's minimum to the record's end."""
    t0 = STATIONS[station]["t0"]
    n_time = n_time or STATIONS[station]["n_time"]
    kink = round(TREND.break_fraction * n_time)
    return f"{t0 + dt.timedelta(days=kink - 1)}:{t0 + dt.timedelta(days=n_time - 1)}"


def write_station_csv(path: str, station: str, seed: int, n_time: int | None = None) -> None:
    """One ``date,value`` row per observed day, values at full precision."""
    t0, values, mask = station_series(station, seed, n_time)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for i in np.flatnonzero(mask):
            writer.writerow([(t0 + dt.timedelta(days=int(i))).isoformat(), repr(float(values[i]))])
