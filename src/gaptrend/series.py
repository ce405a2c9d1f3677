"""Daily-grid time series with an observed/missing mask, plus CSV in and out.

The container keeps every calendar day between the first and last date on a
fixed daily grid, one day per position. Days without an observation are
carried with ``mask == 0`` and 0.0 in ``values``, whatever placeholder the
caller gave; downstream arithmetic multiplies by the mask or reads the
observed positions, so nothing is ever imputed. The series is the one record
of its grid: length, observed count, first and last date are read off it.
Every CSV the package writes goes through ``write_csv``, with a series'
dates and values encoded by ``series_columns``.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DAYS_PER_YEAR = 365.25
# Grid spacing in fractional years; one position per day.
GRID_STEP = 1.0 / DAYS_PER_YEAR


@dataclass(frozen=True)
class ObservedSeries:
    """Values on a complete daily grid with an observation mask.

    Attributes
    ----------
    values : np.ndarray
        Float array of length T. Unobserved days may hold any placeholder,
        NaN included; the constructor stores 0.0 there.
    mask : np.ndarray
        uint8 array of length T; 1 where the day has an observation.
    t0 : datetime.date
        Calendar date of grid position 1.
    """

    values: np.ndarray
    mask: np.ndarray
    t0: dt.date

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.ascontiguousarray(np.asarray(self.mask))
        if values.ndim != 1 or mask.ndim != 1:
            raise ValueError("values and mask must be one-dimensional")
        if values.shape[0] != mask.shape[0]:
            raise ValueError(
                f"length mismatch: {values.shape[0]} values vs {mask.shape[0]} mask entries"
            )
        if values.shape[0] < 2:
            raise ValueError("series must span at least 2 grid positions")
        if not np.isin(mask, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        mask = mask.astype(np.uint8)
        if int(mask.sum()) < 2:
            raise ValueError("series must contain at least 2 observed points")
        values = np.where(mask == 1, values, 0.0)
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    @property
    def observed_fraction(self) -> float:
        return self.n_observed / len(self)

    def calendar_years(self) -> np.ndarray:
        """Calendar time of each grid position in fractional years."""
        start = self.t0.year + (self.t0.timetuple().tm_yday - 1) / DAYS_PER_YEAR
        return start + np.arange(len(self), dtype=np.float64) * GRID_STEP

    def date_at(self, position: int) -> dt.date:
        """Calendar date of a 1-based grid position in 1..T."""
        if not 1 <= position <= len(self):
            raise ValueError(f"grid position {position} lies outside 1..{len(self)}")
        return self.t0 + dt.timedelta(days=int(position) - 1)

    def position_of(self, day: dt.date) -> int:
        """1-based grid position of a calendar date."""
        return (day - self.t0).days + 1

    def with_values(self, values: np.ndarray) -> "ObservedSeries":
        """Same grid and mask, new values (masked positions stored as 0.0)."""
        return ObservedSeries(values, self.mask, self.t0)


def _parse_date(text: str, row_number: int) -> dt.date:
    """Calendar date of an ISO date or timestamp, as written.

    A timestamp keeps the date written in it, also when it carries a UTC
    offset: ``2020-01-01T23:30:00-05:00`` is 2020-01-01, not the UTC date
    2020-01-02. A station's measurements belong to its local day.
    """
    text = text.strip()
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        return dt.datetime.fromisoformat(text).date()
    except ValueError:
        raise ValueError(f"row {row_number}: unparseable date {text!r}") from None


def ingest_csv(
    path: str,
    date_column: str = "date",
    value_column: str = "value",
) -> ObservedSeries:
    """Read a CSV of dated measurements onto a complete daily grid.

    Multiple rows falling on one calendar date are averaged into a daily
    mean. A timestamp falls on the date written in it; a UTC offset does
    not move it to another day (``2020-01-01T23:30:00-05:00`` is
    2020-01-01), so a station's rows keep their local day. Every day between the earliest and latest date becomes a grid
    position; days without a value get ``mask == 0``. Rows with an empty
    value field contribute to the grid span but not to the observations,
    which makes ingestion of the canonical output an exact round trip.
    The file is UTF-8, with or without the byte-order mark spreadsheets write.

    Parameters
    ----------
    path : str
        CSV file with a header row.
    date_column, value_column : str
        Names of the date and value columns.

    Returns
    -------
    ObservedSeries

    Raises
    ------
    ValueError
        Empty file, missing columns, unparseable dates or values, or
        fewer than 2 observed days.
    """
    sums: dict[dt.date, float] = {}
    counts: dict[dt.date, int] = {}
    span_min: dt.date | None = None
    span_max: dt.date | None = None

    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        for col in (date_column, value_column):
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {col!r}")
        n_rows = 0
        for row in reader:
            n_rows += 1
            day = _parse_date(row[date_column] or "", reader.line_num)
            span_min = day if span_min is None else min(span_min, day)
            span_max = day if span_max is None else max(span_max, day)
            raw = (row[value_column] or "").strip()
            if raw == "":
                continue
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"row {reader.line_num}: unparseable value {raw!r}"
                ) from None
            if not np.isfinite(value):
                raise ValueError(f"row {reader.line_num}: non-finite value {raw!r}")
            sums[day] = sums.get(day, 0.0) + value
            counts[day] = counts.get(day, 0) + 1

    if n_rows == 0 or span_min is None or span_max is None:
        raise ValueError(f"{path}: empty file")
    if len(sums) < 2:
        raise ValueError(f"{path}: fewer than 2 observed days")

    T = (span_max - span_min).days + 1
    values = np.zeros(T, dtype=np.float64)
    mask = np.zeros(T, dtype=np.uint8)
    for day, total in sums.items():
        pos = (day - span_min).days
        values[pos] = total / counts[day]
        mask[pos] = 1

    return ObservedSeries(values, mask, span_min)


def series_columns(series: ObservedSeries, name: str) -> dict[str, list[str]]:
    """The ``date`` column of ``series``'s grid and its values under ``name``,
    with full round-trip precision and blank on days without an observation."""
    start = np.datetime64(series.t0, "D")
    return {
        "date": np.arange(start, start + len(series)).astype(str).tolist(),
        name: [repr(v) if m else ""
               for v, m in zip(series.values.tolist(), series.mask.tolist())],
    }


def write_csv(path: str | Path, columns: dict[str, list[str]]) -> None:
    """Write equal-length string columns under their names; lines end in LF alone."""
    rows = map(",".join, zip(*columns.values(), strict=True))
    Path(path).write_text("\n".join([",".join(columns), *rows]) + "\n")


def write_canonical_csv(series: ObservedSeries, path: str) -> None:
    """Write the series as ``date,value,observed`` rows, one per grid day.

    Observed values are written with full round-trip precision; missing
    days get an empty value field. Ingesting the file reproduces the
    series bit for bit.
    """
    write_csv(path, {**series_columns(series, "value"),
                     "observed": [str(m) for m in series.mask.tolist()]})
