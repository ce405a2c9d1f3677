"""The package's public names resolve, and the README's library quick start
runs as written."""

from __future__ import annotations

import csv
import datetime as dt
import re
from pathlib import Path

import numpy as np

import gaptrend

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def write_measurements(path: Path) -> None:
    """Three years of a V-shaped daily series with an annual cycle and gaps."""
    rng = np.random.default_rng(3)
    T = 1096
    t = np.arange(T, dtype=np.float64)
    trend = 10.0 - 0.01 * t + 0.02 * np.maximum(0.0, t - 600)
    values = trend + 1.5 * np.cos(2 * np.pi * t / 365.25) + rng.normal(0.0, 0.4, T)
    observed = rng.random(T) < 0.7
    observed[200:260] = False  # a two-month outage
    observed[[0, -1]] = True
    d0 = dt.date(2010, 1, 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for i in np.flatnonzero(observed):
            writer.writerow([(d0 + dt.timedelta(days=int(i))).isoformat(), repr(float(values[i]))])


def test_library_quick_start_runs(tmp_path, monkeypatch):
    write_measurements(tmp_path / "measurements.csv")
    monkeypatch.chdir(tmp_path)
    names: dict = {}
    exec(compile(quick_start_code(), str(README), "exec"), names)
    assert names["bands"].level == 0.95
    assert names["peaks"].shape == (names["cfg"].n_boot,)
    assert names["start"] <= names["series"].date_at(names["fit"].break_index)
    assert names["imposed"].break_index == 200
    assert names["null"].shape == (len(names["series"]),)
    assert 1 <= names["minimum"].location <= len(names["eps"])
    assert 0.0 < names["mono"].sign.p_value <= 1.0


def test_every_exported_name_resolves():
    assert [name for name in gaptrend.__all__ if not hasattr(gaptrend, name)] == []
    assert len(set(gaptrend.__all__)) == len(gaptrend.__all__)
