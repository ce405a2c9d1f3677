"""Shared fixtures and small builders for the test suite."""

from __future__ import annotations

import datetime as dt
import tracemalloc

import numpy as np
import pytest

from gaptrend import ObservedSeries

T0 = dt.date(2000, 1, 1)


def make_series(values, mask=None, t0=T0) -> ObservedSeries:
    values = np.asarray(values, dtype=np.float64)
    if mask is None:
        mask = np.ones(values.shape[0], dtype=np.uint8)
    return ObservedSeries(values, np.asarray(mask, dtype=np.uint8), t0)


def random_masked_series(rng, n_time, observed_fraction=0.6, scale=1.0):
    mask = (rng.random(n_time) < observed_fraction).astype(np.uint8)
    # Keep the container invariant satisfied on sparse draws.
    mask[0] = mask[-1] = 1
    values = rng.normal(0.0, scale, n_time)
    return make_series(values, mask)


def gappy_series(rng, T, observed_fraction, gaps=(), singles=(), decimals=None):
    """Random series with unobserved stretches, lone observed days inside them, and
    values rounded to ``decimals`` (many ties) when given."""
    mask = (rng.random(T) < observed_fraction).astype(np.uint8)
    for lo, hi in gaps:
        mask[lo:hi] = 0
    mask[list(singles)] = 1
    mask[0] = mask[-1] = 1
    values = 2.0 + np.sin(np.arange(T) / 200.0) + rng.normal(0.0, 0.3, T)
    if decimals is not None:
        values = np.round(values, decimals)
    return make_series(values, mask)


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class ScanCalls(dict):
    """``init`` and ``scan`` counts, with the columns of each scan's block
    in ``columns``, an attribute beside the two keys, so a test comparing
    the whole dict reads the counts alone."""

    columns: list


@pytest.fixture
def scan_calls(monkeypatch):
    """``BreakScan`` constructions made during a test, and the rows of the
    block each scan read, one entry per scan; ``scan_calls.columns`` holds
    each block's column count."""
    from gaptrend.breaktrend import BreakScan

    calls = ScanCalls(init=0, scan=[])
    calls.columns = []
    init, scan = BreakScan.__init__, BreakScan.scan

    def counted_init(*args, **kwargs):
        calls["init"] += 1
        return init(*args, **kwargs)

    def counted_scan(self, y, *args, **kwargs):
        calls["scan"].append(y.shape[0])
        calls.columns.append(y.shape[1])
        return scan(self, y, *args, **kwargs)

    monkeypatch.setattr(BreakScan, "__init__", counted_init)
    monkeypatch.setattr(BreakScan, "scan", counted_scan)
    return calls


@pytest.fixture
def multiplier_draws(monkeypatch):
    """The replicate ids of each multiplier draw made during a test, one
    list per call."""
    from gaptrend import awb

    calls = []
    draw = awb.draw_multipliers

    def counted(cfg, days, ids):
        calls.append(list(ids))
        return draw(cfg, days, ids)

    monkeypatch.setattr(awb, "draw_multipliers", counted)
    return calls


def replicate_budget(draws, scans, n_boot, n_time):
    """Each of ``n_boot`` replicates drawn once and scanned once, after the
    fit's own one-row scan, in blocks of ``awb.block_size(n_time)`` ids:
    ceil(B / k) draws, and as many scans after the fit's."""
    from gaptrend.awb import block_size

    n_blocks = -(-n_boot // block_size(n_time))
    assert sorted(b for ids in draws for b in ids) == list(range(n_boot))
    assert len(draws) == n_blocks
    assert (scans[0], sum(scans), len(scans)) == (1, n_boot + 1, n_blocks + 1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
