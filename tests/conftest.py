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


@pytest.fixture
def scan_calls(monkeypatch):
    """Counts of ``BreakScan`` constructions and scans made during a test."""
    from gaptrend.breaktrend import BreakScan

    counts = {"init": 0, "scan": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BreakScan, "__init__", counted("init", BreakScan.__init__))
    monkeypatch.setattr(BreakScan, "scan", counted("scan", BreakScan.scan))
    return counts


@pytest.fixture
def multiplier_draws(monkeypatch):
    """Replicate ids of the multiplier paths drawn during a test, one per draw."""
    from gaptrend import awb

    ids = []
    draw = awb.draw_multipliers

    def counted(cfg, days, replicate_id):
        ids.append(replicate_id)
        return draw(cfg, days, replicate_id)

    monkeypatch.setattr(awb, "draw_multipliers", counted)
    return ids


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
