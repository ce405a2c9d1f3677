"""Series container, CSV ingestion, and canonical round trip."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from gaptrend import (
    AwbConfig,
    ObservedSeries,
    break_test,
    estimate_break,
    fit_seasonal,
    ingest_csv,
    mcv_scan,
    nw_estimate,
    trimming_set,
    write_canonical_csv,
)

from gaptrend.series import GRID_STEP, series_columns

from conftest import make_series


def write_csv(path, rows, header="date,value"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return str(path)


class TestIngest:
    def test_duplicate_dates_average_and_gap_masked(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         ["2000-01-01,2.0", "2000-01-01,4.0", "2000-01-03,5.0"])
        series = ingest_csv(path)
        assert len(series) == 3
        assert series.mask.tolist() == [1, 0, 1]
        assert series.values[0] == 3.0
        assert series.values[2] == 5.0
        assert series.n_observed == 2

    def test_single_observed_day_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2000-01-01,2.0", "2000-01-01,4.0"])
        with pytest.raises(ValueError, match="fewer than 2 observed days"):
            ingest_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(str(path))
        path2 = write_csv(tmp_path / "header_only.csv", [])
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(path2)

    def test_unparseable_date_and_value(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["not-a-date,1.0", "2000-01-02,2.0"])
        with pytest.raises(ValueError, match="unparseable date"):
            ingest_csv(path)
        path = write_csv(tmp_path / "b.csv", ["2000-01-01,abc", "2000-01-02,2.0"])
        with pytest.raises(ValueError, match="unparseable value"):
            ingest_csv(path)
        path = write_csv(tmp_path / "c.csv", ["2000-01-01,inf", "2000-01-02,2.0"])
        with pytest.raises(ValueError, match="non-finite"):
            ingest_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2000-01-01,1.0"], header="day,value")
        with pytest.raises(ValueError, match="missing column"):
            ingest_csv(path)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        rows = ["2000-01-01,1.5", "2000-01-03,2.5"]
        plain = write_csv(tmp_path / "plain.csv", rows)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        expected = ingest_csv(plain)
        series = ingest_csv(str(bom))
        assert series.mask.tolist() == expected.mask.tolist() == [1, 0, 1]
        assert series.values.tolist() == expected.values.tolist()
        assert series.t0 == expected.t0

    def test_sub_daily_timestamps_collapse_to_date(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         ["2000-01-01T06:00:00,2.0", "2000-01-01 18:30:00,4.0",
                          "2000-01-02,1.0"])
        series = ingest_csv(path)
        assert len(series) == 2
        assert series.values[0] == 3.0

    def test_offset_timestamps_keep_the_local_date(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         ["2020-01-01T23:30:00-05:00,2.0", "2020-01-02T01:00:00+09:00,4.0",
                          "2020-01-03T12:00:00Z,6.0"])
        series = ingest_csv(path)
        assert series.t0 == dt.date(2020, 1, 1)
        assert series.date_at(len(series)) == dt.date(2020, 1, 3)
        assert series.values.tolist() == [2.0, 4.0, 6.0]

    def test_observed_count_equals_distinct_dates(self, tmp_path, rng):
        days = rng.choice(200, size=60, replace=False)
        rows = []
        for d in days:
            day = (dt.date(2001, 1, 1) + dt.timedelta(days=int(d))).isoformat()
            rows.append(f"{day},{rng.normal():.6f}")
            if rng.random() < 0.3:
                rows.append(f"{day},{rng.normal():.6f}")
        series = ingest_csv(write_csv(tmp_path / "a.csv", rows))
        assert series.n_observed == len(set(days))

    def test_station_shaped_file_observed_fraction(self, tmp_path, rng):
        # 2935 observed days spread over 1986-2019 gives roughly one day in four.
        start, end = dt.date(1986, 1, 1), dt.date(2019, 12, 31)
        n_grid = (end - start).days + 1
        picks = rng.choice(n_grid - 2, size=2933, replace=False) + 1
        days = sorted({0, n_grid - 1, *picks.tolist()})
        rows = [f"{(start + dt.timedelta(days=d)).isoformat()},1.0" for d in days]
        series = ingest_csv(write_csv(tmp_path / "big.csv", rows))
        assert (len(series), series.n_observed) == (n_grid, 2935)
        assert series.observed_fraction == 2935 / n_grid
        assert abs(series.observed_fraction - 0.25) < 0.03

    def test_custom_column_names(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2000-01-01,7.0", "2000-01-04,8.0"],
                         header="when,amount")
        series = ingest_csv(path, date_column="when", value_column="amount")
        assert len(series) == 4
        assert series.values[0] == 7.0


class TestCanonicalRoundTrip:
    def test_bit_for_bit(self, tmp_path, rng):
        mask = (rng.random(90) < 0.4).astype(np.uint8)
        mask[[0, -1]] = 1, 0  # trailing gap must survive the round trip
        mask[1] = 1
        series = make_series(rng.normal(0, 1e3, 90), mask)
        out = tmp_path / "canon.csv"
        write_canonical_csv(series, str(out))
        back = ingest_csv(str(out))
        assert back.t0 == series.t0
        assert np.array_equal(back.mask, series.mask)
        assert np.array_equal(back.values, series.values)

    def test_double_round_trip_identical_bytes(self, tmp_path, rng):
        series = make_series(rng.normal(size=30), (rng.random(30) < 0.7).astype(np.uint8) | 0)
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_canonical_csv(series, str(p1))
        back = ingest_csv(str(p1))
        write_canonical_csv(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


    def test_exact_bytes(self, tmp_path):
        # One row per grid day, a blank value on a missing day, \n line ends.
        out = tmp_path / "canon.csv"
        write_canonical_csv(make_series([1.5, 99.0, 0.1], [1, 0, 1]), str(out))
        assert out.read_bytes() == (b"date,value,observed\n2000-01-01,1.5,1\n"
                                    b"2000-01-02,,0\n2000-01-03,0.1,1\n")


    @pytest.mark.parametrize("t0, n_time", [(dt.date(2011, 12, 20), 900),
                                             (dt.date(1999, 12, 31), 61),
                                             (dt.date(1986, 1, 1), 12000)])
    def test_date_column_is_the_grid_dates(self, t0, n_time):
        # Oracle: date_at on every position, over year ends and the leap
        # days of 2000 and 2012 (and, at 12000 days, those from 1988 to 2016).
        series = make_series(np.zeros(n_time), t0=t0)
        dates = series_columns(series, "value")["date"]
        assert dates == [series.date_at(i).isoformat() for i in range(1, n_time + 1)]
        assert all(type(d) is str for d in dates)


class TestContainer:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ObservedSeries(np.ones(3), np.ones(4), dt.date(2000, 1, 1))
        with pytest.raises(ValueError, match="0 or 1"):
            ObservedSeries(np.ones(3), np.array([1, 2, 1]), dt.date(2000, 1, 1))
        with pytest.raises(ValueError, match="at least 2 observed"):
            ObservedSeries(np.ones(3), np.array([1, 0, 0]), dt.date(2000, 1, 1))
        with pytest.raises(ValueError, match="at least 2 grid"):
            ObservedSeries(np.ones(1), np.ones(1), dt.date(2000, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            ObservedSeries(np.array([1.0, np.nan]), np.ones(2), dt.date(2000, 1, 1))

    def test_masked_sentinel_never_read(self):
        for placeholder in (99.0, np.nan, np.inf):
            series = make_series([1.0, placeholder, 3.0], [1, 0, 1])
            assert series.values.tolist() == [1.0, 0.0, 3.0]  # stored by the constructor

    def test_nan_placeholders_give_the_same_results(self):
        # Unobserved days marked with NaN must analyse like the 0.0 sentinel.
        rng = np.random.default_rng(3)
        T = 400
        mask = (rng.random(T) < 0.6).astype(np.uint8)
        mask[[0, -1]] = 1
        t = np.arange(1, T + 1)
        y = 2.0 - 0.01 * t + 0.02 * np.maximum(0, t - 250) + rng.normal(0, 0.3, T)
        zero, nan = (make_series(np.where(mask == 1, y, fill), mask) for fill in (0.0, np.nan))
        assert np.array_equal(nw_estimate(zero, 0.1).g_hat, nw_estimate(nan, 0.1).g_hat)
        grid = np.linspace(0.05, 0.3, 6)
        assert np.array_equal(mcv_scan(zero, grid).scores, mcv_scan(nan, grid).scores)
        assert np.array_equal(fit_seasonal(zero).fitted, fit_seasonal(nan).fitted)
        trim = trimming_set(T, 0.1)
        tests = [break_test(estimate_break(s, trim, n_harmonics=1), AwbConfig(seed=1, n_boot=19))
                 for s in (zero, nan)]
        assert np.isfinite(tests[0].statistic)
        assert tests[0].statistic == tests[1].statistic
        assert np.array_equal(tests[0].draws, tests[1].draws)

    def test_time_index(self):
        series = make_series(np.arange(4.0))
        calendar = series.calendar_years()
        assert np.all(np.diff(calendar) > 0)
        assert np.allclose(np.diff(calendar), GRID_STEP)
        assert np.allclose(np.diff(calendar) * 365.25, 1.0)

    def test_calendar_anchor(self):
        series = make_series(np.arange(3.0), t0=dt.date(2000, 1, 1))
        years = series.calendar_years()
        assert years[0] == pytest.approx(2000.0, abs=1e-9)

    def test_date_position_round_trip(self):
        series = make_series(np.arange(10.0))
        for t in (1, 4, 10):
            assert series.position_of(series.date_at(t)) == t
        for t in (0, -3, 11):
            with pytest.raises(ValueError, match="outside 1..10"):
                series.date_at(t)
