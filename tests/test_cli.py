"""Command-line interface: exit codes, artifacts, and byte determinism."""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest

import gaptrend
from gaptrend.cli import _load_config, cli, load_fit_artifact, run

from conftest import replicate_budget


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    """V-shaped series with seasonality, gaps, and an interior minimum."""
    rng = np.random.default_rng(12)
    T = 420
    t = np.arange(1, T + 1, dtype=float)
    trend = 5.0 - 0.02 * t + 0.045 * np.maximum(0.0, t - 220)
    year = 2000.0 + (t - 1) / 365.25
    seasonal = 0.7 * np.cos(2 * np.pi * year) + 0.2 * np.sin(4 * np.pi * year)
    values = trend + seasonal + rng.normal(0, 0.35, T)
    mask = rng.random(T) < 0.65
    mask[[0, -1]] = True
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        d0 = dt.date(2000, 1, 1)
        for i in range(T):
            if mask[i]:
                writer.writerow([(d0 + dt.timedelta(days=i)).isoformat(), repr(float(values[i]))])
    return str(path)


@pytest.fixture(scope="module")
def fit_json(toy_csv, tmp_path_factory):
    """Trend-fit artifact of the toy series from `smooth`."""
    out = tmp_path_factory.mktemp("fit")
    assert run(["--out", str(out), "smooth", "--input", toy_csv, "--bandwidth", "0.08",
                "--B", "9"]) == 0
    return str(out / "trend_fit.json")


@pytest.fixture(scope="module")
def bootstrap_reports(toy_csv, fit_json, tmp_path_factory):
    """The report parameters of every command with --B but mc, on the toy series."""
    out = tmp_path_factory.mktemp("bootstrap")
    commands = {"break": ["--input", toy_csv, "--theta", "0.2"],
                "smooth": ["--input", toy_csv, "--bandwidth", "0.08"],
                "extremum": ["--fit", fit_json], "lintest": ["--fit", fit_json],
                "monotest": ["--fit", fit_json]}
    reports = {}
    for name, args in commands.items():
        assert run(["--out", str(out), name, *args, "--B", "9"]) == 0
        reports[name] = json.loads((out / f"{name}_report.json").read_text())["parameters"]
    return reports


def read(path):
    return path.read_bytes()


def write_draw_csv(path, draw):
    """Observed days of a simulated series as a date,value CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for i in np.flatnonzero(draw.mask):
            writer.writerow([draw.date_at(i + 1).isoformat(), repr(float(draw.values[i]))])
    return str(path)


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_missing_input(self, tmp_path):
        assert run(["--out", str(tmp_path), "break", "--input", "nope.csv"]) == 2

    def test_bad_parameter(self, toy_csv, tmp_path):
        rc = run(["--out", str(tmp_path), "break", "--input", toy_csv, "--lambda", "0.9",
                  "--B", "9"])
        assert rc == 2

    def test_fewer_days_than_parameters(self, tmp_path, capsys):
        # Four observed days: too few for either command's design, which is
        # bad input (exit 2), not a numerical failure.
        path = tmp_path / "four.csv"
        path.write_text("date,value\n2000-01-01,1.0\n2000-03-01,2.0\n"
                        "2000-06-01,1.5\n2000-12-31,3.0\n")
        for command, option, n_params in (("break", ["--B", "9"], 9),
                                          ("smooth", ["--bandwidth", "0.1"], 6)):
            assert run(["--out", str(tmp_path / command), command, "--input", str(path),
                        *option]) == 2
            assert f"need more than {n_params} observed points, have 4" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["after", "before"])
    def test_no_observed_day_beside_the_candidates(self, side, tmp_path, capsys):
        # 300 observed days and one empty-valued row 3700 days away: every
        # candidate of the default trimming set has no observed day on one
        # side. That is a trimming choice the data cannot carry (exit 2),
        # like one with a few days there, not a numerical failure.
        d0 = dt.date(2000, 1, 1)
        days = [(d0 + dt.timedelta(days=i)).isoformat() for i in range(4000)]
        observed, empty = (days[:300], days[-1]) if side == "after" else (days[-300:], days[0])
        rows = sorted([f"{day},{1.0 + 0.01 * i}" for i, day in enumerate(observed)]
                      + [f"{empty},"])
        path = tmp_path / "edge.csv"
        path.write_text("date,value\n" + "\n".join(rows) + "\n")
        assert run(["--out", str(tmp_path), "break", "--input", str(path), "--B", "9"]) == 2
        assert "increase the trimming fraction" in capsys.readouterr().err

    def test_smooth_requires_bandwidth_decision(self, toy_csv, tmp_path):
        rc = run(["--out", str(tmp_path), "smooth", "--input", toy_csv, "--B", "19"])
        assert rc == 2
        assert (tmp_path / "mcv_scores.csv").exists()  # curve still written

    def test_mcv_grid_needs_positive_step(self, toy_csv, tmp_path):
        for grid in ("0.05:0.1:0", "0.05:0.1:-0.01"):
            assert run(["--out", str(tmp_path), "smooth", "--input", toy_csv,
                        "--mcv-grid", grid]) == 2

    def test_level_outside_unit_interval(self, toy_csv, tmp_path):
        out = str(tmp_path)
        smooth = ["--out", out, "smooth", "--input", toy_csv, "--bandwidth", "0.08", "--B", "19"]
        assert run(smooth) == 0
        fit = str(tmp_path / "trend_fit.json")
        for level in ("1.2", "0", "1"):
            assert run(smooth + ["--level", level]) == 2
            assert run(["--out", out, "break", "--input", toy_csv, "--B", "9",
                        "--level", level]) == 2
            assert run(["--out", out, "extremum", "--fit", fit, "--B", "9",
                        "--level", level]) == 2

    def test_out_of_range_values_fail_before_any_output(self, toy_csv, fit_json, tmp_path):
        # Every --level, --alpha, --theta, --B, --replications, --lambda,
        # --fourier, --mcv-k and --pick-minimum of every subcommand, found by
        # walking the group.
        bad_values = {"level": ("0", "1", "1.2"), "alpha": ("0", "1", "1.2"),
                      "theta": ("0", "1", "1.2"), "n_boot": ("0",), "replications": ("0",),
                      "pick_minimum": ("-1",), "n_harmonics": ("-1",), "mcv_k": ("-1",),
                      "trim_fraction": ("0", "0.5")}
        required = {"input_path": ["--input", toy_csv], "fit_path": ["--fit", fit_json],
                    "panel": ["--panel", "A"]}
        checked = set()
        for name, command in cli.commands.items():
            params = [p for p in command.params if p.name in bad_values]
            if not params:
                continue
            args = [a for p in command.params if p.required for a in required[p.name]]
            for param in params:
                for value in bad_values[param.name]:
                    out = tmp_path / f"{name}-{param.name}-{value}"
                    assert run(["--out", str(out), name, *args, param.opts[0], value]) == 2
                    assert list(out.iterdir()) == [], (name, param.name, value)
                checked.add((name, param.name))
        assert {("break", "level"), ("break", "alpha"), ("break", "theta"), ("smooth", "level"),
                ("extremum", "level"), ("lintest", "alpha"), ("monotest", "alpha"),
                ("break", "n_boot"), ("smooth", "n_boot"), ("extremum", "n_boot"),
                ("lintest", "n_boot"), ("monotest", "n_boot"), ("mc", "n_boot"),
                ("mc", "replications"), ("smooth", "pick_minimum"), ("break", "n_harmonics"),
                ("smooth", "n_harmonics"), ("smooth", "mcv_k"), ("break", "trim_fraction")
                } <= checked
        for bandwidth in ("0", "-0.1"):
            out = tmp_path / f"bandwidth{bandwidth}"
            assert run(["--out", str(out), "smooth", "--input", toy_csv,
                        "--bandwidth", bandwidth]) == 2
            assert list(out.iterdir()) == []

    def test_monotest_refuses_a_trend_minimum_on_the_last_day(self, tmp_path, capsys):
        # A falling series: the tail window, from the trend minimum to the
        # end, would hold the last day alone.
        T = 800
        rng = np.random.default_rng(3)
        mask = (rng.random(T) < 0.6).astype(np.uint8)
        mask[[0, -1]] = 1
        values = -0.01 * np.arange(T) + rng.normal(0.0, 0.3, T)
        falling = gaptrend.ObservedSeries(values, mask, dt.date(2000, 1, 1))
        data = write_draw_csv(tmp_path / "falling.csv", falling)
        base = ["--out", str(tmp_path), "--seed", "1"]
        assert run(base + ["smooth", "--input", data, "--bandwidth", "0.08", "--B", "9"]) == 0
        fit = str(tmp_path / "trend_fit.json")
        assert gaptrend.trend_minimum(load_fit_artifact(fit)) == T
        for command in ("monotest", "lintest"):  # one rule, one cause
            capsys.readouterr()
            assert run(base + [command, "--fit", fit, "--B", "49"]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: trend minimum at the sample end (day {T})"), command
            assert not (tmp_path / f"{command}_report.json").exists()
        assert run(base + ["monotest", "--fit", fit, "--B", "49",
                           "--interval", "2001-06-01:2002-03-10"]) == 0

    @pytest.mark.parametrize("section, key", [(None, None), ("series", "values"), ("fit", "h")],
                             ids=["json_list", "no_series_values", "no_fit_h"])
    def test_malformed_fit_artifact(self, section, key, fit_json, tmp_path, capsys):
        # Each names the file and exits 2, like any other invalid input.
        payload = json.loads(Path(fit_json).read_text())
        if section is None:
            payload = [payload]
        else:
            del payload[section][key]
        bad = tmp_path / "bad_fit.json"
        bad.write_text(json.dumps(payload))
        for command in ("extremum", "lintest", "monotest"):
            capsys.readouterr()
            assert run(["--out", str(tmp_path / command), command, "--fit", str(bad),
                        "--B", "9"]) == 2, command
            assert str(bad) in capsys.readouterr().err, command

    def test_threads_below_one(self, toy_csv, tmp_path):
        for threads in ("0", "-3"):
            assert run(["--out", str(tmp_path), "--threads", threads, "ingest",
                        "--input", toy_csv]) == 2

    def test_ingest_ok(self, toy_csv, tmp_path):
        # The report's values are read off the ingested series itself.
        assert run(["--out", str(tmp_path), "ingest", "--input", toy_csv]) == 0
        res = json.loads((tmp_path / "ingest_report.json").read_text())["results"]
        assert res["n_grid"] == 420
        assert (tmp_path / "canonical.csv").exists()
        series = gaptrend.ingest_csv(toy_csv)
        assert res == {
            "n_grid": len(series),
            "n_observed": series.n_observed,
            "observed_fraction": series.observed_fraction,
            "first_date": series.t0.isoformat(),
            "last_date": series.date_at(len(series)).isoformat(),
            "canonical_csv": "canonical.csv",
        }


class TestArtifacts:
    def test_smooth_then_shape_commands(self, toy_csv, tmp_path):
        base = ["--out", str(tmp_path), "--seed", "5"]
        assert run(base + ["smooth", "--input", toy_csv, "--bandwidth", "0.08",
                           "--B", "29"]) == 0
        rep = json.loads((tmp_path / "smooth_report.json").read_text())
        assert 0.0 < rep["results"]["simultaneous_joint_coverage"] <= 1.0
        fit_path = tmp_path / "trend_fit.json"
        fit = load_fit_artifact(str(fit_path))
        assert fit.h == 0.08
        assert len(fit.series) == 420

        assert run(base + ["extremum", "--fit", str(fit_path), "--B", "29"]) == 0
        rep = json.loads((tmp_path / "extremum_report.json").read_text())
        assert rep["results"]["ci_dates"][0] <= rep["results"]["location_date"]

        assert run(base + ["lintest", "--fit", str(fit_path), "--B", "29"]) == 0
        rep = json.loads((tmp_path / "lintest_report.json").read_text())
        assert 0.0 < rep["results"]["p_ave"] <= 1.0

        assert run(base + ["monotest", "--fit", str(fit_path), "--B", "29"]) == 0
        rep = json.loads((tmp_path / "monotest_report.json").read_text())
        assert rep["results"]["h_u"] == pytest.approx(0.5 * 420 ** (-0.2))

    def test_svg_skips_plot_without_finite_points(self, toy_csv, tmp_path):
        # Every leave-out window of this grid is empty at T=420, so no CV
        # score is finite; the given bandwidth still makes the bands.
        args = ["smooth", "--input", toy_csv, "--mcv-grid", "0.01:0.02:0.005",
                "--bandwidth", "0.1", "--B", "19"]
        assert run(["--out", str(tmp_path / "plain")] + args) == 0
        assert run(["--out", str(tmp_path / "svg")] + args + ["--svg"]) == 0
        assert read(tmp_path / "svg" / "trend_bands.csv") == read(
            tmp_path / "plain" / "trend_bands.csv")
        assert (tmp_path / "svg" / "trend_bands.svg").exists()
        assert not (tmp_path / "svg" / "mcv_scores.svg").exists()

    def test_smooth_report_lists_infinite_cv_scores(self, toy_csv, tmp_path):
        # At T=420 the default leave-out half-width is 14, so every leave-out
        # window of h <= 0.03 is empty, and none of h = 0.05 is.
        args = ["--out", str(tmp_path), "smooth", "--input", toy_csv,
                "--mcv-grid", "0.01:0.05:0.01", "--bandwidth", "0.1", "--B", "19"]
        with pytest.warns(UserWarning, match="empty leave-out") as caught:
            assert run(args) == 0
        rep = json.loads((tmp_path / "smooth_report.json").read_text())["results"]
        with open(tmp_path / "mcv_scores.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        inf = [float(row["bandwidth"]) for row in rows if row["score"] == "inf"]
        assert rep["mcv_inf_score_bandwidths"] == inf == pytest.approx([0.01, 0.02, 0.03])
        assert sum("empty leave-out" in str(w.message) for w in caught) == len(inf)

    def test_monotest_interval_parsing(self, toy_csv, tmp_path):
        base = ["--out", str(tmp_path), "--seed", "5"]
        assert run(base + ["smooth", "--input", toy_csv, "--bandwidth", "0.08",
                           "--B", "19"]) == 0
        fit_path = str(tmp_path / "trend_fit.json")
        assert run(base + ["monotest", "--fit", fit_path, "--B", "19",
                           "--interval", "2000-06-01:2001-01-01"]) == 0
        assert run(base + ["monotest", "--fit", fit_path, "--B", "19",
                           "--interval", "junk"]) == 2

    def test_break_report_content(self, toy_csv, tmp_path):
        assert run(["--out", str(tmp_path), "--seed", "3", "break", "--input", toy_csv,
                    "--B", "49"]) == 0
        rep = json.loads((tmp_path / "break_report.json").read_text())
        res = rep["results"]
        assert res["break_ci"][0] <= res["break_date"] <= res["break_ci"][1]
        assert "slope_before" in res["slopes_per_year"]
        assert res["break_candidates_skipped"] == 0
        rows = (tmp_path / "break_trend.csv").read_text().splitlines()
        assert rows[0] == "date,observed,trend,trend_plus_seasonal"
        assert len(rows) == 421

    def test_weak_break_interval_stays_within_the_record(self, tmp_path):
        # A T=666 panel A draw with 70% missing and no break. The basic
        # interval runs past the record: before its start without
        # harmonics, after its end with three.
        from gaptrend.mcharness import panel_cells, simulate_series

        draw = simulate_series(panel_cells("A", 2, 99, 1)[3], 0)
        data = write_draw_csv(tmp_path / "weak.csv", draw)
        first, last = draw.date_at(1).isoformat(), draw.date_at(len(draw)).isoformat()
        for fourier in ("0", "3"):
            assert run(["--out", str(tmp_path), "--seed", "1", "break", "--input", data,
                        "--fourier", fourier, "--B", "99"]) == 0
            res = json.loads((tmp_path / "break_report.json").read_text())["results"]
            lower, upper = res["break_ci"]
            assert first <= lower <= res["break_date"] <= upper <= last
            assert res["break_ci_clipped"]
            basic_lower, basic_upper = res["break_ci_basic_indices"]
            assert basic_lower < 1 or basic_upper > len(draw)

    def test_break_scans_its_design_once(self, toy_csv, tmp_path, scan_calls,
                                         multiplier_draws):
        # One scan of the observed series, then one per replicate, whose
        # sums give the replicate under the no-break and the broken fit;
        # the 420-day series runs its 19 replicates as one block.
        assert run(["--out", str(tmp_path), "break", "--input", toy_csv, "--B", "19"]) == 0
        assert scan_calls["init"] == 1
        replicate_budget(multiplier_draws, scan_calls["scan"], 19, 420)

    def test_break_reports_skipped_candidates(self, toy_csv, tmp_path, monkeypatch):
        # A hinge counts as unidentified when its Schur complement falls
        # below a tolerance times its norm; raised to 1e-3, the tolerance
        # leaves out some of the toy series' candidates.
        from gaptrend import breaktrend, ingest_csv, trimming_set

        monkeypatch.setattr(breaktrend, "_SCHUR_RTOL", 1e-3)
        series = ingest_csv(toy_csv)
        with pytest.warns(UserWarning, match="skipped") as caught:
            scan = breaktrend.estimate_break(series, trimming_set(len(series))).scan
        assert 0 < scan.n_skipped < scan.candidates.size
        assert str(caught[0].message).startswith(f"{scan.n_skipped} break candidate(s)")
        assert caught[0].filename == __file__
        with pytest.warns(UserWarning, match="skipped"):
            assert run(["--out", str(tmp_path), "break", "--input", toy_csv, "--B", "9"]) == 0
        res = json.loads((tmp_path / "break_report.json").read_text())["results"]
        assert res["break_candidates_skipped"] == scan.n_skipped

    def test_break_slope_intervals_use_lambda(self, tmp_path):
        from gaptrend import AwbConfig, estimate_break, ingest_csv, slope_cis, trimming_set
        from gaptrend.mcharness import LinearTrendSpec, McDesign, simulate_series

        design = McDesign(n_time=666, sigma_eta=26.0, seed=5,
                          trend=LinearTrendSpec(4000.0, -0.5, 0.1, 0.6, "grid"))
        data = write_draw_csv(tmp_path / "draw.csv", simulate_series(design, 0))
        assert run(["--out", str(tmp_path), "--seed", "5", "break", "--input", data,
                    "--lambda", "0.3", "--fourier", "0", "--B", "199"]) == 0
        reported = json.loads((tmp_path / "break_report.json").read_text())
        reported = reported["results"]["slopes_per_year"]["slope_change"]["ci"]

        series = ingest_csv(data)
        trim = trimming_set(len(series), 0.3)
        fit = estimate_break(series, trim, n_harmonics=0)
        cfg = AwbConfig(seed=5, n_boot=199)

        def change_ci(cis):
            ci = cis.per_year()["slope_change"]
            return [ci.lower, ci.upper]

        assert reported == change_ci(slope_cis(fit, cfg))
        default_fit = estimate_break(series, n_harmonics=0)
        assert reported != change_ci(slope_cis(default_fit, cfg))

    def test_every_report_names_its_inputs(self, toy_csv, fit_json, tmp_path):
        # Walk the group: each report names its --input or --fit file (mc has
        # neither) with the file's SHA-256, the date and value columns read
        # from an --input CSV, and carries B and the seed exactly when its
        # command has --B.
        renamed = tmp_path / "renamed.csv"
        lines = Path(toy_csv).read_text().splitlines()
        renamed.write_text("\n".join(["day,level", *lines[1:]]) + "\n")
        files = {"input_path": ("input", str(renamed)), "fit_path": ("fit", fit_json)}
        reported = set()
        for name, command in cli.commands.items():
            params = {p.name: p for p in command.params}
            sources = params.keys() & files.keys()
            if sources:
                (source,) = sources
                key, path = files[source]
                args = [params[source].opts[0], path]
            else:
                key, args = None, ["--panel", "B", "--replications", "1"]
            if key == "input":
                args += ["--date-column", "day", "--value-column", "level"]
            if "n_boot" in params:
                args += ["--B", "9"]
            if name == "smooth":
                args += ["--bandwidth", "0.08"]
            out = tmp_path / name
            assert run(["--out", str(out), "--seed", "4", name, *args]) == 0
            report = json.loads((out / f"{name}_report.json").read_text())
            par = report["parameters"]
            assert report["command"] == name
            if key is not None:
                assert par[key] == Path(path).name
                assert par[f"{key}_sha256"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
            others = {"input", "fit"} - {key}
            assert not {k for o in others for k in (o, f"{o}_sha256")} & par.keys()
            columns = {k: par[k] for k in ("date_column", "value_column") if k in par}
            assert columns == ({"date_column": "day", "value_column": "level"}
                               if key == "input" else {})
            if "n_boot" in params:
                assert (par["B"], par["seed"]) == (9, 4)
            else:
                assert not {"B", "seed"} & par.keys()
            reported.add(name)
        assert reported == set(cli.commands)

    def test_reports_give_the_multiplier_gamma(self, bootstrap_reports):
        # Oracle: theta^(1 / (1.75 T^(1/3))) on the 420-day toy series, at
        # the default theta and at break's --theta.
        for name, par in bootstrap_reports.items():
            theta = 0.2 if name == "break" else 0.1
            assert par["gamma"] == pytest.approx(theta ** (1.0 / (1.75 * 420 ** (1 / 3))),
                                                 rel=1e-14), name

    def test_reports_give_the_dependence_length(self, bootstrap_reports):
        for name, par in bootstrap_reports.items():
            assert par["dependence_length"] == pytest.approx(1.75 * 420 ** (1 / 3), rel=1e-14)

    def test_p_values_carry_their_monte_carlo_error(self, toy_csv, fit_json, tmp_path):
        # sqrt(p (1 - p) / B) of each p-value, from the report's own p and B.
        found = set()
        for name, args in (("break", ["--input", toy_csv]), ("lintest", ["--fit", fit_json]),
                           ("monotest", ["--fit", fit_json])):
            assert run(["--out", str(tmp_path), name, *args, "--B", "19"]) == 0
            report = json.loads((tmp_path / f"{name}_report.json").read_text())
            B, res = report["parameters"]["B"], report["results"]
            for key in [k for k in res if k.endswith("_mc_se")]:
                p = res[key.removesuffix("_mc_se")]
                assert res[key] == pytest.approx(math.sqrt(p * (1.0 - p) / B), rel=1e-14)
                found.add(key)
        assert found == {"p_value_mc_se", "p_ave_mc_se", "p_sup_mc_se", "p1_mc_se", "p2_mc_se"}

    def test_mc_panel_table(self, tmp_path):
        assert run(["--out", str(tmp_path), "--seed", "1", "mc", "--panel", "B",
                    "--replications", "2", "--B", "19"]) == 0
        table = (tmp_path / "panel_B.csv").read_text().splitlines()
        assert table[0].startswith("panel,T,missing")
        assert len(table) > 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mc_report.json", "panel_B.csv"]
        report = json.loads((tmp_path / "mc_report.json").read_text())
        assert report["command"] == "mc"
        assert report["parameters"] == {"panel": "B", "replications": 2, "B": 19, "seed": 1}
        assert report["results"] == {"table": "panel_B.csv"}

    def test_every_csv_has_newline_line_ends(self, toy_csv, tmp_path):
        base = ["--out", str(tmp_path), "--seed", "2"]
        assert run(base + ["ingest", "--input", toy_csv]) == 0
        assert run(base + ["break", "--input", toy_csv, "--B", "9"]) == 0
        assert run(base + ["smooth", "--input", toy_csv, "--bandwidth", "0.08", "--B", "9"]) == 0
        assert run(base + ["mc", "--panel", "B", "--replications", "1", "--B", "19"]) == 0
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert written == ["break_trend.csv", "canonical.csv", "mcv_scores.csv", "panel_B.csv",
                           "trend_bands.csv"]
        for name in written:
            data = read(tmp_path / name)
            assert b"\r" not in data, name
            assert data.endswith(b"\n") and data.count(b"\n") == len(data.splitlines()), name

    def test_fit_artifact_with_grid_step_key_still_loads(self, fit_json, tmp_path):
        # Older versions wrote the series' grid step into the artifact.
        payload = json.loads(Path(fit_json).read_text())
        assert "grid_step" not in payload["series"]
        payload["series"]["grid_step"] = 1.0 / 365.25
        old = tmp_path / "old" / "trend_fit.json"
        old.parent.mkdir()
        old.write_text(json.dumps(payload, sort_keys=True) + "\n")
        results = []
        for i, fit in enumerate((fit_json, str(old))):
            out = tmp_path / f"run{i}"
            assert run(["--out", str(out), "--seed", "3", "extremum", "--fit", fit,
                        "--B", "19"]) == 0
            results.append(json.loads((out / "extremum_report.json").read_text())["results"])
        assert results[0] == results[1]
        fit, old_fit = load_fit_artifact(fit_json), load_fit_artifact(str(old))
        eps, old_eps = fit.series, old_fit.series
        assert old_eps.t0 == eps.t0 and np.array_equal(old_eps.mask, eps.mask)
        assert np.array_equal(old_eps.values, eps.values)
        assert np.array_equal(old_fit.g_hat, fit.g_hat, equal_nan=True) and old_fit.h == fit.h

    def test_reloaded_fit_reproduces_the_written_trend(self, fit_json, tmp_path):
        # The loader re-estimates the trend from the artifact's series and
        # bandwidth; the g_hat it stores is never read.
        payload = json.loads(Path(fit_json).read_text())
        written = np.array([np.nan if v is None else v for v in payload["fit"]["g_hat"]])
        fit = load_fit_artifact(fit_json)
        assert np.array_equal(fit.g_hat, written, equal_nan=True)
        payload["fit"]["g_hat"] = [None] * len(written)
        blank = tmp_path / "trend_fit.json"
        blank.write_text(json.dumps(payload, sort_keys=True) + "\n")
        reloaded = load_fit_artifact(str(blank))
        assert np.array_equal(reloaded.g_hat, fit.g_hat, equal_nan=True)
        assert reloaded.h == fit.h and np.array_equal(reloaded.series.values, fit.series.values)

    def test_smooth_builds_two_smoothers(self, toy_csv, tmp_path, monkeypatch):
        # One at the fit's bandwidth, for the trend and every replicate, and
        # one at the pilot bandwidth.
        from gaptrend import kerneltrend

        built = []
        build = kerneltrend.nw_smoother

        def counted(mask, h):
            built.append(h)
            return build(mask, h)

        monkeypatch.setattr(kerneltrend, "nw_smoother", counted)
        assert run(["--out", str(tmp_path), "smooth", "--input", toy_csv, "--bandwidth", "0.08",
                    "--B", "9"]) == 0
        assert built == [0.08, kerneltrend.pilot_bandwidth(0.08)]

    def test_mc_runs_serially_at_any_thread_count(self, tmp_path, monkeypatch):
        # The panel series are too short for a replicate pool to pay off.
        def no_pool(*_args, **_kwargs):
            raise AssertionError("mc started a thread pool")

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
        assert run(["--out", str(tmp_path), "--threads", "2", "mc", "--panel", "B",
                    "--replications", "1", "--B", "19"]) == 0

    def test_config_file_defaults(self, toy_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("smooth.bandwidth = 0.08\nsmooth.B = 19\n")
        out = tmp_path / "out"
        rc = run(["--config", str(cfg), "--out", str(out), "smooth", "--input", toy_csv])
        assert rc == 0
        rep = json.loads((out / "smooth_report.json").read_text())
        assert rep["parameters"]["bandwidth"] == 0.08
        assert rep["parameters"]["B"] == 19


class TestConfig:
    def write(self, tmp_path, *lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\n" + "".join(f"{line}\n" for line in lines))
        return str(cfg)

    def test_every_flag_is_a_key(self, tmp_path):
        # Walk every option of the group and of every subcommand: the key is
        # the flag without its dashes and sets the parameter behind it.
        commands = {None: cli, **cli.commands}
        lines, expected = [], {}
        for name, command in commands.items():
            for param in command.params:
                if param.name == "config":
                    continue
                for opt in param.opts:
                    key = opt.removeprefix("--") if name is None else f"{name}.{opt[2:]}"
                    lines.append(f"{key} = {key}!")
                    target = expected if name is None else expected.setdefault(name, {})
                    target[param.name] = f"{key}!"
        assert {"break.B", "break.lambda", "break.fourier", "break.input", "smooth.date-column",
                "extremum.fit", "smooth.svg", "seed"} <= {line.split(" = ")[0] for line in lines}
        ctx = click.Context(cli)
        _load_config(ctx, None, self.write(tmp_path, *lines))
        assert ctx.default_map == expected

    def test_keys_reach_the_report(self, toy_csv, tmp_path):
        cfg = self.write(tmp_path, "seed = 4", "break.fourier = 1", "break.lambda = 0.2",
                         "break.B = 9", f"break.input = {toy_csv}")
        assert run(["--config", cfg, "--out", str(tmp_path), "break"]) == 0
        par = json.loads((tmp_path / "break_report.json").read_text())["parameters"]
        assert (par["seed"], par["fourier"], par["lambda"], par["B"]) == (4, 1, 0.2, 9)
        assert par["input"] == Path(toy_csv).name

    def test_key_supplies_a_required_flag(self, fit_json, tmp_path):
        cfg = self.write(tmp_path, f"extremum.fit = {fit_json}", "extremum.B = 9")
        assert run(["--config", cfg, "--out", str(tmp_path), "extremum"]) == 0
        par = json.loads((tmp_path / "extremum_report.json").read_text())["parameters"]
        assert (par["fit"], par["B"]) == ("trend_fit.json", 9)

    @pytest.mark.parametrize("key", ["break.lamda", "brake.B", "lamda", "break.B.x",
                                     "break.n_boot", "smooth.no-svg", "config", "break.help"])
    def test_unknown_key_exits_2(self, key, toy_csv, tmp_path, capsys):
        cfg = self.write(tmp_path, f"{key} = 1")
        out = tmp_path / "out"
        assert run(["--config", cfg, "--out", str(out), "break", "--input", toy_csv]) == 2
        assert f"{cfg}:2: unknown config key '{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_reports_byte_identical_across_runs_and_threads(self, toy_csv, tmp_path):
        outs = [tmp_path / f"run{i}" for i in range(3)]
        threads = ["1", "1", "4"]
        for out, th in zip(outs, threads):
            base = ["--out", str(out), "--seed", "7", "--threads", th]
            assert run(base + ["ingest", "--input", toy_csv]) == 0
            assert run(base + ["break", "--input", toy_csv, "--B", "39"]) == 0
            assert run(base + ["smooth", "--input", toy_csv, "--bandwidth", "0.08",
                               "--B", "39", "--svg"]) == 0
            fit = str(out / "trend_fit.json")
            assert run(base + ["extremum", "--fit", fit, "--B", "39"]) == 0
            assert run(base + ["lintest", "--fit", fit, "--B", "39"]) == 0
            assert run(base + ["monotest", "--fit", fit, "--B", "39"]) == 0
            assert run(base + ["mc", "--panel", "B", "--replications", "2", "--B", "19"]) == 0
        # Every file each run wrote, with no exclusions.
        listings = [sorted(p.name for p in out.iterdir()) for out in outs]
        assert listings[0] == listings[1] == listings[2]
        for name in listings[0]:
            blobs = [read(out / name) for out in outs]
            assert blobs[0] == blobs[1] == blobs[2], f"{name} differs across runs"
        assert {"canonical.csv", "trend_bands.svg", "mc_report.json", "panel_B.csv"} <= set(
            listings[0])

    def test_mc_prints_the_same_line_every_run(self, tmp_path, capsys):
        lines = []
        for i in range(2):
            assert run(["--out", str(tmp_path / f"run{i}"), "mc", "--panel", "A",
                        "--replications", "2", "--B", "19"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] == "panel A: 54 result rows -> panel_A.csv\n"

    def test_seed_changes_results(self, toy_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, seed in ((a, "7"), (b, "8")):
            assert run(["--out", str(out), "--seed", seed, "break", "--input", toy_csv,
                        "--B", "39"]) == 0
        ra = json.loads((a / "break_report.json").read_text())
        rb = json.loads((b / "break_report.json").read_text())
        assert ra["results"]["p_value"] != rb["results"]["p_value"] or (
            ra["results"]["break_ci"] != rb["results"]["break_ci"]
        )


def test_cli_import_loads_no_scipy():
    # Importing scipy costs about a second per call; the package must not.
    src = str(Path(gaptrend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, gaptrend.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
