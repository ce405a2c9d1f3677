"""Command-line interface: exit codes, artifacts, and byte determinism."""

from __future__ import annotations

import ast
import csv
import datetime as dt
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaptrend
from gaptrend.cli import cli, load_fit_artifact, run


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
        # Every --level, --alpha, --B and --replications of every subcommand,
        # found by walking the group.
        bad_values = {"level": ("0", "1", "1.2"), "alpha": ("0", "1", "1.2"),
                      "theta": ("0", "1", "1.2"), "n_boot": ("0",), "replications": ("0",)}
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
                ("mc", "replications")} <= checked
        for bandwidth in ("0", "-0.1"):
            out = tmp_path / f"bandwidth{bandwidth}"
            assert run(["--out", str(out), "smooth", "--input", toy_csv,
                        "--bandwidth", bandwidth]) == 2
            assert list(out.iterdir()) == []

    def test_threads_below_one(self, toy_csv, tmp_path):
        for threads in ("0", "-3"):
            assert run(["--out", str(tmp_path), "--threads", threads, "ingest",
                        "--input", toy_csv]) == 2

    def test_ingest_ok(self, toy_csv, tmp_path):
        assert run(["--out", str(tmp_path), "ingest", "--input", toy_csv]) == 0
        report = json.loads((tmp_path / "ingest_report.json").read_text())
        assert report["results"]["n_grid"] == 420
        assert (tmp_path / "canonical.csv").exists()


class TestArtifacts:
    def test_smooth_then_shape_commands(self, toy_csv, tmp_path):
        base = ["--out", str(tmp_path), "--seed", "5"]
        assert run(base + ["smooth", "--input", toy_csv, "--bandwidth", "0.08",
                           "--B", "29"]) == 0
        fit_path = tmp_path / "trend_fit.json"
        eps, fit = load_fit_artifact(str(fit_path))
        assert fit.h == 0.08
        assert len(eps) == 420

        assert run(base + ["extremum", "--fit", str(fit_path), "--B", "29"]) == 0
        rep = json.loads((tmp_path / "extremum_report.json").read_text())
        assert rep["results"]["ci_dates"][0] <= rep["results"]["location_date"]

        assert run(base + ["lintest", "--fit", str(fit_path), "--B", "29"]) == 0
        rep = json.loads((tmp_path / "lintest_report.json").read_text())
        assert 0.0 < rep["results"]["p_ave"] <= 1.0

        assert run(base + ["monotest", "--fit", str(fit_path), "--B", "29"]) == 0
        rep = json.loads((tmp_path / "monotest_report.json").read_text())
        assert rep["results"]["h_u"] == pytest.approx(0.5 * 420 ** (-0.2))

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

    def test_break_scans_its_design_once(self, toy_csv, tmp_path, scan_calls):
        # One scan of the observed series, then one per replicate of the
        # test and of the interval bootstrap.
        assert run(["--out", str(tmp_path), "break", "--input", toy_csv, "--B", "19"]) == 0
        assert scan_calls == {"init": 1, "scan": 2 * 19 + 1}

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

        series, _ = ingest_csv(data)
        trim = trimming_set(len(series), 0.3)
        fit = estimate_break(series, trim, n_harmonics=0)
        cfg = AwbConfig(seed=5, n_boot=199)

        def change_ci(cis):
            ci = cis.per_year(series.grid_step)["slope_change"]
            return [ci.lower, ci.upper]

        assert reported == change_ci(slope_cis(series, fit, cfg))
        default_fit = estimate_break(series, n_harmonics=0)
        assert reported != change_ci(slope_cis(series, default_fit, cfg))

    def test_mc_panel_table(self, tmp_path):
        assert run(["--out", str(tmp_path), "--seed", "1", "mc", "--panel", "B",
                    "--replications", "2", "--B", "19"]) == 0
        table = (tmp_path / "panel_B.csv").read_text().splitlines()
        assert table[0].startswith("panel,T,missing")
        assert len(table) > 1
        meta = json.loads((tmp_path / "panel_B_meta.json").read_text())
        assert meta["panel"] == "B"
        assert "runtime_seconds" in meta

    def test_mc_runs_serially_at_any_thread_count(self, tmp_path, monkeypatch):
        # The panel series are too short for a replicate pool to pay off.
        def no_pool(*_args, **_kwargs):
            raise AssertionError("mc started a thread pool")

        monkeypatch.setattr("gaptrend.awb.ThreadPoolExecutor", no_pool)
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
        names = [
            "ingest_report.json", "canonical.csv",
            "break_report.json", "break_trend.csv",
            "smooth_report.json", "trend_bands.csv", "mcv_scores.csv",
            "trend_fit.json", "trend_bands.svg", "mcv_scores.svg",
            "extremum_report.json", "lintest_report.json", "monotest_report.json",
            "panel_B.csv",
        ]
        for name in names:
            blobs = [read(out / name) for out in outs]
            assert blobs[0] == blobs[1] == blobs[2], f"{name} differs across runs"

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


def test_bench_trace_targets_resolve():
    # The benchmark's tracer wraps these library names; it must find each one.
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text())
    targets = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    assert targets
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        *owners, name = attr.split(".")
        for part in owners:
            owner = getattr(owner, part)
        found = vars(owner).get(name)
        assert callable(found), f"{module_name}.{attr}"
