"""Tests of the benchmark itself (about a minute):

    python3 -m pytest bench/test_bench.py

Every workload runs in quick mode, traced and untraced, with all checks
on; a second run with the same seed must leave byte-identical outputs; and
a perturbed output value must make the check that covers it fail.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from run import OUT_ROOT, WORKLOADS  # noqa: E402
from worker import UNSTABLE_OUTPUTS  # noqa: E402

SEED = 5


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def outputs(work: Path) -> dict[str, bytes]:
    files = [work / "station.csv"] + sorted((work / "out").iterdir())
    return {p.name: p.read_bytes() for p in files if p.is_file() and p.name not in UNSTABLE_OUTPUTS}


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory) -> dict[str, tuple[dict, Path]]:
    """One traced quick run per workload, with a copy of what it left behind."""
    runs = {}
    for workload in WORKLOADS:
        result = result_of(bench(workload, trace=1))
        copy = tmp_path_factory.mktemp(workload) / "work"
        shutil.copytree(OUT_ROOT / f"{workload}-{SEED}-quick", copy)
        runs[workload] = (result, copy)
    return runs


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def reported_units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_quick_runs_pass_every_check(quick_runs):
    for workload, (result, _) in quick_runs.items():
        assert result["correct"], workload
        assert result["attempted"] > 0 and result["failed"] == 0, workload
        assert reported_units(result) == declared_units("per_layer"), workload


def test_untraced_run_reports_end_to_end_metrics_and_same_bytes(quick_runs):
    for workload, (_, first) in quick_runs.items():
        result = result_of(bench(workload, trace=0))
        assert result["correct"], workload
        assert reported_units(result) == declared_units("end_to_end"), workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload
        again = outputs(OUT_ROOT / f"{workload}-{SEED}-quick")
        assert again == outputs(first), workload


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("station-break", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def edit_json(path: Path, key: str, change) -> None:
    data = json.loads(path.read_text())
    data["results"][key] = change(data["results"][key])
    path.write_text(json.dumps(data))


def edit_csv(path: Path, column: str, change) -> None:
    """Change ``column`` in the middle data row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    row = len(rows) // 2
    rows[row][col] = change(rows[row][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def nudge(x: float) -> float:
    return x + 1e-6 * abs(x)


def check_quick_panel(out: Path, _grid) -> None:
    checks.check_panel(out, 1, 19)


PERTURBATIONS = [
    ("station-break", checks.check_ingest, "ingest_report.json", "n_observed", lambda v: v + 1),
    ("station-break", checks.check_break, "break_report.json", "ssr", nudge),
    ("station-break", checks.check_break, "break_report.json", "statistic", nudge),
    ("station-smooth", checks.check_smooth, "trend_bands.csv", "trend",
     lambda v: repr(nudge(float(v)))),
    ("station-smooth", checks.check_smooth, "smooth_report.json", "calibrated_pointwise_alpha",
     lambda v: 0.06),
    ("station-smooth", checks.check_extremum, "extremum_report.json", "location_index",
     lambda v: v + 1),
    ("station-smooth", checks.check_lintest, "lintest_report.json", "q_ave", nudge),
    ("station-monotone", checks.check_monotest, "monotest_report.json", "u1", nudge),
    ("station-monotone", checks.check_monotest, "monotest_report.json", "p2", lambda v: v + 1e-3),
    ("mc-break-panel", check_quick_panel, "panel_A.csv", "mc_se", lambda v: "0.123"),
]


@pytest.mark.parametrize("workload, check, name, key, change", PERTURBATIONS,
                         ids=[f"{p[2]}:{p[3]}" for p in PERTURBATIONS])
def test_perturbed_output_fails_its_check(quick_runs, tmp_path, workload, check, name, key,
                                          change):
    work = tmp_path / "work"
    shutil.copytree(quick_runs[workload][1], work)
    out = work / "out"
    csv_path = work / "station.csv"
    grid = checks.read_grid(csv_path) if csv_path.exists() else None
    check(out, grid)  # the untouched copy passes
    if name.endswith(".json"):
        edit_json(out / name, key, change)
    else:
        edit_csv(out / name, key, change)
    with pytest.raises(checks.CheckFailed):
        check(out, grid)
