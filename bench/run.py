"""Benchmark of the gaptrend command line on seeded synthetic station data.

Usage (from the repository root):

    python3 bench/run.py --workload station-break --seed 1 --seconds 20 --trace 0

One run generates its input from ``--seed``, starts fresh worker processes
that import ``gaptrend.cli`` from ``src/`` and run the workload's commands
through ``gaptrend.cli.run``, checks every output against independent
computations, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from a traced run. ``--quick``
shrinks every size for a smoke test. See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here and inherited by the workers:
# default OpenBLAS threading oversubscribes two cores on the small
# per-replicate products and makes run times swing by 2x.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
DEADLINE_S = 170.0
SETUP_SAMPLES = 3  # fresh processes whose set-up time is measured per run

WORKLOADS = ("station-break", "station-smooth", "station-monotone", "mc-break-panel")

# Sizes per workload: (full, quick).
LONG_T = (None, 1500)  # None: the station's full length
SHORT_T = (None, 900)
B_BREAK = (999, 49)
B_SMOOTH = (149, 29)
B_MONOTONE = (299, 19)
B_PREREQ = (99, 19)
MC_REPLICATIONS = (4, 1)
MC_B = (49, 19)
BANDWIDTH = {"long": "0.05", "short": "0.08"}


def plan(workload: str, csv_path: str, quick: bool) -> dict:
    """Station, prerequisite commands and timed commands of a workload."""
    q = int(quick)
    if workload == "station-break":
        return {"station": "long", "n_time": LONG_T[q], "prereq": [], "timed": [
            ["ingest", "--input", csv_path],
            ["break", "--input", csv_path, "--B", str(B_BREAK[q])],
        ]}
    if workload == "station-smooth":
        b = str(B_SMOOTH[q])
        return {"station": "long", "n_time": LONG_T[q], "prereq": [], "timed": [
            ["smooth", "--input", csv_path, "--bandwidth", BANDWIDTH["long"], "--B", b],
            ["extremum", "--fit", "{out}/trend_fit.json", "--B", b],
            ["lintest", "--fit", "{out}/trend_fit.json", "--B", b],
        ]}
    if workload == "station-monotone":
        import gen

        n_time = SHORT_T[q]
        interval = gen.minimum_to_end("short", n_time)
        return {"station": "short", "n_time": n_time, "prereq": [
            ["smooth", "--input", csv_path, "--bandwidth", BANDWIDTH["short"],
             "--B", str(B_PREREQ[q])],
        ], "timed": [
            ["monotest", "--fit", "{out}/trend_fit.json", "--interval", interval,
             "--B", str(B_MONOTONE[q])],
        ]}
    if workload == "mc-break-panel":
        return {"station": None, "n_time": None, "prereq": [], "timed": [
            ["mc", "--panel", "A", "--replications", str(MC_REPLICATIONS[q]),
             "--B", str(MC_B[q])],
        ]}
    raise ValueError(f"unknown workload {workload!r}")


def run_worker(spec: dict, work: Path, name: str, deadline: float) -> dict:
    spec_path = work / f"{name}.spec.json"
    spec = dict(spec, result=str(work / f"{name}.result.json"))
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


def check_outputs(workload: str, timed: list[list[str]], out: Path, csv_path: Path | None,
                  codes: list[int], quick: bool) -> list[str]:
    """Run the checks of the timed commands that exited 0; returns failures."""
    grid = checks.read_grid(csv_path) if csv_path else None
    q = int(quick)

    def check_panel(out: Path, _grid) -> None:
        checks.check_panel(out, MC_REPLICATIONS[q], MC_B[q])

    per_command = {
        "station-break": [checks.check_ingest, checks.check_break],
        "station-smooth": [checks.check_smooth, checks.check_extremum, checks.check_lintest],
        "station-monotone": [checks.check_monotest],
        "mc-break-panel": [check_panel],
    }[workload]
    problems = []
    for check, argv, code in zip(per_command, timed, codes):
        if code == 0:
            try:
                check(out, grid)
            except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
                problems.append(f"{argv[0]}: {exc}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, for smoke tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "gaptrend" / "cli.py").is_file():
        print(f"error: no gaptrend sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    work = OUT_ROOT / f"{args.workload}-{args.seed}{'-quick' if args.quick else ''}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    csv_path = None
    steps = plan(args.workload, str(work / "station.csv"), args.quick)
    if steps["station"]:
        csv_path = work / "station.csv"
        gen.write_station_csv(str(csv_path), steps["station"], args.seed, steps["n_time"])

    def expand(commands):
        return [[a.replace("{out}", str(out)) for a in argv] for argv in commands]

    spec = {
        "out": str(out), "seed": args.seed, "prereq": expand(steps["prereq"]),
        "timed": expand(steps["timed"]), "seconds": args.seconds, "trace": bool(args.trace),
        "setup_only": True,
    }
    setups = [run_worker(spec, work, f"setup{i}", deadline)["setup_s"]
              for i in range(SETUP_SAMPLES - 1)]
    result = run_worker(dict(spec, setup_only=False), work, "main", deadline)
    setups.append(result["setup_s"])
    rounds = result["rounds"]

    # Every round must leave the same bytes behind and the same exit codes.
    codes = rounds[0]["codes"]
    problems = []
    if any(r["digest"] != rounds[0]["digest"] or r["codes"] != codes for r in rounds):
        problems.append("rounds of one run produced different outputs")
    problems += check_outputs(args.workload, spec["timed"], out, csv_path, codes, args.quick)

    # Operations are CLI commands. Failed MC draws are not counted here: the
    # panel's sparse T=666 cells refuse a draw now and then, depending on the
    # seed, so they are reported as the layer count mcharness.failed_draws.
    attempted = len(rounds) * len(codes)
    failed = len(rounds) * sum(c != 0 for c in codes)

    walls = [r["wall_s"] for r in rounds]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, wall "
          + " ".join(f"{w:.3f}" for w in walls) + ", setup " + " ".join(f"{s:.3f}" for s in setups))
    if args.trace:
        layers = traced_layers(rounds, problems)
        panel = out / "panel_A.csv"
        layers["mcharness.failed_draws"] = (
            sum(map(int, checks.read_columns(panel)["failures"])) if panel.exists() else 0)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_layers(rounds: list[dict], problems: list[str]) -> dict:
    """Medians over traced rounds; counts must repeat exactly between them."""
    traced = [r for r in rounds if r["traced"]]
    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if unit_of(name) == "count":
            layers[name] = values[0]
            if values.count(values[0]) != len(values):
                problems.append(f"{name} differs between traced rounds: {values}")
        else:
            layers[name] = statistics.median(values)
    layers["bench.trace_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in rounds if not r["traced"]))
    return layers


def unit_of(name: str) -> str:
    for suffix, unit in ((".ms_per_call", "ms"), (".ms_per_rep", "ms"), ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
