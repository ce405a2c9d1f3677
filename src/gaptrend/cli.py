"""Command-line front end: ingestion, analysis subcommands, report emission.

Every subcommand writes one self-describing JSON report through
``_write_report`` (tool version, command, parameters with the shared
provenance read off the parsed flags, results) plus CSV data files, each
written by ``series.write_csv``, so any number in a report can be
regenerated from the command line alone. Every output file is
byte-identical across runs and thread counts for a fixed seed, and so is
what a command prints. All numerical work happens in the library modules.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .awb import AwbConfig, BootstrapTest, dependence_length
from .breaktrend import break_analysis, estimate_break, trimming_set
from .exceptions import NUMERICAL_ERRORS, VALIDATION_ERRORS
from .kerneltrend import (
    KernelTrendFit,
    bandwidth_grid,
    confidence_bands,
    mcv_scan,
    nw_estimate,
)
from .mcharness import PANEL_FIELDS, run_panel
from .seasonal import deseasonalize, fit_seasonal
from .series import ObservedSeries, ingest_csv, series_columns, write_canonical_csv, write_csv
from .shapetests import extremum_ci, linearity_test, monotonicity_tests

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Report helpers


def _sha256(path: str) -> str:
    import hashlib  # loads OpenSSL: not at import

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _clean(obj):
    """Make report values JSON-stable: numpy scalars to Python, arrays to lists."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _write_report(ctx: click.Context, params: dict, results: dict) -> None:
    """Write ``<command>_report.json`` for the running subcommand: its own
    ``params`` plus the provenance every report shares, read off the parsed
    flags (name and SHA-256 of the ``--input`` or ``--fit`` file, plus the
    ``--input`` CSV's column names; B and the group's seed when the command
    has ``--B``, and the multipliers ``_awb_config`` resolved), and its
    ``results``."""
    flags = ctx.params
    shared = {}
    for flag, key in (("input_path", "input"), ("fit_path", "fit")):
        if flag in flags:
            shared.update({key: Path(flags[flag]).name, f"{key}_sha256": _sha256(flags[flag])})
    shared.update({k: flags[k] for k in ("date_column", "value_column") if k in flags})
    if "n_boot" in flags:
        shared.update(B=flags["n_boot"], seed=ctx.obj["seed"], **ctx.obj.get("multipliers", {}))
    report = {
        "tool": {"name": "gaptrend", "version": __version__},
        "command": ctx.info_name,
        "parameters": _clean({**shared, **params}),
        "results": _clean(results),
    }
    path = ctx.obj["out"] / f"{ctx.info_name}_report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _test_keys(test: BootstrapTest, statistic: str, critical_value: str, p_value: str) -> dict:
    """A bootstrap test's statistic, critical value and p-value under the given
    report keys, and the p-value's Monte Carlo error under ``<p_value>_mc_se``."""
    return {statistic: test.statistic, critical_value: test.critical_value,
            p_value: test.p_value, f"{p_value}_mc_se": test.mc_error}


def _float_column(values: np.ndarray) -> list[str]:
    return [repr(v) if math.isfinite(v) else "" for v in values.tolist()]


def _write_svg(out_dir: Path, name: str, curves: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    """Minimal deterministic SVG: polylines of the finite points on a fixed
    800x400 canvas. Nothing is written when no point is finite."""
    width, height, pad = 800.0, 400.0, 40.0
    xs = np.concatenate([c[1] for c in curves])
    ys = np.concatenate([c[2] for c in curves])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.any():
        return
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = float(ys[finite].min()), float(ys[finite].max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#7f7f7f"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    for i, (label, x, y) in enumerate(curves):
        ok = np.isfinite(x) & np.isfinite(y)
        px = pad + (x[ok] - x_lo) / x_span * (width - 2 * pad)
        py = height - pad - (y[ok] - y_lo) / y_span * (height - 2 * pad)
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = palette[i % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"><title>{label}</title></polyline>')
    parts.append("</svg>")
    (out_dir / name).write_text("\n".join(parts) + "\n")


def _write_fit_artifact(out_dir: Path, fit: KernelTrendFit) -> Path:
    """Write ``trend_fit.json``: the fit and the series it was estimated on."""
    eps = fit.series
    payload = {
        "schema": "gaptrend-trend-fit-v1",
        "series": {
            "t0": eps.t0.isoformat(),
            "values": [float(v) if m else None for v, m in zip(eps.values, eps.mask)],
            "mask": eps.mask.tolist(),
        },
        "fit": {
            "h": fit.h,
            "kernel": "epanechnikov",
            "g_hat": [float(v) if np.isfinite(v) else None for v in fit.g_hat],
        },
    }
    path = out_dir / "trend_fit.json"
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path


def load_fit_artifact(path: str) -> KernelTrendFit:
    """The fit of a ``trend_fit.json``, re-estimated from its series and ``h``;
    its ``g_hat``, and an older version's ``grid_step`` key, are not read.
    A file without the artifact's fields raises ``ValueError``."""
    import datetime as dt

    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("schema") != "gaptrend-trend-fit-v1":
        raise ValueError(f"{path}: not a trend-fit artifact")
    try:
        series, h = payload["series"], float(payload["fit"]["h"])
        values = np.array([0.0 if v is None else float(v) for v in series["values"]])
        eps = ObservedSeries(values, np.asarray(series["mask"], dtype=np.uint8),
                             dt.date.fromisoformat(series["t0"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed trend-fit artifact ({type(exc).__name__}: "
                         f"{exc})") from None
    return nw_estimate(eps, h)


def _awb_config(ctx: click.Context, n_time: int, **kw) -> AwbConfig:
    """A subcommand's bootstrap settings: the group's seed and threads, its own
    B. The multiplier decay they resolve on a series of ``n_time`` days, and
    the dependence length 1.75 T^(1/3) behind it, go to the report."""
    cfg = AwbConfig(seed=ctx.obj["seed"], n_boot=ctx.params["n_boot"],
                    threads=ctx.obj["threads"], **kw)
    ctx.obj["multipliers"] = {"gamma": cfg.resolve_gamma(n_time),
                              "dependence_length": dependence_length(n_time)}
    return cfg


def _interval_to_positions(series: ObservedSeries, spec: str) -> tuple[int, int]:
    import datetime as dt

    try:
        lo_s, hi_s = spec.split(":")
        lo = series.position_of(dt.date.fromisoformat(lo_s))
        hi = series.position_of(dt.date.fromisoformat(hi_s))
    except (ValueError, AttributeError):
        raise ValueError(f"interval must be 'YYYY-MM-DD:YYYY-MM-DD', got {spec!r}") from None
    return max(lo, 1), min(hi, len(series))


def _param_name(command: click.Command | None, flag: str) -> str | None:
    """Name of the parameter ``command`` reads from ``--<flag>``, if any."""
    return next((p.name for p in getattr(command, "params", ()) if isinstance(p, click.Option)
                 and p.expose_value and f"--{flag}" in p.opts), None)


def _load_config(ctx: click.Context, _param: click.Parameter, value: str | None):
    """Flat key = value file feeding default_map; flags override file values.
    A key is a flag without its dashes, ``seed`` or ``subcommand.flag``
    (``break.B``); any other key is a usage error naming its file and line."""
    if value is None:
        return None
    defaults: dict[str, dict] = {}
    for line_no, raw in enumerate(Path(value).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{value}:{line_no}: expected 'key = value'")
        key, _, val = (part.strip() for part in line.partition("="))
        *sub, flag = key.split(".")
        command = ctx.command.commands.get(sub[0]) if sub else ctx.command
        name = _param_name(command, flag) if len(sub) <= 1 else None
        if name is None:
            raise click.UsageError(f"{value}:{line_no}: unknown config key {key!r}")
        (defaults.setdefault(sub[0], {}) if sub else defaults)[name] = val
    ctx.default_map = defaults
    return value


# ---------------------------------------------------------------------------
# CLI definition


@click.group()
@click.option("--config", type=click.Path(exists=True), callback=_load_config,
              is_eager=True, expose_value=False,
              help="Flat key = value file; keys are flags (seed, subcommand.flag).")
@click.option("--out", envvar="GAPTREND_OUT", default="gaptrend_out",
              show_default=True, help="Output directory for reports and data files.")
@click.option("--seed", type=int, default=0, show_default=True, help="Bootstrap seed.")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads for bootstrap replicates; mc runs serially.")
@click.pass_context
def cli(ctx: click.Context, out: str, seed: int, threads: int) -> None:
    """Trend inference for gappy daily time series."""
    ctx.ensure_object(dict)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx.obj.update(out=out_dir, seed=seed, threads=threads)


_RATE = click.FloatRange(0, 1, min_open=True, max_open=True)
_COUNT = click.IntRange(min=1)

_INPUT_OPTIONS = [
    click.option("--input", "input_path", required=True, type=click.Path(exists=True),
                 help="CSV file with dated measurements."),
    click.option("--date-column", default="date", show_default=True),
    click.option("--value-column", default="value", show_default=True),
]


def _with_input(fn):
    for opt in reversed(_INPUT_OPTIONS):
        fn = opt(fn)
    return fn


@cli.command()
@_with_input
@click.pass_context
def ingest(ctx, input_path: str, date_column: str, value_column: str) -> None:
    """Read a CSV onto the daily grid and write the canonical form."""
    series = ingest_csv(input_path, date_column, value_column)
    write_canonical_csv(series, str(ctx.obj["out"] / "canonical.csv"))
    _write_report(
        ctx, {},
        {
            "n_grid": len(series),
            "n_observed": series.n_observed,
            "observed_fraction": series.observed_fraction,
            "first_date": series.t0.isoformat(),
            "last_date": series.date_at(len(series)).isoformat(),
            "canonical_csv": "canonical.csv",
        },
    )
    click.echo(f"{series.n_observed} observed days on a {len(series)}-day grid "
               f"({series.observed_fraction:.1%})")


@cli.command(name="break")
@_with_input
@click.option("--lambda", "trim_fraction", type=float, default=0.1, show_default=True,
              help="Trimming fraction for break candidates.")
@click.option("--fourier", "n_harmonics", type=int, default=3, show_default=True)
@click.option("--B", "n_boot", type=_COUNT, default=999, show_default=True)
@click.option("--level", type=_RATE, default=0.95, show_default=True)
@click.option("--alpha", type=_RATE, default=0.05, show_default=True)
@click.option("--theta", type=_RATE, default=0.1, show_default=True)
@click.pass_context
def break_cmd(ctx, input_path, date_column, value_column, trim_fraction, n_harmonics,
              n_boot, level, alpha, theta) -> None:
    """Broken-trend analysis: break test, date interval, slope intervals."""
    out_dir: Path = ctx.obj["out"]
    series = ingest_csv(input_path, date_column, value_column)
    cfg = _awb_config(ctx, len(series), theta=theta)
    fit = estimate_break(series, trimming_set(len(series), trim_fraction), n_harmonics)
    test, ci = break_analysis(fit, cfg, alpha, level)
    slopes = ci.slopes
    per_year = slopes.per_year()

    date, lower, upper = (series.date_at(i).isoformat()
                          for i in (fit.break_index, ci.lower_index, ci.upper_index))

    trend = fit.trend_values()
    write_csv(out_dir / "break_trend.csv", {
        **series_columns(series, "observed"), "trend": _float_column(trend),
        "trend_plus_seasonal": _float_column(trend + fit.seasonal.fitted),
    })

    _write_report(
        ctx, {"lambda": trim_fraction, "fourier": n_harmonics, "level": level, "alpha": alpha,
              "theta": theta},
        {
            **_test_keys(test, "statistic", "critical_value", "p_value"),
            "reject": test.reject,
            "break_index": fit.break_index,
            "break_date": date,
            "break_ci": [lower, upper],
            "break_ci_length_days": ci.length,
            "break_ci_clipped": ci.clipped,
            "break_ci_basic_indices": [ci.basic_lower, ci.basic_upper],
            "break_candidates_skipped": fit.scan.n_skipped,
            "slopes_per_year": {
                name: {"estimate": c.estimate, "ci": [c.lower, c.upper]}
                for name, c in per_year.items()
            },
            "intercept": {"estimate": slopes.intercept.estimate,
                          "ci": [slopes.intercept.lower, slopes.intercept.upper]},
            "ssr": fit.ssr,
            "plot_data": "break_trend.csv",
        },
    )
    click.echo(f"break test p-value {test.p_value:.4f}; break at {date} [{lower}, {upper}]")


@cli.command()
@_with_input
@click.option("--bandwidth", type=click.FloatRange(0, min_open=True), default=None,
              help="Trend bandwidth in rescaled time.")
@click.option("--pick-minimum", "pick_minimum", type=click.IntRange(min=0), default=None,
              help="Use the n-th local minimum of the cross-validation curve (0-based).")
@click.option("--mcv-grid", default="0.01:0.25:0.005", show_default=True,
              help="Bandwidth candidates lo:hi:step.")
@click.option("--mcv-k", type=int, default=None, help="Leave-out half-width (default 1.75*T^(1/3)).")
@click.option("--fourier", "n_harmonics", type=int, default=3, show_default=True)
@click.option("--B", "n_boot", type=_COUNT, default=999, show_default=True)
@click.option("--level", type=_RATE, default=0.95, show_default=True)
@click.option("--svg/--no-svg", default=False, show_default=True,
              help="Also render static SVG plots.")
@click.pass_context
def smooth(ctx, input_path, date_column, value_column, bandwidth, pick_minimum,
           mcv_grid, mcv_k, n_harmonics, n_boot, level, svg) -> None:
    """Kernel trend with simultaneous confidence bands on deseasonalized data."""
    out_dir: Path = ctx.obj["out"]
    series = ingest_csv(input_path, date_column, value_column)
    seasonal = fit_seasonal(series, n_harmonics=n_harmonics)
    eps = deseasonalize(series, seasonal)

    try:
        lo, hi, step = (float(x) for x in mcv_grid.split(":"))
    except ValueError:
        raise ValueError(f"--mcv-grid must be lo:hi:step, got {mcv_grid!r}") from None
    scan = mcv_scan(eps, bandwidth_grid(lo, hi, step), mcv_k)
    minima_set = set(scan.local_minima.tolist())
    write_csv(out_dir / "mcv_scores.csv", {
        "bandwidth": [repr(h) for h in scan.grid.tolist()],
        "score": [repr(s) for s in scan.scores.tolist()],
        "is_local_minimum": [str(int(i in minima_set)) for i in range(scan.grid.size)],
    })
    if svg:
        _write_svg(out_dir, "mcv_scores.svg", [("cv score", scan.grid, scan.scores)])

    if bandwidth is None and pick_minimum is not None:
        bandwidth = scan.pick(pick_minimum)
    if bandwidth is None:
        minima = ", ".join(f"{scan.grid[i]:g}" for i in scan.local_minima) or "none"
        raise click.UsageError(
            "bandwidth selection needs a user decision: pass --bandwidth or "
            f"--pick-minimum n (cross-validation curve written to mcv_scores.csv; "
            f"local minima at: {minima})"
        )

    fit = nw_estimate(eps, bandwidth)
    bands = confidence_bands(fit, _awb_config(ctx, len(eps)), level)

    curves = {"trend": fit.g_hat, "pointwise_lower": bands.pointwise_lower,
              "pointwise_upper": bands.pointwise_upper, "simultaneous_lower": bands.lower,
              "simultaneous_upper": bands.upper}
    write_csv(out_dir / "trend_bands.csv", {
        **series_columns(eps, "deseasonalized"),
        **{name: _float_column(arr) for name, arr in curves.items()},
    })
    if svg:
        days = np.arange(len(series), dtype=float)
        _write_svg(out_dir, "trend_bands.svg", [
            ("trend", days, fit.g_hat),
            ("lower", days, bands.lower),
            ("upper", days, bands.upper),
        ])
    artifact = _write_fit_artifact(out_dir, fit)

    _write_report(
        ctx, {"bandwidth": bandwidth, "mcv_grid": mcv_grid, "mcv_k": scan.k,
              "fourier": n_harmonics, "level": level},
        {
            "bandwidth": bandwidth,
            "calibrated_pointwise_alpha": bands.alpha_s,
            "simultaneous_joint_coverage": bands.joint_coverage,
            "mcv_local_minima": [float(scan.grid[i]) for i in scan.local_minima],
            "mcv_no_interior_minimum": scan.no_interior_minimum,
            "mcv_inf_score_bandwidths": scan.grid[np.isinf(scan.scores)],
            "n_undefined_positions": int((~np.isfinite(fit.g_hat)).sum()),
            "trend_bands": "trend_bands.csv",
            "fit_artifact": artifact.name,
            "seasonal_cos": seasonal.a,
            "seasonal_sin": seasonal.b,
        },
    )
    click.echo(f"trend with h={bandwidth:g}; simultaneous level {level:g} "
               f"(calibrated pointwise rate {bands.alpha_s:.4f})")


@cli.command()
@click.option("--fit", "fit_path", required=True, type=click.Path(exists=True),
              help="Trend-fit artifact from `smooth`.")
@click.option("--kind", type=click.Choice(["min", "max"]), default="min", show_default=True)
@click.option("--B", "n_boot", type=_COUNT, default=999, show_default=True)
@click.option("--level", type=_RATE, default=0.95, show_default=True)
@click.pass_context
def extremum(ctx, fit_path, kind, n_boot, level) -> None:
    """Confidence interval for the position of the trend extremum."""
    fit = load_fit_artifact(fit_path)
    res = extremum_ci(fit, _awb_config(ctx, len(fit.series)), kind, level)
    date, lower, upper = (fit.series.date_at(i).isoformat()
                          for i in (res.location, res.lower_index, res.upper_index))
    _write_report(
        ctx, {"kind": kind, "level": level},
        {
            "location_index": res.location,
            "location_date": date,
            "value": res.value,
            "ci_dates": [lower, upper],
            "ci_indices": [res.lower_index, res.upper_index],
        },
    )
    click.echo(f"{kind} at {date} [{lower}, {upper}]")


@cli.command()
@click.option("--fit", "fit_path", required=True, type=click.Path(exists=True))
@click.option("--B", "n_boot", type=_COUNT, default=999, show_default=True)
@click.option("--alpha", type=_RATE, default=0.05, show_default=True)
@click.pass_context
def lintest(ctx, fit_path, n_boot, alpha) -> None:
    """Test a linear trend from the trend minimum to the sample end."""
    fit = load_fit_artifact(fit_path)
    res = linearity_test(fit, _awb_config(ctx, len(fit.series)), alpha)
    _write_report(
        ctx, {"alpha": alpha},
        {
            **_test_keys(res.ave, "q_ave", "cv_ave", "p_ave"),
            **_test_keys(res.sup, "q_sup", "cv_sup", "p_sup"),
            "slope_per_rescaled_time": res.slope,
            "anchor_index": res.anchor_index,
            "test_window": [res.anchor_index, len(fit.series)],
        },
    )
    click.echo(f"linearity: p_ave={res.ave.p_value:.4f} p_sup={res.sup.p_value:.4f}")


@cli.command()
@click.option("--fit", "fit_path", required=True, type=click.Path(exists=True))
@click.option("--interval", default=None,
              help="Calendar range 'YYYY-MM-DD:YYYY-MM-DD' (default: trend minimum to end).")
@click.option("--B", "n_boot", type=_COUNT, default=999, show_default=True)
@click.option("--alpha", type=_RATE, default=0.05, show_default=True)
@click.pass_context
def monotest(ctx, fit_path, interval, n_boot, alpha) -> None:
    """Tests of a monotonically increasing trend over an interval."""
    fit = load_fit_artifact(fit_path)
    positions = None if interval is None else _interval_to_positions(fit.series, interval)
    res = monotonicity_tests(fit, positions, _awb_config(ctx, len(fit.series)), alpha)
    _write_report(
        ctx, {"interval": list(res.interval), "alpha": alpha},
        {
            **_test_keys(res.sign, "u1", "cv1", "p1"),
            **_test_keys(res.magnitude, "u2", "cv2", "p2"),
            "h_u": res.h_u,
        },
    )
    click.echo(f"monotonicity: p1={res.sign.p_value:.4f} p2={res.magnitude.p_value:.4f} "
               f"(h_u={res.h_u:.3f})")


@cli.command()
@click.option("--panel", type=click.Choice(["A", "B", "C", "D"], case_sensitive=False),
              required=True)
@click.option("--replications", type=_COUNT, default=1000, show_default=True)
@click.option("--B", "n_boot", type=_COUNT, default=999, show_default=True)
@click.pass_context
def mc(ctx, panel, replications, n_boot) -> None:
    """Synthetic-data validation panels; emits a long-format results table."""
    panel = panel.upper()
    rows = run_panel(panel, replications, n_boot, ctx.obj["seed"])
    name = f"panel_{panel}.csv"
    write_csv(ctx.obj["out"] / name, {f: [str(r[f]) for r in rows] for f in PANEL_FIELDS})
    _write_report(ctx, {"panel": panel, "replications": replications}, {"table": name})
    click.echo(f"panel {panel}: {len(rows)} result rows -> {name}")


def run(argv: list[str] | None = None) -> int:
    """Entry point with the exit-code contract: 0 ok, 2 validation, 3 numerical."""
    try:
        cli.main(args=argv, standalone_mode=False, prog_name="gaptrend")
        return EXIT_OK
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_VALIDATION
    except click.ClickException as exc:
        exc.show()
        return EXIT_VALIDATION
    except click.exceptions.Abort:
        return EXIT_VALIDATION
    except VALIDATION_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_VALIDATION
    except NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())
