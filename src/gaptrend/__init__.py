"""Bootstrap trend inference for daily time series with missing observations.

Estimation and uncertainty quantification for long gappy series that show
autocorrelation, changing variance, and a strong annual cycle: a kinked
linear trend with a bootstrap break test and break-date intervals, a
kernel-smoothed trend with simultaneous confidence bands, shape tests, and
a Monte Carlo harness that validates all of it on synthetic data.
"""

from .awb import (
    AwbConfig,
    BootstrapTest,
    bootstrap_errors,
    default_gamma,
    dependence_length,
    draw_multipliers,
    empirical_quantile,
    run_replicates,
)
from .breaktrend import (
    BreakDateCi,
    BreakTestResult,
    BrokenTrendFit,
    ParamCi,
    SlopeCis,
    break_ci,
    break_test,
    estimate_break,
    slope_cis,
    trimming_set,
)
from .exceptions import NoInteriorExtremumError, ReplicateError, SingularDesignError
from .kerneltrend import (
    BandResult,
    KernelTrendFit,
    McvResult,
    bandwidth_grid,
    confidence_bands,
    default_leave_out,
    mcv_scan,
    nw_estimate,
    pilot_bandwidth,
    pointwise_bands,
    simultaneous_bands,
)
from .mcharness import (
    LinearTrendSpec,
    McDesign,
    SmoothTransitionSpec,
    gen_errors,
    gen_mask,
    gen_trend,
    run_panel,
    simulate_series,
)
from .seasonal import SeasonalFit, deseasonalize, fit_seasonal, fourier_design
from .series import (
    IngestSummary,
    ObservedSeries,
    ingest_csv,
    write_canonical_csv,
)
from .shapetests import (
    ExtremumResult,
    MonotonicityResult,
    ShapeTestResult,
    TrendAnchor,
    extremum_ci,
    linearity_test,
    local_extrema,
    monotonicity_tests,
    trend_minimum,
    u_stat_bandwidth,
    u_stat_profiles,
)

__version__ = "0.1.0"

__all__ = [
    "AwbConfig",
    "BandResult",
    "BootstrapTest",
    "BreakDateCi",
    "BreakTestResult",
    "BrokenTrendFit",
    "ExtremumResult",
    "IngestSummary",
    "KernelTrendFit",
    "LinearTrendSpec",
    "McDesign",
    "McvResult",
    "MonotonicityResult",
    "NoInteriorExtremumError",
    "ObservedSeries",
    "ParamCi",
    "ReplicateError",
    "SeasonalFit",
    "ShapeTestResult",
    "SingularDesignError",
    "SlopeCis",
    "SmoothTransitionSpec",
    "TrendAnchor",
    "bandwidth_grid",
    "bootstrap_errors",
    "break_ci",
    "break_test",
    "confidence_bands",
    "default_gamma",
    "default_leave_out",
    "dependence_length",
    "deseasonalize",
    "draw_multipliers",
    "empirical_quantile",
    "estimate_break",
    "extremum_ci",
    "fit_seasonal",
    "fourier_design",
    "gen_errors",
    "gen_mask",
    "gen_trend",
    "ingest_csv",
    "linearity_test",
    "local_extrema",
    "mcv_scan",
    "monotonicity_tests",
    "nw_estimate",
    "pilot_bandwidth",
    "pointwise_bands",
    "run_panel",
    "run_replicates",
    "simulate_series",
    "simultaneous_bands",
    "slope_cis",
    "trend_minimum",
    "trimming_set",
    "u_stat_bandwidth",
    "u_stat_profiles",
    "write_canonical_csv",
]
