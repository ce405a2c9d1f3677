"""Autoregressive wild bootstrap engine.

Every inference procedure in the package shares this machinery: an AR(1)
multiplier process with unit marginal variance, masked bootstrap errors,
and a replicate runner whose output is deterministic for a given seed no
matter how the replicates are scheduled. Multipliers come from a
counter-based generator keyed by (seed, replicate id), so replicate b is
the same whether it runs first, last, serially, or on a worker thread.
The AR(1) recursion itself is a scaled prefix sum, computed row by row of
positions with ``numpy.cumsum`` from weights built once per (T, gamma).
Every bootstrap test of the package reads its replicate draws into one
``BootstrapTest`` record, whose ``reject`` is the only reject rule.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .exceptions import ReplicateError

DEFAULT_THETA = 0.1
DEFAULT_N_BOOT = 999

_UINT64 = np.uint64
_KEY_MOD = 2**64
# A row of the AR(1) prefix-sum recursion keeps gamma^-i below 1e150.
_ROW_LOG_RANGE = np.log(1e150)


def dependence_length(n_time: int) -> float:
    """Tuning length l = 1.75 * T^(1/3) shared by the multiplier decay default."""
    if n_time < 2:
        raise ValueError("need at least 2 time points")
    return 1.75 * float(n_time) ** (1.0 / 3.0)


def default_gamma(n_time: int, theta: float = DEFAULT_THETA) -> float:
    """Default AR(1) multiplier coefficient theta^(1 / (1.75 T^(1/3)))."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    return theta ** (1.0 / dependence_length(n_time))


@dataclass(frozen=True)
class AwbConfig:
    """Bootstrap tuning: multiplier decay, replicate count, seed, and the
    worker threads that run the replicates.

    ``gamma`` may be left unset, in which case it is resolved per series
    as ``theta ** (1 / (1.75 T^(1/3)))``. ``threads`` changes how fast the
    replicates run, never what they give.
    """

    seed: int = 0
    gamma: float | None = None
    theta: float = DEFAULT_THETA
    n_boot: int = DEFAULT_N_BOOT
    threads: int = 1

    def __post_init__(self) -> None:
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.n_boot < 1:
            raise ValueError("n_boot must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")

    def resolve_gamma(self, n_time: int) -> float:
        return self.gamma if self.gamma is not None else default_gamma(n_time, self.theta)


def _stream(seed: int, replicate_id: int) -> np.random.Generator:
    key = np.array([seed % _KEY_MOD, replicate_id % _KEY_MOD], dtype=_UINT64)
    return np.random.Generator(np.random.Philox(key=key))


@lru_cache(maxsize=32)
def _ar1_factors(n_time: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only factors of the multiplier recursion for one (T, gamma).

    The recursion xi_i = gamma xi_(i-1) + x_i, with x_0 = z_0 and
    x_i = sqrt(1 - gamma^2) z_i, is read as rows of L = floor(ln(1e150) /
    -ln(gamma)) positions (at least 1, at most T), so that gamma^-i stays
    below 1e150 within a row. A row is a scaled prefix sum, xi_i = gamma^i
    sum_(k<=i) gamma^-k x_k, plus the previous row's last value times
    gamma^(i+1); that last value may leave out the carry from the row
    before it, because gamma^(L+1) < 1e-150 puts that below rounding.
    Returns the (rows, L) weights gamma^-i sqrt(1 - gamma^2), with 1 at
    the very first position, and the row factors gamma^i and gamma^(i+1).
    All paths of a run, on any thread, share the factors.
    """
    width = int(min(n_time, max(1, _ROW_LOG_RANGE // -np.log(gamma))))
    i = np.arange(width, dtype=np.float64)
    weights = np.empty((-(-n_time // width), width))
    weights[:] = gamma**-i * np.sqrt(1.0 - gamma * gamma)
    weights[0, 0] = 1.0
    decay = gamma**i
    carry = decay * gamma
    for arr in (weights, decay, carry):
        arr.flags.writeable = False
    return weights, decay, carry


def draw_multipliers(cfg: AwbConfig, n_time: int, replicate_id: int) -> np.ndarray:
    """Generate the multiplier path for one replicate.

    The path starts from a standard normal draw z_0 and evolves as
    xi_i = gamma xi_(i-1) + sqrt(1 - gamma^2) z_i, so the marginal
    variance is exactly 1 at every position. The recursion runs as
    blocked scaled prefix sums (see ``_ar1_factors``): one cumulative sum
    per row of positions and one vectorised carry into every row, which
    agrees with the direct recursion to rounding. Identical (seed,
    replicate_id) keys give identical paths regardless of execution order
    or worker count.
    """
    weights, decay, carry = _ar1_factors(n_time, cfg.resolve_gamma(n_time))
    buf = np.zeros(weights.size)
    _stream(cfg.seed, replicate_id).standard_normal(out=buf[:n_time])
    xi = buf.reshape(weights.shape)
    xi *= weights
    np.cumsum(xi, axis=1, out=xi)
    xi *= decay
    if xi.shape[0] > 1:
        xi[1:] += xi[:-1, -1:] * carry
    return buf[:n_time]


def bootstrap_errors(
    residuals: np.ndarray, mask: np.ndarray, multipliers: np.ndarray
) -> np.ndarray:
    """Masked wild-bootstrap errors: mask * multiplier * residual."""
    residuals = np.asarray(residuals, dtype=np.float64)
    mask = np.asarray(mask)
    if residuals.shape != mask.shape or residuals.shape != multipliers.shape:
        raise ValueError("residuals, mask, and multipliers must share one length")
    return mask * multipliers * residuals


def run_replicates(
    cfg: AwbConfig,
    base: np.ndarray,
    residuals: np.ndarray,
    mask: np.ndarray,
    statistic: Callable[[np.ndarray], object],
) -> np.ndarray:
    """Evaluate ``statistic`` on the replicate series of ids 0..B-1.

    Replicate b is the series ``base + bootstrap_errors(residuals, mask,
    xi_b)`` with ``xi_b`` the multiplier path of id b; this is the only
    place a replicate series is built. The replicates run on
    ``cfg.threads`` workers and are collected in replicate-id order; the
    output is identical for any thread count because each replicate
    depends only on its own counter-based stream. A statistic failure is
    re-raised as ``ReplicateError`` carrying the replicate id.
    """
    n_time = base.shape[0]

    def one(b: int) -> object:
        series = base + bootstrap_errors(residuals, mask, draw_multipliers(cfg, n_time, b))
        try:
            return statistic(series)
        except Exception as exc:  # noqa: BLE001 - re-raised with context
            raise ReplicateError(b, str(exc)) from exc

    if cfg.threads == 1:
        results = [one(b) for b in range(cfg.n_boot)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(one, range(cfg.n_boot)))
    return np.asarray(results, dtype=np.float64)


def check_rate(name: str, value: float) -> None:
    """Reject a confidence level or error rate outside the open interval (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")


def quantile_row(alpha: float, n: int) -> int:
    """Row of n sorted draws holding their left-continuous empirical
    alpha-quantile: ceil(alpha * n) - 1, clamped to 0..n-1. An alpha * n
    within 1e-9 of an integer k counts as k, so alpha = k/n reads row k - 1
    whichever way k/n was rounded."""
    return min(max(int(np.ceil(alpha * n - 1e-9)) - 1, 0), n - 1)


def empirical_quantile(values: np.ndarray, alpha: float) -> float | np.ndarray:
    """Left-continuous empirical quantile inf{u : P[X <= u] >= alpha}.

    This is the type-1 (no interpolation) inverse of the empirical
    distribution function, which makes quantiles exactly reproducible
    from the sorted bootstrap draws. It is read along axis 0: (B,) draws
    give a float, (B, k) draws one quantile per column.
    """
    values = np.sort(np.asarray(values, dtype=np.float64), axis=0)
    n = values.shape[0]
    if n == 0:
        raise ValueError("empty sample")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    q = values[quantile_row(alpha, n)]
    return float(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class BootstrapTest:
    """Upper-tail bootstrap test of one statistic against its (B,) replicate
    draws: the critical value is their 1 - alpha quantile, and the p-value
    is (1 + #{draws >= statistic}) / (B + 1)."""

    statistic: float
    critical_value: float
    p_value: float
    alpha: float
    draws: np.ndarray = field(repr=False, compare=False)

    @property
    def reject(self) -> bool:
        return self.statistic > self.critical_value


def bootstrap_test(statistic: float, draws: np.ndarray, alpha: float) -> BootstrapTest:
    """Test ``statistic`` against its (B,) bootstrap ``draws`` at level ``alpha``."""
    draws = np.asarray(draws, dtype=np.float64)
    p_value = (1.0 + np.count_nonzero(draws >= statistic)) / (draws.shape[0] + 1.0)
    return BootstrapTest(float(statistic), empirical_quantile(draws, 1.0 - alpha),
                         float(p_value), alpha, draws)


def basic_interval(estimate: float | np.ndarray, sorted_centered: np.ndarray, a: float) -> tuple:
    """Basic interval [est - q(1 - a/2), est - q(a/2)] at error rate a, from the
    replicate values minus the estimate sorted along axis 0; one per column."""
    n = sorted_centered.shape[0]
    return (estimate - sorted_centered[quantile_row(1.0 - a / 2.0, n)],
            estimate - sorted_centered[quantile_row(a / 2.0, n)])
