"""Autoregressive wild bootstrap engine.

Every inference procedure in the package shares this machinery: an AR(1)
multiplier process with unit marginal variance, and one replicate runner
that builds every replicate series on the observed days, the base plus
multiplier times residual, deterministic for a given seed no matter how
the replicates are scheduled. A replicate draws one normal per observed
day; the AR(1) step across a gap of k days is scaled to keep unit
variance. Multipliers come from a counter-based generator keyed by (seed,
replicate id), so replicate b is the same whether it runs first, last,
serially, or on a worker thread; each thread re-keys one generator per
replicate instead of building one. Replicates run in blocks of
consecutive ids, a number fixed by T alone: one draw gives a block's
paths and the statistic reads the block as one (k, n_obs) array, one
replicate's observed values per row. The AR(1) recursion itself is a
scaled prefix sum over the observed days of each row of calendar
positions, run with ``numpy.add.accumulate`` for all paths of a block at
once, from factors built once per (T, gamma) and a per-day scale built
once per replicate run.
Every bootstrap test of the package reads its replicate draws into one
``BootstrapTest`` record, whose ``reject`` is the only reject rule.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .exceptions import ReplicateError, replicate_ids
from .series import ObservedSeries

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


# One generator per thread for the multiplier draws, re-keyed per draw.
_thread_generators = threading.local()


def _rekeyed_stream(seed: int, replicate_id: int) -> np.random.Generator:
    """This thread's generator, set to the start of ``_stream(seed,
    replicate_id)``'s stream: counter 0, key [seed, id] and an empty output
    buffer, the state a fresh ``Philox(key=...)`` starts from. Setting the
    state costs a fraction of building a Philox, whose unused seed sequence
    reads OS entropy. The generator is valid until this thread's next call."""
    gen = getattr(_thread_generators, "gen", None)
    if gen is None:
        gen = _thread_generators.gen = _stream(seed, replicate_id)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed % _KEY_MOD, replicate_id % _KEY_MOD)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


@lru_cache(maxsize=32)
def _ar1_factors(n_time: int, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only factors of the multiplier recursion for one (T, gamma).

    The calendar recursion xi_i = gamma xi_(i-1) + x_i, with x_i the
    scaled normal of an observed day and 0 on the others, is read as rows
    of L = floor(ln(1e150) / -ln(gamma)) positions (at least 1, at most T),
    so that gamma^-i stays below 1e150 within a row. A row is a scaled
    prefix sum, xi_i = gamma^i sum_(k<=i) gamma^-k x_k, plus the previous
    row's last value times gamma^(i+1); that last value may leave out the
    carry from the row before it, because gamma^(L+1) < 1e-150 puts that
    below rounding. Returns the (rows, L) weights gamma^-i and the row
    factors gamma^i and gamma^(i+1); the scale of each day's normal is
    the mask's, in ``observed_days``. All paths of a run, on any thread,
    share the factors.
    """
    width = int(min(n_time, max(1, _ROW_LOG_RANGE // -np.log(gamma))))
    i = np.arange(width, dtype=np.float64)
    weights = np.empty((-(-n_time // width), width))
    weights[:] = gamma**-i
    decay = gamma**i
    carry = decay * gamma
    for arr in (weights, decay, carry):
        arr.flags.writeable = False
    return weights, decay, carry


class ObservedDays(NamedTuple):
    """The observed days of a mask and their factors in the multiplier
    recursion on its calendar grid, from ``observed_days``. Entry j belongs
    to the observed day ``positions[j]``, at offset i mod L in its row of L
    positions (see ``_ar1_factors``)."""

    positions: np.ndarray  # 0-based grid positions of the observed days
    weights: np.ndarray  # gamma^-(i mod L) sqrt(1 - gamma^(2 gap))
    decay: np.ndarray  # gamma^(i mod L)
    carry: np.ndarray  # gamma^(i mod L + 1)
    spans: tuple[tuple[int, int], ...]  # [start, end) of each row of L positions, as entries
    row_decay: float  # gamma^(L - 1), the factor of a row's last position


def observed_days(cfg: AwbConfig, mask: np.ndarray) -> ObservedDays:
    """What ``draw_multipliers`` needs to draw on the observed days of ``mask``.

    The normal of an observed day is scaled by sqrt(1 - gamma^(2 gap)),
    gap the days since the previous observed day, and the first by 1, so
    the path at observed days is the exact recursion xi_k = gamma^gap
    xi_(k-1) + sqrt(1 - gamma^(2 gap)) z_k: unit variance and correlation
    gamma^|t - s| between days t and s, the law of the complete-grid path
    read at those days. 1 - gamma^(2 gap) is formed with ``expm1``, which
    keeps its digits for gamma near 1.
    """
    n_time = mask.shape[0]
    gamma = cfg.resolve_gamma(n_time)
    weights, decay, carry = _ar1_factors(n_time, gamma)
    width = weights.shape[1]
    positions = np.flatnonzero(mask)
    scale = np.ones(positions.size)
    scale[1:] = np.sqrt(-np.expm1(2.0 * np.log(gamma) * np.diff(positions)))
    offset = positions % width
    bounds = np.searchsorted(positions, np.arange(weights.shape[0] + 1) * width).tolist()
    return ObservedDays(positions, weights.reshape(-1)[positions] * scale,
                        decay[offset], carry[offset], tuple(zip(bounds[:-1], bounds[1:])),
                        float(decay[-1]))


def draw_multipliers(cfg: AwbConfig, days: ObservedDays, ids: Sequence[int]) -> np.ndarray:
    """The multiplier paths of the replicate ``ids`` at the observed days of
    ``days``: one row per id, one column per observed day.

    One standard normal is drawn per observed day, scaled as in
    ``observed_days``, and the path runs through the calendar recursion
    xi_i = gamma xi_(i-1) + x_i with x_i 0 on unobserved days; at observed
    days it has unit variance and correlation gamma^|t - s|, and on a
    complete grid it is xi_i = gamma xi_(i-1) + sqrt(1 - gamma^2) z_i from
    xi_0 = z_0. The recursion runs as blocked scaled prefix sums (see
    ``_ar1_factors``) over the observed entries of each row of positions,
    for all rows of ids at once: the zeros of the unobserved days add
    nothing, so a row's last prefix sum is that of its last observed day,
    and that sum times gamma^(L-1) is the carry into the next row. This
    agrees with the direct recursion to rounding. Each id's row is the
    same whatever other ids share the call, and identical (seed, id) keys
    give identical rows regardless of execution order or worker count: a
    row's normals are those of ``_stream(cfg.seed, id)``, read from this
    thread's re-keyed generator. ``days`` must come from ``observed_days``
    with the same ``cfg``.
    """
    xi = np.empty((len(ids), days.positions.size))
    for row, replicate_id in zip(xi, ids):
        _rekeyed_stream(cfg.seed, replicate_id).standard_normal(out=row)
    xi *= days.weights
    last = None
    for lo, hi in days.spans:
        if lo == hi:
            last = None
            continue
        part = xi[:, lo:hi]
        np.add.accumulate(part, axis=1, out=part)
        carried, last = last, part[:, -1:] * days.row_decay
        part *= days.decay[lo:hi]
        if carried is not None:
            part += carried * days.carry[lo:hi]
    return xi


# Replicates run in blocks of about this many calendar values: k =
# max(1, 2^13 // T) consecutive ids. k depends on T alone, never on the
# thread count, so a block's rounding is the same on any schedule.
_BLOCK_VALUES = 2**13


def block_size(n_time: int) -> int:
    """Replicate ids per block on a T-day grid: max(1, 2^13 // T)."""
    return max(1, _BLOCK_VALUES // n_time)


def run_replicates(
    cfg: AwbConfig,
    base: np.ndarray,
    residuals: ObservedSeries,
    statistic: Callable[[np.ndarray], object],
) -> np.ndarray:
    """Evaluate ``statistic`` on the replicate series of ids 0..B-1, in
    blocks of ``block_size(T)`` consecutive ids.

    Replicate b is the series ``base + xi_b * residuals`` on the observed
    days of the residuals, an ``ObservedSeries``, ``xi_b`` the multiplier
    path of id b on those days. This is the only place a multiplier path
    is drawn and a replicate series built. Before the first draw, a base of
    another shape than the residuals is refused, the base is read on the
    observed days and the observed days' scale is built. Each block's
    paths come from one ``draw_multipliers`` call, and ``statistic``
    receives the block's replicates as the rows of one (k, n_obs) array of
    their values on the observed days, in grid order, the last block
    holding what is left of B; it returns one row per replicate, a (k,
    ...) array or a sequence of k equal-shaped rows. A statistic that
    cannot vectorise loops over the rows. It may overwrite the block and
    return it, but must not keep it, or any view of it, past its return.
    The blocks run on ``cfg.threads`` workers, each drawing from one
    generator that it re-keys per replicate; the output is identical for
    any thread count because each replicate depends only on its own
    counter-based stream and the blocks only on T. Results are written in
    replicate-id order into one (B, ...) float64 array shaped by the first
    block's rows, so every row must have that shape; another shape raises
    ``ValueError``. A statistic failure is re-raised as ``ReplicateError``
    naming the block's ids.
    """
    n_time = len(residuals)
    if base.shape != (n_time,):
        raise ValueError(f"base has shape {base.shape}, the residuals length {n_time}")
    days = observed_days(cfg, residuals.mask)
    base_o, residuals_o = base[days.positions], residuals.values[days.positions]
    k = block_size(n_time)
    blocks = [range(lo, min(lo + k, cfg.n_boot)) for lo in range(0, cfg.n_boot, k)]

    def one(ids: range) -> object:
        xi = draw_multipliers(cfg, days, ids)
        xi *= residuals_o
        xi += base_o
        try:
            return statistic(xi)
        except Exception as exc:  # noqa: BLE001 - re-raised with context
            raise ReplicateError(ids, str(exc)) from exc

    def collect(results: Iterator[object]) -> np.ndarray:
        out = None
        for ids, result in zip(blocks, results):
            rows = np.asarray(result, dtype=np.float64)
            if out is None:
                out = np.empty((cfg.n_boot,) + rows.shape[1:])
            if rows.shape != (len(ids),) + out.shape[1:]:
                raise ValueError(f"{replicate_ids(ids)} gave shape {rows.shape}, expected "
                                 f"{(len(ids),) + out.shape[1:]}")
            out[ids.start: ids.stop] = rows
        return out

    if cfg.threads == 1:
        return collect(map(one, blocks))
    from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return collect(pool.map(one, blocks))


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

    @property
    def mc_error(self) -> float:
        """Monte Carlo standard error of the p-value over the B draws."""
        return mc_error(self.p_value, self.draws.shape[0])


def mc_error(p: float, n: int) -> float:
    """Monte Carlo standard error sqrt(p (1 - p) / n) of a rate p estimated
    from n independent draws (Davidson & MacKinnon 2000, Econometric Reviews)."""
    return math.sqrt(p * (1.0 - p) / n)


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
