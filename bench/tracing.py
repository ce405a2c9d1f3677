"""In-memory span tracing of the gaptrend layers, installed from outside.

The tracer wraps public functions and methods of the library modules. A
function is replaced under every name that refers to it in a loaded
``gaptrend`` module, so a call through ``cli``'s import, through another
library module's import, or through the defining module's own globals is
recorded alike. Methods are patched on their class. Spans are kept in a
list and turned into per-layer metrics after the run; nothing is written
while timing.

Replicates run on one thread (``--threads 1``), so one call stack gives
every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute) of every wrapped callable. Besides the layers the
# metrics name, this lists each library entry point the CLI calls, so that
# a command's self time excludes all library work.
TARGETS = [
    ("gaptrend.awb", "draw_multipliers"),
    ("gaptrend.breaktrend", "BreakScan.__init__"),
    ("gaptrend.breaktrend", "BreakScan.scan"),
    ("gaptrend.breaktrend", "break_test"),
    ("gaptrend.breaktrend", "estimate_break"),
    ("gaptrend.breaktrend", "break_ci"),
    ("gaptrend.breaktrend", "slope_cis"),
    ("gaptrend.kerneltrend", "mcv_scan"),
    ("gaptrend.kerneltrend", "nw_estimate"),
    ("gaptrend.kerneltrend", "trend_bootstrap_paths"),
    ("gaptrend.kerneltrend", "pointwise_bands"),
    ("gaptrend.kerneltrend", "simultaneous_bands"),
    ("gaptrend.kerneltrend", "confidence_bands"),
    ("gaptrend.shapetests", "extremum_ci"),
    ("gaptrend.shapetests", "linearity_test"),
    ("gaptrend.shapetests", "trend_minimum"),
    ("gaptrend.shapetests", "monotonicity_tests"),
    ("gaptrend.shapetests", "UStatEngine.profiles"),
    ("gaptrend.series", "ingest_csv"),
    ("gaptrend.series", "write_canonical_csv"),
    ("gaptrend.seasonal", "fit_seasonal"),
    ("gaptrend.seasonal", "deseasonalize"),
    ("gaptrend.mcharness", "simulate_series"),
    ("gaptrend.mcharness", "run_panel"),
    ("gaptrend.cli", "load_fit_artifact"),
]

COMMAND = "cli.command"
DRAW = "awb.draw_multipliers"


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.replace('__init__', 'init')}"


class Tracer:
    """Records (name, start, end, parent index) spans while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("gaptrend") and m]
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced round (see README for the list)."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    def total(name: str) -> float:
        return sum(d for s, d in zip(spans, dur) if s[0] == name)

    def self_time(name: str) -> float:
        return sum(d - c for s, d, c in zip(spans, dur, child) if s[0] == name)

    def per_call_ms(name: str) -> float:
        n = calls(name)
        return 1e3 * total(name) / n if n else 0.0

    def ancestors(i: int) -> set[str]:
        names = set()
        parent = spans[i][3]
        while parent >= 0:
            names.add(spans[parent][0])
            parent = spans[parent][3]
        return names

    # Bootstrap replicates of a layer are the multiplier draws beneath it.
    draw_owners = [ancestors(i) for i, s in enumerate(spans) if s[0] == DRAW]

    def per_rep_ms(name: str) -> float:
        reps = sum(1 for owners in draw_owners if name in owners)
        return 1e3 * total(name) / reps if reps else 0.0

    cli_self = sum(d - c for s, d, c in zip(spans, dur, child) if s[0].startswith("cli."))
    return {
        "awb.draw_multipliers.ms_per_call": per_call_ms(DRAW),
        "awb.draw_multipliers.calls": calls(DRAW),
        "breaktrend.BreakScan.init.ms_per_call": per_call_ms("breaktrend.BreakScan.init"),
        "breaktrend.BreakScan.init.calls": calls("breaktrend.BreakScan.init"),
        "breaktrend.BreakScan.scan.ms_per_call": per_call_ms("breaktrend.BreakScan.scan"),
        "breaktrend.BreakScan.scan.calls": calls("breaktrend.BreakScan.scan"),
        "breaktrend.break_test.s": total("breaktrend.break_test"),
        "breaktrend.break_ci.s": total("breaktrend.break_ci"),
        "breaktrend.slope_cis.s": total("breaktrend.slope_cis"),
        "kerneltrend.mcv_scan.s": total("kerneltrend.mcv_scan"),
        "kerneltrend.trend_bootstrap_paths.ms_per_rep":
            per_rep_ms("kerneltrend.trend_bootstrap_paths"),
        "kerneltrend.trend_bootstrap_paths.calls": calls("kerneltrend.trend_bootstrap_paths"),
        "kerneltrend.pointwise_bands.self_s": self_time("kerneltrend.pointwise_bands"),
        "kerneltrend.simultaneous_bands.s": total("kerneltrend.simultaneous_bands"),
        "shapetests.extremum_ci.self_s": self_time("shapetests.extremum_ci"),
        "shapetests.linearity_test.ms_per_rep": per_rep_ms("shapetests.linearity_test"),
        "shapetests.UStatEngine.profiles.ms_per_call": per_call_ms("shapetests.UStatEngine.profiles"),
        "shapetests.UStatEngine.profiles.calls": calls("shapetests.UStatEngine.profiles"),
        "series.ingest_csv.s": total("series.ingest_csv"),
        "series.write_canonical_csv.s": total("series.write_canonical_csv"),
        "seasonal.fit_seasonal.s": total("seasonal.fit_seasonal"),
        "cli.self_s": cli_self,
        "cli.load_fit_artifact.s": total("cli.load_fit_artifact"),
        "mcharness.simulate_series.ms_per_call": per_call_ms("mcharness.simulate_series"),
        "mcharness.draws": calls("mcharness.simulate_series"),
    }
