"""Static checks on the package source."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "gaptrend"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that no other line
    reads; a module's ``__all__`` entries count as read (re-exports)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == [
        "argv (line 2)", "os (line 1)"]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SOURCE / module).read_text()) == []


REPLICATE_DRAWS = {"draw_multipliers"}


def draws_outside_runner(source: str, runner: str | None = "run_replicates",
                         names: set[str] = REPLICATE_DRAWS) -> list[str]:
    """Reads of any of ``names`` (by default ``draw_multipliers``) in
    ``source`` outside the top-level function ``runner``: a call, or the
    function handed on to be called elsewhere. Imports and ``__all__``
    strings are not reads."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == runner
              for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in names and id(node) not in inside:
            found.append((node.lineno, node.col_offset, name))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


def test_guard_flags_a_draw_outside_the_runner():
    planted = (
        "from .awb import draw_multipliers\n"
        "def run_replicates(cfg, base, residuals):\n"
        "    return base + draw_multipliers(cfg, 2, 0) * residuals.values\n"
        "def statistic(cfg):\n"
        "    return awb.draw_multipliers(cfg, 2, 1)\n"
        "draw = draw_multipliers\n"
    )
    assert draws_outside_runner(planted) == ["draw_multipliers (line 5)",
                                             "draw_multipliers (line 6)"]
    assert draws_outside_runner(planted, runner=None) == [
        "draw_multipliers (line 3)", "draw_multipliers (line 5)", "draw_multipliers (line 6)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_multipliers_drawn_only_in_the_replicate_runner(module):
    # One replicate loop: every multiplier path and replicate series of the
    # package comes from awb.run_replicates.
    runner = "run_replicates" if module == "awb.py" else None
    assert draws_outside_runner((SOURCE / module).read_text(), runner) == []


def test_guard_flags_a_hash_outside_the_report_writer():
    planted = (
        "def _sha256(path):\n"
        "    return path\n"
        "def _write_report(ctx):\n"
        "    return _sha256(ctx.params['input_path'])\n"
        "def ingest(ctx, input_path):\n"
        "    return {'input_sha256': _sha256(input_path)}, cli._sha256\n"
    )
    assert draws_outside_runner(planted, "_write_report", {"_sha256"}) == [
        "_sha256 (line 6)", "_sha256 (line 6)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_files_hashed_only_in_the_report_writer(module):
    # One report writer: the input or fit file hash of every report comes
    # from cli._write_report, which reads the file name off the parsed flags.
    assert draws_outside_runner((SOURCE / module).read_text(), "_write_report", {"_sha256"}) == []


GENERATORS = {"Philox", "Generator"}


def calls_named(source: str, names: set[str]) -> list[str]:
    """Calls in ``source`` of any of ``names``, by attribute
    (``np.random.Philox(...)``) or by imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in names:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_guard_flags_a_generator_built_outside_awb():
    planted = (
        "import numpy as np\n"
        "from numpy.random import Philox\n"
        "def draw(key, rng: np.random.Generator):\n"
        "    return np.random.Generator(np.random.Philox(key=key)), Philox(1)\n"
    )
    assert calls_named(planted, GENERATORS) == [
        "Generator (line 4)", "Philox (line 4)", "Philox (line 4)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_generators_built_only_in_awb(module):
    # Building a Philox reads OS entropy for a seed sequence its key then
    # discards; awb re-keys one generator per thread instead, so no other
    # module builds one per replicate.
    built = calls_named((SOURCE / module).read_text(), GENERATORS)
    assert built == [] or module == "awb.py"


RAW_VIEWS = {"ndarray", "as_strided"}


def test_guard_flags_a_raw_strided_view():
    planted = (
        "import numpy as np\n"
        "from numpy.lib.stride_tricks import as_strided, sliding_window_view\n"
        "def view(x: np.ndarray, w: int) -> np.ndarray:\n"
        "    assert isinstance(x, np.ndarray)\n"
        "    rows = np.ndarray((x.shape[0] - w + 1, w), x.dtype, x, 0, x.strides * 2)\n"
        "    return rows, as_strided(x, rows.shape), sliding_window_view(x, w)\n"
    )
    assert calls_named(planted, RAW_VIEWS) == ["ndarray (line 5)", "as_strided (line 6)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_no_raw_strided_views(module):
    # The ndarray constructor and as_strided lay an array over a raw buffer
    # with hand-set strides and check no bounds. sliding_window_view gives a
    # read-only, bounds-checked view instead.
    assert calls_named((SOURCE / module).read_text(), RAW_VIEWS) == []


LAZY_MODULES = ("concurrent.futures", "logging", "hashlib")


def test_cli_import_loads_no_lazy_module():
    # Every command pays for importing gaptrend.cli. A thread pool (which
    # loads logging) and hashlib (which loads OpenSSL) serve only some
    # commands, so they are imported where they are used.
    code = f"import sys, gaptrend.cli; print([m for m in {LAZY_MODULES!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, (str(SOURCE.parent), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert run.stdout.strip() == "[]"


FIT_TYPES = {"KernelTrendFit", "BrokenTrendFit"}


def params_annotated(source: str, first: set[str], second: set[str]) -> list[str]:
    """Public functions and methods of ``source`` with a parameter annotated
    with a name of ``first`` beside another annotated with a name of
    ``second``, read off the annotations (quoted ones included)."""

    def annotated(arg: ast.arg) -> set[str]:
        names = set()
        for node in ast.walk(arg.annotation) if arg.annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                node = ast.parse(node.value, mode="eval").body
            names |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                      if isinstance(n, (ast.Name, ast.Attribute))}
        return names

    tree = ast.parse(source)
    scopes = [("", tree)] + [(f"{c.name}.", c) for c in tree.body if isinstance(c, ast.ClassDef)]
    found = []
    for prefix, scope in scopes:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            kinds = [annotated(a) for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
            firsts = [i for i, k in enumerate(kinds) if k & first]
            seconds = [i for i, k in enumerate(kinds) if k & second]
            if any(i != j for i in firsts for j in seconds):
                found.append(f"{prefix}{fn.name} (line {fn.lineno})")
    return found


def series_beside_fit(source: str) -> list[str]:
    """Procedures of ``source`` that take an ``ObservedSeries`` beside a
    ``KernelTrendFit`` or ``BrokenTrendFit``."""
    return params_annotated(source, {"ObservedSeries"}, FIT_TYPES)


def series_beside_config(source: str) -> list[str]:
    """Procedures of ``source`` that take an ``ObservedSeries`` beside an
    ``AwbConfig``: a bootstrap of a series rather than of a fit."""
    return params_annotated(source, {"ObservedSeries"}, {"AwbConfig"})


def test_guard_flags_a_series_beside_a_fit():
    planted = (
        "def bands(eps: ObservedSeries, fit: KernelTrendFit, cfg=None): ...\n"
        "def ci(fit: 'BrokenTrendFit', s: gaptrend.ObservedSeries | None = None): ...\n"
        "def _private(eps: ObservedSeries, fit: KernelTrendFit): ...\n"
        "def alone(fit: KernelTrendFit, values: np.ndarray) -> ObservedSeries: ...\n"
        "def either(x: ObservedSeries | KernelTrendFit): ...\n"
        "class Scan:\n"
        "    def fit(self, series: ObservedSeries, state) -> BrokenTrendFit: ...\n"
        "    def refit(self, fit: BrokenTrendFit, *, series: ObservedSeries): ...\n"
    )
    assert series_beside_fit(planted) == ["bands (line 1)", "ci (line 2)", "Scan.refit (line 8)"]


def test_guard_flags_a_series_beside_a_bootstrap_config():
    planted = (
        "def test(series: ObservedSeries, trim=None, cfg: AwbConfig | None = None): ...\n"
        "def both(s: 'ObservedSeries', cfg: 'awb.AwbConfig | None' = None) -> BootstrapTest: ...\n"
        "def _private(series: ObservedSeries, cfg: AwbConfig): ...\n"
        "def fit_first(fit: BrokenTrendFit, cfg: AwbConfig | None = None): ...\n"
        "def returns(cfg: AwbConfig) -> ObservedSeries: ...\n"
        "def either(x: ObservedSeries | AwbConfig): ...\n"
        "class Fit:\n"
        "    def bootstrap(self, cfg: AwbConfig, *, series: ObservedSeries): ...\n"
    )
    assert series_beside_config(planted) == ["test (line 1)", "both (line 2)",
                                             "Fit.bootstrap (line 8)"]


@pytest.mark.parametrize("module", ["breaktrend.py", "kerneltrend.py", "shapetests.py"])
def test_no_procedure_takes_a_series_beside_a_fit(module):
    # A fit carries the series it was estimated on, and every bootstrap of
    # the estimate resamples that series: a second series argument could
    # only disagree with it.
    assert series_beside_fit((SOURCE / module).read_text()) == []


@pytest.mark.parametrize("module", ["breaktrend.py", "kerneltrend.py", "shapetests.py"])
def test_no_procedure_bootstraps_a_series(module):
    # Every bootstrap procedure takes an estimate alone: it is estimated
    # once, and the bootstrap resamples the series the fit carries, so no
    # procedure takes a bootstrap configuration beside a series.
    assert series_beside_config((SOURCE / module).read_text()) == []


RUNNER_MODULES = {"awb.py", "breaktrend.py", "kerneltrend.py"}
PILOT_PARTS = {"nw_smoother", "pilot_bandwidth"}


def test_guard_flags_a_shape_test_that_builds_its_own_bootstrap():
    planted = (
        "from .awb import run_replicates\n"
        "from .kerneltrend import nw_smoother, pilot_bandwidth\n"
        "def extremum_ci(fit, cfg):\n"
        "    pilot = nw_smoother(fit.series.mask, pilot_bandwidth(fit.h))(fit.series.values)\n"
        "    smooth = kerneltrend.nw_smoother\n"
        "    return awb.run_replicates(cfg, pilot, fit.series, fit.smooth)\n"
        "def linearity_test(fit, cfg):\n"
        "    return fit.bootstrap(cfg, fit.pilot, fit.smooth)\n"
    )
    assert calls_named(planted, {"run_replicates"}) == ["run_replicates (line 6)"]
    assert draws_outside_runner(planted, None, PILOT_PARTS) == [
        "nw_smoother (line 4)", "pilot_bandwidth (line 4)", "nw_smoother (line 5)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCE.glob("*.py")))
def test_replicates_run_only_in_the_runner_modules(module):
    # A kernel trend's bootstraps all run through KernelTrendFit.bootstrap,
    # which resamples the residuals around the fit's one pilot; the shape
    # tests reach the replicate runner, the smoother and the pilot only
    # through the fit.
    source = (SOURCE / module).read_text()
    assert calls_named(source, {"run_replicates"}) == [] or module in RUNNER_MODULES
    if module == "shapetests.py":
        assert draws_outside_runner(source, None, PILOT_PARTS) == []


def unresolved_targets(tracing: str, modules: dict[str, str]) -> list[str]:
    """Entries ``(module, attr)`` of the ``TARGETS`` list in ``tracing`` that
    the source of ``module`` in ``modules`` does not define: ``attr`` is a
    top-level function or class, or ``Class.method`` a function in that
    class's body."""
    targets = next(ast.literal_eval(node.value) for node in ast.parse(tracing).body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    missing = []
    for module, attr in targets:
        scope = ast.parse(modules[module]) if module in modules else None
        for part in attr.split("."):
            scope = next((node for node in getattr(scope, "body", ())
                          if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                          and node.name == part), None)
        if scope is None:
            missing.append(f"{module}.{attr}")
    return missing


def test_guard_flags_a_trace_target_the_source_lacks():
    tracing = (
        "import time\n"
        "TARGETS = [\n"
        "    ('gaptrend.shapetests', 'trend_minimum'),\n"
        "    ('gaptrend.shapetests', 'TrendAnchor'),\n"
        "    ('gaptrend.shapetests', 'UStatEngine.profiles'),\n"
        "    ('gaptrend.shapetests', 'UStatEngine.u3'),\n"
        "    ('gaptrend.shapetests', 'profiles'),\n"
        "    ('gaptrend.trends', 'nw_estimate'),\n"
        "]\n"
    )
    shapetests = (
        "def trend_minimum(fit): ...\n"
        "class UStatEngine:\n"
        "    def profiles(self, y): ...\n"
        "def _helper():\n"
        "    class TrendAnchor: ...\n"
    )
    assert unresolved_targets(tracing, {"gaptrend.shapetests": shapetests}) == [
        "gaptrend.shapetests.TrendAnchor", "gaptrend.shapetests.UStatEngine.u3",
        "gaptrend.shapetests.profiles", "gaptrend.trends.nw_estimate"]


def test_bench_trace_targets_resolve():
    # The benchmark's tracer wraps library functions and methods by name; a
    # name the package no longer defines would fail only a traced run.
    tracing = (SOURCE.parents[1] / "bench" / "tracing.py").read_text()
    modules = {f"gaptrend.{p.stem}": p.read_text() for p in SOURCE.glob("*.py")}
    assert unresolved_targets(tracing, modules) == []
