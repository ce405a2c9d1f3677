"""One fresh process of a benchmark run: set-up, then whole timed rounds.

Usage: python3 bench/worker.py SPEC.json

The spec names the output directory, the CLI seed, the untimed
prerequisite commands, the timed commands, the seconds to measure, and
whether to trace. Set-up is the import of ``gaptrend.cli`` plus the
prerequisites. Rounds of the timed commands run in process through
``gaptrend.cli.run`` until another round would overrun the seconds; a
traced run alternates untraced and traced rounds. The result (set-up
time, per-round wall times, exit codes, output digests, peak RSS and the
layer metrics of traced rounds) goes to the spec's result file, because
the CLI itself prints to stdout.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracing import COMMAND, Tracer, layer_metrics

# Holds wall-clock run time, so it differs between rounds by design.
UNSTABLE_OUTPUTS = {"panel_A_meta.json"}


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.is_file() and path.name not in UNSTABLE_OUTPUTS:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def timed_rounds(run, base: list[str], spec: dict) -> dict:
    tracer = Tracer() if spec["trace"] else None
    min_rounds = 2 if tracer else 1
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        codes = []
        t = time.perf_counter()
        for argv in spec["timed"]:
            if traced:
                with tracer.span(COMMAND):
                    codes.append(run(base + argv))
            else:
                codes.append(run(base + argv))
        wall = time.perf_counter() - t
        if traced:
            tracer.uninstall()
        rounds.append({
            "wall_s": wall,
            "codes": codes,
            "traced": traced,
            "digest": output_digest(Path(spec["out"])),
            "layers": layer_metrics(tracer.spans) if traced else None,
        })
        longest = max(r["wall_s"] for r in rounds)
        if len(rounds) >= min_rounds and time.perf_counter() - start + longest > spec["seconds"]:
            break
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"rounds": rounds, "peak_rss_mb": peak_mb}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t = time.perf_counter()
    from gaptrend.cli import run
    import_s = time.perf_counter() - t

    base = ["--out", spec["out"], "--seed", str(spec["seed"]), "--threads", "1"]
    t = time.perf_counter()
    for argv in spec["prereq"]:
        if run(base + argv) != 0:
            print(f"prerequisite command failed: {argv}", file=sys.stderr)
            return 1
    result = {"setup_s": import_s + time.perf_counter() - t}
    if not spec["setup_only"]:
        result.update(timed_rounds(run, base, spec))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
