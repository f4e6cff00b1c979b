"""One workload in a fresh Python process: set up, run whole rounds, check every output.

``run.py`` starts this script and reads the JSON object it prints as its
last standard-output line:

    python3 perfbench/session.py --workload NAME --seed N --seconds S --trace 0|1 --spawned-at T
    python3 perfbench/session.py --workload NAME --seed N --spawned-at T --setup-only

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process. Linux's monotonic clock is shared by all processes, so
``setup_s`` runs from process start to the first experiment call: importing
numpy, scipy and branchlab, building the configs and running
``harness.validate`` on each.

A round runs every config of the workload once through ``harness.run``;
rounds repeat until ``--seconds`` have passed, and at least one runs. An
operation is one config run plus its checks, and it fails when
``harness.run`` raises, when the report's verdict is not passed, or when a
check finds a problem.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Run directories and span files; ``runs/`` is where branchlab writes by default.
OUT = ROOT / "runs" / "perfbench"


@dataclass
class Round:
    wall_s: float
    failed: int
    bytes_written: int


def setup(name: str, seed: int, workers: int | None):
    """Import the program, build the workload's configs and validate them."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (imports are part of set-up time)
    import scipy.stats  # noqa: F401

    import branchlab
    from branchlab import harness
    from workloads import WORKLOADS

    if Path(branchlab.__file__).resolve().parent != ROOT / "src" / "branchlab":
        raise SystemExit(f"imported branchlab from {branchlab.__file__}, not from this checkout")
    workload = WORKLOADS[name]
    configs = workload.with_run_settings(seed, OUT / name, workers)
    for config in configs:
        errors = [d.message for d in harness.validate(config) if d.severity == "error"]
        if errors:
            raise SystemExit(f"{name}: branchlab rejects a config: {'; '.join(errors)}")
    return harness, workload, configs


def run_round(harness, workload, configs, reported: set[str]) -> Round:
    """Every config once; problems are printed to stderr the first time they occur."""
    wall = 0.0
    failed = bytes_written = 0
    for config in configs:
        started = time.perf_counter()
        try:
            result = harness.run(config, stderr=io.StringIO())
        except Exception:
            wall += time.perf_counter() - started
            failed += 1
            _report_once(reported, f"{workload.name}: harness.run raised\n{traceback.format_exc()}")
            continue
        wall += time.perf_counter() - started
        try:
            problems = [] if result.report.passed else ["the report's verdict is not passed"]
            problems += workload.check(config, result.run_dir)
        except Exception:
            problems = [f"a check raised\n{traceback.format_exc()}"]
        if problems:
            failed += 1
            for problem in problems:
                _report_once(reported, f"{workload.name}: {problem}")
        bytes_written += sum(f.stat().st_size for f in result.run_dir.rglob("*") if f.is_file())
    return Round(wall, failed, bytes_written)


def _report_once(reported: set[str], message: str) -> None:
    if message not in reported:
        reported.add(message)
        print(message, file=sys.stderr)


def peak_rss_mb() -> float:
    """The larger of ru_maxrss for this process and its reaped children (KiB on Linux)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def untraced(harness, workload, configs, seconds: float) -> dict:
    reported: set[str] = set()
    rounds: list[Round] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(run_round(harness, workload, configs, reported))
    wall = statistics.median(r.wall_s for r in rounds)
    return {
        "rounds": len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            "wall_s": wall,
            "paths_per_s": workload.paths_per_round() / wall,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def traced(harness, workload, configs, seconds: float) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics are medians over traced rounds."""
    from spans import Tracer

    reported: set[str] = set()
    plain: list[Round] = []
    layered: list[tuple[Round, dict]] = []
    first = None
    started = time.perf_counter()
    while not layered or time.perf_counter() - started < seconds:
        plain.append(run_round(harness, workload, configs, reported))
        tracer = Tracer()
        with tracer.patched():
            done = run_round(harness, workload, configs, reported)
        metrics = tracer.layer_metrics()
        metrics["harness.bytes_written"] = done.bytes_written
        layered.append((done, metrics))
        if first is None:
            first = tracer
    first.write(OUT / workload.name / "spans.csv")
    metrics = {key: statistics.median(m[key] for _, m in layered) for key in layered[0][1]}
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r, _ in layered)
                                   - statistics.median(r.wall_s for r in plain))
    return {
        "rounds": len(plain) + len(layered),
        "failed": sum(r.failed for r in plain) + sum(r.failed for r, _ in layered),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # A traced run uses one worker: spans made in pool workers would be lost.
    harness, workload, configs = setup(args.workload, args.seed, 1 if args.trace else None)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        measure = traced if args.trace else untraced
        result = measure(harness, workload, configs, args.seconds)
        result.update(setup_s=setup_s, operations_per_round=len(configs))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
