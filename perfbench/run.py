"""Benchmark command: branchlab experiment kinds timed to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. For one workload the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. With ``all`` every
workload runs in turn and each prints its metrics by name and unit.

The workload runs in a fresh Python process (session.py). Untraced runs also
start SETUP_PROBES processes that only set up, and report the median set-up
time of all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
#: A workload is stopped when it runs this much longer than ``--seconds``:
#: enough for its set-up processes and a last round that starts just before
#: ``--seconds`` are up (about 30 s for a traced ``extinction-grid`` pair).
SLACK_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args: list[str], timeout: float) -> dict:
    """Run session.py with ``args`` and return the JSON object it printed last."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), *args, "--spawned-at", repr(spawned_at)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"session {' '.join(args)} did not finish within {timeout:.0f} s") from None
    finally:
        # Pool workers left behind by a failed session share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"session {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, spec: dict, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn([*common, "--setup-only"], deadline - time.monotonic())["setup_s"])
    session = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline - time.monotonic())
    setups.append(session["setup_s"])
    measured = dict(session["metrics"], setup_s=statistics.median(setups))
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": session["failed"] == 0,
        "attempted": session["rounds"] * session["operations_per_round"],
        "failed": session["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "branchlab" / "__init__.py").is_file():
        print(f"error: no branchlab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for name in chosen:
        deadline = time.monotonic() + args.seconds + SLACK_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, spec, deadline)
        except BenchmarkError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            r = results[name]
            print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, correct {str(r['correct']).lower()}")
            for metric, v in r["metrics"].items():
                print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
