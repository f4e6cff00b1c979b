"""Print the sha256 of every report file a fixed set of runs writes.

Runs the criterion-9 ``REPRO_CONFIGS`` of ``test_acceptance.py`` at workers
1 and 2, the configs of every ``perfbench/workloads.py`` workload at seed
1, and the ``SHORT_LAST_STACK`` configs, each into a fresh temporary
directory, and prints one line ``sha256  <run-dir>/<file>`` per
``report.json``, ``report.csv``, ``trajectories.csv`` and ``matrix.csv``.
The run directory is named by its group (``repro-workers-1``,
``repro-workers-2``, ``workloads`` or ``short-last-stack``) and by the
name ``harness.run`` gave it, which carries the config hash. So two
checkouts write the same report bytes to the same run directories when
their outputs are equal::

    python3 tests/report_digests.py > after.txt
    diff before.txt after.txt

It takes no options and changes no file of the checkout. It is not a
test module, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for part in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / part))

from test_acceptance import BERN05, POISSON07, REPRO_CONFIGS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from branchlab import harness  # noqa: E402

FILES = ("report.json", "report.csv", "trajectories.csv", "matrix.csv")

#: 12 000 paths in 40 batches of 300: stacks of 13, 13, 13 and 1 batches,
#: a layout no other config here gives.
SHORT_LAST_STACK = (
    {"experiment": "simulate", "offspring": BERN05, "seed": 7, "K": 50},
    {"experiment": "conditional-moments", "offspring": POISSON07, "seed": 17, "K": 300,
     "u1": 0.3, "u2": 0.6},
)


def _runs(out: Path):
    """(group, config) of every run, in a fixed order."""
    for workers in (1, 2):
        group = f"repro-workers-{workers}"
        for kind, cfg in REPRO_CONFIGS.items():
            yield group, {**cfg, "experiment": kind, "workers": workers, "out": str(out / group)}
    for workload in WORKLOADS.values():
        yield from (("workloads", cfg)
                    for cfg in workload.with_run_settings(seed=1, out=out / "workloads"))
    group = "short-last-stack"
    for cfg in SHORT_LAST_STACK:
        yield group, {**cfg, "paths": 12_000, "batches": 40, "out": str(out / group)}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for group, cfg in _runs(out):
            run_dir = harness.run(cfg, stderr=io.StringIO()).run_dir
            for name in FILES:
                path = run_dir / name
                if path.exists():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {group}/{run_dir.name}/{name}", flush=True)


if __name__ == "__main__":
    main()
