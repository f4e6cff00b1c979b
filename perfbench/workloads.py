"""The benchmark's workloads: branchlab configs, their path counts and their checks.

Each workload is a list of configs run through ``harness.run`` one after
the other; one config run plus its checks is one operation. The config seed
is the benchmark's ``--seed``, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

#: criterion 4's m = 0.5 arm; also the law of the simulate workload.
PMF_HALF = {"kind": "pmf", "table": {"0": 0.528, "1": 0.444, "2": 0.028}}
BINOMIAL_08 = {"kind": "binomial", "n": 2, "p": 0.4}
BERNOULLI_08 = {"kind": "bernoulli", "p": 0.8}
POISSON_07 = {"kind": "poisson", "lambda": 0.7}


def _coupled_horizon(K: int, p: float) -> int:
    """criterion 1's horizon: ceil(log K / -log m) + 20."""
    return math.ceil(math.log(K) / -math.log(p)) + 20


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple[dict, ...]
    check: Callable[[dict, Path], list[str]]

    def paths_per_round(self) -> int:
        """Paths simulated by one round: paths times the length of K_list, summed."""
        return sum(c["paths"] * len(c.get("K_list") or [c["K"]]) for c in self.configs)

    def with_run_settings(self, seed: int, out: Path, workers: int | None = None) -> list[dict]:
        """The configs as harness.run takes them; ``workers`` overrides the workload's own."""
        settings = {"seed": seed, "out": str(out)}
        if workers is not None:
            settings["workers"] = workers
        return [{**c, **settings} for c in self.configs]


def _report(run_dir: Path) -> dict:
    return json.loads((run_dir / "report.json").read_text(encoding="utf-8"))


def _check_report(checker) -> Callable[[dict, Path], list[str]]:
    return lambda config, run_dir: checker(config, _report(run_dir))


def _check_dump(config: dict, run_dir: Path) -> list[str]:
    return checks.check_simulate(config, _report(run_dir), checks.read_trajectories(run_dir / "trajectories.csv"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coupled-sandwich",
            ({
                "experiment": "coupled", "offspring": BERNOULLI_08, "K": 10_000,
                "levels": [0.05, 0.2, 0.5], "horizon": _coupled_horizon(10_000, 0.8),
                "paths": 400, "batches": 40, "write_trajectories": False, "workers": 1,
            },),
            _check_report(checks.check_coupled),
        ),
        Workload(
            "extinction-grid",
            tuple({
                "experiment": "extinction-scaling", "offspring": arm,
                "K_list": [100, 1000, 10_000, 100_000], "paths": 400_000, "batches": 40,
                "tau_sampler": "trajectory", "median_rel_tol": 0.05,
                "trend_gates": ["median"], "trend_slack": 1e-9, "se_k": 6.0, "workers": 2,
            } for arm in (BINOMIAL_08, PMF_HALF)),
            _check_report(checks.check_extinction),
        ),
        Workload(
            "conditional-grid",
            tuple({
                "experiment": "conditional-moments", "offspring": POISSON_07, "K": K,
                "u1": 0.3, "u2": 0.6, "l": 1, "paths": 200_000, "batches": 40,
                "ratio_band": [0.85, 1.15], "workers": 1,
            } for K in (10_000, 100_000, 1_000_000)),
            _check_report(checks.check_conditional),
        ),
        Workload(
            "simulate-dump",
            ({
                "experiment": "simulate", "offspring": PMF_HALF, "K": 10_000,
                "paths": 20_000, "batches": 40, "write_trajectories": True, "workers": 1,
            },),
            _check_dump,
        ),
    )
}
