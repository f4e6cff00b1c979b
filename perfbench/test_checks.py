"""The benchmark's checkers accept branchlab's outputs and reject wrong ones.

Run from the root of the repository:

    python3 -m pytest -q perfbench

Each checker first sees the real output of a small branchlab run, which
must pass, and then a copy altered the way a faulty program could alter it.
"""

from __future__ import annotations

import copy
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import law  # noqa: E402
from branchlab import harness  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import PMF_HALF, POISSON_07, WORKLOADS  # noqa: E402

SEED = 7


def _run(tmp_path: Path, config: dict):
    result = harness.run({**config, "seed": SEED, "out": str(tmp_path)}, stderr=io.StringIO())
    assert result.report.passed
    return result


def _shift(payload: dict, name: str, by: float) -> dict:
    """A copy of the payload with one estimate moved by ``by``."""
    moved = copy.deepcopy(payload)
    checks.entries_by_name(moved)[name]["estimate"] += by
    return moved


def _se_shift(payload: dict, name: str, count: float = 10.0) -> dict:
    entry = checks.entries_by_name(payload)[name]
    return _shift(payload, name, count * entry["stderr"])


@pytest.fixture(scope="module")
def coupled(tmp_path_factory):
    config = {"experiment": "coupled", "offspring": {"kind": "bernoulli", "p": 0.8}, "K": 1000,
              "levels": [0.2, 0.5], "horizon": 51, "paths": 400, "batches": 40,
              "write_trajectories": False}
    return config, _run(tmp_path_factory.mktemp("coupled"), config).payload


@pytest.fixture(scope="module")
def extinction(tmp_path_factory):
    config = {"experiment": "extinction-scaling", "offspring": PMF_HALF, "K_list": [100, 1000],
              "paths": 8000, "batches": 40, "tau_sampler": "trajectory", "trend_gates": []}
    return config, _run(tmp_path_factory.mktemp("extinction"), config).payload


@pytest.fixture(scope="module")
def conditional(tmp_path_factory):
    config = {"experiment": "conditional-moments", "offspring": POISSON_07, "K": 1000,
              "u1": 0.3, "u2": 0.6, "l": 1, "paths": 20_000, "batches": 40,
              "ratio_band": [0.5, 1.5]}
    return config, _run(tmp_path_factory.mktemp("conditional"), config).payload


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    config = {"experiment": "simulate", "offspring": PMF_HALF, "K": 50, "paths": 200, "batches": 40,
              "write_trajectories": True}
    result = _run(tmp_path_factory.mktemp("dump"), config)
    return config, result.payload, checks.read_trajectories(result.run_dir / "trajectories.csv")


def test_law_matches_closed_forms():
    # bernoulli(p): P(tau_K <= n) = (1 - p^n)^K, and a one-line pmf is the same law.
    p, K = 0.6, 30
    closed = law.extinction_cdf({"kind": "bernoulli", "p": p}, K, 40)
    table = law.extinction_cdf({"kind": "pmf", "table": {"0": 1 - p, "1": p}}, K, 40)
    n = min(len(closed), len(table))
    np.testing.assert_allclose(closed[:n], table[:n], rtol=1e-12, atol=1e-300)
    assert closed[40] == pytest.approx((1 - p**40) ** K, rel=1e-12)
    pmf = law.tau_pmf(POISSON_07, 1000)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
    # m^tau with exponent 0 everywhere averages to 1.
    assert law.em_factor(pmf, 0.7, 0.5, 0.5, 1) == pytest.approx(1.0)


def test_coupled_checker(coupled):
    config, payload = coupled
    assert checks.check_coupled(config, payload) == []
    pmf = law.tau_pmf(config["offspring"], config["K"], config["horizon"])
    _, _, var = law.tau_moments(pmf, config["horizon"])
    se = math.sqrt(var / checks.entries_by_name(payload)["extinct_paths"]["estimate"])
    for sign in (1, -1):
        problems = checks.check_coupled(config, _shift(payload, "mean_tau", sign * 10 * se))
        assert any(p.startswith("mean_tau") for p in problems)
    assert checks.check_coupled(config, _shift(payload, "sandwich_violations", 1))


def test_extinction_checker(extinction):
    config, payload = extinction
    assert checks.check_extinction(config, payload) == []
    for name in ("K=100.K_mean_m_tau", "K=1000.mean_tau_over_logK"):
        problems = checks.check_extinction(config, _se_shift(payload, name))
        assert len(problems) == 1 and problems[0].startswith(name.replace("_over_logK", ""))
    assert checks.check_extinction(config, _shift(payload, "K=1000.censored_paths", 1))


def test_conditional_checker(conditional):
    config, payload = conditional
    assert checks.check_conditional(config, payload) == []
    for label in ("forward", "reverse"):
        problems = checks.check_conditional(config, _se_shift(payload, f"{label}.em_factor"))
        assert len(problems) == 1 and problems[0].startswith(f"{label}.em_factor")
    assert checks.check_conditional(config, _shift(payload, "forward.aggregate_ratio", 1.0))
    assert checks.check_conditional(config, _shift(payload, "reverse.marginalization_rel_residual", 1e-6))


def test_trajectory_checker(dump):
    config, payload, rows = dump
    assert checks.check_simulate(config, payload, rows) == []

    negative = rows.copy()
    negative[1, 2] = -3
    assert any("negative" in p for p in checks.check_simulate(config, payload, negative))

    # Path 0 goes on after it reached 0: one more row n = tau + 1.
    end = int(np.flatnonzero(rows[:, 1] == 0)[1])
    extra = np.array([[0, rows[end - 1, 1] + 1, 0]])
    longer = np.concatenate([rows[:end], extra, rows[end:]])
    assert any("after it reached 0" in p for p in checks.check_simulate(config, payload, longer))

    taus = np.diff(np.flatnonzero(rows[:, 1] == 0), append=len(rows)) - 1
    se = float(taus.std(ddof=1)) / math.sqrt(len(taus))
    problems = checks.check_simulate(config, _shift(payload, "mean_tau", 10 * se), rows)
    assert any(p.startswith("mean_tau") for p in problems)


def test_workload_configs_validate():
    for workload in WORKLOADS.values():
        for config in workload.with_run_settings(0, Path("runs")):
            assert [d for d in harness.validate(config) if d.severity == "error"] == []
    assert WORKLOADS["coupled-sandwich"].configs[0]["horizon"] == 62
    assert WORKLOADS["extinction-grid"].paths_per_round() == 2 * 4 * 400_000


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(100_000)))

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_body)
    outer()
    calls, self_s = tracer.totals()
    assert calls == {"inner": 2, "outer": 1}
    total = tracer.end[0] - tracer.start[0]
    children = sum(tracer.end[i] - tracer.start[i] for i in (1, 2))
    assert self_s["outer"] == pytest.approx(total - children)
    assert self_s["inner"] == pytest.approx(children)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    done = subprocess.run([*spec["command"], "--workload", "simulate-dump", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
