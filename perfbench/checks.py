"""Checks of branchlab's persisted outputs against the benchmark's own law.

Every checker takes the config a run was given and the report payload it
wrote (the parsed ``report.json``), and returns a list of problems; an empty
list means the output passed. Statistical checks allow ``SE_K`` standard
errors: with 40 batches a batch standard error follows Student's t with 39
degrees of freedom, whose two-sided tail beyond 6 is 5e-7 per check, so a
correct program passes every seed a benchmark session draws, while an
estimate moved by 10 standard errors fails.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import law

SE_K = 6.0
#: Relative tolerance for quantities that are exact up to rounding.
EXACT_RTOL = 1e-9


def entries_by_name(payload: dict) -> dict[str, dict]:
    return {e["name"]: e for e in payload["entries"]}


def _within(problems: list[str], name: str, estimate: float, target: float, se: float) -> None:
    """Append a problem unless |estimate - target| <= SE_K * se."""
    if not (se > 0.0 and math.isfinite(se)):
        problems.append(f"{name}: unusable standard error {se!r}")
        return
    z = (estimate - target) / se
    if not abs(z) <= SE_K:
        problems.append(f"{name} = {estimate!r}, expected {target!r} within {SE_K} SE of {se!r} (z = {z:.2f})")


def _equals(problems: list[str], name: str, got, want) -> None:
    if got != want:
        problems.append(f"{name} = {got!r}, expected {want!r}")


def check_coupled(config: dict, payload: dict) -> list[str]:
    """Zero violations; extinct count and mean tau against the law capped at the horizon."""
    problems: list[str] = []
    e = entries_by_name(payload)
    for name in ("sandwich_violations", "shift_identity_violations",
                 "indicator_violations", "level_monotonicity_violations"):
        _equals(problems, name, e[name]["estimate"], 0.0)
    paths, horizon = config["paths"], config["horizon"]
    pmf = law.tau_pmf(config["offspring"], config["K"], horizon)
    within, mean, var = law.tau_moments(pmf, horizon)
    extinct = e["extinct_paths"]["estimate"]
    _within(problems, "extinct_paths", extinct, paths * within, math.sqrt(paths * within * (1.0 - within)))
    if extinct > 0:
        _within(problems, "mean_tau", e["mean_tau"]["estimate"], mean, math.sqrt(var / extinct))
    return problems


def check_extinction(config: dict, payload: dict) -> list[str]:
    """Per K: K E[m^tau] and E[tau] against the law, no censored path."""
    problems: list[str] = []
    e = entries_by_name(payload)
    m = law.offspring_mean(config["offspring"])
    for K in config["K_list"]:
        pre = f"K={K}"
        pmf = law.tau_pmf(config["offspring"], K)
        _, mean_tau, _ = law.tau_moments(pmf)
        kem = K * law.mean_power(pmf, m)
        _equals(problems, f"{pre}.censored_paths", e[f"{pre}.censored_paths"]["estimate"], 0.0)
        got = e[f"{pre}.K_mean_m_tau"]
        _within(problems, got["name"], got["estimate"], kem, got["stderr"])
        oracle = e.get(f"{pre}.K_mean_m_tau_vs_exact")
        if oracle is not None and not abs(oracle["target"] - kem) <= EXACT_RTOL * kem:
            problems.append(f"{oracle['name']} target {oracle['target']!r} differs from {kem!r}")
        got = e[f"{pre}.mean_tau_over_logK"]
        logK = math.log(K)
        _within(problems, f"{pre}.mean_tau", got["estimate"] * logK, mean_tau, got["stderr"] * logK)
    return problems


def check_conditional(config: dict, payload: dict) -> list[str]:
    """Moment factors against the law, exact marginalisation, ratios in the band."""
    problems: list[str] = []
    e = entries_by_name(payload)
    m = law.offspring_mean(config["offspring"])
    pmf = law.tau_pmf(config["offspring"], config["K"])
    u1, u2, power = config["u1"], config["u2"], config["l"]
    lo, hi = config["ratio_band"]
    _equals(problems, "censored_paths", e["censored_paths"]["estimate"], 0.0)
    for label, u_pred, u_cond in (("forward", u1, u2), ("reverse", u2, u1)):
        got = e[f"{label}.em_factor"]
        _within(problems, got["name"], got["estimate"], law.em_factor(pmf, m, u_pred, u_cond, power), got["stderr"])
        resid = e[f"{label}.marginalization_rel_residual"]["estimate"]
        if not resid <= 1e-9:
            problems.append(f"{label}.marginalization_rel_residual = {resid!r} > 1e-9")
        for stat in ("dominant_ratio", "aggregate_ratio"):
            ratio = e[f"{label}.{stat}"]["estimate"]
            if not lo <= ratio <= hi:
                problems.append(f"{label}.{stat} = {ratio!r} outside [{lo}, {hi}]")
    return problems


def read_trajectories(path: Path) -> np.ndarray:
    """The (path, n, X) rows of a trajectories.csv as an int64 array."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "path,n,X":
            raise ValueError(f"unexpected trajectory header {header!r}")
        return np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)


def trajectory_problems(rows: np.ndarray, K: int, paths: int) -> tuple[list[str], np.ndarray]:
    """Shape checks of simulated trajectories, plus the extinction time of each path.

    Every path 0..paths-1 appears once as a contiguous block whose rows count
    n = 0, 1, ..., tau; it starts at K, never goes negative, and its only 0
    is its last row, so the block has tau + 1 rows.
    """
    problems: list[str] = []
    pid, n, x = rows[:, 0], rows[:, 1], rows[:, 2]
    starts = np.flatnonzero(n == 0)
    last = np.append(starts[1:] - 1, len(n) - 1) if len(starts) else starts
    if len(starts) != paths or starts[0] != 0 or not np.array_equal(pid[starts], np.arange(paths)):
        return [f"expected paths 0..{paths - 1} in order, found {len(starts)} path starts"], last
    if not np.array_equal(pid, np.repeat(pid[starts], last - starts + 1)):
        problems.append("a path's rows are not contiguous")
    if not np.array_equal(n, np.arange(len(n)) - np.repeat(starts, last - starts + 1)):
        problems.append("generation numbers do not run 0, 1, 2, ... within a path")
    if (x < 0).any():
        problems.append(f"{int((x < 0).sum())} rows hold a negative size")
    if (x[starts] != K).any():
        problems.append(f"{int((x[starts] != K).sum())} paths do not start at K = {K}")
    if (x[last] != 0).any():
        problems.append(f"{int((x[last] != 0).sum())} paths do not end at 0")
    inner = np.ones(len(x), dtype=bool)
    inner[last] = False
    if (x[inner] == 0).any():
        problems.append(f"{int((x[inner] == 0).sum())} rows continue a path after it reached 0")
    return problems, n[last]


def check_simulate(config: dict, payload: dict, rows: np.ndarray) -> list[str]:
    """Trajectory shape, and mean tau against the law with the sample's own SE."""
    paths, K = config["paths"], config["K"]
    problems, taus = trajectory_problems(rows, K, paths)
    e = entries_by_name(payload)
    _equals(problems, "extinct_paths", e["extinct_paths"]["estimate"], float(paths))
    if problems:
        return problems
    mean = float(taus.mean())
    reported = e["mean_tau"]["estimate"]
    if not abs(reported - mean) <= EXACT_RTOL * mean:
        problems.append(f"mean_tau = {reported!r}, but the trajectories give {mean!r}")
    _, exact_mean, _ = law.tau_moments(law.tau_pmf(config["offspring"], K))
    _within(problems, "mean_tau", reported, exact_mean, float(taus.std(ddof=1)) / math.sqrt(paths))
    return problems
