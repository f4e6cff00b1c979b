"""End-to-end verification of the asymptotic laws, one gate per criterion.

Each test prints a single pass/fail line (straight to the terminal,
bypassing capture) and asserts the same condition, so `pytest -v` shows
one verdict per criterion. Path counts, seeds, and tolerances are fixed;
every run of this module is deterministic for a given package version.
"""

from __future__ import annotations

import io
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from test_estimators import _direct_direction, _enumeration_arrays

from branchlab import harness, invariance_target, make_distribution
from branchlab.estimators import (
    batch_layout,
    clt_covariance_check,
    conditional_moment_check,
    conditional_moment_from_arrays,
    extinction_scaling,
    invariance_check,
)
from branchlab.exact import mean_m_tau
from branchlab.process import default_horizon
from branchlab.randomness import RandomnessSource

SEED = 2026
BERN05 = {"kind": "bernoulli", "p": 0.5}
POISSON07 = {"kind": "poisson", "lambda": 0.7}


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_pathwise_sandwich(tmp_path, capsys):
    """Shifted <= base <= truncated at every generation of every coupled path."""
    started = time.perf_counter()
    violations = 0.0
    all_pass = True
    for p in (0.5, 0.8):
        for K in (100, 10_000):
            horizon = math.ceil(math.log(K) / -math.log(p)) + 20
            res = harness.run(
                {
                    "experiment": "coupled",
                    "offspring": {"kind": "bernoulli", "p": p},
                    "seed": SEED,
                    "K": K,
                    "levels": [0.05, 0.2, 0.5],
                    "paths": 10_000,
                    "batches": 40,
                    "horizon": horizon,
                    "write_trajectories": False,
                    "out": str(tmp_path),
                },
                stderr=io.StringIO(),
            )
            violations += res.report.entry("sandwich_violations").estimate
            all_pass = all_pass and res.report.passed
    elapsed = time.perf_counter() - started
    ok = violations == 0 and all_pass and elapsed < 120
    _verdict(
        capsys, 1, ok,
        f"{violations:.0f} sandwich violations over 4 (m, K) grids x 10^4 "
        f"coupled paths x 3 levels in {elapsed:.0f}s (< 120s)",
    )


def test_criterion_2_thinning_oracle(capsys):
    """bernoulli(m) offspring: X_n is binomial(K, m^n) and the extinction
    CDF is (1 - m^n)^K; both checked against the simulated ensemble."""
    m, K, probe, paths, batches = 0.5, 1000, 3, 100_000, 40
    dist = make_distribution({"kind": "bernoulli", "p": m})
    src = RandomnessSource(SEED)
    cap = default_horizon(K, dist.mean)
    x3_parts, tau_parts = [], []
    for b, (_, count) in enumerate(batch_layout(paths, batches)):
        gen = src.handle(b, 0)
        sizes = np.full(count, K, dtype=np.int64)
        taus = np.zeros(count, dtype=np.int64)
        x3 = None
        for n in range(1, cap + 1):
            sizes = dist.closure_sums(sizes, gen)
            taus[(sizes == 0) & (taus == 0)] = n
            if n == probe:
                x3 = sizes.copy()
            if n >= probe and not sizes.any():
                break
        x3_parts.append(x3)
        tau_parts.append(taus)
    x3 = np.concatenate(x3_parts)
    tau = np.concatenate(tau_parts)
    assert (tau > 0).all()

    probs = sps.binom.pmf(np.arange(K + 1), K, m**probe)
    center = np.flatnonzero(probs * paths >= 5.0)
    lo, hi = center[0], center[-1]
    obs = np.concatenate([
        [np.sum(x3 < lo)],
        np.bincount(x3, minlength=K + 1)[lo:hi + 1].astype(float),
        [np.sum(x3 > hi)],
    ])
    exp = np.concatenate([[probs[:lo].sum()], probs[lo:hi + 1], [probs[hi + 1:].sum()]]) * paths
    exp *= obs.sum() / exp.sum()
    pvalue = float(sps.chisquare(obs, exp).pvalue)

    worst_z = 0.0
    cdf_ok = True
    for n in range(1, int(tau.max()) + 6):
        F = (1 - m**n) ** K
        se = math.sqrt(max(F * (1 - F), 1e-300) / paths)
        diff = abs(float((tau <= n).mean()) - F)
        worst_z = max(worst_z, diff / se)
        cdf_ok = cdf_ok and diff <= 4 * se
    ok = pvalue > 0.001 and cdf_ok
    _verdict(
        capsys, 2, ok,
        f"X_3 goodness-of-fit p = {pvalue:.3f} (> 0.001) at (K, n) = (1000, 3); "
        f"extinction CDF worst |z| = {worst_z:.2f} (<= 4)",
    )


def test_criterion_3_mean_law(capsys):
    """Sample mean of X_n stays within 4 batch SEs of K m^n for n <= 8."""
    report = clt_covariance_check(
        10_000, make_distribution(POISSON07), list(range(1, 9)), 100_000, 1, batches=40
    )
    entries = [report.entry(f"theta[{j}].mean") for j in range(1, 9)]
    worst = max(abs(e.estimate) / e.stderr for e in entries)
    ok = all(e.verdict == "pass" for e in entries)
    _verdict(
        capsys, 3, ok,
        f"standardized mean of X_n within 4 batch SEs of K m^n for n = 1..8 "
        f"(worst |z| = {worst:.2f})",
    )


def test_criterion_4_extinction_scaling(capsys):
    """median(tau/log K) approaches c = -1/log m along the K grid."""
    started = time.perf_counter()
    details = []
    ok = True
    arms = (
        ("m=0.5", make_distribution({"kind": "pmf", "table": {"0": 0.528, "1": 0.444, "2": 0.028}})),
        ("m=0.8", make_distribution({"kind": "binomial", "n": 2, "p": 0.4})),
    )
    for tag, dist in arms:
        report = extinction_scaling(
            [100, 1000, 10_000, 100_000], dist, 400_000, SEED,
            batches=40, median_rel_tol=0.05, trend_gates=("median",), trend_slack=1e-9,
        )
        c = -1.0 / math.log(dist.mean)
        dev = abs(report.entry("K=100000.median_tau_over_logK").estimate / c - 1)
        ok = ok and report.passed and dev <= 0.05
        details.append(f"{tag} dev@K=1e5 {100 * dev:.1f}%")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300
    _verdict(
        capsys, 4, ok,
        f"{'; '.join(details)} (<= 5%), deviation trend monotone over K = 1e2..1e5, "
        f"{elapsed:.0f}s (< 300s)",
    )


def test_criterion_5_k_mean_m_tau(capsys):
    """K E[m^tau] against the exact summation oracle and along the K grid."""
    bern = make_distribution(BERN05)
    leg1 = extinction_scaling([10], bern, 200_000, SEED, batches=40, tau_sampler="trajectory")
    oracle = leg1.entry("K=10.K_mean_m_tau_vs_exact")
    assert abs(oracle.target - 10 * mean_m_tau(bern, 10)) < 1e-12
    z = abs(oracle.estimate - oracle.target) / oracle.stderr

    leg2 = extinction_scaling(
        [100, 1000, 10_000], bern, 2_000_000, SEED,
        batches=40, tau_sampler="lifetime", trend_gates=("kEm",),
    )
    trend = leg2.entry("trend.kEm_dev_max_increase")
    devs = [abs(leg2.entry(f"K={k}.K_mean_m_tau").estimate - 1.0) for k in (100, 1000, 10_000)]
    ok = (
        leg1.passed and oracle.verdict == "pass"
        and leg2.passed and trend.verdict == "pass"
    )
    _verdict(
        capsys, 5, ok,
        f"K=10 sample vs exact summation z = {z:.2f} (<= 4); |K E m^tau - 1| = "
        + " -> ".join(f"{d:.4f}" for d in devs) + " monotone nonincreasing",
    )


def test_criterion_6_covariance_adjudication(capsys):
    """Variances match the recursion; the two covariance modes are decisively split."""
    report = clt_covariance_check(
        100_000, make_distribution(POISSON07), [1, 2, 3], 100_000, SEED, batches=40
    )
    separation = report.entry("mode_separation[1,1]")
    winner = report.entry("adjudication.winner_is_martingale")
    vars_pass = all(report.entry(f"theta[{j}].var").verdict == "pass" for j in (1, 2, 3))
    ok = report.passed and vars_pass and separation.verdict == "pass" and separation.estimate >= 5
    mode = "martingale" if winner.estimate == 1.0 else "paper"
    _verdict(
        capsys, 6, ok,
        f"variances within 4 SEs; modes separated by {separation.estimate:.0f} SEs "
        f"(>= 5) at (j, n) = (1, 1); winning mode: {mode}",
    )


def test_criterion_7_conditional_moments(capsys):
    """Exhaustive enumeration reproduced exactly; conditional-moment ratios
    sit inside [0.85, 1.15] and tighten toward 1 as K grows."""
    p, K, horizon, u1, u2, power = 0.5, 12, 6, 0.3, 0.6, 1
    tau, x1, x2, w = _enumeration_arrays(p, K, horizon, u1, u2)
    report = conditional_moment_from_arrays(tau, x1, x2, w, u1=u1, u2=u2, power=power, m=p)
    ext = tau >= 0
    worst = 0.0
    for label, xp, xc, up, uc in (("forward", x1, x2, u1, u2), ("reverse", x2, x1, u2, u1)):
        factor_of = {
            int(t): p ** (power * (math.floor(up * t) - math.floor(uc * t)))
            for t in np.unique(tau[ext])
        }
        ratios, group_ratio, overall, t_star, _ = _direct_direction(tau, xp, xc, w, power, factor_of)
        worst = max(worst, abs(report.entry(f"{label}.aggregate_ratio").estimate / overall - 1))
        worst = max(worst, abs(report.entry(f"{label}.dominant_ratio").estimate / group_ratio[t_star] - 1))
        for i, v in enumerate(sorted(v for (t, v) in ratios if t == t_star)):
            got = report.entry(f"{label}.bin[{i}].ratio").estimate
            worst = max(worst, abs(got / ratios[(t_star, v)] - 1))
    enum_ok = worst <= 1e-9 and report.passed

    aggregates: dict[int, dict[str, float]] = {}
    mc_ok = True
    for big_k in (10_000, 100_000, 1_000_000):
        mc = conditional_moment_check(
            0.3, 0.6, 1, big_k, make_distribution(POISSON07), 200_000, SEED,
            batches=40, ratio_band=(0.85, 1.15),
        )
        mc_ok = mc_ok and mc.passed
        aggregates[big_k] = {
            lab: mc.entry(f"{lab}.aggregate_ratio").estimate for lab in ("forward", "reverse")
        }
    tighter = all(
        abs(aggregates[1_000_000][lab] - 1) < abs(aggregates[10_000][lab] - 1)
        for lab in ("forward", "reverse")
    )
    ok = enum_ok and mc_ok and tighter
    fwd = " -> ".join(f"{aggregates[k]['forward']:.4f}" for k in (10_000, 100_000, 1_000_000))
    _verdict(
        capsys, 7, ok,
        f"enumeration (K=12, horizon 6) reproduced to {worst:.1e} (<= 1e-9); "
        f"aggregate ratios in [0.85, 1.15] with forward {fwd} tightening toward 1",
    )


def test_criterion_8_invariance(capsys):
    """Perturbed and unperturbed conditioning agree within 10% and converge."""
    maxes = []
    all_pass = True
    for K in (1000, 10_000, 100_000):
        report = invariance_check(
            0.3, 1, [-0.05, 0.0, 0.05], K, make_distribution(POISSON07), 1_000_000, SEED,
            u2=0.6, window_rel=0.03, rel_tol=0.10, batches=40,
        )
        all_pass = all_pass and report.passed
        maxes.append(report.entry("max_rel_diff").estimate)
    shrinking = all(b < a for a, b in zip(maxes, maxes[1:]))
    algebra = True
    for K in (1000, 10_000, 100_000):
        target = invariance_target(K, 1, 0.3, 0.0)
        algebra = algebra and target == 1 * math.log(K) - 1 * 0.3 * math.log(K)
        algebra = algebra and target == pytest.approx(1 * (1 - 0.3) * math.log(K), rel=1e-12)
    ok = all_pass and shrinking and algebra
    _verdict(
        capsys, 8, ok,
        "max |A - B| / |A| = " + " -> ".join(f"{v:.4f}" for v in maxes)
        + " (<= 0.10 at K = 1e5, shrinking in K); eps = 0 target reduces to "
        "l (1 - u1) log K exactly",
    )


REPRO_CONFIGS = {
    "simulate": {"offspring": BERN05, "seed": 11, "K": 50, "paths": 80, "batches": 8},
    "coupled": {"offspring": BERN05, "seed": 3, "K": 64, "levels": [0.1, 0.4],
                "paths": 80, "batches": 8},
    "extinction-scaling": {"offspring": BERN05, "seed": 5, "K_list": [50, 200],
                           "paths": 8000, "batches": 40},
    "clt-check": {"offspring": POISSON07, "seed": 33, "K": 500, "indices": [1, 2],
                  "paths": 8000, "batches": 40},
    "conditional-moments": {"offspring": POISSON07, "seed": 17, "K": 300,
                            "u1": 0.3, "u2": 0.6, "paths": 8000, "batches": 40},
    "conditional-on-tau": {"offspring": POISSON07, "seed": 9, "K": 300,
                           "u1": 0.5, "paths": 8000, "batches": 40},
    "invariance": {"offspring": POISSON07, "seed": 3, "K": 1000, "u1": 0.3, "u2": 0.6,
                   "eps_grid": [-0.05, 0.0, 0.05], "window_rel": 0.03,
                   "paths": 40_000, "batches": 40},
    "gaussian-cov": {"offspring": BERN05, "seed": 0, "indices": [1, 2, 3]},
}


def test_criterion_9_reproducibility(tmp_path, capsys):
    """Byte-identical reports across reruns and worker counts {1, 8}."""
    mismatches = []
    for kind, cfg in REPRO_CONFIGS.items():
        base = {**cfg, "experiment": kind, "out": str(tmp_path / kind)}
        first = harness.run(base, stderr=io.StringIO())
        compared = [
            name for name in ("report.json", "report.csv", "trajectories.csv", "matrix.csv")
            if (first.run_dir / name).exists()
        ]
        blobs = {name: (first.run_dir / name).read_bytes() for name in compared}
        for variant in (base, {**base, "workers": 8}):
            res = harness.run(variant, stderr=io.StringIO())
            assert res.run_dir == first.run_dir
            for name in compared:
                if (res.run_dir / name).read_bytes() != blobs[name]:
                    mismatches.append((kind, name, variant.get("workers", 1)))
    ok = not mismatches
    _verdict(
        capsys, 9, ok,
        "reports byte-identical across reruns and workers {1, 8} for all 8 "
        f"experiment kinds{'' if ok else ': ' + repr(mismatches)}",
    )
