"""Estimator pipeline tests: exact-ensemble oracles, laws, determinism."""

from __future__ import annotations

import io
import math
from functools import partial

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs

from branchlab import estimators, harness
from branchlab.estimators import (
    AD_SIGNIFICANCE_LEVELS,
    EmptyConditioningSet,
    Ensemble,
    InsufficientBinMass,
    anderson_darling_critical,
    anderson_darling_statistic,
    batch_layout,
    bin_blocks,
    clt_covariance_check,
    conditional_moment_check,
    conditional_moment_from_arrays,
    conditional_on_tau_check,
    conditional_on_tau_from_arrays,
    entry_band,
    entry_info,
    entry_le,
    entry_rel,
    entry_se,
    extinction_scaling,
    invariance_check,
    invariance_target,
    trend_entry,
)
from branchlab.estimators import (
    _conditional_moment_core,
    _dominant_group,
    _mean_se_where,
    _median_from_hist,
    _ratio_entry,
    _run_stacks,
    _stable_order,
    _tau_hist_batch,
)
from branchlab.exact import enumerate_bernoulli_paths
from branchlab.gaussian_limit import ThetaCovariance, theta_covariance, theta_variance
from branchlab.offspring import make_distribution

BERN = make_distribution({"kind": "bernoulli", "p": 0.5})
POI = make_distribution({"kind": "poisson", "lambda": 0.7})


# ---------------------------------------------------------------------------
# plumbing


def test_batch_layout_blocks():
    assert batch_layout(100, 4) == [(0, 25), (25, 25), (50, 25), (75, 25)]
    assert batch_layout(10, 3) == [(0, 4), (4, 3), (7, 3)]
    with pytest.raises(ValueError):
        batch_layout(10, 20)
    with pytest.raises(ValueError):
        batch_layout(0, 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(total=hs.integers(1, 10_000), data=hs.data())
def test_batch_layout_properties(total, data):
    """Contiguous blocks covering 0..total whose counts differ by at most 1."""
    batches = data.draw(hs.integers(1, min(total, 200)))
    layout = batch_layout(total, batches)
    starts = [s for s, _ in layout]
    counts = [c for _, c in layout]
    assert len(layout) == batches
    assert starts == [0] + list(np.cumsum(counts)[:-1])
    assert sum(counts) == total
    assert max(counts) - min(counts) <= 1


def _tau_hist_parts(K: int):
    layout = batch_layout(600, 6)
    return partial(_tau_hist_batch, seed=3, layout=layout, dist=POI, K=K, horizon=60)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and every
    job it maps, and maps them in-process."""

    sizes: list[int] = []
    jobs: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.jobs.extend(jobs)
        return map(fn, jobs)


class _ReversedPool(_RecordingPool):
    """A recording pool that runs its jobs last to first, and returns their
    results in job order."""

    def map(self, fn, jobs):
        return reversed([fn(job) for job in reversed(list(jobs))])


def test_run_batches_parts_do_not_depend_on_workers_or_job_order(monkeypatch):
    """Two functions through one pool give each stack the part of that stack
    run alone, in stack order, at workers 1 and 2 and when the pool runs
    the jobs in reverse order. The layout holds three stacks of two
    batches."""
    monkeypatch.setattr(estimators, "_STACK_PATHS", 250)
    layout = batch_layout(600, 6)
    stacks = estimators._stacks(layout)
    assert len(stacks) == 3
    fns = [_tau_hist_parts(10), _tau_hist_parts(500)]
    want = [[fn(stack) for stack in stacks] for fn in fns]
    runs = [_run_stacks(fns, layout, workers) for workers in (1, 2)]
    monkeypatch.setattr(estimators, "ProcessPoolExecutor", _ReversedPool)
    monkeypatch.setattr(estimators.os, "cpu_count", lambda: 2)
    runs.append(_run_stacks(fns, layout, 2))
    for run in runs:
        assert len(run) == 2
        for parts, alone in zip(run, want):
            assert len(parts) == 3 and sum(len(part[0]) for part in parts) == 6
            for (hists, censored, _), (want_hists, want_censored, _) in zip(parts, alone):
                assert len(hists) == len(want_hists) == 2 and censored == want_censored
                assert all(np.array_equal(h, w) for h, w in zip(hists, want_hists))


def _powers(base: int, stack: range) -> list[int]:
    return [base**b for b in stack]


@pytest.mark.parametrize("workers, functions, batches, cpus, pool", [
    (100_000, 2, 20, 64, 40),
    (100_000, 2, 40, 64, 64),
    (8, 2, 40, 2, 2),
    (2, 2, 40, 64, 2),
    (8, 2, 40, None, None),
    (8, 1, 1, 64, None),
    (1, 2, 40, 64, None),
])
def test_run_batches_forks_no_more_processes_than_can_work(monkeypatch, workers, functions,
                                                           batches, cpus, pool):
    """The pool gets min(workers, jobs, CPUs) processes, and no pool starts
    when that is 1 (a CPU count of None counts as 1). Batches larger than a
    stack's path budget each make a job of their own."""
    monkeypatch.setattr(estimators, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(estimators.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    fns = [partial(_powers, i + 2) for i in range(functions)]
    layout = batch_layout(batches * (estimators._STACK_PATHS + 1), batches)
    runs = _run_stacks(fns, layout, workers)
    assert _RecordingPool.sizes == ([] if pool is None else [pool])
    assert runs == [[fn(range(b, b + 1)) for b in range(batches)] for fn in fns]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("counts", [
    [10] * 40,
    [250] * 40,
    [4096, 1, 4095, 2, 5000, 3, 3, 4090],
    [5000] * 3,
    [1],
])
def test_run_batches_stacks_within_the_path_budget(monkeypatch, counts, workers):
    """Jobs are stacks of consecutive batches, the last function's first,
    each within the path budget unless it is one larger batch; the parts
    come back one per stack, in stack order, so their batches run in batch
    order."""
    monkeypatch.setattr(estimators, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(estimators.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "jobs", [])
    layout = [(int(sum(counts[:b])), c) for b, c in enumerate(counts)]
    budget = estimators._STACK_PATHS
    fns = [partial(_powers, 2), partial(_powers, 3)]
    runs = _run_stacks(fns, layout, workers)
    stacks = estimators._stacks(layout)
    assert runs == [[_powers(base, stack) for stack in stacks] for base in (2, 3)]
    assert [[v for part in run for v in part] for run in runs] == [
        [base**b for b in range(len(counts))] for base in (2, 3)]
    assert [b for stack in stacks for b in stack] == list(range(len(counts)))
    for stack in stacks:
        paths = sum(counts[b] for b in stack)
        assert paths <= budget or len(stack) == 1
    # Greedy: a stack ends only where its next batch would break the budget.
    for stack, after in zip(stacks, stacks[1:]):
        assert sum(counts[b] for b in stack) + counts[after[0]] > budget
    jobs = _RecordingPool.jobs
    if workers == 1:
        assert not jobs
    else:
        assert [fn.args[0] for fn, _ in jobs] == [3] * len(stacks) + [2] * len(stacks)
        assert [stack for _, stack in jobs] == stacks * 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hist=hs.lists(hs.integers(0, 30), min_size=1, max_size=40).filter(any))
def test_median_from_hist_matches_numpy(hist):
    hist = np.array(hist, dtype=np.int64)
    sample = np.repeat(np.arange(hist.size), hist)
    assert _median_from_hist(hist, int(hist.sum())) == np.median(sample)


def test_entry_helper_verdicts():
    assert entry_se("x", 1.0, 0.1, 1.3, 4.0).verdict == "pass"
    assert entry_se("x", 1.0, 0.1, 1.5, 4.0).verdict == "fail"
    assert entry_rel("x", 1.04, 1.0, 0.05).verdict == "pass"
    assert entry_rel("x", 1.06, 1.0, 0.05).verdict == "fail"
    assert entry_band("x", 0.9, 0.85, 1.15).verdict == "pass"
    assert entry_band("x", 1.2, 0.85, 1.15).verdict == "fail"
    assert entry_le("x", 0.0, 0.0).verdict == "pass"
    assert entry_le("x", 1e-9, 0.0).verdict == "fail"
    e = entry_se("x", 1.5, 0.2, 1.0, 4.0)
    assert e.ratio == pytest.approx(1.5)
    assert "stderr" in e.tolerance


# ---------------------------------------------------------------------------
# binning: the pipeline against a per-bin reference


def _reference_assign_bins(values, min_count, mode, max_bins=20):
    """Bin ids per element, -1 for none: the per-element form of the bins
    that ``bin_blocks`` cuts in one array pass."""
    if mode == "distinct":
        _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
        kept = counts >= min_count
        return np.where(kept, np.cumsum(kept) - 1, -1)[inverse]
    if mode != "quantile":
        raise ValueError(f"unknown bin mode {mode!r}")
    n = len(values)
    ids = np.full(n, -1, dtype=np.int64)
    nbins = min(n // min_count, max_bins)
    if nbins < 1:
        return ids
    order = np.argsort(values, kind="stable")
    for b, chunk in enumerate(np.array_split(order, nbins)):
        ids[chunk] = b
    return ids


def _block_ids(values, min_count, mode):
    """``bin_blocks``' bins as ids per element, -1 for none; checks that
    every row's positions ascend."""
    ids = np.full(len(values), -1, dtype=np.int64)
    rows = [row for block in bin_blocks(values, min_count, mode) for row in block]
    for b, row in enumerate(rows):
        assert (np.diff(row) > 0).all()
        ids[row] = b
    return ids


def _reference_core(ens, *, u1, u2, power, m, min_bin_count, bin_mode, min_group_count,
                    ratio_band, max_bins_reported):
    """The two-time conditional pipeline with one pass per tau group and per
    bin, each bin selected by a mask in ascending path order."""
    extinct = ens.tau >= 0
    if not extinct.any():
        raise InsufficientBinMass("no path went extinct within the horizon")
    s1 = np.floor(u1 * ens.tau).astype(np.int64)
    s2 = np.floor(u2 * ens.tau).astype(np.int64)
    ts, sizes = np.unique(ens.tau[extinct], return_counts=True)
    counts = {int(t): int(c) for t, c in zip(ts, sizes) if c >= min_group_count}
    entries = []
    for label, xp, xc, sp, sc in (("forward", ens.x1, ens.x2, s1, s2),
                                  ("reverse", ens.x2, ens.x1, s2, s1)):
        factors = m ** (power * (sp - sc).astype(float))
        e_hat, e_se = _mean_se_where(ens, factors, extinct)
        scores = np.full(len(ens.tau), np.nan)
        table = {}
        for t in counts:
            sel = np.flatnonzero(ens.tau == t)
            ids = _reference_assign_bins(xc[sel], min_bin_count, bin_mode)
            bins = []
            for b in range(int(ids.max()) + 1):
                here = sel[ids == b]
                rep = ens.mean(xc[here].astype(float), here)
                pred = xp[here].astype(float) ** power
                scores[here] = pred / (rep**power * factors[here])
                bins.append((rep, ens.mean(pred, here), ens.mass(here)))
            if bins:
                table[t] = bins
        if not table:
            raise InsufficientBinMass(
                f"no tau group of >= {min_group_count} paths produced a bin of "
                f">= {min_bin_count} paths")
        t_star = _dominant_group({t: counts[t] for t in table})
        group = np.flatnonzero(ens.tau == t_star)
        entries.append(entry_info(f"{label}.em_factor", e_hat, stderr=e_se))
        if label == "forward":
            entries.append(entry_info("tau.dominant_group", t_star))
            entries.append(entry_info("tau.dominant_mass",
                                      ens.mass(group) / ens.mass(np.flatnonzero(extinct))))
        finite = np.isfinite(scores)
        binned = group[finite[group]]
        est, se = ens.mean_se(scores[binned], binned)
        entries.append(_ratio_entry(f"{label}.dominant_ratio", est, se, ratio_band))
        est, se = _mean_se_where(ens, scores, finite)
        entries.append(_ratio_entry(f"{label}.aggregate_ratio", est, se, ratio_band))
        pooled = scores * (factors / e_hat)
        est, se = _mean_se_where(ens, pooled, np.isfinite(pooled))
        entries.append(entry_info(f"{label}.aggregate_ratio_pooled", est,
                                  stderr=se, target=1.0))
        bins = table[t_star]
        lhs = sum(mass * mean for _, mean, mass in bins) / sum(mass for _, _, mass in bins)
        rhs = ens.mean(xp[binned].astype(float) ** power, binned)
        entries.append(entry_le(f"{label}.marginalization_rel_residual",
                                abs(lhs - rhs) / abs(rhs), 1e-9))
        f_star = float(factors[group[0]])
        for i, (rep, mean, _) in enumerate(bins[:max_bins_reported]):
            entries.append(entry_info(f"{label}.bin[{i}].ratio",
                                      mean / (rep**power * f_star), target=1.0))
    return entries


def test_assign_bins_modes():
    vals = np.array([5.0, 1, 1, 2, 2, 2, 9, 9, 9, 9])
    ids = _block_ids(vals, 2, "distinct")
    assert ids[0] == -1  # value 5 is too rare
    assert set(ids[vals == 1]) == {0}
    assert set(ids[vals == 2]) == {1}
    assert set(ids[vals == 9]) == {2}
    # out of order, with rare values between common ones: ids still follow
    # ascending value order
    vals = np.array([7, 3, 5, 3, 7, 4, 7, 3, 6, 5, 8])
    assert _block_ids(vals, 2, "distinct").tolist() == [2, 0, 1, 0, 2, -1, 2, 0, -1, 1, -1]
    assert _block_ids(vals, 3, "distinct").tolist() == [1, 0, -1, 0, 1, -1, 1, 0, -1, -1, -1]
    vals = np.array([5.0, 1, 1, 2, 2, 2, 9, 9, 9, 9])
    ids = _block_ids(vals, 3, "quantile")
    # every element is binned, chunks follow the sorted order
    assert (ids >= 0).all()
    order = np.argsort(vals, kind="stable")
    assert (np.diff(ids[order]) >= 0).all()
    assert min(np.bincount(ids)) >= 3
    assert [block.shape for block in bin_blocks(vals, 3, "quantile")] == [(1, 4), (2, 3)]
    with pytest.raises(ValueError):
        bin_blocks(vals, 1, "nope")


_BIN_VALUES = hs.sampled_from([(1, 4), (1, 60), (-(2**62), 2**62)]).flatmap(
    lambda span: hs.lists(hs.integers(*span), min_size=1, max_size=300))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=_BIN_VALUES, min_count=hs.sampled_from([1, 2, 3, 7, 40]),
       mode=hs.sampled_from(["quantile", "distinct"]))
def test_bin_blocks_match_the_reference_ids(values, min_count, mode):
    """Small spans tie often; the widest takes the dense-rank sort keys."""
    values = np.array(values, dtype=np.int64)
    assert (_block_ids(values, min_count, mode)
            == _reference_assign_bins(values, min_count, mode)).all()


@pytest.mark.parametrize("span", [1, 3, 2**40, 2**62], ids=lambda s: f"span{s}")
def test_stable_order_is_a_stable_argsort(span):
    """Rank keys (values less the least one) and, past int64, dense-rank
    keys both give the stable argsort, ties in position order; so do float
    values."""
    rng = np.random.default_rng(span)
    for n in (1, 2, 7, 8, 9, 300, 4097):
        values = rng.integers(-span, span, size=n, endpoint=True)
        for v in (values, values.astype(float)):
            assert (_stable_order(v) == np.argsort(v, kind="stable")).all()
    extremes = np.array([np.iinfo(np.int64).max, 0, np.iinfo(np.int64).min, 0, -1])
    assert _stable_order(extremes).tolist() == [2, 4, 1, 3, 0]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=hs.data(), weighted=hs.booleans(), bin_mode=hs.sampled_from(["quantile", "distinct"]),
       power=hs.sampled_from([1, 2, 3]), min_bin_count=hs.sampled_from([1, 2, 5, 20]),
       min_group_count=hs.sampled_from([1, 4, 30]), n=hs.integers(50, 600),
       span=hs.sampled_from([3, 40, 10**6]))
def test_conditional_core_equals_the_per_bin_reference(data, weighted, bin_mode, power,
                                                       min_bin_count, min_group_count, n, span):
    """The one-pass binning gives every entry of the per-bin reference
    exactly, on samples (batch standard errors) and weighted enumerations,
    or raises the same error."""
    seed = data.draw(hs.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    tau = rng.integers(2, 2 + data.draw(hs.integers(1, 6)), size=n)
    tau[rng.random(n) < 0.05] = -1
    x1, x2 = (np.where(tau >= 0, rng.integers(1, span + 1, size=n), 0) for _ in range(2))
    if weighted:
        ens = Ensemble.enumeration(tau, x1, x2, rng.random(n) + 0.01)
    else:
        batches = data.draw(hs.integers(1, 8))
        ens = Ensemble(tau, x1, x2, None, np.sort(rng.integers(0, batches, size=n)))
    kwargs = dict(u1=0.3, u2=0.6, power=power, m=0.7, min_bin_count=min_bin_count,
                  bin_mode=bin_mode, min_group_count=min_group_count, ratio_band=(0.85, 1.15),
                  max_bins_reported=12)
    try:
        want = _reference_core(ens, **kwargs)
    except InsufficientBinMass as exc:
        with pytest.raises(InsufficientBinMass, match=f"^{exc}$"):
            _conditional_moment_core(ens, **kwargs)
        return
    assert _conditional_moment_core(ens, **kwargs) == want


def test_invariance_target_algebra():
    for K in (1000, 100_000):
        for power in (1, 2, 3):
            for u1 in (0.3, 0.5):
                t0 = invariance_target(K, power, u1, 0.0)
                # eps = 0 reduces exactly to l (1 - u1) log K
                assert t0 == power * math.log(K) - power * u1 * math.log(K)
                assert t0 == pytest.approx(power * (1 - u1) * math.log(K),
                                           rel=1e-14)
    up = invariance_target(1000, 2, 0.3, 0.05)
    down = invariance_target(1000, 2, 0.3, -0.05)
    assert up - down == pytest.approx(2 * math.log(1.05 / 0.95), rel=1e-12)


# ---------------------------------------------------------------------------
# exhaustive-enumeration oracle for the conditional pipelines


def _enumeration_arrays(p, K, horizon, u1, u2):
    """tau / X at floor(u1 tau) / at floor(u2 tau) / weight per path."""
    tau, x1, x2, w = [], [], [], []
    for path in enumerate_bernoulli_paths(p, K, horizon):
        if path.extinct:
            t = path.tau
            tau.append(t)
            x1.append(path.sizes[math.floor(u1 * t)])
            x2.append(path.sizes[math.floor(u2 * t)])
        else:
            tau.append(-1)
            x1.append(0)
            x2.append(0)
        w.append(path.prob)
    return (np.array(tau), np.array(x1), np.array(x2), np.array(w))


def _direct_direction(tau, xp, xc, w, power, factor_of):
    """Textbook conditional expectations accumulated bin by bin.

    Returns (ratio per (t, conditioning value), group aggregates, overall
    aggregate, dominant t, per-t path counts); bins are exact value
    matches, so E[xc | bin] is the value itself.
    """
    acc: dict[tuple[int, int], list[float]] = {}
    counts: dict[int, int] = {}
    for t, a, v, wt in zip(tau, xp, xc, w):
        if t < 0:
            continue
        cell = acc.setdefault((int(t), int(v)), [0.0, 0.0])
        cell[0] += wt
        cell[1] += wt * float(a) ** power
        counts[int(t)] = counts.get(int(t), 0) + 1
    ratios = {key: (num / mass) / (key[1] ** power * factor_of[key[0]])
              for key, (mass, num) in acc.items()}
    group_mass = {t: sum(mass for (tt, _), (mass, _) in acc.items() if tt == t)
                  for t in counts}
    group_ratio = {
        t: sum(mass * ratios[(tt, v)]
               for (tt, v), (mass, _) in acc.items() if tt == t) / group_mass[t]
        for t in counts}
    total = sum(group_mass.values())
    overall = sum(group_mass[t] * group_ratio[t] for t in counts) / total
    dominant = max(sorted(counts), key=counts.get)
    return ratios, group_ratio, overall, dominant, counts


def test_two_time_pipeline_reproduces_enumeration():
    """Binned estimator equals exact conditional expectations to 1e-9."""
    p, K, horizon, u1, u2, power = 0.5, 6, 5, 0.3, 0.6, 2
    tau, x1, x2, w = _enumeration_arrays(p, K, horizon, u1, u2)
    report = conditional_moment_from_arrays(tau, x1, x2, w, u1=u1, u2=u2,
                                            power=power, m=p)
    assert report.passed
    ext = tau >= 0
    for label, xp, xc, up, uc in (("forward", x1, x2, u1, u2),
                                  ("reverse", x2, x1, u2, u1)):
        factor_of = {int(t): p ** (power * (math.floor(up * t)
                                            - math.floor(uc * t)))
                     for t in np.unique(tau[ext])}
        ratios, group_ratio, overall, t_star, _ = _direct_direction(
            tau, xp, xc, w, power, factor_of)
        assert report.entry(f"{label}.dominant_ratio").estimate == pytest.approx(
            group_ratio[t_star], rel=1e-9)
        assert report.entry(f"{label}.aggregate_ratio").estimate == pytest.approx(
            overall, rel=1e-9)
        e_hat = float((w[ext] * np.array([factor_of[int(t)] for t in tau[ext]])).sum()
                      / w[ext].sum())
        assert report.entry(f"{label}.em_factor").estimate == pytest.approx(
            e_hat, rel=1e-9)
        # pooled sensitivity view: same bins, across-path factor
        num = sum(w[i] * float(xp[i]) ** power
                  / (float(xc[i]) ** power * e_hat)
                  for i in np.flatnonzero(ext))
        assert report.entry(f"{label}.aggregate_ratio_pooled").estimate == \
            pytest.approx(num / w[ext].sum(), rel=1e-9)
        # dominant-group bins come out in ascending conditioning value
        vals = sorted(v for (t, v) in ratios if t == t_star)
        for i, v in enumerate(vals):
            got = report.entry(f"{label}.bin[{i}].ratio").estimate
            assert got == pytest.approx(ratios[(t_star, v)], rel=1e-9)
        assert report.entry(
            f"{label}.marginalization_rel_residual").estimate <= 1e-12
    assert report.entry("tau.dominant_group").estimate == t_star


def test_on_tau_pipeline_reproduces_enumeration():
    p, K, horizon, u1, power = 0.5, 6, 5, 0.5, 2
    tau, x1, _, w = _enumeration_arrays(p, K, horizon, u1, u1)
    ext = tau >= 0
    assert not ext.all()  # censored paths are passed in and skipped
    report = conditional_on_tau_from_arrays(tau, x1, w, u1=u1, power=power, K=K, m=p)
    groups = [e.name for e in report.entries if e.name.startswith("group[")]
    assert groups == [f"group[t={t}].ratio" for t in np.unique(tau[ext])]
    for t in np.unique(tau[ext]):
        sel = ext & (tau == t)
        direct = sum(wt * float(v) ** power for wt, v in zip(w[sel], x1[sel]))
        direct /= w[sel].sum()
        direct /= K ** power * p ** (power * math.floor(u1 * t))
        got = report.entry(f"group[t={t}].ratio").estimate
        assert got == pytest.approx(direct, rel=1e-9)
    scores = x1[ext] ** power / (K**power * p ** (power * np.floor(u1 * tau[ext])))
    assert report.entry("aggregate_ratio").estimate == pytest.approx(
        (w[ext] * scores).sum() / w[ext].sum(), rel=1e-9)


# ---------------------------------------------------------------------------
# thinning oracle: binomial transition makes conditional means exact


def test_binned_pipeline_matches_thinning_conditionals():
    """Fixed-time binomial ensemble: both directions against closed forms."""
    K, m, T, u1, u2 = 400, 0.6, 8, 0.25, 0.75
    s1, s2 = 2, 6  # floor(u1 T), floor(u2 T)
    a, b = m**s1, m ** (s2 - s1)
    rng = np.random.default_rng(424)
    n = 40_000
    x1 = rng.binomial(K, a, size=n)
    x2 = rng.binomial(x1, b)
    tau = np.full(n, T)
    report = conditional_moment_from_arrays(
        tau, x1, x2, np.ones(n), u1=u1, u2=u2, power=1, m=m,
        min_bin_count=1000, bin_mode="distinct")

    # reverse direction: E[X_{s2} | X_{s1} = v] = v b exactly, so the
    # aggregate ratio is 1 with per-path variance (1 - b) / (v b)
    counts1 = np.bincount(x1)
    kept = np.flatnonzero(counts1 >= 1000)
    var = sum(counts1[v] * (1 - b) / (v * b) for v in kept)
    n_kept = counts1[kept].sum()
    se = math.sqrt(var) / n_kept
    got = report.entry("reverse.aggregate_ratio").estimate
    assert abs(got - 1.0) <= 4 * se

    # forward direction: E[X_{s1} | X_{s2} = v] = v + (K - v) q with
    # q = a (1 - b) / (1 - a b), checked per distinct bin
    q = a * (1 - b) / (1 - a * b)
    counts2 = np.bincount(x2)
    vs = np.flatnonzero(counts2 >= 1000)
    for i, v in enumerate(vs):
        exact = (v + (K - v) * q) * b / v
        bin_se = math.sqrt((K - v) * q * (1 - q) / counts2[v]) * b / v
        got = report.entry(f"forward.bin[{i}].ratio").estimate
        assert abs(got - exact) <= 5 * bin_se, (i, v)


# ---------------------------------------------------------------------------
# extinction scaling


def test_trajectory_sampler_matches_exact_summation():
    report = extinction_scaling([20, 80], BERN, 4000, 11, batches=40, trend_gates=())
    assert report.passed
    for K in (20, 80):
        assert report.entry(f"K={K}.K_mean_m_tau_vs_exact").verdict == "pass"
        assert report.entry(f"K={K}.censored_paths").estimate == 0


def test_auto_sampler_choice_and_grid_normalization(tmp_path):
    """A bernoulli run under tau_sampler auto simulates trajectories, and the
    K grid is sorted and deduplicated."""
    report = extinction_scaling([80, 20, 80], BERN, 2000, 3, batches=40,
                                trend_gates=())
    assert [e.name for e in report.entries if e.name.endswith(".paths")] == [
        "K=20.paths", "K=80.paths"]
    cfg = {"experiment": "extinction-scaling", "offspring": {"kind": "bernoulli", "p": 0.5},
           "seed": 3, "K_list": [20, 80], "paths": 2000, "batches": 40, "trend_gates": [],
           "out": str(tmp_path)}
    csv = [(harness.run({**cfg, "tau_sampler": sampler}, stderr=io.StringIO()).run_dir
            / "report.csv").read_bytes() for sampler in ("auto", "trajectory")]
    assert csv[0] == csv[1]


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_kem_deviation_shrinks_along_the_grid(seed):
    """Trajectories resolve the small exact K E[m^tau] trend at 20 000 paths."""
    report = extinction_scaling([50, 200, 800], BERN, 20_000, seed, batches=40,
                                trend_gates=("kEm",))
    assert report.passed
    assert report.entry("trend.kEm_dev_max_increase").estimate < 0.0
    # ungated trends are still reported
    assert report.entry("trend.median_dev_max_increase").verdict == "info"


def test_median_trend_passes_on_float_ties():
    """binomial(2, 0.4): medians 30, 40, 50 at K = 1e3, 1e4, 1e5 sit on
    deviations equal in exact arithmetic but 8.9e-16 apart in floats."""
    dist = make_distribution({"kind": "binomial", "n": 2, "p": 0.4})
    K_list = [100, 1000, 10_000, 100_000]
    report = extinction_scaling(K_list, dist, 40_000, 1, trend_gates=("median",),
                                trend_slack=0.0)
    medians = [report.entry(f"K={K}.median_tau_over_logK").estimate * math.log(K)
               for K in K_list[1:]]
    assert np.allclose(medians, [30, 40, 50])
    trend = report.entry("trend.median_dev_max_increase")
    assert 0 < trend.estimate < 1e-15
    assert trend.verdict == "pass"


def test_trend_gate_fails_real_increase():
    c = -1.0 / math.log(0.8)
    dev = abs(30 / math.log(1e3) - c)
    assert trend_entry("t", [dev, dev + 1e-9], c, 0.0).verdict == "fail"
    assert trend_entry("t", [dev, dev + 1e-9], c, 2e-9).verdict == "pass"
    assert trend_entry("t", [dev, dev - 1e-9], c, 0.0).verdict == "pass"
    assert trend_entry("t", [dev, dev + 1e-9], c, None).verdict == "info"


def test_batch_se_shrinks_with_replication():
    """Quadrupling the batch count (fixed batch size) halves the SE."""
    a = extinction_scaling([200], BERN, 40_000, 9, batches=40, trend_gates=())
    b = extinction_scaling([200], BERN, 160_000, 9, batches=160, trend_gates=())
    ratio = (b.entry("K=200.K_mean_m_tau").stderr
             / a.entry("K=200.K_mean_m_tau").stderr)
    assert 0.3 < ratio < 0.75


# ---------------------------------------------------------------------------
# Gaussian fluctuation check


def _assert_clt_targets(report, indices, a):
    """The printed targets are exactly the recursion values of each mode."""
    paper, mart = (ThetaCovariance(POI.mean, mode=mode, a=a) for mode in ("paper", "martingale"))
    for j in indices:
        assert report.entry(f"theta[{j}].var").target == theta_variance(mart, j)
    for p, j in enumerate(indices):
        for k in indices[p + 1:]:
            assert report.entry(f"cov[{j},{k}].z_paper").target == theta_covariance(paper, j, k - j)
            assert (report.entry(f"cov[{j},{k}].z_martingale").target
                    == theta_covariance(mart, j, k - j))


def test_clt_check_small_population():
    report = clt_covariance_check(500, POI, (1, 2), 20_000, 33, batches=40)
    _assert_clt_targets(report, (1, 2), 0.0)
    assert report.passed
    assert report.entry("theta[1].mean").verdict == "pass"
    assert report.entry("theta[2].var").verdict == "pass"
    assert report.entry("mode_separation[1,1]").verdict == "pass"
    assert report.entry("adjudication.winner_is_martingale").estimate == 1.0
    assert report.entry("psd.paper").estimate == 0.0
    assert report.entry("psd.martingale").estimate == 1.0
    # at this K the fluctuation scale resolves the integer lattice, so
    # the normality statistic is reported without a gate
    assert report.entry("theta[1].anderson_darling").verdict == "info"


def test_clt_check_truncated_level_runs():
    report = clt_covariance_check(500, POI, (1, 2), 8000, 33, batches=40, a=0.2)
    _assert_clt_targets(report, (1, 2), 0.2)
    assert report.entry("theta[1].mean").verdict == "pass"


def test_anderson_darling_critical_values():
    # Stephens' case-3 table, large-sample and with the n = 10 correction
    for n, expected in ((2000, (0.561, 0.631, 0.752, 0.873, 1.035)),
                        (10, (0.511, 0.575, 0.685, 0.795, 0.943))):
        got = [anderson_darling_critical(n, lvl) for lvl in AD_SIGNIFICANCE_LEVELS]
        assert got == list(expected)
    with pytest.raises(ValueError, match="ad_significance"):
        anderson_darling_critical(2000, 0.02)
    with pytest.raises(ValueError, match="ad_significance"):
        clt_covariance_check(100, POI, (1,), 1000, 1, ad_significance=0.02)


def _ad_sample(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "normal":
        return rng.normal(3.0, 2.0, size=n)
    if kind == "poisson":  # a lattice: many ties, skewed
        return rng.poisson(1.5, size=n).astype(float)
    # one value about 44.7 sd out, where erfc underflows to 0
    return np.r_[np.zeros(n - 1), 1e6]


@pytest.mark.parametrize("kind,n", [("normal", 50), ("normal", 1000), ("normal", 20_000),
                                    ("poisson", 50), ("poisson", 2000), ("poisson", 20_000),
                                    ("outlier", 2001)])
def test_anderson_darling_statistic_matches_scipy(kind, n):
    x = _ad_sample(kind, n)
    expected = st.anderson(x, dist="norm", method="interpolate").statistic
    got = anderson_darling_statistic(x)
    assert got == pytest.approx(expected, rel=1e-9)
    if kind == "outlier":
        assert got == pytest.approx(772.6912215506145, rel=1e-12)


def test_clt_check_validation():
    with pytest.raises(ValueError):
        clt_covariance_check(100, POI, (0, 1), 1000, 1)
    with pytest.raises(ValueError):
        clt_covariance_check(100, POI, (), 1000, 1)


# ---------------------------------------------------------------------------
# conditional experiments on simulated paths


def test_conditional_moment_check_runs_and_gates():
    report = conditional_moment_check(0.3, 0.6, 1, 300, POI, 20_000, 17,
                                      batches=40, ratio_band=(0.5, 1.5))
    assert report.passed
    assert report.entry("censored_paths").estimate == 0
    for label in ("forward", "reverse"):
        assert report.entry(f"{label}.marginalization_rel_residual").verdict == "pass"
        assert report.entry(f"{label}.dominant_ratio").verdict == "pass"
        assert report.entry(f"{label}.aggregate_ratio_pooled").verdict == "info"
    assert 0.0 < report.entry("tau.dominant_mass").estimate < 1.0


def test_conditional_on_tau_check_runs_and_gates():
    report = conditional_on_tau_check(0.5, 2, 300, POI, 20_000, 9, batches=40,
                                      ratio_band=(0.5, 2.0))
    assert report.passed
    assert report.entry("wald.mean_Xn").verdict == "pass"
    assert report.entry("wald.marginalization_rel_residual").estimate <= 1e-12
    t_star = int(report.entry("tau.dominant_group").estimate)
    assert report.entry(f"group[t={t_star}].ratio").estimate == pytest.approx(
        report.entry("dominant_ratio").estimate)


def test_conditional_on_tau_wald_residual_when_every_x_n_is_zero():
    """From K = 1 every path extinct by generation 1 has X_1 = 0; the residual
    is then absolute, not 0/0."""
    report = conditional_on_tau_check(0.25, 1, 1, BERN, 30, 0, batches=30, cap_multiplier=1,
                                      min_group_count=1)
    assert report.entry("wald.mean_Xn").estimate == 0.0
    assert report.entry("wald.marginalization_rel_residual").estimate == 0.0


def test_on_tau_check_matches_from_arrays_and_direct_means(monkeypatch):
    """Fixed paths, two of them censored and one group below min_group_count:
    the check, the oracle's entry point at unit weights and plain numpy
    give the same group, dominant and aggregate ratios. Groups 4 and 5 tie
    on size, so the dominant group is the smaller tau."""
    K, u1, power, m = 40, 0.5, 2, POI.mean
    tau = np.array([4, 5, 4, -1, 6, 5, 4, 6, 5, -1, 4, 7, 6, 5])
    x1 = np.array([9, 7, 12, 0, 5, 8, 10, 6, 11, 0, 14, 3, 4, 6])
    ens = Ensemble(tau, x1, x1, x1 + 1, np.repeat(np.arange(7), 2))
    monkeypatch.setattr(estimators, "_collect_values", lambda *args: ens)
    check = conditional_on_tau_check(u1, power, K, POI, len(tau), 0, batches=7,
                                     min_group_count=3)
    oracle = conditional_on_tau_from_arrays(tau, x1, np.ones(len(tau)), u1=u1, power=power,
                                            K=K, m=m, min_group_count=3)
    scores = x1.astype(float) ** power / (K**power * m ** (power * np.floor(u1 * tau)))
    direct = {f"group[t={t}].ratio": scores[tau == t].mean() for t in (4, 5, 6)}
    direct["dominant_ratio"] = direct["group[t=4].ratio"]
    direct["aggregate_ratio"] = scores[np.isin(tau, [4, 5, 6])].mean()
    assert check.entry("censored_paths").estimate == 2
    assert check.entry("tau.dominant_group").estimate == 4
    for name, value in direct.items():
        assert check.entry(name).estimate == oracle.entry(name).estimate
        assert check.entry(name).estimate == pytest.approx(value, rel=1e-12)
        assert oracle.entry(name).stderr is None
    assert check.entry("dominant_ratio").stderr is not None
    names = [e.name for e in check.entries]
    assert "group[t=7].ratio" not in names
    assert [e.name for e in oracle.entries] == names[2:names.index("wald.n")]


def test_conditional_validation_errors():
    with pytest.raises(ValueError, match="degenerate"):
        conditional_moment_check(0.5, 0.5, 1, 50, POI, 400, 1, batches=4)
    with pytest.raises(ValueError):
        conditional_moment_check(0.0, 0.5, 1, 50, POI, 400, 1, batches=4)
    with pytest.raises(ValueError):
        conditional_on_tau_check(1.0, 1, 50, POI, 400, 1, batches=4)
    with pytest.raises(InsufficientBinMass):
        conditional_moment_check(0.3, 0.6, 1, 50, POI, 400, 1, batches=4,
                                 min_group_count=10**6)
    with pytest.raises(InsufficientBinMass):
        conditional_on_tau_check(0.5, 1, 50, POI, 400, 1, batches=4,
                                 min_group_count=10**6)


# ---------------------------------------------------------------------------
# invariance of the two conditionings


def test_invariance_check_full_grid():
    report = invariance_check(0.3, 1, [-0.05, 0.0, 0.05], 1000, POI, 40_000, 3,
                              u2=0.6, window_rel=0.03, batches=40)
    assert report.passed
    assert report.entry("max_rel_diff").estimate < 0.10
    # the eps = 0 targets reduce exactly to l (1 - u1) log K
    expected = invariance_target(1000, 1, 0.3, 0.0)
    assert report.entry("eps=+0.A").target == expected
    assert report.entry("eps=+0.B").target == expected
    for eps in ("-0.05", "+0", "+0.05"):
        assert report.entry(f"eps={eps}.window_mass").estimate > 0.0
        assert report.entry(f"eps={eps}.abs_diff").verdict == "pass"


def test_invariance_empty_window_names_nearest():
    with pytest.raises(EmptyConditioningSet, match="nearest populated window"):
        invariance_check(0.3, 1, [0.05], 1000, POI, 20_000, 3, u2=0.6,
                         window_rel=0.02, batches=20)


def test_invariance_empty_group_names_nearest(monkeypatch):
    """The eps = 0.2 window around 1.2 K^0.4 = 9.99 (K = 200) is populated,
    but no path dies at t_eps = 17: the error names the nearest tau seen.
    The paths are fixed here, so the case does not hang on one seed's draws."""
    tau = np.array([12, 15, 20])
    values = Ensemble(tau, np.ones(3, np.int64), np.full(3, 10), np.ones(3, np.int64),
                      np.arange(3))
    monkeypatch.setattr(estimators, "_collect_values", lambda *args: values)
    with pytest.raises(EmptyConditioningSet, match="nearest populated group is tau = 15"):
        invariance_check(0.3, 1, [0.2], 200, POI, 3, 2, u2=0.6,
                         window_rel=0.05, batches=3)


def test_invariance_validation():
    with pytest.raises(ValueError):
        invariance_check(0.3, 1, [0.3], 100, POI, 400, 1, batches=4)
    with pytest.raises(ValueError):
        invariance_check(0.6, 1, [0.0], 100, POI, 400, 1, batches=4, u2=0.6)


# ---------------------------------------------------------------------------
# determinism and worker invariance


def _entry_tuples(report):
    return [(e.name, e.estimate, e.stderr, e.target, e.verdict)
            for e in report.entries]


def test_reports_identical_across_reruns_and_workers():
    runs = [
        lambda w: conditional_moment_check(0.3, 0.6, 1, 300, POI, 8000, 17,
                                           batches=40, workers=w),
        lambda w: conditional_on_tau_check(0.5, 1, 300, POI, 8000, 9,
                                           batches=40, workers=w),
        lambda w: extinction_scaling([50, 200], BERN, 8000, 5, batches=40,
                                     trend_gates=(), workers=w),
        lambda w: clt_covariance_check(500, POI, (1, 2), 8000, 33, batches=40,
                                       workers=w),
        lambda w: invariance_check(0.3, 1, [0.0], 1000, POI, 40_000, 3,
                                   u2=0.6, window_rel=0.03, batches=40,
                                   workers=w),
    ]
    for run in runs:
        first = _entry_tuples(run(1))
        again = _entry_tuples(run(1))
        pooled = _entry_tuples(run(2))
        assert first == again
        assert first == pooled
