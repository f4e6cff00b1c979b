"""Monte Carlo experiments confronting simulation with the asymptotic laws.

Every experiment is a deterministic function of (config, seed): paths are
partitioned into contiguous equal batches, each batch simulates on its own
addressed stream (so the worker count cannot change any draw), per-batch
summaries merge in batch order, and standard errors come from the spread
of batch means. Batch simulation runs the process module's batch engine
across the paths of a batch on a handle stream keyed by (batch, slot).

Statistical verdicts are derived only from (estimate, stderr, target,
tolerance), and every tolerance is recorded on the entry itself.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.stats as sps

from .exact import mean_m_tau as exact_mean_m_tau
from .exact import tau_quantile
from .gaussian_limit import ThetaCovariance, is_positive_semidefinite, theta_covariance, theta_variance
from .offspring import OffspringDistribution
from .process import default_horizon, floor_level, plain_sizes
from .randomness import RandomnessSource
from .stopping import LimitOracle, limit_constant


class InsufficientBinMass(ValueError):
    """No conditioning bin reached the minimum path count."""


class EmptyConditioningSet(ValueError):
    """A requested conditioning window contains no simulated path."""


class DegenerateSample(ValueError):
    """A batch holds no usable path, or a statistic is the same in every batch."""


# ---------------------------------------------------------------------------
# report structure


@dataclass
class StatEntry:
    """One reported statistic.

    ``verdict`` is "pass"/"fail" for gated entries and "info" for
    report-only ones; ``tolerance`` spells out the gate that produced it.
    """

    name: str
    estimate: float
    stderr: float | None = None
    target: float | None = None
    ratio: float | None = None
    verdict: str = "info"
    tolerance: str = ""


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    entries: list[StatEntry] = field(default_factory=list)
    batches: int = 1
    total_paths: int = 0
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(e.verdict != "fail" for e in self.entries)

    def entry(self, name: str) -> StatEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _ratio_to(estimate: float, target: float | None) -> float | None:
    if target is None or target == 0.0:
        return None
    return float(estimate) / target


def entry_info(name, estimate, *, stderr=None, target=None) -> StatEntry:
    return StatEntry(name, float(estimate), stderr, target,
                     _ratio_to(estimate, target), "info", "")


def entry_se(name, estimate, stderr, target, k=4.0) -> StatEntry:
    ok = abs(estimate - target) <= k * stderr
    return StatEntry(name, float(estimate), float(stderr), float(target),
                     _ratio_to(estimate, target), "pass" if ok else "fail",
                     f"|estimate - target| <= {k:g} * stderr")


def entry_rel(name, estimate, target, rel_tol, *, stderr=None) -> StatEntry:
    ok = abs(estimate / target - 1.0) <= rel_tol
    return StatEntry(name, float(estimate), stderr, float(target),
                     _ratio_to(estimate, target), "pass" if ok else "fail",
                     f"|estimate/target - 1| <= {rel_tol:g}")


def entry_band(name, estimate, lo, hi, *, stderr=None, target=1.0) -> StatEntry:
    ok = lo <= estimate <= hi
    return StatEntry(name, float(estimate), stderr, target,
                     _ratio_to(estimate, target), "pass" if ok else "fail",
                     f"{lo:g} <= estimate <= {hi:g}")


def entry_le(name, estimate, bound, *, target=None, stderr=None) -> StatEntry:
    ok = estimate <= bound
    return StatEntry(name, float(estimate), stderr, target,
                     _ratio_to(estimate, target), "pass" if ok else "fail",
                     f"estimate <= {bound:g}")


def _ratio_entry(name, estimate, stderr, band) -> StatEntry:
    """A ratio gated to lie in ``band`` when one is given, else reported against 1."""
    if band is not None:
        return entry_band(name, estimate, band[0], band[1], stderr=stderr)
    return entry_info(name, estimate, stderr=stderr, target=1.0)


def entry_ge(name, estimate, bound, *, target=None, stderr=None) -> StatEntry:
    ok = estimate >= bound
    return StatEntry(name, float(estimate), stderr, target,
                     _ratio_to(estimate, target), "pass" if ok else "fail",
                     f"estimate >= {bound:g}")


# ---------------------------------------------------------------------------
# batch machinery


def batch_layout(total: int, batches: int) -> list[tuple[int, int]]:
    """Contiguous (start, count) blocks; early blocks absorb any remainder."""
    if total < 1 or batches < 1:
        raise ValueError("paths and batches must be positive")
    if batches > total:
        raise ValueError(f"more batches ({batches}) than paths ({total})")
    base, extra = divmod(total, batches)
    out, start = [], 0
    for b in range(batches):
        count = base + (1 if b < extra else 0)
        out.append((start, count))
        start += count
    return out


def _run_batches(fn: Callable[[int], object], batches: int, workers: int) -> list:
    if workers <= 1:
        return [fn(b) for b in range(batches)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(batches)))


def _batch_ids(layout: list[tuple[int, int]]) -> np.ndarray:
    return np.repeat(np.arange(len(layout)), [c for _, c in layout])


def _batch_mean_se(values: np.ndarray, batch_ids: np.ndarray,
                   batches: int) -> tuple[float, float | None]:
    """Mean of ``values`` plus the batch-replication standard error."""
    if len(values) == 0:
        raise ValueError("cannot average an empty selection")
    mean = float(values.mean())
    counts = np.bincount(batch_ids, minlength=batches)
    ok = counts > 0
    if ok.sum() < 2:
        return mean, None
    sums = np.bincount(batch_ids, weights=values, minlength=batches)
    means = sums[ok] / counts[ok]
    se = float(means.std(ddof=1) / math.sqrt(ok.sum()))
    return mean, se


def _median_from_hist(hist: np.ndarray, total: int) -> float:
    """Sample median of integer data summarized by a count histogram."""
    cum = np.cumsum(hist)
    lower = int(np.searchsorted(cum, (total + 1) // 2))
    if total % 2 == 1:
        return float(lower)
    upper = int(np.searchsorted(cum, total // 2 + 1))
    return (lower + upper) / 2.0


# ---------------------------------------------------------------------------
# vectorized batch simulation


def _tau_hist_batch(batch: int, *, seed: int, layout, dist, K: int, slot: int,
                    cap: int) -> tuple[np.ndarray, int]:
    """Histogram of extinction times for one trajectory batch."""
    _, count = layout[batch]
    gen = RandomnessSource(seed).handle(batch, slot).generator
    taus = np.zeros(count, dtype=np.int64)
    for n, sizes in enumerate(plain_sizes(K, count, dist, gen, cap), 1):
        taus[(sizes == 0) & (taus == 0)] = n
    return np.bincount(taus[taus > 0]), int(np.count_nonzero(taus == 0))


def _lifetime_hist_batch(batch: int, *, seed: int, layout, K: int,
                         m: float) -> tuple[np.ndarray, int]:
    """Exact extinction-time sampler for non-branching (bernoulli) lines.

    Each of the K initial lines survives a generation with probability m
    independently, so tau is the max of K iid geometric lifetimes with
    closed-form law P(tau <= n) = (1 - m^n)^K; one uniform per path
    inverts it. This is plain Monte Carlo on an exact representation.
    The uniform block is shared across the K grid of a run (common
    random numbers), which tightens trend comparisons.
    """
    _, count = layout[batch]
    src = RandomnessSource(seed)
    u = src.uniforms(batch, 0, count)
    with np.errstate(divide="ignore"):
        tail = -np.expm1(np.log(np.maximum(u, 1e-320)) / K)  # 1 - u^(1/K)
        taus = np.ceil(np.log(tail) / math.log(m))
    taus = np.maximum(taus, 1.0).astype(np.int64)
    return np.bincount(taus), 0


def _values_batch(batch: int, *, seed: int, layout, dist, K: int, u1: float,
                  u2: float, fixed_n: int, cap: int):
    """Per-path (tau, X at floor(u1 tau), at floor(u2 tau), at fixed_n).

    Runs a whole batch to extinction keeping the generation-by-generation
    size vectors, then reads each path's values at its realized times.
    Censored paths get tau = -1 and are skipped downstream.
    """
    _, count = layout[batch]
    gen = RandomnessSource(seed).handle(batch, 0).generator
    M = np.vstack([np.full(count, K, dtype=np.int64), *plain_sizes(K, count, dist, gen, cap)])
    cols = np.arange(count)
    extinct = M[-1] == 0
    taus = np.where(extinct, (M == 0).argmax(axis=0), -1)
    s1 = np.floor(u1 * np.maximum(taus, 0)).astype(np.int64)
    s2 = np.floor(u2 * np.maximum(taus, 0)).astype(np.int64)
    x1 = M[s1, cols]
    x2 = M[s2, cols]
    xn = M[fixed_n, cols] if fixed_n < M.shape[0] else np.zeros(count, np.int64)
    return taus, x1, x2, xn, int((~extinct).sum())


def _theta_batch(batch: int, *, seed: int, layout, dist, K: int,
                 indices: tuple[int, ...], a: float) -> np.ndarray:
    """Population sizes at the requested generations, one row per path.

    Generations after the whole batch died out stay 0.
    """
    _, count = layout[batch]
    gen = RandomnessSource(seed).handle(batch, 0).generator
    M = np.zeros((indices[-1], count), dtype=np.int64)
    for n, sizes in enumerate(plain_sizes(K, count, dist, gen, indices[-1], floor_level(a, K))):
        M[n] = sizes
    return M[np.array(indices) - 1].T


def _collect_values(dist, K, u1, u2, paths, seed, batches, workers,
                    cap_multiplier, fixed_n):
    layout = batch_layout(paths, batches)
    cap = default_horizon(K, dist.mean, multiplier=cap_multiplier)
    fn = partial(_values_batch, seed=seed, layout=layout, dist=dist, K=K,
                 u1=u1, u2=u2, fixed_n=fixed_n, cap=cap)
    parts = _run_batches(fn, batches, workers)
    tau = np.concatenate([p[0] for p in parts])
    x1 = np.concatenate([p[1] for p in parts])
    x2 = np.concatenate([p[2] for p in parts])
    xn = np.concatenate([p[3] for p in parts])
    censored = sum(p[4] for p in parts)
    return tau, x1, x2, xn, censored, _batch_ids(layout)


# ---------------------------------------------------------------------------
# conditional-aggregation pipeline shared by the two-time moment experiments


@dataclass
class BinStat:
    representative: float
    mean: float
    count: int
    mass: float


def assign_bins(values: np.ndarray, min_count: int, mode: str,
                max_bins: int = 20) -> np.ndarray:
    """Bin ids per element; -1 marks elements left out of every bin.

    ``quantile`` slices the sorted sample into equal-count chunks of at
    least ``min_count`` elements; ``distinct`` makes one bin per distinct
    value, dropping values rarer than ``min_count``.
    """
    n = len(values)
    ids = np.full(n, -1, dtype=np.int64)
    if mode == "distinct":
        next_id = 0
        for v in np.unique(values):
            sel = values == v
            if sel.sum() >= min_count:
                ids[sel] = next_id
                next_id += 1
        return ids
    if mode != "quantile":
        raise ValueError(f"unknown bin mode {mode!r}")
    nbins = min(n // min_count, max_bins)
    if nbins < 1:
        return ids
    order = np.argsort(values, kind="stable")
    for b, chunk in enumerate(np.array_split(order, nbins)):
        ids[chunk] = b
    return ids


def _weighted_mean(values: np.ndarray, weights: np.ndarray | None) -> float:
    if weights is None:
        return float(values.mean())
    return float((values * weights).sum() / weights.sum())


def _conditional_scores(tau, x_pred, x_cond, factors, *, power, min_bin_count,
                    bin_mode, min_group_count, weights=None):
    """Per-path ratio scores plus the per-group bin table.

    Within each exact-tau group, paths are binned on the conditioning
    value, and a binned path p scores
    x_pred_p^power / (representative^power * factors_p), where factors_p
    is constant within a group, so that a (weighted) mean of scores over
    any path set is the aggregate ratio estimate for that set.
    """
    scores = np.full(len(tau), np.nan)
    groups: dict[int, dict] = {}
    for t in np.unique(tau):
        if t < 0:
            continue
        sel = np.flatnonzero(tau == t)
        if len(sel) < min_group_count:
            continue
        ids = assign_bins(x_cond[sel], min_bin_count, bin_mode)
        bins = []
        for b in range(int(ids.max()) + 1):
            here = sel[ids == b]
            if len(here) == 0:
                continue
            w = None if weights is None else weights[here]
            rep = _weighted_mean(x_cond[here].astype(float), w)
            mean_pred = _weighted_mean(x_pred[here].astype(float) ** power, w)
            scores[here] = (x_pred[here].astype(float) ** power
                            / (rep**power * factors[here]))
            mass = float(len(here)) if weights is None else float(weights[here].sum())
            bins.append(BinStat(rep, mean_pred, len(here), mass))
        if bins:
            group_mass = float(len(sel)) if weights is None else float(weights[sel].sum())
            groups[int(t)] = {"bins": bins, "count": len(sel), "mass": group_mass}
    if not groups:
        raise InsufficientBinMass(
            f"no tau group of >= {min_group_count} paths produced a bin of "
            f">= {min_bin_count} paths")
    return scores, groups


def _dominant_group(groups: dict[int, dict]) -> int:
    return max(sorted(groups), key=lambda t: groups[t]["count"])


def _mean_of_scores(scores, sel, batch_ids, batches, weights):
    idx = np.flatnonzero(sel & np.isfinite(scores))
    if weights is not None:
        return _weighted_mean(scores[idx], weights[idx]), None
    return _batch_mean_se(scores[idx], batch_ids[idx], batches)


def _marginalization_residual(groups, t, scores, tau, x_pred, power, weights):
    """Relative gap between the bin-recombined and the direct group mean.

    Exact identity of the estimator: recombining the per-bin conditional
    means with their masses must reproduce the unconditional mean over
    the same (binned) paths.
    """
    bins = groups[t]["bins"]
    lhs = sum(b.mass * b.mean for b in bins) / sum(b.mass for b in bins)
    sel = np.flatnonzero((tau == t) & np.isfinite(scores))
    w = None if weights is None else weights[sel]
    rhs = _weighted_mean(x_pred[sel].astype(float) ** power, w)
    return abs(lhs - rhs) / abs(rhs)


def invariance_target(K: int, power: int, u1: float, eps: float) -> float:
    """Common asymptote of both conditional logs: l log(K+K eps) - l u1 log K."""
    return power * math.log(K + K * eps) - power * u1 * math.log(K)


# ---------------------------------------------------------------------------
# experiment: extinction-time scaling


def trend_entry(label: str, devs: Sequence[float], scale: float,
                slack: float | None) -> StatEntry:
    """Largest step-to-step increase of ``devs``, gated ``<= slack`` if given.

    Each deviation is a difference of two numbers of size ``scale``, so
    deviations equal in exact arithmetic can differ by a few ulps of
    ``scale`` in floats; the gate absorbs eight of them on top of ``slack``.
    """
    inc = max(b - a for a, b in zip(devs, devs[1:]))
    if slack is None:
        return entry_info(label, inc)
    return entry_le(label, inc, slack + 8 * np.finfo(float).eps * scale)


def extinction_scaling(
    K_list: Sequence[int],
    dist: OffspringDistribution,
    paths: int,
    seed: int,
    *,
    batches: int = 40,
    workers: int = 1,
    tau_sampler: str = "auto",
    cap_multiplier: int = 10,
    median_rel_tol: float | None = None,
    trend_gates: Sequence[str] = ("mean", "kEm"),
    trend_slack: float = 0.0,
    se_k: float = 4.0,
    exact_oracle: bool = True,
) -> ExperimentReport:
    """Extinction-time scaling and the K E[m^tau] limit across a K grid.

    Per K: sample median and mean of tau/log K against c = -1/log m, and
    K times the sample mean of m^tau against 1, with the latter gated
    against the exact generating-function value when requested. Trend
    entries gate that the deviations named in ``trend_gates`` shrink
    along the grid; the median-based trend holds only for offspring laws
    whose integer medians happen to round favorably at every grid point,
    so it is gated per configuration rather than by default. For
    bernoulli offspring the exact lifetime representation of tau can be
    sampled directly, one uniform per path; other families run batched
    trajectories.
    """
    if tau_sampler not in ("auto", "trajectory", "lifetime"):
        raise ValueError(f"unknown tau sampler {tau_sampler!r}")
    if tau_sampler == "lifetime" and dist.kind != "bernoulli":
        raise ValueError("the lifetime sampler is exact only for bernoulli offspring")
    use_lifetime = (tau_sampler == "lifetime"
                    or (tau_sampler == "auto" and dist.kind == "bernoulli"))
    m = dist.mean
    c = limit_constant(LimitOracle(m))
    K_list = sorted(dict.fromkeys(int(K) for K in K_list))
    layout = batch_layout(paths, batches)
    entries: list[StatEntry] = []
    devs: dict[str, list[float]] = {"median": [], "mean": [], "kEm": []}

    for slot, K in enumerate(K_list):
        if use_lifetime:
            fn = partial(_lifetime_hist_batch, seed=seed, layout=layout, K=K, m=m)
        else:
            cap = default_horizon(K, m, multiplier=cap_multiplier)
            fn = partial(_tau_hist_batch, seed=seed, layout=layout, dist=dist,
                         K=K, slot=slot, cap=cap)
        parts = _run_batches(fn, batches, workers)
        width = max(len(h) for h, _ in parts)
        hists = np.zeros((batches, width), dtype=np.int64)
        for b, (h, _) in enumerate(parts):
            hists[b, :len(h)] = h
        censored = sum(cens for _, cens in parts)
        hist = hists.sum(axis=0)
        total = int(hist.sum())
        logK = math.log(K)
        ns = np.arange(width)
        powers = m**ns

        per_batch = hists.sum(axis=1)
        if not per_batch.all():
            raise DegenerateSample(f"K={K}: batch {int(np.argmin(per_batch))} has no path "
                                   "extinct within the horizon; raise cap_multiplier")
        med = _median_from_hist(hist, total) / logK
        med_b = np.array([_median_from_hist(hists[b], int(per_batch[b]))
                          for b in range(batches)]) / logK
        mean = float(hist @ ns) / total / logK
        mean_b = (hists @ ns) / per_batch / logK
        kem = K * float(hist @ powers) / total
        kem_b = K * (hists @ powers) / per_batch

        pre = f"K={K}"
        entries.append(entry_info(f"{pre}.paths", total))
        entries.append(entry_le(f"{pre}.censored_paths", censored, 0))
        se_med = float(med_b.std(ddof=1) / math.sqrt(batches))
        if median_rel_tol is not None and K == K_list[-1]:
            entries.append(entry_rel(f"{pre}.median_tau_over_logK", med, c,
                                     median_rel_tol, stderr=se_med))
        else:
            entries.append(entry_info(f"{pre}.median_tau_over_logK", med,
                                      stderr=se_med, target=c))
        se_mean = float(mean_b.std(ddof=1) / math.sqrt(batches))
        entries.append(entry_info(f"{pre}.mean_tau_over_logK", mean,
                                  stderr=se_mean, target=c))
        se_kem = float(kem_b.std(ddof=1) / math.sqrt(batches))
        entries.append(entry_info(f"{pre}.K_mean_m_tau", kem,
                                  stderr=se_kem, target=1.0))
        if exact_oracle:
            exact = K * exact_mean_m_tau(dist, K)
            entries.append(entry_se(f"{pre}.K_mean_m_tau_vs_exact", kem,
                                    se_kem, exact, se_k))
        devs["median"].append(abs(med - c))
        devs["mean"].append(abs(mean - c))
        devs["kEm"].append(abs(kem - 1.0))

    if len(K_list) > 1:
        scales = {"median": c, "mean": c, "kEm": 1.0}
        for name in ("median", "mean", "kEm"):
            entries.append(trend_entry(f"trend.{name}_dev_max_increase", devs[name], scales[name],
                                       trend_slack if name in trend_gates else None))

    cfg = {"K_list": K_list, "paths": paths, "seed": seed, "batches": batches,
           "tau_sampler": "lifetime" if use_lifetime else "trajectory",
           "offspring": dist.descriptor()}
    return ExperimentReport("extinction-scaling", cfg, entries, batches,
                            paths * len(K_list))


# ---------------------------------------------------------------------------
# experiment: Gaussian fluctuation check

# Stephens (1974) asymptotic critical values of the Anderson-Darling A^2
# for normality with mean and variance estimated (his case 3), by
# significance level.
AD_SIGNIFICANCE_LEVELS = (0.15, 0.10, 0.05, 0.025, 0.01)
_AD_NORM_CRITICAL = np.array([0.561, 0.631, 0.752, 0.873, 1.035])


def anderson_darling_critical(n: int, significance: float) -> float:
    """Critical A^2 at ``significance`` for a normality test on ``n`` points.

    ``significance`` must be one of ``AD_SIGNIFICANCE_LEVELS``. Applies
    Stephens' finite-sample correction and rounds to three decimals, as
    the published table does.
    """
    if significance not in AD_SIGNIFICANCE_LEVELS:
        raise ValueError(f"ad_significance must be one of {AD_SIGNIFICANCE_LEVELS}")
    critical = np.around(_AD_NORM_CRITICAL / (1.0 + 0.75 / n + 2.25 / n / n), 3)
    return float(critical[AD_SIGNIFICANCE_LEVELS.index(significance)])


def clt_covariance_check(
    K: int,
    dist: OffspringDistribution,
    indices: Sequence[int],
    paths: int,
    seed: int,
    *,
    batches: int = 40,
    workers: int = 1,
    a: float = 0.0,
    se_k: float = 4.0,
    min_mode_separation: float = 5.0,
    ad_significance: float = 0.01,
    ad_min_scale: float = 100.0,
) -> ExperimentReport:
    """Standardized fluctuations against the Gaussian limit's two modes.

    Simulates theta_j = (X_j - m^j K) / (S sqrt(K)) at the requested
    generations (on the truncated chain when a > 0), gates each mean at 0
    and each variance at its recursion value within ``se_k`` batch
    standard errors, reports the distance of every cross-covariance to
    both covariance modes in standard-error units together with the
    winning mode, gates the mode separation at (j, n) = (1, 1), and runs
    Anderson-Darling normality checks at the extreme indices. The
    normality gate applies only while the population scale keeps the
    integer lattice unresolvable (sd of X at the index at least
    ``ad_min_scale``); below that the statistic inflates mechanically at
    large sample sizes and is reported ungated.
    """
    indices = tuple(sorted(dict.fromkeys(int(j) for j in indices)))
    if not indices or indices[0] < 1:
        raise ValueError("indices must be positive generations")
    ad_critical = anderson_darling_critical(paths, ad_significance)
    layout = batch_layout(paths, batches)
    ids = _batch_ids(layout)
    fn = partial(_theta_batch, seed=seed, layout=layout, dist=dist, K=K,
                 indices=indices, a=a)
    X = np.vstack(_run_batches(fn, batches, workers))
    centers = K * dist.mean ** np.array(indices, dtype=float)
    theta = (X - centers) / (dist.std * math.sqrt(K))

    models = {mode: ThetaCovariance(dist.mean, mode=mode, a=a)
              for mode in ("paper", "martingale")}
    entries: list[StatEntry] = [entry_info("paths", paths)]

    def batch_se(label, col_fn):
        vals = np.array([col_fn(theta[ids == b]) for b in range(batches)])
        se = float(vals.std(ddof=1) / math.sqrt(batches))
        if se == 0.0:
            raise DegenerateSample(f"every batch gives {label} = {vals[0]:g}, so its standard "
                                   "error is 0; raise K or lower the indices")
        return se

    for p, j in enumerate(indices):
        mean = float(theta[:, p].mean())
        se = batch_se(f"theta[{j}].mean", lambda tb, p=p: tb[:, p].mean())
        entries.append(entry_se(f"theta[{j}].mean", mean, se, 0.0, se_k))
        var = float(theta[:, p].var(ddof=1))
        se = batch_se(f"theta[{j}].var", lambda tb, p=p: tb[:, p].var(ddof=1))
        target = theta_variance(models["martingale"], j)
        entries.append(entry_se(f"theta[{j}].var", var, se, target, se_k))

    wins = 0
    pairs = 0
    for p in range(len(indices)):
        for q in range(p + 1, len(indices)):
            j, k = indices[p], indices[q]
            cov = float(np.cov(theta[:, p], theta[:, q], ddof=1)[0, 1])
            se = batch_se(f"cov[{j},{k}]",
                          lambda tb, p=p, q=q: np.cov(tb[:, p], tb[:, q], ddof=1)[0, 1])
            t_paper = theta_covariance(models["paper"], j, k - j)
            t_mart = theta_covariance(models["martingale"], j, k - j)
            z_paper = abs(cov - t_paper) / se
            z_mart = abs(cov - t_mart) / se
            pairs += 1
            wins += z_mart < z_paper
            entries.append(entry_info(f"cov[{j},{k}]", cov, stderr=se))
            entries.append(entry_info(f"cov[{j},{k}].z_paper", z_paper,
                                      target=t_paper))
            entries.append(entry_info(f"cov[{j},{k}].z_martingale", z_mart,
                                      target=t_mart))
            if (j, k) == (1, 2):
                entries.append(entry_ge("mode_separation[1,1]",
                                        abs(t_paper - t_mart) / se,
                                        min_mode_separation))
    if pairs:
        share = wins / pairs
        entries.append(entry_info("adjudication.martingale_share", share))
        entries.append(entry_info("adjudication.winner_is_martingale",
                                  1.0 if share > 0.5 else 0.0))

    for mode, model in models.items():
        M = np.empty((len(indices), len(indices)))
        for p in range(len(indices)):
            for q in range(len(indices)):
                lo, hi = min(p, q), max(p, q)
                M[p, q] = theta_covariance(model, indices[lo],
                                           indices[hi] - indices[lo])
        psd = 1.0 if is_positive_semidefinite(M) else 0.0
        entries.append(entry_info(f"psd.{mode}", psd))

    for j, p in ((indices[0], 0), (indices[-1], len(indices) - 1)):
        stat = float(sps.anderson(theta[:, p], dist="norm",
                                  method="interpolate").statistic)
        name = f"theta[{j}].anderson_darling"
        scale = float(theta[:, p].std(ddof=1)) * dist.std * math.sqrt(K)
        if scale >= ad_min_scale:
            entries.append(entry_le(name, stat, ad_critical))
        else:
            entries.append(entry_info(name, stat, target=ad_critical))

    cfg = {"K": K, "indices": list(indices), "paths": paths, "seed": seed,
           "batches": batches, "a": a, "offspring": dist.descriptor()}
    return ExperimentReport("clt-check", cfg, entries, batches, paths)


# ---------------------------------------------------------------------------
# experiment: two-time conditional moments


def _conditional_moment_core(tau, x1, x2, weights, batch_ids, batches, *,
                             u1, u2, power, m, min_bin_count, bin_mode,
                             min_group_count, ratio_band, max_bins_reported):
    extinct = tau >= 0
    if not extinct.any():
        raise InsufficientBinMass("no path went extinct within the horizon")
    s1 = np.floor(u1 * tau).astype(np.int64)
    s2 = np.floor(u2 * tau).astype(np.int64)
    entries: list[StatEntry] = []
    for label, xp, xc, sp, sc in (("forward", x1, x2, s1, s2),
                                  ("reverse", x2, x1, s2, s1)):
        factors = m ** (power * (sp - sc).astype(float))
        if weights is None:
            e_hat, e_se = _batch_mean_se(factors[extinct], batch_ids[extinct],
                                         batches)
        else:
            e_hat, e_se = _weighted_mean(factors[extinct], weights[extinct]), None
        scores, groups = _conditional_scores(
            tau, xp, xc, factors, power=power, min_bin_count=min_bin_count,
            bin_mode=bin_mode, min_group_count=min_group_count, weights=weights)
        t_star = _dominant_group(groups)
        entries.append(entry_info(f"{label}.em_factor", e_hat, stderr=e_se))
        if label == "forward":
            total_mass = (float(extinct.sum()) if weights is None
                          else float(weights[extinct].sum()))
            entries.append(entry_info("tau.dominant_group", t_star))
            entries.append(entry_info("tau.dominant_mass",
                                      groups[t_star]["mass"] / total_mass))
        est, se = _mean_of_scores(scores, tau == t_star, batch_ids, batches,
                                  weights)
        entries.append(_ratio_entry(f"{label}.dominant_ratio", est, se, ratio_band))
        est, se = _mean_of_scores(scores, extinct, batch_ids, batches, weights)
        entries.append(_ratio_entry(f"{label}.aggregate_ratio", est, se, ratio_band))
        # Sensitivity view: the same aggregate normalized by the pooled
        # across-path factor instead of each group's own, per the open
        # choice in how the asymptote's expectation is read.
        pooled = scores * (factors / e_hat)
        est, se = _mean_of_scores(pooled, extinct, batch_ids, batches, weights)
        entries.append(entry_info(f"{label}.aggregate_ratio_pooled", est,
                                  stderr=se, target=1.0))
        resid = _marginalization_residual(groups, t_star, scores, tau, xp,
                                          power, weights)
        entries.append(entry_le(f"{label}.marginalization_rel_residual",
                                resid, 1e-9))
        f_star = float(factors[np.flatnonzero(tau == t_star)[0]])
        for i, b in enumerate(groups[t_star]["bins"][:max_bins_reported]):
            entries.append(entry_info(
                f"{label}.bin[{i}].ratio",
                b.mean / (b.representative**power * f_star), target=1.0))
    return entries


def conditional_moment_check(
    u1: float,
    u2: float,
    power: int,
    K: int,
    dist: OffspringDistribution,
    paths: int,
    seed: int,
    *,
    batches: int = 40,
    workers: int = 1,
    min_bin_count: int = 50,
    bin_mode: str = "quantile",
    min_group_count: int = 200,
    ratio_band: tuple[float, float] | None = None,
    cap_multiplier: int = 10,
    max_bins_reported: int = 12,
) -> ExperimentReport:
    """Two-time conditional moment ratios at per-path times u1 tau, u2 tau.

    Groups extinct paths by exact tau, bins the conditioning value
    X_{floor(u2 tau)} within each group, and compares the conditional
    mean of X_{floor(u1 tau)}^l per bin against representative^l times
    the moment factor m^(l (s1 - s2)). The factor's expectation over the
    tau mixture can be read two ways; gated ratios use each group's own
    (conditional) factor, which is what tightens toward 1 as K grows,
    while the across-path estimate is reported as ``em_factor`` together
    with a pooled-normalization aggregate for sensitivity. Both
    prediction directions are reported; aggregates are mass-weighted over
    bins and groups, with batch standard errors computed on the fixed bin
    structure. Marginalization entries gate the exact recombination
    identity of the binned estimator.
    """
    if not (0.0 < u1 < 1.0 and 0.0 < u2 < 1.0):
        raise ValueError("u1 and u2 must lie strictly inside (0, 1)")
    if u1 == u2:
        raise ValueError("u1 == u2 makes the two-time conditioning degenerate")
    tau, x1, x2, _, censored, ids = _collect_values(
        dist, K, u1, u2, paths, seed, batches, workers, cap_multiplier, 1)
    entries = [entry_info("paths", paths),
               entry_le("censored_paths", censored, 0)]
    entries += _conditional_moment_core(
        tau, x1, x2, None, ids, batches, u1=u1, u2=u2, power=power,
        m=dist.mean, min_bin_count=min_bin_count, bin_mode=bin_mode,
        min_group_count=min_group_count, ratio_band=ratio_band,
        max_bins_reported=max_bins_reported)
    cfg = {"u1": u1, "u2": u2, "l": power, "K": K, "paths": paths,
           "seed": seed, "batches": batches, "offspring": dist.descriptor()}
    return ExperimentReport("conditional-moments", cfg, entries, batches, paths)


def conditional_moment_from_arrays(
    tau: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    weights: np.ndarray,
    *,
    u1: float,
    u2: float,
    power: int,
    m: float,
    min_bin_count: int = 1,
    bin_mode: str = "distinct",
    min_group_count: int = 1,
    ratio_band: tuple[float, float] | None = None,
) -> ExperimentReport:
    """Same pipeline on an explicit weighted ensemble (for exact oracles)."""
    tau = np.asarray(tau, dtype=np.int64)
    ids = np.zeros(len(tau), dtype=np.int64)
    entries = _conditional_moment_core(
        tau, np.asarray(x1), np.asarray(x2), np.asarray(weights, dtype=float),
        ids, 1, u1=u1, u2=u2, power=power, m=m, min_bin_count=min_bin_count,
        bin_mode=bin_mode, min_group_count=min_group_count,
        ratio_band=ratio_band, max_bins_reported=64)
    cfg = {"u1": u1, "u2": u2, "l": power, "m": m, "weighted": True}
    return ExperimentReport("conditional-moments", cfg, entries, 1, len(tau))


# ---------------------------------------------------------------------------
# experiment: moments conditioned on the extinction time


def conditional_on_tau_check(
    u1: float,
    power: int,
    K: int,
    dist: OffspringDistribution,
    paths: int,
    seed: int,
    *,
    batches: int = 40,
    workers: int = 1,
    min_group_count: int = 200,
    ratio_band: tuple[float, float] | None = None,
    cap_multiplier: int = 10,
    max_groups_reported: int = 10,
    se_k: float = 4.0,
) -> ExperimentReport:
    """Moments at floor(u1 tau) conditioned on tau, against K^l m^(l s1).

    Each sufficiently large tau group contributes the ratio of its mean
    of X_{floor(u1 tau)}^l to the asymptote K^l m^(l floor(u1 tau)); the
    dominant-group and mass-weighted aggregate ratios carry the optional
    band gate. A Wald sanity entry checks the unconditional mean of X_n
    at a fixed generation against K m^n, plus the exact identity that
    marginalizing the tau-grouping recovers it.
    """
    if not 0.0 < u1 < 1.0:
        raise ValueError("u1 must lie strictly inside (0, 1)")
    m = dist.mean
    fixed_n = max(1, math.floor(u1 * tau_quantile(dist, K)))
    tau, x1, _, xn, censored, ids = _collect_values(
        dist, K, u1, u1, paths, seed, batches, workers, cap_multiplier, fixed_n)
    extinct = tau >= 0
    if not extinct.any():
        raise InsufficientBinMass("no path went extinct within the horizon")
    s1 = np.floor(u1 * tau).astype(np.int64)
    scores = np.where(extinct,
                      x1.astype(float) ** power
                      / (float(K) ** power * m ** (power * s1.astype(float))),
                      np.nan)
    entries = [entry_info("paths", paths),
               entry_le("censored_paths", censored, 0)]

    tau_vals, counts = np.unique(tau[extinct], return_counts=True)
    big = counts >= min_group_count
    if not big.any():
        raise InsufficientBinMass(f"no tau group reached {min_group_count} paths")
    eligible = tau_vals[big]
    t_star = int(eligible[np.argmax(counts[big])])
    entries.append(entry_info("tau.dominant_group", t_star))

    order = np.argsort(-counts[big], kind="stable")
    for t in sorted(int(t) for t in eligible[order][:max_groups_reported]):
        est, se = _mean_of_scores(scores, tau == t, ids, batches, None)
        entries.append(entry_info(f"group[t={t}].ratio", est, stderr=se,
                                  target=1.0))

    est, se = _mean_of_scores(scores, tau == t_star, ids, batches, None)
    entries.append(_ratio_entry("dominant_ratio", est, se, ratio_band))
    est, se = _mean_of_scores(scores, np.isin(tau, eligible), ids, batches, None)
    entries.append(_ratio_entry("aggregate_ratio", est, se, ratio_band))

    entries.append(entry_info("wald.n", fixed_n))
    target = K * m**fixed_n
    mean_xn, se_xn = _batch_mean_se(xn[extinct].astype(float), ids[extinct],
                                    batches)
    entries.append(entry_se("wald.mean_Xn", mean_xn, se_xn, target, se_k))
    recombined = sum(
        float(xn[extinct][tau[extinct] == t].mean()) * cnt / extinct.sum()
        for t, cnt in zip(tau_vals, counts))
    # Relative to the mean, or absolute where every X_n is 0.
    resid = abs(recombined - mean_xn) / (abs(mean_xn) or 1.0)
    entries.append(entry_le("wald.marginalization_rel_residual", resid, 1e-9))

    cfg = {"u1": u1, "l": power, "K": K, "paths": paths, "seed": seed,
           "batches": batches, "offspring": dist.descriptor()}
    return ExperimentReport("conditional-on-tau", cfg, entries, batches, paths)


def conditional_on_tau_from_arrays(
    tau: np.ndarray,
    x1: np.ndarray,
    weights: np.ndarray,
    *,
    u1: float,
    power: int,
    K: int,
    m: float,
) -> ExperimentReport:
    """Per-group conditional ratios on an explicit weighted ensemble."""
    tau = np.asarray(tau, dtype=np.int64)
    x1 = np.asarray(x1, dtype=float)
    weights = np.asarray(weights, dtype=float)
    entries: list[StatEntry] = []
    for t in np.unique(tau):
        sel = tau == t
        denom = float(K) ** power * m ** (power * math.floor(u1 * t))
        est = _weighted_mean(x1[sel] ** power, weights[sel]) / denom
        entries.append(entry_info(f"group[t={t}].ratio", est, target=1.0))
    cfg = {"u1": u1, "l": power, "K": K, "m": m, "weighted": True}
    return ExperimentReport("conditional-on-tau", cfg, entries, 1, len(tau))


# ---------------------------------------------------------------------------
# experiment: invariance of the two conditionings


def invariance_check(
    u1: float,
    power: int,
    eps_grid: Sequence[float],
    K: int,
    dist: OffspringDistribution,
    paths: int,
    seed: int,
    *,
    u2: float = 0.6,
    window_rel: float = 0.02,
    rel_tol: float = 0.10,
    batches: int = 40,
    workers: int = 1,
    cap_multiplier: int = 10,
) -> ExperimentReport:
    """Agreement of the two conditionings on the same log asymptote.

    For each perturbation eps, statistic A conditions on the population
    at floor(u2 tau) landing in a relative window around
    (1 + eps) K^(1 - u2), and statistic B conditions on tau equal to
    floor((1 + eps) c log K); both are logs of conditional means of
    X_{floor(u1 tau)}^l and share the asymptote
    l log(K + K eps) - l u1 log K. The gate bounds |A - B| relative to
    |A| per eps.
    """
    if not (0.0 < u1 < 1.0 and 0.0 < u2 < 1.0) or u1 == u2:
        raise ValueError("u1, u2 must be distinct points inside (0, 1)")
    eps_grid = [float(e) for e in eps_grid]
    for eps in eps_grid:
        if abs(eps) > 0.2:
            raise ValueError(f"|eps| must be <= 0.2, got {eps}")
    m = dist.mean
    c = limit_constant(LimitOracle(m))
    tau, x1, x2, _, censored, ids = _collect_values(
        dist, K, u1, u2, paths, seed, batches, workers, cap_multiplier, 1)
    extinct = tau >= 0
    if not extinct.any():
        raise EmptyConditioningSet("no path went extinct within the horizon")
    entries = [entry_info("paths", paths),
               entry_le("censored_paths", censored, 0)]
    x1f = x1.astype(float)
    rel_diffs = []

    for eps in eps_grid:
        pre = f"eps={eps:+g}"
        center = (1.0 + eps) * float(K) ** (1.0 - u2)
        window = extinct & (np.abs(x2 - center) <= window_rel * center)
        if not window.any():
            populated = x2[extinct]
            nearest = float(populated[np.argmin(np.abs(populated - center))])
            raise EmptyConditioningSet(
                f"no path puts X at floor(u2 tau) within {window_rel:g} of "
                f"{center:.6g} (eps={eps:+g}); nearest populated window sits "
                f"at eps={nearest / float(K) ** (1.0 - u2) - 1.0:+.4f}")
        t_eps = math.floor((1.0 + eps) * c * math.log(K))
        group = tau == t_eps
        if not group.any():
            seen = np.unique(tau[extinct])
            near_t = int(seen[np.argmin(np.abs(seen - t_eps))])
            raise EmptyConditioningSet(
                f"no path has tau = {t_eps} (eps={eps:+g}); nearest populated "
                f"group is tau = {near_t}, i.e. eps="
                f"{near_t / (c * math.log(K)) - 1.0:+.4f}")
        mean_a, se_a = _batch_mean_se(x1f[window] ** power, ids[window], batches)
        mean_b, se_b = _batch_mean_se(x1f[group] ** power, ids[group], batches)
        A, B = math.log(mean_a), math.log(mean_b)
        target = invariance_target(K, power, u1, eps)
        entries.append(entry_info(
            f"{pre}.A", A, target=target,
            stderr=None if se_a is None else se_a / mean_a))
        entries.append(entry_info(
            f"{pre}.B", B, target=target,
            stderr=None if se_b is None else se_b / mean_b))
        entries.append(entry_info(f"{pre}.window_mass",
                                  float(window.sum()) / extinct.sum()))
        entries.append(entry_info(f"{pre}.group_mass",
                                  float(group.sum()) / extinct.sum()))
        entries.append(entry_le(f"{pre}.abs_diff", abs(A - B),
                                rel_tol * abs(A), target=rel_tol * abs(A)))
        rel_diffs.append(abs(A - B) / abs(A))

    entries.append(entry_le("max_rel_diff", max(rel_diffs), rel_tol))
    cfg = {"u1": u1, "u2": u2, "l": power, "eps_grid": eps_grid, "K": K,
           "paths": paths, "seed": seed, "batches": batches,
           "window_rel": window_rel, "offspring": dist.descriptor()}
    return ExperimentReport("invariance", cfg, entries, batches, paths)
