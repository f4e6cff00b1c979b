"""The experiments, one function per kind, which the harness calls by name.

``pathwise_check`` runs ``simulate`` and ``coupled``, ``gaussian_cov``
computes the Gaussian limit's covariance matrix, and the five Monte Carlo
kinds confront simulation with the asymptotic laws. Every simulated
experiment is a deterministic function of (config, seed): batch b holds
the ``size = paths // batches`` paths from b * size on, consecutive batches
are grouped into stacks of ``max(1, 4096 // size)`` batches, and each stack
simulates on its own addressed stream, so neither the worker count nor the
job order can change any draw. A stack is one job: the process module's
engine steps all its paths on the handle stream keyed by (its first batch,
slot), and the job returns one part per stack, merged in stack order.
Batches are a statistics concept alone: standard errors come from the
spread of batch means, so a stack worker splits its paths into batches
only where a statistic needs them.

The conditional experiments average over an ``Ensemble`` of paths. A
Monte Carlo sample and an exact enumeration (probability weights, one
batch) run the same grouping, binning and scoring code, so the tests'
enumeration oracles check the code that writes the reports. The tau
groups are found once per ensemble, and a group is binned in one array
pass: its bins are gathered as (bins, size) matrices of ascending paths
and read by row means, which sum each row exactly as the row alone would.

Statistical verdicts are derived only from (estimate, stderr, target,
tolerance), and every tolerance is recorded on the entry itself. The
normality gate's Anderson-Darling statistic and its critical values are
both computed here, so the module needs nothing beyond numpy.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .exact import limit_constant, tau_quantile
from .exact import mean_m_tau as exact_mean_m_tau
from .gaussian_limit import MODES, ThetaCovariance, covariance_matrix, is_positive_semidefinite
from .offspring import OffspringDistribution
from .process import (COUPLED_GATES, coupled_floors, default_horizon, floor_level, plain_batch,
                      trajectory_header, trajectory_rows)
from .randomness import RandomnessSource


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
    """One run's entries, with a dump's trajectory CSV text or gaussian-cov's
    matrix to be written next to the report, never into it."""

    experiment: str
    entries: list[StatEntry] = field(default_factory=list)
    batches: int = 1
    total_paths: int = 0
    wall_time: float = 0.0
    trajectories: str | None = None
    matrix: list[list[float]] | None = None

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


def _gated(name, estimate, ok, tolerance, stderr, target) -> StatEntry:
    """An entry that passes if ``ok``, under the gate ``tolerance`` spells out."""
    return StatEntry(name, float(estimate), stderr, target, _ratio_to(estimate, target),
                     "pass" if ok else "fail", tolerance)


def entry_se(name, estimate, stderr, target, k=4.0) -> StatEntry:
    return _gated(name, estimate, abs(estimate - target) <= k * stderr,
                  f"|estimate - target| <= {k:g} * stderr", float(stderr), float(target))


def entry_rel(name, estimate, target, rel_tol, *, stderr=None) -> StatEntry:
    return _gated(name, estimate, abs(estimate / target - 1.0) <= rel_tol,
                  f"|estimate/target - 1| <= {rel_tol:g}", stderr, float(target))


def entry_band(name, estimate, lo, hi, *, stderr=None, target=1.0) -> StatEntry:
    return _gated(name, estimate, lo <= estimate <= hi, f"{lo:g} <= estimate <= {hi:g}",
                  stderr, target)


def entry_le(name, estimate, bound, *, target=None, stderr=None) -> StatEntry:
    return _gated(name, estimate, estimate <= bound, f"estimate <= {bound:g}", stderr, target)


def _ratio_entry(name, estimate, stderr, band) -> StatEntry:
    """A ratio gated to lie in ``band`` when one is given, else reported against 1."""
    if band is not None:
        return entry_band(name, estimate, band[0], band[1], stderr=stderr)
    return entry_info(name, estimate, stderr=stderr, target=1.0)


def entry_ge(name, estimate, bound, *, target=None, stderr=None) -> StatEntry:
    return _gated(name, estimate, estimate >= bound, f"estimate >= {bound:g}", stderr, target)


# ---------------------------------------------------------------------------
# batch machinery


def batch_size(paths: int, batches: int) -> int:
    """The paths of each batch: batch b holds paths b * size .. (b + 1) * size - 1."""
    if batches < 1 or paths < 1 or paths % batches:
        raise ValueError(f"paths ({paths}) must be a positive multiple of batches ({batches})")
    return paths // batches


#: A stack is consecutive batches with at most this many paths in all; a
#: larger batch runs alone. Each stack draws from one stream, so changing this
#: changes the draws of every run whose batches stack.
_STACK_PATHS = 4096


def _stacks(batches: int, size: int) -> list[range]:
    """Runs of ``max(1, _STACK_PATHS // size)`` consecutive batches of
    ``size`` paths, the last one perhaps shorter, each as a range of batch
    indices."""
    per = max(1, _STACK_PATHS // size)
    return [range(b, min(b + per, batches)) for b in range(0, batches, per)]


def _call(job: tuple[Callable[[range], object], range]) -> object:
    fn, stack = job
    return fn(stack)


def _run_stacks(fns: Sequence[Callable[[range], object]], batches: int, size: int,
                workers: int) -> list[list]:
    """Every stack of ``batches`` batches of ``size`` paths (see
    :func:`_stacks`) through every function, one list of parts per
    function, one part per stack in stack order.

    A job is one function on one stack: the function takes a range of
    consecutive batches and returns their part. All the jobs go through one
    pool, the last function's stacks first, so a grid listed by growing K
    starts its longest stacks first. The pool gets at most one process per
    job and per CPU; with one, the jobs run in this process. Each stack
    draws from its own addressed stream, so neither the order nor the
    process count changes a part; the stacks, which depend only on the
    batch count and size, do.
    """
    stacks = _stacks(batches, size)
    jobs = [(fn, stack) for fn in reversed(fns) for stack in stacks]
    procs = min(workers, len(jobs), os.cpu_count() or 1)
    if procs <= 1:
        parts = [_call(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            parts = list(pool.map(_call, jobs))
    n = len(stacks)
    return [parts[i * n:(i + 1) * n] for i in reversed(range(len(fns)))]


def _batch_se(batch_values: np.ndarray) -> float:
    """The standard error of a mean from one value per batch: their spread
    over sqrt(batches)."""
    return float(batch_values.std(ddof=1) / math.sqrt(len(batch_values)))


def _hist_rows(hists: Sequence[np.ndarray]) -> np.ndarray:
    """The batches' count histograms as the rows of one zero-padded matrix."""
    out = np.zeros((len(hists), max(len(h) for h in hists)), dtype=np.int64)
    for b, h in enumerate(hists):
        out[b, :len(h)] = h
    return out


def _median_from_hist(hist: np.ndarray, total: int) -> float:
    """Sample median of integer data summarized by a count histogram."""
    cum = np.cumsum(hist)
    lower = int(np.searchsorted(cum, (total + 1) // 2))
    if total % 2 == 1:
        return float(lower)
    upper = int(np.searchsorted(cum, total // 2 + 1))
    return (lower + upper) / 2.0


# ---------------------------------------------------------------------------
# stack workers: one stack of consecutive batches per job


def _step_stack(stack: range, seed: int, size: int, K: int, dist, horizon: int,
                floors: Sequence[int] = (0,), *, slot: int = 0, rows: bool = False):
    """``plain_batch`` on the stack's paths, drawing from its one stream:
    the handle stream of its first batch at ``slot``."""
    gen = RandomnessSource(seed).handle(stack.start, slot)
    return plain_batch(K, len(stack) * size, dist, gen, horizon, floors, rows=rows)


def _tau_hist_batch(stack: range, *, seed: int, size: int, dist, K: int, horizon: int,
                    levels: Sequence[float] = (), slot: int = 0, dump: bool = False) -> tuple:
    """The stack worker of simulate, coupled and extinction-scaling.

    Returns the histogram of each batch's extinction times (batch standard
    errors need them one by one), the stack's count of paths alive at the
    horizon, with ``levels`` (sorted and distinct) its four gate-violation
    totals, and its trajectory rows when ``dump``. Generation 0 is the
    common start K, where every gate holds by construction.
    """
    floors = coupled_floors(levels, K)
    taus, sizes, flags, bad = _step_stack(stack, seed, size, K, dist, horizon, floors,
                                          slot=slot, rows=dump)
    hists = [np.bincount(t[t >= 0]) for t in taus.reshape(len(stack), size)]
    text = None
    if dump:  # batch by batch, which keeps csv_rows' buffers to a batch's size
        n = len(stack)
        text = "".join(trajectory_rows(s, b * size, floors, f) for b, s, f in
                       zip(stack, np.split(sizes, n, axis=1), np.split(flags, n, axis=1)))
    return hists, int(np.count_nonzero(taus < 0)), *bad, text


def _sizes_batch(stack: range, *, seed: int, size: int, dist, K: int, horizon: int,
                 floor: int = 0, fractions: Sequence[float] = (), generations: Sequence[int] = ()) -> tuple:
    """Per path of the stack: tau (-1 if censored), and a (reads, paths)
    matrix of its base sizes, truncated at ``floor``: one row at
    floor(u tau) for each u in ``fractions``, then one at each of the
    ``generations``. A censored path reads generation 0, and a generation
    after the whole stack died out reads 0."""
    taus, sizes, _, _ = _step_stack(stack, seed, size, K, dist, horizon, (floor,), rows=True)
    M, cols = sizes[:, :, 0], np.arange(len(taus))
    out = np.zeros((len(fractions) + len(generations), len(taus)), dtype=M.dtype)
    for r, u in enumerate(fractions):
        out[r] = M[np.floor(u * np.maximum(taus, 0)).astype(np.int64), cols]
    for r, g in enumerate(generations, len(fractions)):
        if g < len(M):
            out[r] = M[g]
    return taus, out


def _collect_values(dist, K, u1, u2, paths, seed, batches, workers, cap_multiplier,
                    fixed_n=None) -> Ensemble:
    """The ensemble of X at floor(u1 tau) and floor(u2 tau), and at
    ``fixed_n`` if given. With ``u2`` None, x2 is x1."""
    size = batch_size(paths, batches)
    fractions = (u1,) if u2 is None else (u1, u2)
    fn = partial(_sizes_batch, seed=seed, size=size, dist=dist, K=K,
                 horizon=default_horizon(K, dist.mean, multiplier=cap_multiplier),
                 fractions=fractions, generations=() if fixed_n is None else (fixed_n,))
    [parts] = _run_stacks([fn], batches, size, workers)
    tau = np.concatenate([taus for taus, _ in parts])
    X = np.hstack([reads for _, reads in parts])
    xn = None if fixed_n is None else X[-1]
    return Ensemble(tau, X[0], X[len(fractions) - 1], xn, batches)


# ---------------------------------------------------------------------------
# the ensemble of paths that every conditional experiment averages over


@dataclass(frozen=True)
class Ensemble:
    """Per-path tau (-1 if censored) and X at floor(u1 tau) and floor(u2 tau),
    in ``batches`` equal batches of consecutive paths, with the paths'
    weights. Only conditional-on-tau, which reads one time (x2 is x1), also
    holds X at a fixed n; else ``xn`` is None.

    A Monte Carlo sample leaves ``weights`` unset, so every path weighs 1
    and means carry batch standard errors. An exact enumeration weighs
    each path by its probability and is one batch, so its means carry
    none. Only ``mass``, ``mean``, ``row_means`` and ``row_masses`` read
    the weights. A selection is an ascending index array, ``values`` hold
    one value per selected path, and averages run in selection order.
    """

    tau: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    xn: np.ndarray | None
    batches: int
    weights: np.ndarray | None = None

    @classmethod
    def enumeration(cls, tau, x1, x2, weights) -> Ensemble:
        """Every path of an exact enumeration, weighted by its probability."""
        return cls(np.asarray(tau, dtype=np.int64), np.asarray(x1), np.asarray(x2), None, 1,
                   np.asarray(weights, dtype=float))

    def mass(self, sel: np.ndarray) -> float:
        """Total weight of the selected paths: their count in a sample."""
        if self.weights is None:
            return float(len(sel))
        return float(self.weights[sel].sum())

    def mean(self, values: np.ndarray, sel: np.ndarray) -> float:
        """Mean of the selected paths' ``values``, weighted by the paths' weights."""
        if len(sel) == 0:
            raise ValueError("cannot average an empty selection")
        if self.weights is None:
            return float(values.mean())
        w = self.weights[sel]
        return float((values * w).sum() / w.sum())

    def row_means(self, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``mean`` of each row of the (bins, size) ``values`` over the same
        row of the selection block ``rows``. A row of a contiguous matrix
        sums pairwise as that row alone does, so each equals its ``mean``
        bit for bit."""
        if self.weights is None:
            return values.mean(axis=1)
        w = self.weights[rows]
        return (values * w).sum(axis=1) / w.sum(axis=1)

    def row_masses(self, rows: np.ndarray) -> np.ndarray:
        """``mass`` of each row of the selection block ``rows``."""
        if self.weights is None:
            return np.full(len(rows), float(rows.shape[1]))
        return self.weights[rows].sum(axis=1)

    @cached_property
    def groups(self) -> dict[int, np.ndarray]:
        """The extinct paths of each tau, as an ascending index array, in
        ascending tau; censored paths are in none. One stable order of the
        extinct taus finds them all."""
        ext = np.flatnonzero(self.tau >= 0)
        paths = ext[_stable_order(self.tau[ext])]
        taus = self.tau[paths]
        cuts = np.flatnonzero(np.diff(taus)) + 1
        return dict(zip(taus[np.append(0, cuts)].tolist(), np.split(paths, cuts)))

    def mean_se(self, values: np.ndarray, sel: np.ndarray) -> tuple[float, float | None]:
        """``mean`` plus the spread of batch means over sqrt(batches), or
        None when fewer than two batches hold a selected path. The selected
        paths of a batch are one run of the ascending selection."""
        mean = self.mean(values, sel)
        size = len(self.tau) // self.batches
        counts = np.diff(np.searchsorted(sel, np.arange(self.batches + 1) * size))
        ok = counts > 0
        if ok.sum() < 2:
            return mean, None
        sums = np.bincount(sel // size, weights=values, minlength=self.batches)
        return mean, _batch_se(sums[ok] / counts[ok])


# ---------------------------------------------------------------------------
# grouping and binning shared by the conditional experiments


def _stable_order(values: np.ndarray) -> np.ndarray:
    """The positions of ``values`` in ascending value order, ties in
    ascending position, as a stable argsort gives them: one sort of the
    distinct keys (rank << bits) | position, the rank being the value less
    the least one for integers whose keys fit int64, else the dense rank."""
    n = len(values)
    if not n:
        return np.zeros(0, dtype=np.int64)
    bits = (n - 1).bit_length()
    lo = int(values.min()) if values.dtype.kind in "iu" else None
    if lo is not None and int(values.max()) - lo < 1 << (63 - bits):
        keys = np.subtract(values, lo, dtype=np.int64)
    else:
        keys = np.unique(values, return_inverse=True)[1].astype(np.int64)
    keys <<= bits
    keys |= np.arange(n)
    keys.sort()
    keys &= (1 << bits) - 1
    return keys


#: The most bins ``quantile`` cuts one tau group into.
_MAX_BINS = 20


def bin_blocks(values: np.ndarray, min_count: int, mode: str) -> list[np.ndarray]:
    """The bins of ``values``, as blocks of positions into it.

    A block is a (bins, size) matrix: each row is one bin, its positions
    ascending. Blocks and their rows run in bin order, and elements of no
    bin are left out. ``quantile`` cuts the stable sorted order into
    ``min(n // min_count, _MAX_BINS)`` equal-count chunks as
    ``np.array_split`` does, the first n % bins one longer, so its bins
    form at most two blocks. ``distinct`` makes one bin per distinct value,
    in ascending value order, dropping values rarer than ``min_count``;
    its bins differ in size, so each is a block of one row, a contiguous
    slice of that order.
    """
    if mode not in ("distinct", "quantile"):
        raise ValueError(f"unknown bin mode {mode!r}")
    n = len(values)
    order = _stable_order(values)
    if mode == "distinct":
        ordered = values[order]
        starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
        stops = np.append(starts[1:], n)
        kept = stops - starts >= min_count
        return [order[a:b][None] for a, b in zip(starts[kept].tolist(), stops[kept].tolist())]
    nbins = min(n // min_count, _MAX_BINS)
    if nbins < 1:
        return []
    size, extra = divmod(n, nbins)
    cut = extra * (size + 1)
    blocks = (order[:cut].reshape(extra, size + 1), order[cut:].reshape(nbins - extra, size))
    return [np.sort(block, axis=1) for block in blocks if len(block)]


def _dominant_group(counts: dict[int, int]) -> int:
    """The group of most paths; the smallest tau among equals."""
    return max(counts, key=counts.get)


def _mean_se_where(ens: Ensemble, values: np.ndarray, where: np.ndarray):
    """``ens.mean_se`` of the per-path ``values`` over the paths ``where`` marks."""
    sel = np.flatnonzero(where)
    return ens.mean_se(values[sel], sel)


def invariance_target(K: int, power: int, u1: float, eps: float) -> float:
    """Common asymptote of both conditional logs: l log(K+K eps) - l u1 log K."""
    return power * math.log(K + K * eps) - power * u1 * math.log(K)


# ---------------------------------------------------------------------------
# experiments: simulate and coupled


def pathwise_check(K: int, dist: OffspringDistribution, paths: int, seed: int, *,
                   batches: int = 40, workers: int = 1, horizon: int | None = None,
                   cap_multiplier: int = 10, write_trajectories: bool = True,
                   levels: Sequence[float] = ()) -> ExperimentReport:
    """Extinct and censored path counts and the mean and median of tau,
    against c log K for a subcritical law: a ``coupled`` report, which steps
    ``levels`` along and gates their violation counts at 0, when levels are
    given, else a ``simulate`` one. With ``write_trajectories`` the report
    carries every path's trajectory CSV text."""
    # float() because the levels name trajectory columns: 0 and 0.0 must print alike.
    levels = sorted(set(float(a) for a in levels))
    horizon = horizon or default_horizon(K, dist.mean, cap_multiplier)
    size = batch_size(paths, batches)
    fn = partial(_tau_hist_batch, size=size, seed=seed, dist=dist, K=K, horizon=horizon,
                 levels=levels, dump=write_trajectories)
    [parts] = _run_stacks([fn], batches, size, workers)
    hist = _hist_rows([h for p in parts for h in p[0]]).sum(axis=0)
    censored = sum(p[1] for p in parts)
    extinct = paths - censored
    entries = [
        entry_info("paths", paths),
        entry_info("extinct_paths", extinct),
        entry_info("censored_paths", censored),
    ]
    gates = COUPLED_GATES if levels else ()
    entries += [entry_le(name, sum(p[2 + i] for p in parts), 0) for i, name in enumerate(gates)]
    if extinct:
        target = None
        if 0.0 < dist.mean < 1.0 and K >= 2:
            target = limit_constant(dist.mean) * math.log(K)
        entries += [
            entry_info("mean_tau", float((np.arange(hist.size) * hist).sum() / extinct),
                       target=target),
            entry_info("median_tau", _median_from_hist(hist, extinct), target=target),
        ]
    report = ExperimentReport("coupled" if levels else "simulate", entries, batches, paths)
    if write_trajectories:
        report.trajectories = "".join([trajectory_header(levels), "\n", *(p[-1] for p in parts)])
    return report


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
    so it is gated per configuration rather than by default. Every K runs
    batched trajectories on its own handle slot, for every offspring family.
    """
    m = dist.mean
    c = limit_constant(m)
    K_list = sorted(dict.fromkeys(int(K) for K in K_list))
    size = batch_size(paths, batches)
    entries: list[StatEntry] = []
    devs: dict[str, list[float]] = {"median": [], "mean": [], "kEm": []}

    fns = [partial(_tau_hist_batch, seed=seed, size=size, dist=dist, K=K, slot=slot,
                   horizon=default_horizon(K, m, multiplier=cap_multiplier))
           for slot, K in enumerate(K_list)]
    for K, parts in zip(K_list, _run_stacks(fns, batches, size, workers)):
        hists = _hist_rows([h for p in parts for h in p[0]])
        width = hists.shape[1]
        censored = sum(p[1] for p in parts)
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
        se_med = _batch_se(med_b)
        if median_rel_tol is not None and K == K_list[-1]:
            entries.append(entry_rel(f"{pre}.median_tau_over_logK", med, c,
                                     median_rel_tol, stderr=se_med))
        else:
            entries.append(entry_info(f"{pre}.median_tau_over_logK", med,
                                      stderr=se_med, target=c))
        se_mean = _batch_se(mean_b)
        entries.append(entry_info(f"{pre}.mean_tau_over_logK", mean,
                                  stderr=se_mean, target=c))
        se_kem = _batch_se(kem_b)
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

    return ExperimentReport("extinction-scaling", entries, batches, paths * len(K_list))


# ---------------------------------------------------------------------------
# experiments: the Gaussian limit's covariance, and the fluctuation check


def gaussian_cov(indices: Sequence[int], dist: OffspringDistribution, *, a: float = 0.0,
                 mode: str = "paper") -> ExperimentReport:
    """The ``mode`` covariance of the limit theta at ``indices`` for the
    chain truncated at ``a``: one entry per cell on and above the diagonal,
    and whether the matrix is positive semidefinite. The report carries the
    matrix."""
    matrix = covariance_matrix(ThetaCovariance(dist.mean, mode=mode, a=a), indices)
    entries = [entry_info(f"cov[{i},{j}]", float(matrix[p, q]))
               for p, i in enumerate(indices) for q, j in enumerate(indices) if q >= p]
    entries.append(entry_info("psd", 1.0 if is_positive_semidefinite(matrix) else 0.0))
    return ExperimentReport("gaussian-cov", entries, 1, 0, matrix=matrix.tolist())


# Stephens (1974) asymptotic critical values of the Anderson-Darling A^2
# for normality with mean and variance estimated (his case 3), by
# significance level. The statistic and its finite-sample critical values
# are both computed below.
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


def anderson_darling_statistic(x: np.ndarray) -> float:
    """A^2 of ``x`` against the normal law with its own mean and sd.

    With w the sorted sample standardized by its mean and ``ddof=1``
    standard deviation, A^2 = -n - sum_i (2i - 1)/n (log Phi(w_i) +
    log(1 - Phi(w_{n+1-i}))).
    """
    n = len(x)
    w = (np.sort(x) - x.mean()) / x.std(ddof=1)
    # One erfc per value gives the smaller tail t = Phi(-|w|) to full
    # relative precision: log t is log Phi(w) where w < 0 and log(1 - Phi(w))
    # elsewhere, and log1p(-t) is the other one.
    a = np.abs(w)
    t = np.array([0.5 * math.erfc(v) for v in (a / math.sqrt(2.0)).tolist()])
    far = a > 37.0  # Phi(-37) is about 6e-300; further out erfc underflows to 0
    log_t = np.log(np.where(far, 1.0, t))  # the far entries are set next
    # There, Phi(-a) = phi(a)/a (1 - 1/a^2 + 3/a^4 - 15/a^6 + ...), cut after
    # the term in a^-14: the next one is below 2e-19.
    af = a[far]
    series = 1.0 + sum(math.prod(range(1, 2 * k, 2)) * (-1.0 / af**2) ** k for k in range(1, 8))
    log_t[far] = -0.5 * af**2 - np.log(af * math.sqrt(2.0 * math.pi)) + np.log(series)
    log_rest = np.log1p(-t)
    lower = w < 0
    log_cdf, log_sf = np.where(lower, log_t, log_rest), np.where(lower, log_rest, log_t)
    i = np.arange(1, n + 1)
    return float(-n - np.sum((2 * i - 1.0) / n * (log_cdf + log_sf[::-1])))


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
    size = batch_size(paths, batches)
    ad_critical = anderson_darling_critical(paths, ad_significance)
    # Built before simulating, so an index past ell(a) - 1 is refused at once.
    # Cell [p, q] of a mode's matrix is the target of theta[j] and theta[k].
    targets = {mode: covariance_matrix(ThetaCovariance(dist.mean, mode=mode, a=a), indices)
               for mode in MODES}
    fn = partial(_sizes_batch, seed=seed, size=size, dist=dist, K=K, horizon=indices[-1],
                 floor=floor_level(a, K), generations=indices)
    [parts] = _run_stacks([fn], batches, size, workers)
    X = np.hstack([reads for _, reads in parts]).T
    centers = K * dist.mean ** np.array(indices, dtype=float)
    theta = (X - centers) / (dist.std * math.sqrt(K))
    theta_batches = theta.reshape(batches, size, -1)

    entries: list[StatEntry] = [entry_info("paths", paths)]

    def batch_se(label, col_fn):
        vals = np.array([col_fn(tb) for tb in theta_batches])
        se = _batch_se(vals)
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
        target = float(targets["martingale"][p, p])
        entries.append(entry_se(f"theta[{j}].var", var, se, target, se_k))

    wins = 0
    pairs = 0
    for p in range(len(indices)):
        for q in range(p + 1, len(indices)):
            j, k = indices[p], indices[q]
            cov = float(np.cov(theta[:, p], theta[:, q], ddof=1)[0, 1])
            se = batch_se(f"cov[{j},{k}]",
                          lambda tb, p=p, q=q: np.cov(tb[:, p], tb[:, q], ddof=1)[0, 1])
            t_paper, t_mart = float(targets["paper"][p, q]), float(targets["martingale"][p, q])
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

    for mode, matrix in targets.items():
        entries.append(entry_info(f"psd.{mode}", 1.0 if is_positive_semidefinite(matrix) else 0.0))

    for p in sorted({0, len(indices) - 1}):
        j = indices[p]
        stat = anderson_darling_statistic(theta[:, p])
        name = f"theta[{j}].anderson_darling"
        scale = float(theta[:, p].std(ddof=1)) * dist.std * math.sqrt(K)
        if scale >= ad_min_scale:
            entries.append(entry_le(name, stat, ad_critical))
        else:
            entries.append(entry_info(name, stat, target=ad_critical))

    return ExperimentReport("clt-check", entries, batches, paths)


# ---------------------------------------------------------------------------
# experiment: two-time conditional moments


def _path_entries(paths: int, ens: Ensemble) -> list[StatEntry]:
    return [entry_info("paths", paths),
            entry_le("censored_paths", int(np.count_nonzero(ens.tau < 0)), 0)]


def _bin_table(ens: Ensemble, sel: np.ndarray, xp: np.ndarray, xc: np.ndarray, factor: float,
               scores: np.ndarray, *, power, min_bin_count, bin_mode):
    """Bin the tau group ``sel``, whose moment factor is ``factor``, on
    ``xc``, and score its binned paths in ``scores``: path p scores
    xp_p^power / (representative^power * factor).

    Returns the bins' (representatives, mean predictions, masses), in bin
    order, or None if no bin formed. Each block of bins is gathered as one
    matrix and read by row means, so a bin's numbers are those its paths
    give alone, in ascending path order.
    """
    reps, means, masses = [], [], []
    for block in bin_blocks(xc[sel], min_bin_count, bin_mode):
        block = sel[block]
        rep = ens.row_means(xc[block].astype(float), block).tolist()
        pred = xp[block].astype(float) ** power
        scale = np.array([r**power for r in rep])  # Python's pow, as on one bin's float
        scores[block] = pred / (scale * factor)[:, None]
        reps += rep
        means += ens.row_means(pred, block).tolist()
        masses += ens.row_masses(block).tolist()
    return (reps, means, masses) if reps else None


def _conditional_moment_core(ens: Ensemble, *, u1, u2, power, m, min_bin_count, bin_mode,
                             min_group_count, ratio_band, max_bins_reported):
    extinct = np.flatnonzero(ens.tau >= 0)
    if not len(extinct):
        raise InsufficientBinMass("no path went extinct within the horizon")
    # floor(u tau) and the moment factor depend on tau alone, so each is
    # computed once per tau value, -1 (censored) included, and read per path.
    ts = np.arange(-1, int(ens.tau.max()) + 1)
    s1 = np.floor(u1 * ts).astype(np.int64)
    s2 = np.floor(u2 * ts).astype(np.int64)
    groups = {t: sel for t, sel in ens.groups.items() if len(sel) >= min_group_count}
    entries: list[StatEntry] = []
    for label, xp, xc, sp, sc in (("forward", ens.x1, ens.x2, s1, s2),
                                  ("reverse", ens.x2, ens.x1, s2, s1)):
        factor_of = m ** (power * (sp - sc).astype(float))
        factors = factor_of[ens.tau + 1]
        e_hat, e_se = ens.mean_se(factors[extinct], extinct)
        # Within each tau group, paths are binned on the conditioning value,
        # and a binned path p scores x_pred_p^power / (representative^power
        # * factors_p). factors_p is constant within a group, so the mean of
        # scores over any path set is the aggregate ratio for that set.
        scores = np.full(len(ens.tau), np.nan)
        table = {}
        for t, sel in groups.items():
            bins = _bin_table(ens, sel, xp, xc, factor_of[t + 1], scores, power=power,
                              min_bin_count=min_bin_count, bin_mode=bin_mode)
            if bins is not None:
                table[t] = bins
        if not table:
            raise InsufficientBinMass(
                f"no tau group of >= {min_group_count} paths produced a bin of "
                f">= {min_bin_count} paths")
        t_star = _dominant_group({t: len(groups[t]) for t in table})
        group = groups[t_star]
        entries.append(entry_info(f"{label}.em_factor", e_hat, stderr=e_se))
        if label == "forward":
            entries.append(entry_info("tau.dominant_group", t_star))
            entries.append(entry_info("tau.dominant_mass", ens.mass(group) / ens.mass(extinct)))
        finite = np.isfinite(scores)
        binned = group[finite[group]]
        est, se = ens.mean_se(scores[binned], binned)
        entries.append(_ratio_entry(f"{label}.dominant_ratio", est, se, ratio_band))
        est, se = _mean_se_where(ens, scores, finite)
        entries.append(_ratio_entry(f"{label}.aggregate_ratio", est, se, ratio_band))
        # Sensitivity view: the same aggregate normalized by the pooled
        # across-path factor instead of each group's own, per the open
        # choice in how the asymptote's expectation is read.
        pooled = scores * (factors / e_hat)
        est, se = _mean_se_where(ens, pooled, np.isfinite(pooled))
        entries.append(entry_info(f"{label}.aggregate_ratio_pooled", est,
                                  stderr=se, target=1.0))
        # Exact identity of the estimator: the bins' means recombined by
        # mass reproduce the mean over the same (binned) paths.
        reps, means, masses = table[t_star]
        lhs = sum(mass * mean for mass, mean in zip(masses, means)) / sum(masses)
        rhs = ens.mean(xp[binned].astype(float) ** power, binned)
        entries.append(entry_le(f"{label}.marginalization_rel_residual",
                                abs(lhs - rhs) / abs(rhs), 1e-9))
        f_star = float(factor_of[t_star + 1])
        for i, (rep, mean) in enumerate(zip(reps[:max_bins_reported], means)):
            entries.append(entry_info(
                f"{label}.bin[{i}].ratio", mean / (rep**power * f_star), target=1.0))
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
    ens = _collect_values(dist, K, u1, u2, paths, seed, batches, workers, cap_multiplier)
    entries = _path_entries(paths, ens) + _conditional_moment_core(
        ens, u1=u1, u2=u2, power=power, m=dist.mean, min_bin_count=min_bin_count,
        bin_mode=bin_mode, min_group_count=min_group_count, ratio_band=ratio_band,
        max_bins_reported=12)
    return ExperimentReport("conditional-moments", entries, batches, paths)


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
    entries = _conditional_moment_core(
        Ensemble.enumeration(tau, x1, x2, weights), u1=u1, u2=u2, power=power, m=m,
        min_bin_count=min_bin_count, bin_mode=bin_mode, min_group_count=min_group_count,
        ratio_band=ratio_band, max_bins_reported=64)
    return ExperimentReport("conditional-moments", entries, 1, len(tau))


# ---------------------------------------------------------------------------
# experiment: moments conditioned on the extinction time


def _on_tau_core(ens: Ensemble, *, u1, power, K, m, min_group_count, ratio_band,
                 max_groups_reported):
    """The dominant group, the ratio of each of the ``max_groups_reported``
    largest tau groups, and the dominant and aggregate ratios."""
    extinct = ens.tau >= 0
    if not extinct.any():
        raise InsufficientBinMass("no path went extinct within the horizon")
    s1 = np.floor(u1 * ens.tau).astype(np.int64)
    scores = np.where(extinct,
                      ens.x1.astype(float) ** power
                      / (float(K) ** power * m ** (power * s1.astype(float))),
                      np.nan)
    counts = {t: len(sel) for t, sel in ens.groups.items() if len(sel) >= min_group_count}
    if not counts:
        raise InsufficientBinMass(f"no tau group reached {min_group_count} paths")
    finite = np.isfinite(scores)
    t_star = _dominant_group(counts)
    entries = [entry_info("tau.dominant_group", t_star)]
    largest = sorted(counts, key=lambda t: -counts[t])[:max_groups_reported]

    def group_ratio(t):
        sel = ens.groups[t]
        sel = sel[finite[sel]]
        return ens.mean_se(scores[sel], sel)

    for t in sorted(largest):
        est, se = group_ratio(t)
        entries.append(entry_info(f"group[t={t}].ratio", est, stderr=se, target=1.0))
    entries.append(_ratio_entry("dominant_ratio", *group_ratio(t_star), ratio_band))
    est, se = _mean_se_where(ens, scores, np.isin(ens.tau, list(counts)) & finite)
    entries.append(_ratio_entry("aggregate_ratio", est, se, ratio_band))
    return entries


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
    ens = _collect_values(dist, K, u1, None, paths, seed, batches, workers, cap_multiplier, fixed_n)
    entries = _path_entries(paths, ens) + _on_tau_core(
        ens, u1=u1, power=power, K=K, m=m, min_group_count=min_group_count,
        ratio_band=ratio_band, max_groups_reported=10)

    extinct = np.flatnonzero(ens.tau >= 0)
    entries.append(entry_info("wald.n", fixed_n))
    target = K * m**fixed_n
    mean_xn, se_xn = ens.mean_se(ens.xn[extinct].astype(float), extinct)
    entries.append(entry_se("wald.mean_Xn", mean_xn, se_xn, target, se_k))
    total = ens.mass(extinct)
    recombined = sum(ens.mean(ens.xn[sel], sel) * ens.mass(sel) / total
                     for sel in ens.groups.values())
    # Relative to the mean, or absolute where every X_n is 0.
    resid = abs(recombined - mean_xn) / (abs(mean_xn) or 1.0)
    entries.append(entry_le("wald.marginalization_rel_residual", resid, 1e-9))

    return ExperimentReport("conditional-on-tau", entries, batches, paths)


def conditional_on_tau_from_arrays(
    tau: np.ndarray,
    x1: np.ndarray,
    weights: np.ndarray,
    *,
    u1: float,
    power: int,
    K: int,
    m: float,
    min_group_count: int = 1,
) -> ExperimentReport:
    """Same pipeline on an explicit weighted ensemble (for exact oracles),
    reporting every group; censored paths (tau = -1) are skipped."""
    entries = _on_tau_core(
        Ensemble.enumeration(tau, x1, x1, weights), u1=u1, power=power, K=K, m=m,
        min_group_count=min_group_count, ratio_band=None, max_groups_reported=None)
    return ExperimentReport("conditional-on-tau", entries, 1, len(tau))


# ---------------------------------------------------------------------------
# experiment: invariance of the two conditionings

INVARIANCE_U2 = 0.6


def invariance_check(
    u1: float,
    power: int,
    eps_grid: Sequence[float],
    K: int,
    dist: OffspringDistribution,
    paths: int,
    seed: int,
    *,
    u2: float = INVARIANCE_U2,
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
    c = limit_constant(m)
    ens = _collect_values(dist, K, u1, u2, paths, seed, batches, workers, cap_multiplier)
    tau, x2 = ens.tau, ens.x2
    extinct = tau >= 0
    if not extinct.any():
        raise EmptyConditioningSet("no path went extinct within the horizon")
    entries = _path_entries(paths, ens)
    x1f = ens.x1.astype(float)
    total = ens.mass(np.flatnonzero(extinct))
    rel_diffs = []

    for eps in eps_grid:
        pre = f"eps={eps:+g}"
        center = (1.0 + eps) * float(K) ** (1.0 - u2)
        window = np.flatnonzero(extinct & (np.abs(x2 - center) <= window_rel * center))
        if not len(window):
            populated = x2[extinct]
            nearest = float(populated[np.argmin(np.abs(populated - center))])
            raise EmptyConditioningSet(
                f"no path puts X at floor(u2 tau) within {window_rel:g} of "
                f"{center:.6g} (eps={eps:+g}); nearest populated window sits "
                f"at eps={nearest / float(K) ** (1.0 - u2) - 1.0:+.4f}")
        t_eps = math.floor((1.0 + eps) * c * math.log(K))
        if t_eps not in ens.groups:
            seen = np.array(list(ens.groups))
            near_t = int(seen[np.argmin(np.abs(seen - t_eps))])
            raise EmptyConditioningSet(
                f"no path has tau = {t_eps} (eps={eps:+g}); nearest populated "
                f"group is tau = {near_t}, i.e. eps="
                f"{near_t / (c * math.log(K)) - 1.0:+.4f}")
        group = ens.groups[t_eps]
        mean_a, se_a = ens.mean_se(x1f[window] ** power, window)
        mean_b, se_b = ens.mean_se(x1f[group] ** power, group)
        A, B = math.log(mean_a), math.log(mean_b)
        target = invariance_target(K, power, u1, eps)
        entries.append(entry_info(
            f"{pre}.A", A, target=target,
            stderr=None if se_a is None else se_a / mean_a))
        entries.append(entry_info(
            f"{pre}.B", B, target=target,
            stderr=None if se_b is None else se_b / mean_b))
        entries.append(entry_info(f"{pre}.window_mass", ens.mass(window) / total))
        entries.append(entry_info(f"{pre}.group_mass", ens.mass(group) / total))
        entries.append(entry_le(f"{pre}.abs_diff", abs(A - B),
                                rel_tol * abs(A), target=rel_tol * abs(A)))
        rel_diffs.append(abs(A - B) / abs(A))

    entries.append(entry_le("max_rel_diff", max(rel_diffs), rel_tol))
    return ExperimentReport("invariance", entries, batches, paths)
