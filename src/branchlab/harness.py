"""Experiment configuration, dispatch, and reproducible result files.

One JSON config fully determines every report byte. The seed is
mandatory (there is no entropy fallback); the output directory, worker
count, and plot flag are excluded from both the config hash and the
persisted report, so reruns and different parallelism levels produce
identical artifacts. All writers emit canonical text — sorted JSON
keys, shortest-roundtrip float repr — to keep run directories
diff-friendly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from . import __version__
from .estimators import (
    AD_SIGNIFICANCE_LEVELS,
    ExperimentReport,
    batch_layout,
    clt_covariance_check,
    conditional_moment_check,
    conditional_on_tau_check,
    entry_info,
    entry_le,
    extinction_scaling,
    invariance_check,
)
from .estimators import _median_from_hist, _run_batches
from .gaussian_limit import MODES, ThetaCovariance, covariance_matrix, is_positive_semidefinite
from .offspring import (
    InvalidParameter,
    NonNormalizedPMF,
    OffspringDistribution,
    SupercriticalWithoutOverride,
    make_distribution,
)
# simulate_coupled and simulate_path are not called here; perfbench/spans.py traces them
# through this namespace.
from .process import (coupled_floors, coupled_record, coupled_step, default_horizon, plain_sizes,
                      plain_trajectory_rows, simulate_coupled, simulate_path, trajectory_header,
                      write_trajectories)
from .randomness import RandomnessSource
from .stopping import LimitOracle, boundary_warnings, limit_constant

SCHEMA_VERSION = 1

EXPERIMENTS = (
    "simulate",
    "coupled",
    "extinction-scaling",
    "clt-check",
    "conditional-moments",
    "conditional-on-tau",
    "invariance",
    "gaussian-cov",
)

#: Kinds whose gates rest on batch standard errors; these need >= 30 batches.
MC_KINDS = frozenset(
    {"extinction-scaling", "clt-check", "conditional-moments", "conditional-on-tau", "invariance"}
)

#: Keys that steer where/how results are written but not what they are.
#: They are excluded from the config hash and from the report's config
#: echo so a rerun at a different worker count or output directory
#: reproduces report.json byte for byte.
VOLATILE_KEYS = frozenset({"out", "workers", "plot_data"})

DEFAULT_CONFIG: dict = {
    "experiment": None,
    "offspring": None,
    "seed": None,
    "K": None,
    "K_list": None,
    "paths": 10_000,
    "batches": 40,
    "workers": 1,
    "out": "runs",
    "plot_data": False,
    "write_trajectories": True,
    "horizon": None,
    "cap_multiplier": 10,
    "levels": None,
    "a": 0.0,
    "indices": None,
    "mode": "paper",
    "u1": None,
    "u2": None,
    "l": 1,
    "eps_grid": None,
    "window_rel": 0.02,
    "rel_tol": 0.10,
    "ratio_band": None,
    "min_bin_count": 50,
    "bin_mode": "quantile",
    "min_group_count": 200,
    "tau_sampler": "auto",
    "median_rel_tol": None,
    "trend_gates": ["mean", "kEm"],
    "trend_slack": 0.0,
    "exact_oracle": True,
    "se_k": 4.0,
    "min_mode_separation": 5.0,
    "ad_significance": 0.01,
    "ad_min_scale": 100.0,
    "allow_supercritical": False,
}

KNOWN_KEYS = frozenset(DEFAULT_CONFIG)


class ConfigError(ValueError):
    """A config failed validation; the message joins every error found."""


class IoError(OSError):
    """The run directory or one of its files could not be written."""


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; severity is "error" or "warning"."""

    severity: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.message}"


@dataclass
class RunResult:
    """A finished run: the report plus where and what was persisted."""

    report: ExperimentReport
    run_dir: Path
    payload: dict
    matrix: list[list[float]] | None = None


# ---------------------------------------------------------------------------
# configuration


def load_config(path) -> dict:
    """Read a JSON config file into a plain dict."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def effective_config(config: Mapping) -> dict:
    """Defaults overlaid with the given keys (unknown keys kept for validate)."""
    merged = dict(DEFAULT_CONFIG)
    merged.update(config)
    return merged


def config_hash(config: Mapping) -> str:
    """12 hex chars identifying everything that shapes the results."""
    hashed = {k: v for k, v in effective_config(config).items() if k not in VOLATILE_KEYS}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(config: Mapping) -> list[Diagnostic]:
    """Screen a config; returns diagnostics instead of raising.

    Errors mark configs run() must refuse; warnings flag legal but
    fragile setups such as a truncation level sitting on a power of
    the offspring mean.
    """
    diags: list[Diagnostic] = []

    def error(message: str) -> None:
        diags.append(Diagnostic("error", message))

    def warning(message: str) -> None:
        diags.append(Diagnostic("warning", message))

    for key in sorted(set(config) - KNOWN_KEYS):
        error(f"unknown config key {key!r}")
    cfg = effective_config(config)

    kind = cfg["experiment"]
    if kind not in EXPERIMENTS:
        if kind is None:
            error("an experiment kind is required")
        else:
            error(f"unknown experiment {kind!r}; expected one of {', '.join(EXPERIMENTS)}")
        return diags

    if cfg["seed"] is None:
        error("seed is required: runs never read entropy from the machine")
    elif not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        error("seed must be a nonnegative integer")

    # offspring law -----------------------------------------------------
    dist: OffspringDistribution | None = None
    spec = cfg["offspring"]
    if spec is None:
        error("an offspring descriptor is required")
    elif not isinstance(spec, Mapping):
        error("offspring must be a mapping with a 'kind' key")
    else:
        try:
            dist = make_distribution(spec, allow_supercritical=bool(cfg["allow_supercritical"]))
        except (InvalidParameter, NonNormalizedPMF, SupercriticalWithoutOverride) as exc:
            error(f"offspring: {exc}")
    mean = dist.mean if dist is not None else None
    if mean is not None:
        if mean >= 1.0:
            if kind not in ("simulate", "coupled"):
                error(f"offspring mean {mean} >= 1: {kind} needs a strictly subcritical law")
            elif cfg["horizon"] is None:
                error("a supercritical simulation needs an explicit horizon")
            else:
                warning(f"offspring mean {mean} >= 1; extinction is no longer certain")
        elif mean == 0.0 and kind not in ("simulate", "coupled"):
            error(f"{kind} needs offspring mean in (0, 1), got 0")

    # execution shape ---------------------------------------------------
    if not _is_int(cfg["workers"]) or cfg["workers"] < 1:
        error("workers must be a positive integer")
    if kind != "gaussian-cov":
        paths_ok = _is_int(cfg["paths"]) and cfg["paths"] >= 1
        batches_ok = _is_int(cfg["batches"]) and cfg["batches"] >= 1
        if not paths_ok:
            error("paths must be a positive integer")
        if not batches_ok:
            error("batches must be a positive integer")
        elif paths_ok and cfg["paths"] % cfg["batches"]:
            error("paths must be divisible by batches")
        if batches_ok and kind in MC_KINDS and cfg["batches"] < 30:
            error("batches must be >= 30 so batch standard errors are trustworthy")
    if cfg["horizon"] is not None and (not _is_int(cfg["horizon"]) or cfg["horizon"] < 1):
        error("horizon must be a positive integer when given")
    if not _is_int(cfg["cap_multiplier"]) or cfg["cap_multiplier"] < 1:
        error("cap_multiplier must be a positive integer")

    # population sizes --------------------------------------------------
    if kind == "extinction-scaling":
        ks = cfg["K_list"]
        if not isinstance(ks, (list, tuple)) or not ks:
            error("extinction-scaling needs a nonempty K_list")
        elif not all(_is_int(k) and k >= 10 for k in ks):
            error("every K in K_list must be an integer >= 10")
    elif kind != "gaussian-cov":
        if not _is_int(cfg["K"]) or cfg["K"] < 1:
            error(f"{kind} needs a positive integer K")
        elif kind in ("simulate", "coupled") and mean is not None:
            # Progeny sums are drawn as int64 counts; K * m^horizon keeps a
            # 2^10 margin below where numpy's samplers overflow or refuse.
            horizon = cfg["horizon"] if _is_int(cfg["horizon"]) else 0
            growth = math.log(cfg["K"]) + horizon * math.log(max(mean, 1.0))
            if growth > 53 * math.log(2):
                error(f"K * m^horizon = 10^{growth / math.log(10):.1f} exceeds 2^53: "
                      "the population would overflow; lower K or the horizon")

    # conditioning times ------------------------------------------------
    u1, u2 = cfg["u1"], cfg["u2"]
    for name, u in (("u1", u1), ("u2", u2)):
        if u is not None and not (_is_num(u) and 0.0 < float(u) < 1.0):
            error(f"{name} must lie strictly inside (0, 1)")
    if u1 is not None and u2 is not None and _is_num(u1) and _is_num(u2) and not u1 < u2:
        error("u1 < u2 required")
    if kind in ("conditional-moments", "conditional-on-tau", "invariance") and u1 is None:
        error(f"{kind} needs u1")
    if kind == "conditional-moments" and u2 is None:
        error("conditional-moments needs u2")
    if kind == "invariance" and u2 is None and _is_num(u1) and not u1 < 0.6:
        error("u1 < u2 required")  # u2 defaults to 0.6 for invariance
    if kind in ("conditional-moments", "conditional-on-tau", "invariance"):
        if not _is_int(cfg["l"]) or not 1 <= cfg["l"] <= 3:
            error("l must be an integer moment order in {1, 2, 3}")

    # truncation levels -------------------------------------------------
    levels: list[float] = []

    def check_level(name: str, value) -> None:
        if not _is_num(value) or not 0.0 <= float(value) < 1.0:
            error(f"{name} must lie in [0, 1)")
        else:
            levels.append(float(value))

    if kind in ("clt-check", "gaussian-cov"):
        check_level("a", cfg["a"])
    if kind == "coupled":
        given = cfg["levels"]
        if not isinstance(given, (list, tuple)) or not given:
            error("coupled needs a nonempty list of truncation levels")
        else:
            for item in given:
                check_level("levels", item)
            if len(set(levels)) < len(levels):
                warning("duplicate truncation levels collapse to one")
    if kind == "simulate" and cfg["levels"]:
        warning("levels are ignored by simulate; use the coupled kind to track truncations")
    if mean is not None and 0.0 < mean < 1.0:
        for text in boundary_warnings(mean, [a for a in levels if a > 0.0]):
            warning(text)

    # kind-specific knobs -------------------------------------------------
    if kind in ("clt-check", "gaussian-cov"):
        idx = cfg["indices"]
        if (
            not isinstance(idx, (list, tuple))
            or not idx
            or not all(_is_int(i) and i >= 1 for i in idx)
            or list(idx) != sorted(set(idx))
        ):
            error("indices must be strictly increasing positive integers")
    if kind == "gaussian-cov" and cfg["mode"] not in MODES:
        error(f"mode must be one of {MODES}, got {cfg['mode']!r}")
    if kind == "extinction-scaling":
        if cfg["tau_sampler"] not in ("auto", "trajectory", "lifetime"):
            error("tau_sampler must be auto, trajectory, or lifetime")
        elif cfg["tau_sampler"] == "lifetime" and dist is not None and dist.kind != "bernoulli":
            error("the lifetime sampler applies to bernoulli offspring only")
        gates = cfg["trend_gates"]
        if not isinstance(gates, (list, tuple)) or not set(gates) <= {"median", "mean", "kEm"}:
            error("trend_gates must be a subset of {median, mean, kEm}")
        if cfg["median_rel_tol"] is not None and not (_is_num(cfg["median_rel_tol"]) and cfg["median_rel_tol"] > 0):
            error("median_rel_tol must be positive when given")
        if not _is_num(cfg["trend_slack"]) or cfg["trend_slack"] < 0:
            error("trend_slack must be nonnegative")
    if kind == "invariance":
        grid = cfg["eps_grid"]
        if not isinstance(grid, (list, tuple)) or not grid:
            error("invariance needs a nonempty eps_grid")
        else:
            values = [float(e) for e in grid if _is_num(e)]
            if len(values) < len(grid) or any(not abs(e) <= 0.2 for e in values):
                error("every eps must be a number in [-0.2, 0.2]")
            elif len(set(values)) < len(values):
                error("eps_grid values must be distinct")
        if not _is_num(cfg["window_rel"]) or cfg["window_rel"] <= 0:
            error("window_rel must be positive")
        if not _is_num(cfg["rel_tol"]) or cfg["rel_tol"] <= 0:
            error("rel_tol must be positive")
    if kind in ("conditional-moments", "conditional-on-tau"):
        band = cfg["ratio_band"]
        if band is not None and (
            not isinstance(band, (list, tuple))
            or len(band) != 2
            or not all(_is_num(b) for b in band)
            or not band[0] < band[1]
        ):
            error("ratio_band must be a pair lo < hi")
        if not _is_int(cfg["min_group_count"]) or cfg["min_group_count"] < 1:
            error("min_group_count must be a positive integer")
    if kind == "conditional-moments":
        if cfg["bin_mode"] not in ("quantile", "distinct"):
            error("bin_mode must be quantile or distinct")
        if not _is_int(cfg["min_bin_count"]) or cfg["min_bin_count"] < 1:
            error("min_bin_count must be a positive integer")
    if kind == "clt-check":
        if not _is_num(cfg["se_k"]) or cfg["se_k"] <= 0:
            error("se_k must be positive")
        if not _is_num(cfg["min_mode_separation"]) or cfg["min_mode_separation"] < 0:
            error("min_mode_separation must be nonnegative")
        if not _is_num(cfg["ad_significance"]) or cfg["ad_significance"] not in AD_SIGNIFICANCE_LEVELS:
            error(f"ad_significance must be one of {AD_SIGNIFICANCE_LEVELS}")

    return diags


# ---------------------------------------------------------------------------
# batch workers for the two pathwise kinds (module level so they pickle)


def _records_text(records: list) -> str:
    """Trajectory CSV rows for one batch, header stripped for merging."""
    buf = io.StringIO()
    write_trajectories(records, buf)
    raw = buf.getvalue()
    return raw.split("\n", 1)[1] if "\n" in raw else ""


def _simulate_batch(batch: int, *, layout, seed: int, dist, K: int, horizon: int, dump: bool):
    """Run one batch of plain paths on the batch engine.

    Keeps the extinction times, and the (generations, paths) size matrix
    only when the trajectories are dumped.
    """
    start, count = layout[batch]
    gen = RandomnessSource(seed).handle(batch, 0).generator
    taus = np.zeros(count, dtype=np.int64)
    rows = [np.full(count, K, dtype=np.int64)]
    for n, sizes in enumerate(plain_sizes(K, count, dist, gen, horizon), 1):
        taus[(sizes == 0) & (taus == 0)] = n
        if dump:
            rows.append(sizes)
    hist = np.bincount(taus[taus > 0], minlength=1)
    text = plain_trajectory_rows(np.vstack(rows), start) if dump else None
    return hist, int(np.count_nonzero(taus == 0)), text


def _coupled_batch(batch: int, *, layout, seed: int, dist, K: int, levels, horizon: int, dump: bool):
    """Run one batch of coupled paths on the gap-closure engine.

    Keeps the current (paths, 1+L) state, the four gate-violation counts
    over every path, generation and level, and the base extinction
    times; the full trajectories only when they are dumped. Generation 0
    is the common start K, where every gate holds by construction.
    """
    start, count = layout[batch]
    gen = RandomnessSource(seed).handle(batch, 0).generator
    floors = coupled_floors(levels, K)
    sizes = np.full((count, len(floors)), K, dtype=np.int64)
    taus = np.zeros(count, dtype=np.int64)
    bad = np.zeros(4, dtype=np.int64)
    rows, flags = [sizes], []
    for n in range(1, horizon + 1):
        sizes, flag = coupled_step(sizes, floors, dist, gen)
        taus[(sizes[:, 0] == 0) & (taus == 0)] = n
        bad += _violations(sizes, flag, floors, dist.single_child)
        if dump:
            rows.append(sizes)
            flags.append(flag)
    text = None
    if dump:
        rows, flags = np.stack(rows, axis=1), np.stack(flags, axis=1)
        text = _records_text([coupled_record(K, levels, rows[i], flags[i], start + i)
                              for i in range(count)])
    hist = np.bincount(taus[taus > 0], minlength=1)
    return hist, int(np.count_nonzero(taus == 0)), *bad.tolist(), text


def _violations(sizes: np.ndarray, flags: np.ndarray, floors: np.ndarray,
                single_child: bool) -> np.ndarray:
    """Sandwich, shift-identity, indicator and level-monotonicity violations
    of one generation of a coupled batch.

    The sandwich gates X <= X^(a) for every law, and Y^(a) <= X only when no
    individual has more than one child: otherwise the b_a individuals that
    X^(a) has on top of X may have more than b_a children.
    """
    base, upper = sizes[:, :1], sizes[:, 1:]
    shifted = upper - floors[1:]
    return np.array([
        np.count_nonzero(((shifted > base) & single_child) | (base > upper)),
        np.count_nonzero(shifted + floors[1:] != upper),
        np.count_nonzero(flags != (shifted > 0)),
        np.count_nonzero(np.diff(upper, axis=1) < 0),
    ])


def _merge_hists(hists: list[np.ndarray]) -> np.ndarray:
    total = np.zeros(max(h.size for h in hists), dtype=np.int64)
    for h in hists:
        total[: h.size] += h
    return total


def _tau_entries(hist: np.ndarray, extinct: int, K: int, mean: float) -> list:
    if extinct == 0:
        return []
    mean_tau = float((np.arange(hist.size) * hist).sum() / extinct)
    target = None
    if 0.0 < mean < 1.0 and K >= 2:
        target = limit_constant(LimitOracle(mean)) * math.log(K)
    return [
        entry_info("mean_tau", mean_tau, target=target),
        entry_info("median_tau", _median_from_hist(hist, extinct), target=target),
    ]


# ---------------------------------------------------------------------------
# per-kind runners


#: The gate counts a coupled batch returns after its histogram and censored count.
COUPLED_GATES = ("sandwich_violations", "shift_identity_violations",
                 "indicator_violations", "level_monotonicity_violations")


def _run_pathwise(kind: str, cfg: dict, dist: OffspringDistribution, batch_fn, gates=(), **extra):
    """Run a simulate or coupled config batch by batch.

    ``batch_fn`` returns the batch's extinction-time histogram, its censored
    count, one count per entry of ``gates``, and its trajectory rows (or
    None); ``extra`` holds the kind's own batch arguments.
    """
    K, paths, batches = int(cfg["K"]), int(cfg["paths"]), int(cfg["batches"])
    horizon = int(cfg["horizon"] if cfg["horizon"] is not None else default_horizon(
        K, dist.mean, int(cfg["cap_multiplier"])
    ))
    dump = bool(cfg["write_trajectories"])
    fn = partial(
        batch_fn, layout=batch_layout(paths, batches), seed=int(cfg["seed"]), dist=dist,
        K=K, horizon=horizon, dump=dump, **extra,
    )
    parts = _run_batches(fn, batches, int(cfg["workers"]))
    hist = _merge_hists([p[0] for p in parts])
    censored = sum(p[1] for p in parts)
    entries = [
        entry_info("paths", paths),
        entry_info("extinct_paths", paths - censored),
        entry_info("censored_paths", censored),
    ]
    entries += [entry_le(name, sum(p[2 + i] for p in parts), 0) for i, name in enumerate(gates)]
    entries += _tau_entries(hist, paths - censored, K, dist.mean)
    report = ExperimentReport(
        kind,
        {"K": K, **extra, "horizon": horizon, "offspring": dist.descriptor()},
        entries,
        batches=batches,
        total_paths=paths,
    )
    header = trajectory_header(extra.get("levels", []))
    text = header + "\n" + "".join(p[-1] for p in parts) if dump else None
    return report, text


def _run_gaussian_cov(cfg: dict, dist: OffspringDistribution):
    model = ThetaCovariance(dist.mean, mode=str(cfg["mode"]), a=float(cfg["a"]))
    indices = [int(i) for i in cfg["indices"]]
    matrix = covariance_matrix(model, indices)
    entries = []
    for p, i in enumerate(indices):
        for q, j in enumerate(indices):
            if q >= p:
                entries.append(entry_info(f"cov[{i},{j}]", float(matrix[p, q])))
    entries.append(entry_info("psd", 1.0 if is_positive_semidefinite(matrix) else 0.0))
    report = ExperimentReport(
        "gaussian-cov",
        {"m": dist.mean, "mode": cfg["mode"], "a": cfg["a"], "indices": indices},
        entries,
        batches=1,
        total_paths=0,
    )
    return report, [[float(v) for v in row] for row in matrix]


def _dispatch_estimator(kind: str, cfg: dict, dist: OffspringDistribution) -> ExperimentReport:
    paths, seed = int(cfg["paths"]), int(cfg["seed"])
    batches, workers = int(cfg["batches"]), int(cfg["workers"])
    if kind == "extinction-scaling":
        return extinction_scaling(
            [int(k) for k in cfg["K_list"]], dist, paths, seed,
            batches=batches, workers=workers,
            tau_sampler=str(cfg["tau_sampler"]),
            cap_multiplier=int(cfg["cap_multiplier"]),
            median_rel_tol=cfg["median_rel_tol"],
            trend_gates=tuple(cfg["trend_gates"]),
            trend_slack=float(cfg["trend_slack"]),
            oracle_se_k=float(cfg["se_k"]),
            exact_oracle=bool(cfg["exact_oracle"]),
        )
    if kind == "clt-check":
        return clt_covariance_check(
            int(cfg["K"]), dist, [int(i) for i in cfg["indices"]], paths, seed,
            batches=batches, workers=workers, a=float(cfg["a"]),
            se_k=float(cfg["se_k"]),
            min_mode_separation=float(cfg["min_mode_separation"]),
            ad_significance=float(cfg["ad_significance"]),
            ad_min_scale=float(cfg["ad_min_scale"]),
        )
    band = tuple(cfg["ratio_band"]) if cfg["ratio_band"] is not None else None
    if kind == "conditional-moments":
        return conditional_moment_check(
            float(cfg["u1"]), float(cfg["u2"]), int(cfg["l"]), int(cfg["K"]),
            dist, paths, seed,
            batches=batches, workers=workers,
            min_bin_count=int(cfg["min_bin_count"]), bin_mode=str(cfg["bin_mode"]),
            min_group_count=int(cfg["min_group_count"]), ratio_band=band,
            cap_multiplier=int(cfg["cap_multiplier"]),
        )
    if kind == "conditional-on-tau":
        return conditional_on_tau_check(
            float(cfg["u1"]), int(cfg["l"]), int(cfg["K"]), dist, paths, seed,
            batches=batches, workers=workers,
            min_group_count=int(cfg["min_group_count"]), ratio_band=band,
            cap_multiplier=int(cfg["cap_multiplier"]), se_k=float(cfg["se_k"]),
        )
    if kind == "invariance":
        u2 = float(cfg["u2"]) if cfg["u2"] is not None else 0.6
        return invariance_check(
            float(cfg["u1"]), int(cfg["l"]), [float(e) for e in cfg["eps_grid"]],
            int(cfg["K"]), dist, paths, seed,
            u2=u2, window_rel=float(cfg["window_rel"]), rel_tol=float(cfg["rel_tol"]),
            batches=batches, workers=workers, cap_multiplier=int(cfg["cap_multiplier"]),
        )
    raise ConfigError(f"unknown experiment {kind!r}")


# ---------------------------------------------------------------------------
# serialization


def report_payload(report: ExperimentReport, config: Mapping) -> dict:
    """The JSON document for report.json; free of volatile keys."""
    echo = {k: v for k, v in effective_config(config).items() if k not in VOLATILE_KEYS}
    entries = [
        {
            "name": e.name,
            "estimate": _num(e.estimate),
            "stderr": _num(e.stderr),
            "target": _num(e.target),
            "ratio": _num(e.ratio),
            "verdict": e.verdict,
            "tolerance": e.tolerance,
        }
        for e in report.entries
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": report.experiment,
        "config": echo,
        "batches": report.batches,
        "total_paths": report.total_paths,
        "entries": entries,
        "passed": report.passed,
    }


def _num(value) -> float | None:
    return None if value is None else float(value)


def render_json(payload: Mapping) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_report_csv(report: ExperimentReport) -> str:
    """Flat per-statistic rows; names holding commas are CSV-quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "statistic", "estimate", "stderr", "target", "ratio", "verdict"])
    for e in report.entries:
        writer.writerow([
            report.experiment, e.name,
            _csv_num(e.estimate), _csv_num(e.stderr), _csv_num(e.target), _csv_num(e.ratio),
            e.verdict,
        ])
    return buf.getvalue()


def _csv_num(value) -> str:
    return "" if value is None else repr(float(value))


def _plot_series(report: ExperimentReport) -> dict[str, tuple[str, list[tuple[str, float]]]]:
    """Two-column series (x = K or eps, y = ratio) for external plotting."""
    series: dict[str, tuple[str, list[tuple[str, float]]]] = {}
    if report.experiment == "extinction-scaling":
        for stat in ("median_tau_over_logK", "mean_tau_over_logK", "K_mean_m_tau"):
            rows = [
                (e.name[2:].split(".", 1)[0], e.ratio)
                for e in report.entries
                if e.name.startswith("K=") and e.name.endswith("." + stat) and e.ratio is not None
            ]
            if rows:
                series[stat] = ("K", rows)
    elif report.experiment == "invariance":
        for stat in ("A", "B"):
            rows = [
                (repr(float(e.name[4:].rsplit(".", 1)[0])), e.ratio)
                for e in report.entries
                if e.name.startswith("eps=") and e.name.endswith("." + stat) and e.ratio is not None
            ]
            if rows:
                series[stat] = ("eps", rows)
    return series


def _persist(run_dir: Path, cfg: dict, report: ExperimentReport, payload: dict,
             traj_text: str | None, matrix: list[list[float]] | None) -> None:
    manifest = {
        "code_version": __version__,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "config_hash": config_hash(cfg),
        "schema_version": SCHEMA_VERSION,
        "wall_time_s": report.wall_time,
        "written_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    files: list[tuple[str, str]] = [
        ("report.json", render_json(payload)),
        ("report.csv", render_report_csv(report)),
        ("manifest.json", render_json(manifest)),
    ]
    if traj_text is not None:
        files.append(("trajectories.csv", traj_text))
    if matrix is not None:
        files.append(("matrix.csv", "".join(",".join(repr(v) for v in row) + "\n" for row in matrix)))
    plots = _plot_series(report) if cfg["plot_data"] else {}
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            (run_dir / name).write_text(text, encoding="utf-8")
        if plots:
            (run_dir / "plot-data").mkdir(exist_ok=True)
            for name, (xlabel, rows) in plots.items():
                text = f"{xlabel},ratio\n" + "".join(f"{x},{y!r}\n" for x, y in rows)
                (run_dir / "plot-data" / f"{name}.csv").write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write run files under {run_dir}: {exc}") from exc


# ---------------------------------------------------------------------------
# entry point


def run(config: Mapping, *, stderr: IO[str] | None = None) -> RunResult:
    """Validate, execute, and persist one experiment.

    Raises ConfigError when validation finds errors; prints warnings and
    progress to ``stderr``. The run directory is ``out/<kind>-<hash>``
    where the hash covers every key that shapes results; report.json and
    report.csv inside it are byte-identical across reruns and worker
    counts.
    """
    err_stream = stderr if stderr is not None else sys.stderr
    cfg = effective_config(config)
    diagnostics = validate(config)
    problems = [d.message for d in diagnostics if d.severity == "error"]
    if problems:
        raise ConfigError("; ".join(problems))
    for diag in diagnostics:
        print(str(diag), file=err_stream)

    kind = cfg["experiment"]
    dist = make_distribution(cfg["offspring"], allow_supercritical=bool(cfg["allow_supercritical"]))
    print(f"running {kind}", file=err_stream)
    started = time.perf_counter()
    traj_text = None
    matrix = None
    if kind == "simulate":
        report, traj_text = _run_pathwise(kind, cfg, dist, _simulate_batch)
    elif kind == "coupled":
        levels = sorted(set(float(a) for a in cfg["levels"]))
        report, traj_text = _run_pathwise(kind, cfg, dist, _coupled_batch, COUPLED_GATES, levels=levels)
    elif kind == "gaussian-cov":
        report, matrix = _run_gaussian_cov(cfg, dist)
    else:
        report = _dispatch_estimator(kind, cfg, dist)
    report.wall_time = time.perf_counter() - started

    payload = report_payload(report, cfg)
    run_dir = Path(str(cfg["out"])) / f"{kind}-{config_hash(cfg)}"
    _persist(run_dir, cfg, report, payload, traj_text, matrix)
    print(f"wrote {run_dir}", file=err_stream)
    return RunResult(report=report, run_dir=run_dir, payload=payload, matrix=matrix)
