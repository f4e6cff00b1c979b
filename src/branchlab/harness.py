"""Experiment configuration, dispatch, and reproducible result files.

One JSON config fully determines every report byte. ``run`` validates it
against ``CONFIG_KEYS``, calls the kind's function in ``estimators`` with
the keys whose rows name the kind, and writes the report, with any
trajectory dump or matrix next to it. The seed is mandatory (there is no
entropy fallback); the output directory, worker count, and plot flag are
excluded from both the config hash and the persisted report, so reruns
and different parallelism levels produce identical artifacts. All
writers emit canonical text — sorted JSON keys, shortest-roundtrip float
repr — to keep run directories diff-friendly.
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
from pathlib import Path
from typing import IO, Mapping

from . import __version__, estimators, exact
from .estimators import AD_SIGNIFICANCE_LEVELS, INVARIANCE_U2, ExperimentReport
# extinction_scaling, conditional_moment_check, simulate_coupled, simulate_path and
# write_trajectories are not called through this namespace; perfbench/spans.py traces
# them through it.
from .estimators import conditional_moment_check, extinction_scaling
from .gaussian_limit import MODES
from .offspring import (InvalidParameter, NonNormalizedPMF, OffspringDistribution,
                        SupercriticalWithoutOverride, make_distribution)
from .process import level_label, simulate_coupled, simulate_path, write_trajectories

SCHEMA_VERSION = 1

#: The Monte Carlo kinds and their functions in ``estimators``. Their gates
#: rest on batch standard errors, so these kinds need >= 30 batches.
ESTIMATORS = {
    "extinction-scaling": "extinction_scaling",
    "clt-check": "clt_covariance_check",
    "conditional-moments": "conditional_moment_check",
    "conditional-on-tau": "conditional_on_tau_check",
    "invariance": "invariance_check",
}
#: The function in ``estimators`` that runs each kind, looked up at each call.
RUNNERS = {"simulate": "pathwise_check", "coupled": "pathwise_check", **ESTIMATORS,
           "gaussian-cov": "gaussian_cov"}
EXPERIMENTS = tuple(RUNNERS)
_CONDITIONAL = ("conditional-moments", "conditional-on-tau", "invariance")
_PATHWISE = ("simulate", "coupled")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


def _positive_int(value) -> bool:
    return _is_int(value) and value >= 1


def _number(test):
    return lambda value: _is_num(value) and test(value)


def _seq(test):
    return lambda value: isinstance(value, (list, tuple)) and test(value)


def _one_of(*choices):
    # Equal and of the same type: True is not the moment order 1.
    return lambda value: any(value == c and type(value) is type(c) for c in choices)


_POSITIVE_INT = ((_positive_int, "{key} must be a positive integer"),)
_POSITIVE = ((_number(lambda v: v > 0), "{key} must be positive"),)
_NONNEGATIVE = ((_number(lambda v: v >= 0), "{key} must be nonnegative"),)
_BOOL = ((lambda v: isinstance(v, bool), "{key} must be true or false"),)


@dataclass(frozen=True)
class Key:
    """Everything the program knows about one config key.

    ``checks`` pairs a test of a set value with its error text, which may
    name ``{key}``, ``{kind}`` and ``{value}``. A key with default None may
    stay unset, except for the kinds in ``required``, which report
    ``missing`` (else the first check's text). The function of each kind in
    ``kinds`` gets the value as keyword ``param`` (else the key); setting a
    key whose nonempty ``kinds`` leave out the kind draws a warning, unless
    the kind requires it or the key is volatile. Volatile keys steer where
    and how results are written, not what they are, so the config hash and
    report.json leave them out. ``flag`` holds the argparse options of the
    key's CLI override.
    """

    default: object = None
    checks: tuple = ()
    required: tuple = ()
    missing: str = ""
    kinds: tuple = ()
    param: str = ""
    volatile: bool = False
    flag: Mapping | None = None


_SIMULATED = (*_PATHWISE, *ESTIMATORS)
_SCALING = ("extinction-scaling",)
_CLT = ("clt-check",)
_COV = (*_CLT, "gaussian-cov")
_FROM_K = (*_PATHWISE, *_CLT, *_CONDITIONAL)
_BINNED = ("conditional-moments", "conditional-on-tau")

#: One row per config key; the rows' order is the order of the CLI override flags.
CONFIG_KEYS: dict[str, Key] = {
    "experiment": Key(),
    "offspring": Key(
        checks=((lambda v: isinstance(v, Mapping),
                 "offspring must be a mapping with a 'kind' key"),),
        required=EXPERIMENTS, missing="an offspring descriptor is required"),
    "seed": Key(
        checks=((lambda v: _is_int(v) and v >= 0, "seed must be a nonnegative integer"),),
        required=EXPERIMENTS, missing="seed is required: runs never read entropy from the machine",
        kinds=_SIMULATED, flag={"type": int, "help": "override the config seed"}),
    "K": Key(checks=((_positive_int, "{kind} needs a positive integer K"),),
             required=_FROM_K, kinds=_FROM_K),
    "K_list": Key(
        checks=((_seq(len), "extinction-scaling needs a nonempty K_list"),
                (_seq(lambda ks: all(_is_int(k) and k >= 10 for k in ks)),
                 "every K in K_list must be an integer >= 10")),
        required=_SCALING, kinds=_SCALING),
    "paths": Key(10_000, _POSITIVE_INT, kinds=_SIMULATED,
                 flag={"type": int, "help": "override the path count"}),
    "batches": Key(40, _POSITIVE_INT, kinds=_SIMULATED),
    "out": Key("runs", ((lambda v: isinstance(v, str), "out must be a directory path"),),
               volatile=True, flag={"help": "override the output directory"}),
    "workers": Key(1, _POSITIVE_INT, kinds=_SIMULATED, volatile=True,
                   flag={"type": int, "help": "override the worker count"}),
    "plot_data": Key(False, _BOOL, volatile=True, flag={
        "action": "store_const", "const": True,
        "help": "also write two-column plot series (x = K or eps, y = ratio)"}),
    "write_trajectories": Key(True, _BOOL, kinds=_PATHWISE),
    "horizon": Key(checks=((_positive_int, "horizon must be a positive integer when given"),),
                   kinds=_PATHWISE),
    "cap_multiplier": Key(10, _POSITIVE_INT, kinds=(*_PATHWISE, *_SCALING, *_CONDITIONAL)),
    "levels": Key(
        checks=((_seq(len), "coupled needs a nonempty list of truncation levels"),
                (_seq(lambda ls: all(_is_num(a) and 0.0 <= a < 1.0 for a in ls)),
                 "levels must lie in [0, 1)")),
        required=("coupled",), kinds=("coupled",)),
    "a": Key(0.0, ((_number(lambda a: 0.0 <= a < 1.0), "a must lie in [0, 1)"),), kinds=_COV),
    "indices": Key(
        checks=((_seq(lambda ix: len(ix) > 0 and all(_is_int(i) and i >= 1 for i in ix)
                      and list(ix) == sorted(set(ix))),
                 "indices must be strictly increasing positive integers"),),
        required=_COV, kinds=_COV),
    "mode": Key("paper", ((_one_of(*MODES), f"mode must be one of {MODES}, got {{value!r}}"),),
                kinds=("gaussian-cov",)),
    "u1": Key(checks=((_number(lambda u: 0.0 < u < 1.0), "u1 must lie strictly inside (0, 1)"),),
              required=_CONDITIONAL, missing="{kind} needs u1", kinds=_CONDITIONAL),
    "u2": Key(checks=((_number(lambda u: 0.0 < u < 1.0), "u2 must lie strictly inside (0, 1)"),),
              required=("conditional-moments",), missing="{kind} needs u2",
              kinds=("conditional-moments", "invariance")),
    "l": Key(1, ((_one_of(1, 2, 3), "l must be an integer moment order in {{1, 2, 3}}"),),
             kinds=_CONDITIONAL, param="power"),
    "eps_grid": Key(
        checks=((_seq(len), "invariance needs a nonempty eps_grid"),
                (_seq(lambda es: all(_is_num(e) and abs(e) <= 0.2 for e in es)),
                 "every eps must be a number in [-0.2, 0.2]"),
                (_seq(lambda es: len(set(es)) == len(es)), "eps_grid values must be distinct")),
        required=("invariance",), kinds=("invariance",)),
    "window_rel": Key(0.02, _POSITIVE, kinds=("invariance",)),
    "rel_tol": Key(0.10, _POSITIVE, kinds=("invariance",)),
    "ratio_band": Key(
        checks=((_seq(lambda b: len(b) == 2 and all(_is_num(x) for x in b) and b[0] < b[1]),
                 "ratio_band must be a pair lo < hi"),),
        kinds=_BINNED),
    "min_bin_count": Key(50, _POSITIVE_INT, kinds=("conditional-moments",)),
    "bin_mode": Key("quantile", ((_one_of("quantile", "distinct"),
                                  "bin_mode must be quantile or distinct"),),
                    kinds=("conditional-moments",)),
    "min_group_count": Key(200, _POSITIVE_INT, kinds=_BINNED),
    # Read by no estimator: both values simulate trajectories. The key stays so
    # that every config keeps its hash and its report.json config echo.
    "tau_sampler": Key("auto", (
        (lambda v: v != "lifetime", "the lifetime {key} was removed in 0.6.0: extinction-scaling "
                                    "simulates trajectories for every law; use auto or trajectory"),
        (_one_of("auto", "trajectory"), "{key} must be auto or trajectory"))),
    "median_rel_tol": Key(checks=((_number(lambda v: v > 0), "{key} must be positive when given"),),
                          kinds=_SCALING),
    "trend_gates": Key(["mean", "kEm"],
                       ((_seq(lambda gs: all(_one_of("median", "mean", "kEm")(g) for g in gs)),
                         "trend_gates must be a subset of {{median, mean, kEm}}"),),
                       kinds=_SCALING),
    "trend_slack": Key(0.0, _NONNEGATIVE, kinds=_SCALING),
    "exact_oracle": Key(True, _BOOL, kinds=_SCALING),
    "se_k": Key(4.0, _POSITIVE, kinds=(*_SCALING, *_CLT, "conditional-on-tau")),
    "min_mode_separation": Key(5.0, _NONNEGATIVE, kinds=_CLT),
    "ad_significance": Key(0.01, kinds=_CLT, checks=((
        _one_of(*AD_SIGNIFICANCE_LEVELS), f"{{key}} must be one of {AD_SIGNIFICANCE_LEVELS}"),)),
    "ad_min_scale": Key(100.0, _NONNEGATIVE, kinds=_CLT),
    "allow_supercritical": Key(False, _BOOL),
}

_VOLATILE = frozenset(key for key, row in CONFIG_KEYS.items() if row.volatile)


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


# ---------------------------------------------------------------------------
# configuration


def load_config(path) -> dict:
    """Read a JSON config file into a plain dict."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _finite(text: str) -> float:
    """A JSON number; NaN, Infinity and overflowing literals are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def effective_config(config: Mapping) -> dict:
    """Defaults overlaid with the given keys (unknown keys kept for validate)."""
    merged = {key: row.default for key, row in CONFIG_KEYS.items()}
    merged.update(config)
    return merged


def _stable_config(config: Mapping) -> dict:
    """The effective config without its volatile keys."""
    return {k: v for k, v in effective_config(config).items() if k not in _VOLATILE}


def config_hash(config: Mapping) -> str:
    """12 hex chars identifying everything that shapes the results."""
    blob = json.dumps(_stable_config(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def validate(config: Mapping) -> list[Diagnostic]:
    """Screen a config; returns diagnostics instead of raising.

    Errors mark configs run() must refuse; warnings flag legal but
    fragile setups such as a truncation level sitting on a power of
    the offspring mean, or a key set for a kind that does not read it.
    Every set key is checked against its row of ``CONFIG_KEYS``; the rules
    that tie keys together then see only the keys that passed and that
    the kind reads, the others read as unset.
    """
    diags = [Diagnostic("error", f"unknown config key {key!r}")
             for key in sorted(set(config) - set(CONFIG_KEYS))]
    cfg = effective_config(config)
    kind = cfg["experiment"]
    if kind not in EXPERIMENTS:
        message = (f"unknown experiment {kind!r}; expected one of {', '.join(EXPERIMENTS)}"
                   if kind is not None else "an experiment kind is required")
        return diags + [Diagnostic("error", message)]

    for key, row in CONFIG_KEYS.items():
        value = cfg[key]
        if value is None and row.default is None:
            failed = (row.missing or row.checks[0][1]) if kind in row.required else None
        else:
            failed = next((text for test, text in row.checks if not test(value)), None)
        unread = row.kinds and kind not in row.kinds
        if failed is not None:
            diags.append(Diagnostic("error", failed.format(key=key, kind=kind, value=value)))
        elif (unread and config.get(key) is not None and kind not in row.required
              and not row.volatile):
            diags.append(Diagnostic("warning", f"{key} is set but {kind} does not read it"))
        if failed is not None or unread:
            cfg[key] = None

    dist = None
    if cfg["offspring"] is not None:
        try:
            dist = make_distribution(cfg["offspring"],
                                     allow_supercritical=cfg["allow_supercritical"] is True)
        except (InvalidParameter, NonNormalizedPMF, SupercriticalWithoutOverride) as exc:
            diags.append(Diagnostic("error", f"offspring: {exc}"))
    for rule in _CROSS_KEY_RULES:
        diags += rule(kind, cfg, dist)
    return diags


def _error(message: str) -> list[Diagnostic]:
    return [Diagnostic("error", message)]


def _mean_rules(kind: str, cfg: dict, dist) -> list[Diagnostic]:
    """Only the pathwise kinds take a law with mean >= 1 (given a horizon) or mean 0."""
    if dist is None:
        return []
    if dist.mean >= 1.0:
        if kind not in _PATHWISE:
            return _error(f"offspring mean {dist.mean} >= 1: "
                          f"{kind} needs a strictly subcritical law")
        if cfg["horizon"] is None:
            return _error("a supercritical simulation needs an explicit horizon")
        return [Diagnostic("warning",
                           f"offspring mean {dist.mean} >= 1; extinction is no longer certain")]
    if dist.mean == 0.0 and kind not in _PATHWISE:
        return _error(f"{kind} needs offspring mean in (0, 1), got 0")
    return []


#: The most paths one batch may hold.
_MAX_BATCH = 2**31 - 1
#: The most batches a run may have.
_MAX_BATCHES = 2**16


def _batch_rules(kind: str, cfg: dict, dist) -> list[Diagnostic]:
    """Batches split the paths evenly, into at most ``_MAX_BATCHES`` batches
    of at most ``_MAX_BATCH`` paths; batch standard errors need enough of
    both."""
    paths, batches = cfg["paths"], cfg["batches"]
    if batches is None:
        return []
    diags = []
    if kind in ESTIMATORS and batches < 30:
        diags += _error("batches must be >= 30 so batch standard errors are trustworthy")
    if batches > _MAX_BATCHES:
        diags += _error(f"batches must be at most 2^16 = {_MAX_BATCHES}: the run lays out "
                        "every batch before it simulates one")
    if paths is not None and -(-paths // batches) > _MAX_BATCH:
        diags += _error(f"paths / batches must be at most 2^31 - 1 = {_MAX_BATCH}: "
                        "a batch simulates all its paths in one array; raise batches")
    if paths is not None and paths % batches:
        diags += _error("paths must be divisible by batches")
    elif paths is not None and kind == "clt-check" and paths < 2 * batches:
        diags += _error("clt-check needs at least 2 paths per batch for its within-batch variances")
    return diags


def _u_order(kind: str, cfg: dict, dist) -> list[Diagnostic]:
    """u1 < u2, where invariance_check's own default u2 stands in when u2 is unset."""
    u1 = cfg["u1"]
    u2 = INVARIANCE_U2 if cfg["u2"] is None and kind == "invariance" else cfg["u2"]
    return _error("u1 < u2 required") if u1 is not None and u2 is not None and not u1 < u2 else []


def _population_sizes(kind: str, cfg: dict, dist) -> list[Diagnostic]:
    """Every simulated K (a kind's K, or each entry of K_list) keeps
    K * m^horizon below 2^53: progeny sums are drawn as int64 counts, and
    that leaves a 2^10 margin below where numpy's samplers overflow or
    refuse. Invariance scales its windows and targets with log K."""
    K = max(cfg["K_list"] or [cfg["K"] or 0])
    if dist is None or not K:
        return []
    if kind == "invariance" and K < 2:
        return _error("invariance needs K >= 2: its windows and targets scale with log K")
    growth = math.log(K) + (cfg["horizon"] or 0) * math.log(max(dist.mean, 1.0))
    if growth <= 53 * math.log(2):
        return []
    return _error(f"K * m^horizon = 10^{growth / math.log(10):.1f} exceeds 2^53: "
                  "the population would overflow; lower K or the horizon")


def _oracle_reach(kind: str, cfg: dict, dist) -> list[Diagnostic]:
    """The exact oracle a run calls stops within ``exact.MAX_GENERATIONS``
    steps of its survival iteration (see ``exact.oracle_steps``):
    conditional-on-tau's median of tau, and extinction-scaling's E[m^tau]
    when ``exact_oracle`` is set."""
    if kind == "conditional-on-tau":
        K = cfg["K"]
    elif cfg["exact_oracle"]:  # read by extinction-scaling alone
        K = max(cfg["K_list"] or [0])
    else:
        return []
    if dist is None or not K or not 0.0 < dist.mean < 1.0:
        return []
    steps = exact.oracle_steps(dist, K)
    if steps <= exact.MAX_GENERATIONS:
        return []
    fix = "set exact_oracle to false or lower" if kind == "extinction-scaling" else "lower"
    return _error(f"offspring mean {dist.mean} is too close to 1: the exact oracle of {kind} "
                  f"could need {steps:.3g} generations, more than its limit of "
                  f"{exact.MAX_GENERATIONS}; {fix} the mean")


def _level_warnings(kind: str, cfg: dict, dist) -> list[Diagnostic]:
    """Duplicate truncation levels, and levels on a power of the mean, where
    the truncated chain is unstable."""
    texts, levels = [], cfg["levels"] or []
    if len(set(levels)) < len(levels):
        texts.append("duplicate truncation levels collapse to one")
    if cfg["a"] is not None:  # coupled reads levels; clt-check and gaussian-cov read a
        levels = [cfg["a"]]
    if dist is not None and 0.0 < dist.mean < 1.0:
        texts += exact.boundary_warnings(dist.mean, [a for a in levels if a > 0.0])
    return [Diagnostic("warning", text) for text in texts]


def _level_columns(kind: str, cfg: dict, dist) -> list[Diagnostic]:
    """A coupled dump names each level's columns by the level at 4 decimals
    (``process.level_label``), so two distinct levels must print apart there:
    otherwise a reader that goes by column name drops one of them."""
    if cfg["levels"] is None or not cfg["write_trajectories"]:
        return []
    seen: dict[str, float] = {}
    diags = []
    for a in sorted(set(float(a) for a in cfg["levels"])):
        label = level_label(a)
        if seen.setdefault(label, a) != a:
            diags += _error(f"levels {seen[label]!r} and {a!r} both name the trajectory "
                            f"columns Xa_{label}, Ya_{label} and I_{label}: levels must differ "
                            "at 4 decimals, or set write_trajectories to false")
    return diags


#: The rules that tie keys together, run after every key passed its own row.
_CROSS_KEY_RULES = (_mean_rules, _batch_rules, _u_order, _population_sizes, _oracle_reach,
                    _level_warnings, _level_columns)


# ---------------------------------------------------------------------------
# dispatch


def _dispatch_estimator(kind: str, cfg: dict, dist: OffspringDistribution) -> ExperimentReport:
    """Call the kind's function in ``estimators`` with each key whose row
    names the kind.

    Unset keys are not passed, so the function's own default applies (this
    is how invariance gets its default u2, and simulate no levels). The
    function is looked up by name on every call, so a wrapper set on the
    ``estimators`` module sees it.
    """
    kwargs = {row.param or key: cfg[key] for key, row in CONFIG_KEYS.items()
              if kind in row.kinds and cfg[key] is not None}
    return getattr(estimators, RUNNERS[kind])(dist=dist, **kwargs)


# ---------------------------------------------------------------------------
# serialization


def report_payload(report: ExperimentReport, config: Mapping) -> dict:
    """The JSON document for report.json; free of volatile keys."""
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
        "config": _stable_config(config),
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


def _persist(run_dir: Path, cfg: dict, report: ExperimentReport, payload: dict) -> None:
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
    if report.trajectories is not None:
        files.append(("trajectories.csv", report.trajectories))
    if report.matrix is not None:
        files.append(("matrix.csv",
                      "".join(",".join(repr(v) for v in row) + "\n" for row in report.matrix)))
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
    dist = make_distribution(cfg["offspring"], allow_supercritical=cfg["allow_supercritical"])
    print(f"running {kind}", file=err_stream)
    started = time.perf_counter()
    report = _dispatch_estimator(kind, cfg, dist)
    report.wall_time = time.perf_counter() - started

    payload = report_payload(report, cfg)
    run_dir = Path(cfg["out"]) / f"{kind}-{config_hash(cfg)}"
    _persist(run_dir, cfg, report, payload)
    report.trajectories = None  # a dump can be large, and trajectories.csv now holds it
    print(f"wrote {run_dir}", file=err_stream)
    return RunResult(report=report, run_dir=run_dir, payload=payload)
