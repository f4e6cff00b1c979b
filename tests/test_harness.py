"""Config validation, run directories, persisted files, and the CLI."""

from __future__ import annotations

import ast
import csv
import importlib
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

import branchlab
from branchlab import estimators, harness
from branchlab.cli import main
from branchlab.estimators import AD_SIGNIFICANCE_LEVELS
from branchlab.gaussian_limit import MODES
from branchlab.harness import (
    CONFIG_KEYS,
    ESTIMATORS,
    EXPERIMENTS,
    RUNNERS,
    ConfigError,
    IoError,
    config_hash,
    load_config,
    report_payload,
    run,
    validate,
)
from branchlab.offspring import OffspringDistribution

BERN = {"kind": "bernoulli", "p": 0.5}
POI = {"kind": "poisson", "lambda": 0.7}


def errors(config):
    return [d.message for d in validate(config) if d.severity == "error"]


def warnings(config):
    return [d.message for d in validate(config) if d.severity == "warning"]


# ---------------------------------------------------------------------------
# validation


def test_validate_u_ordering():
    cfg = {"experiment": "conditional-moments", "offspring": POI, "seed": 1,
           "K": 100, "u1": 0.6, "u2": 0.3}
    assert "u1 < u2 required" in errors(cfg)


def test_validate_boundary_warning():
    cfg = {"experiment": "clt-check", "offspring": BERN, "seed": 1,
           "K": 100, "indices": [1, 2], "a": 0.25}
    assert errors(cfg) == []
    assert any("0.25" in w and "unstable" in w for w in warnings(cfg))


def test_validate_missing_seed():
    cfg = {"experiment": "simulate", "offspring": BERN, "K": 10}
    assert any("seed is required" in e for e in errors(cfg))


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"seed": True}, "seed must be"),
        ({"paths": 1001}, "divisible by batches"),
        ({"batches": 20}, "batches must be >= 30"),
        ({"K_list": [5, 100]}, "integer >= 10"),
        ({"K_list": []}, "nonempty K_list"),
        ({"tau_sampler": "bogus"}, "tau_sampler"),
        ({"offspring": POI, "tau_sampler": "lifetime"}, "lifetime tau_sampler was removed"),
        ({"trend_gates": ["median", "mode"]}, "trend_gates"),
        ({"junk": 1}, "unknown config key 'junk'"),
        ({"exact_oracle": "no"}, "exact_oracle must be true or false"),
        ({"se_k": "x"}, "se_k must be positive"),
        ({"trend_gates": [["mean"]]}, "trend_gates"),
        ({"tau_sampler": "lifetime"}, "lifetime tau_sampler was removed"),
    ],
)
def test_validate_extinction_scaling_errors(overrides, fragment):
    cfg = {"experiment": "extinction-scaling", "offspring": BERN, "seed": 1,
           "K_list": [50, 100], "paths": 1000, "batches": 40}
    cfg.update(overrides)
    assert any(fragment in e for e in errors(cfg)), errors(cfg)


@pytest.mark.parametrize(
    "kind, overrides, fragment",
    [
        ("bogus", {}, "unknown experiment"),
        ("clt-check", {"K": 100, "indices": [3, 1]}, "strictly increasing"),
        ("clt-check", {"K": 100, "indices": [1], "a": 1.0}, "a must lie in [0, 1)"),
        ("gaussian-cov", {"indices": [1], "mode": "exact"}, "mode must be one of"),
        ("coupled", {"K": 100}, "nonempty list of truncation levels"),
        ("coupled", {"K": 100, "levels": [0.2, 1.5]}, "levels must lie in [0, 1)"),
        ("invariance", {"K": 100, "u1": 0.3, "eps_grid": [0.0, 0.5]}, "[-0.2, 0.2]"),
        ("invariance", {"K": 100, "u1": 0.3, "eps_grid": [0.05, 0.05]}, "distinct"),
        ("invariance", {"K": 100, "u1": 0.7, "eps_grid": [0.0]}, "u1 < u2 required"),
        ("invariance", {"K": 100, "eps_grid": [0.0]}, "needs u1"),
        ("conditional-moments", {"K": 100, "u1": 0.3, "u2": 0.6, "l": 4}, "moment order"),
        ("conditional-on-tau", {"K": 100, "u1": 1.2}, "strictly inside (0, 1)"),
        ("simulate", {"K": 0}, "positive integer K"),
        ("simulate", {"K": 10, "horizon": 0}, "horizon must be"),
        ("clt-check", {"K": 100, "indices": [1], "ad_significance": 0.02},
         "ad_significance must be one of (0.15, 0.1, 0.05, 0.025, 0.01)"),
        ("simulate", {"K": 10, "write_trajectories": "no"},
         "write_trajectories must be true or false"),
        ("simulate", {"K": 10, "plot_data": 1}, "plot_data must be true or false"),
        ("simulate", {"K": 10, "allow_supercritical": "yes"},
         "allow_supercritical must be true or false"),
        ("clt-check", {"K": 100, "indices": [1], "ad_min_scale": "x"},
         "ad_min_scale must be nonnegative"),
        ("clt-check", {"K": 100, "indices": [1], "ad_min_scale": -1.0},
         "ad_min_scale must be nonnegative"),
        ("clt-check", {"K": 100, "indices": [1], "paths": 40}, "at least 2 paths per batch"),
        ("simulate", {"K": 10, "out": 5}, "out must be a directory path"),
        ("simulate", {"offspring": {"kind": "bernoulli", "p": "x"}, "K": 10},
         "offspring: bad p: 'x'"),
        ("simulate", {"offspring": {"kind": "pmf", "table": {"0": float("nan")}}, "K": 10},
         "offspring: pmf weights must be nonnegative"),
        ("invariance", {"K": 1, "u1": 0.3, "eps_grid": [0.0]}, "invariance needs K >= 2"),
    ],
)
def test_validate_kind_errors(kind, overrides, fragment):
    cfg = {"experiment": kind, "offspring": BERN, "seed": 1,
           "paths": 1000, "batches": 40}
    cfg.update(overrides)
    assert any(fragment in e for e in errors(cfg)), errors(cfg)


@pytest.mark.parametrize("kind, given, key", [
    ("simulate", {"K": 10, "levels": [0.1]}, "levels"),
    ("extinction-scaling", {"K_list": [50], "horizon": 20}, "horizon"),
    ("clt-check", {"K": 100, "indices": [1], "mode": "martingale"}, "mode"),
])
def test_validate_warns_of_a_key_the_kind_does_not_read(kind, given, key):
    cfg = {"experiment": kind, "offspring": POI, "seed": 1, **given}
    assert errors(cfg) == []
    assert warnings(cfg) == [f"{key} is set but {kind} does not read it"]
    assert warnings({k: v for k, v in cfg.items() if k != key}) == []


def test_validate_does_not_warn_of_required_or_volatile_keys():
    """gaussian-cov reads neither seed nor workers, but seed is required of
    every kind and workers only steers how a run executes."""
    cfg = {"experiment": "gaussian-cov", "offspring": POI, "seed": 1, "indices": [1],
           "workers": 2, "plot_data": True}
    assert validate(cfg) == []


def test_benchmark_workload_configs_draw_no_warning(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads").WORKLOADS
    configs = [c for w in workloads.values() for c in w.with_run_settings(1, root / "runs")]
    assert len(configs) == 7
    assert [d for c in configs for d in validate(c)] == []


@pytest.mark.parametrize("levels, dump, refused", [
    ([0.1, 0.10001], True, True),
    ([0.5, 0.1, 0.10001, 0.3], True, True),
    ([0.0, 0.00001], True, True),
    ([0.1, 0.10001], False, False),
    ([0.1, 0.1001], True, False),
    ([0.1, 0.1], True, False),
    ([-0.0, 0.0], True, False),
])
def test_validate_refuses_levels_that_name_the_same_columns(levels, dump, refused):
    """A coupled dump names each level's columns by the level at 4 decimals;
    two distinct levels that print alike there would share their column
    names, so validate refuses them unless no trajectories are written.
    Equal levels collapse to one and only warn."""
    cfg = {"experiment": "coupled", "offspring": BERN, "seed": 1, "K": 100_000,
           "levels": levels, "write_trajectories": dump}
    clashes = [e for e in errors(cfg) if "both name the trajectory columns" in e]
    assert len(clashes) == refused, errors(cfg)
    if refused:
        assert "Xa_0.1000" in clashes[0] or "Xa_0.0000" in clashes[0]


def test_cli_refuses_levels_that_name_the_same_columns(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "coupled", "offspring": BERN, "seed": 1,
                                  "K": 100_000, "levels": [0.1, 0.10001], "paths": 40,
                                  "batches": 40, "out": str(tmp_path / "runs")})
    assert main(["coupled", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: levels 0.1 and 0.10001 both name the trajectory columns "
            "Xa_0.1000, Ya_0.1000 and I_0.1000") in captured.err
    assert not (tmp_path / "runs").exists()


def test_cli_writes_a_negative_zero_level_as_zero(tmp_path):
    """A level of -0.0 is level 0: its columns are named Xa_0.0000, like those
    of 0.0, and the base path repeats in them."""
    cfg = write_config(tmp_path, {"experiment": "coupled", "offspring": BERN, "seed": 1,
                                  "K": 20, "levels": [-0.0, 0.5], "paths": 40, "batches": 40,
                                  "out": str(tmp_path / "runs")})
    assert "-0.0" in Path(cfg).read_text()
    assert main(["coupled", "--config", cfg]) == 0
    [run_dir] = (tmp_path / "runs").iterdir()
    with open(run_dir / "trajectories.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["path", "n", "X", "Xa_0.0000", "Ya_0.0000", "I_0.0000",
                             "Xa_0.5000", "Ya_0.5000", "I_0.5000"]
    assert all(row["Xa_0.0000"] == row["Ya_0.0000"] == row["X"] for row in rows)


NEAR_ONE = {"kind": "bernoulli", "p": 0.9999999}


@pytest.mark.parametrize("kind, overrides", [
    ("conditional-on-tau", {"K": 10, "u1": 0.5}),
    ("extinction-scaling", {"K_list": [10, 100]}),
])
def test_validate_refuses_exact_oracles_beyond_their_generation_limit(kind, overrides):
    """The exact oracles iterate the survival map at most 10^7 times; a mean
    this close to 1 needs more, a mean of 0.99 a few thousand."""
    cfg = {"experiment": kind, "offspring": NEAR_ONE, "seed": 1, "paths": 1000,
           "batches": 40, **overrides}
    assert any("offspring mean 0.9999999 is too close to 1" in e for e in errors(cfg))
    assert errors({**cfg, "offspring": {"kind": "bernoulli", "p": 0.99}}) == []
    if kind == "extinction-scaling":
        assert errors({**cfg, "exact_oracle": False}) == []


def test_validate_supercritical():
    cfg = {"experiment": "simulate", "offspring": {"kind": "poisson", "lambda": 1.5},
           "seed": 1, "K": 10}
    assert any("supercritical" in e for e in errors(cfg))
    allowed = {**cfg, "allow_supercritical": True}
    assert any("explicit horizon" in e for e in errors(allowed))
    capped = {**allowed, "horizon": 20}
    assert errors(capped) == []
    assert any(">= 1" in w for w in warnings(capped))
    analysis = {"experiment": "clt-check", "offspring": {"kind": "poisson", "lambda": 1.5},
                "seed": 1, "K": 100, "indices": [1], "allow_supercritical": True}
    assert any("strictly subcritical" in e for e in errors(analysis))


def test_validate_returns_diagnostics_without_raising():
    assert any(d.severity == "error" for d in validate({}))
    assert str(validate({})[0]).startswith("error: ")


# ---------------------------------------------------------------------------
# config files and hashing


def test_load_config_errors(tmp_path):
    with pytest.raises(IoError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config file", 1)[1].split("\n### ", 1)[0]
    assert set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M)) == set(CONFIG_KEYS)


def test_config_hash_ignores_volatile_keys():
    cfg = {"experiment": "simulate", "offspring": BERN, "seed": 1, "K": 10}
    h = config_hash(cfg)
    assert len(h) == 12
    assert config_hash({**cfg, "out": "elsewhere", "workers": 8, "plot_data": True}) == h
    assert config_hash({**cfg, "seed": 2}) != h
    assert config_hash({**cfg, "paths": 2000}) != h


# ---------------------------------------------------------------------------
# run(): persisted files


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ConfigError, match="seed is required"):
        run({"experiment": "simulate", "offspring": BERN, "K": 10,
             "out": str(tmp_path)})


def test_gaussian_cov_run(tmp_path):
    res = run({"experiment": "gaussian-cov", "offspring": BERN, "seed": 0,
               "indices": [1], "out": str(tmp_path)}, stderr=io.StringIO())
    assert res.report.matrix == [[1.0]]
    assert res.report.entry("cov[1,1]").estimate == 1.0
    assert res.report.entry("psd").estimate == 1.0
    assert (res.run_dir / "matrix.csv").read_text() == "1.0\n"
    assert res.run_dir.name == f"gaussian-cov-{config_hash(res.payload['config'])}"


def test_gaussian_cov_quotes_csv_names(tmp_path):
    res = run({"experiment": "gaussian-cov", "offspring": BERN, "seed": 0,
               "indices": [1, 2], "mode": "martingale", "out": str(tmp_path)},
              stderr=io.StringIO())
    rows = list(csv.reader((res.run_dir / "report.csv").read_text().splitlines()))
    assert rows[0] == ["experiment", "statistic", "estimate", "stderr", "target", "ratio", "verdict"]
    names = [r[1] for r in rows[1:]]
    assert "cov[1,2]" in names
    assert all(len(r) == 7 for r in rows)


def test_simulate_degenerate_law(tmp_path):
    res = run({"experiment": "simulate", "offspring": {"kind": "pmf", "table": {"0": 1.0}},
               "seed": 7, "K": 5, "paths": 1, "batches": 1, "out": str(tmp_path)},
              stderr=io.StringIO())
    assert res.report.entry("extinct_paths").estimate == 1.0
    assert res.report.entry("mean_tau").estimate == 1.0
    lines = (res.run_dir / "trajectories.csv").read_text().splitlines()
    assert lines == ["path,n,X", "0,0,5", "0,1,0"]
    assert res.report.trajectories is None  # released once written


def test_simulate_ignores_levels(tmp_path):
    """simulate and coupled share one batch worker, yet simulate with levels
    set steps and writes the plain paths: the same entries and
    trajectories.csv as without them. Only the config echo differs."""
    cfg = {"experiment": "simulate", "offspring": {"kind": "geometric", "p": 0.4}, "seed": 9,
           "K": 50, "horizon": 6, "paths": 90, "batches": 9, "out": str(tmp_path)}
    plain = run(cfg, stderr=io.StringIO())
    leveled = run({**cfg, "levels": [0.0, 0.2]}, stderr=io.StringIO())
    assert leveled.run_dir != plain.run_dir
    assert plain.report.entry("censored_paths").estimate > 0
    assert leveled.payload["config"]["levels"] == [0.0, 0.2]
    assert {**leveled.payload, "config": None} == {**plain.payload, "config": None}
    text = (plain.run_dir / "trajectories.csv").read_text()
    assert text.startswith("path,n,X\n")
    assert (leveled.run_dir / "trajectories.csv").read_text() == text


def test_coupled_gates_and_worker_identity(tmp_path):
    cfg = {"experiment": "coupled", "offspring": BERN, "seed": 3, "K": 64,
           "levels": [0.1, 0.4], "paths": 60, "batches": 6, "out": str(tmp_path)}
    first = run(cfg, stderr=io.StringIO())
    assert first.report.passed
    for name in ("sandwich_violations", "shift_identity_violations",
                 "indicator_violations", "level_monotonicity_violations"):
        assert first.report.entry(name).verdict == "pass"
    again = run({**cfg, "workers": 4}, stderr=io.StringIO())
    assert again.run_dir == first.run_dir
    for fname in ("report.json", "report.csv", "trajectories.csv"):
        assert (first.run_dir / fname).read_bytes() == (again.run_dir / fname).read_bytes()


def test_coupled_gates_pass_for_multi_child_law(tmp_path):
    """binomial(3, 0.25) can give one individual three children, so Y^(a) <= X
    is not gated; X <= X^(a) and the other gates still are."""
    cfg = {"experiment": "coupled", "offspring": {"kind": "binomial", "n": 3, "p": 0.25},
           "seed": 1, "K": 12, "levels": [0.25, 0.5], "paths": 200, "out": str(tmp_path)}
    res = run(cfg, stderr=io.StringIO())
    assert res.report.passed
    assert res.report.entry("sandwich_violations").estimate == 0


def test_report_json_shape(tmp_path):
    cfg = {"experiment": "extinction-scaling", "offspring": BERN, "seed": 5,
           "K_list": [30, 60], "paths": 600, "batches": 30, "out": str(tmp_path),
           "workers": 1, "plot_data": True}
    res = run(cfg, stderr=io.StringIO())
    doc = json.loads((res.run_dir / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["experiment"] == "extinction-scaling"
    assert doc["total_paths"] == 600 * 2 and doc["batches"] == 30  # paths per K, two K values
    assert doc["passed"] is True
    for volatile in ("out", "workers", "plot_data"):
        assert volatile not in doc["config"]
    assert "wall_time" not in doc and "wall_time_s" not in doc
    manifest = json.loads((res.run_dir / "manifest.json").read_text())
    assert manifest["wall_time_s"] > 0
    assert manifest["config"]["out"] == str(tmp_path)
    assert manifest["code_version"]
    series = (res.run_dir / "plot-data" / "median_tau_over_logK.csv").read_text().splitlines()
    assert series[0] == "K,ratio"
    assert [row.split(",")[0] for row in series[1:]] == ["30", "60"]


def test_package_version_is_the_pyproject_version():
    """``branchlab.__version__``, which manifests record as ``code_version``,
    is the version pyproject.toml declares."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "([^"]*)"$', text, flags=re.M) == [branchlab.__version__]


def test_invariance_plot_series(tmp_path):
    cfg = {"experiment": "invariance", "offspring": POI, "seed": 3, "K": 1000,
           "u1": 0.3, "u2": 0.6, "eps_grid": [-0.05, 0.0, 0.05], "paths": 12000,
           "batches": 40, "window_rel": 0.03, "out": str(tmp_path), "plot_data": True}
    res = run(cfg, stderr=io.StringIO())
    for stat in ("A", "B"):
        lines = (res.run_dir / "plot-data" / f"{stat}.csv").read_text().splitlines()
        assert lines[0] == "eps,ratio"
        assert [row.split(",")[0] for row in lines[1:]] == ["-0.05", "0.0", "0.05"]


def test_report_payload_round_trips_entry_order(tmp_path):
    cfg = {"experiment": "simulate", "offspring": BERN, "seed": 2, "K": 40,
           "paths": 50, "batches": 5, "out": str(tmp_path)}
    res = run(cfg, stderr=io.StringIO())
    payload = report_payload(res.report, cfg)
    assert [e["name"] for e in payload["entries"]] == [e.name for e in res.report.entries]
    assert payload == res.payload


def test_run_io_error(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(IoError):
        run({"experiment": "gaussian-cov", "offspring": BERN, "seed": 0,
             "indices": [1], "out": str(blocker)}, stderr=io.StringIO())


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_gaussian_cov_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, {"offspring": BERN, "seed": 0, "indices": [1],
                                  "out": str(tmp_path / "runs")})
    assert main(["gaussian-cov", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out == "[[1.0]]\n"
    assert "wrote" in captured.err


def test_cli_report_stdout_and_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, {"offspring": BERN, "seed": 5, "K": 40,
                                  "paths": 50, "batches": 5,
                                  "out": str(tmp_path / "runs")})
    assert main(["simulate", "--config", cfg, "--seed", "6", "--workers", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["seed"] == 6
    assert doc["experiment"] == "simulate"
    dirs = [d.name for d in (tmp_path / "runs").iterdir()]
    assert len(dirs) == 1 and dirs[0].startswith("simulate-")


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"offspring": BERN, "K": 10, "out": str(tmp_path / "runs")})
    assert main(["simulate", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed is required" in captured.err


def test_cli_experiment_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "coupled", "offspring": BERN, "seed": 1,
                                  "K": 10, "levels": [0.2], "out": str(tmp_path / "runs")})
    assert main(["simulate", "--config", cfg]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_simulate_runs_law_without_sum_table(tmp_path, capsys):
    """A pmf with support up to 10^6 gets no sum table (not even one row
    fits the cell budget); its sums come from the multinomial sampler."""
    law = {"kind": "pmf", "table": {"0": 1 - 5e-7, "1000000": 5e-7}}
    cfg = write_config(tmp_path, {"offspring": law, "seed": 3, "K": 1000, "paths": 400,
                                  "batches": 4, "out": str(tmp_path / "runs")})
    assert main(["simulate", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


#: Per case: the kind, the keys that make the overflow payload pass 2^53 (or
#: a batch pass 2^31 - 1 paths, or the batches 2^16), the keys that bring it
#: back in range, and a fragment of the error.
OVERFLOWS = {
    "simulate": ("simulate", {}, {"horizon": 20}, "exceeds 2^53"),
    "coupled": ("coupled", {"levels": [0.2]}, {"horizon": 20}, "exceeds 2^53"),
    "extinction-scaling": ("extinction-scaling", {"offspring": POI, "K_list": [100, 10**19],
                                                  "paths": 300, "batches": 30},
                           {"K_list": [100, 1000]}, "exceeds 2^53"),
    "conditional-on-tau": ("conditional-on-tau", {"offspring": POI, "K": 10**19, "u1": 0.3,
                                                  "paths": 300, "batches": 30},
                           {"K": 1000}, "exceeds 2^53"),
    "simulate-paths": ("simulate", {"offspring": BERN, "K": 10, "paths": 10**19, "batches": 1},
                       {"paths": 1000}, "paths / batches must be at most 2^31 - 1"),
    "simulate-batches": ("simulate", {"offspring": BERN, "K": 10, "paths": 10**9, "batches": 10**9},
                         {"batches": 1000}, "batches must be at most 2^16"),
}


@pytest.mark.parametrize("case", list(OVERFLOWS))
def test_cli_rejects_population_overflow(tmp_path, capsys, case):
    """binomial(4, 0.9) from K = 1000 for 60 generations passes 2^53, and so
    does any K above it, whatever the law; a batch of more than 2^31 - 1
    paths, or more than 2^16 batches, is refused too."""
    payload = {"offspring": {"kind": "binomial", "n": 4, "p": 0.9}, "seed": 1,
               "K": 1000, "horizon": 60, "allow_supercritical": True,
               "out": str(tmp_path / "runs")}
    kind, overflow, in_range, fragment = OVERFLOWS[case]
    payload.update(overflow)
    assert main([kind, "--config", write_config(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert fragment in captured.err
    assert not (tmp_path / "runs").exists()
    assert errors({**payload, "experiment": kind, "horizon": 20, **in_range}) == []


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 72.0 EiB for an array", "Unable to allocate 72.0 EiB for an array"),
    ("", "MemoryError"),
])
def test_cli_reports_a_run_out_of_memory(tmp_path, capsys, monkeypatch, message, shown):
    """A run that raises MemoryError exits with code 2 and its message, or
    the error's name when it has none (as when a list cannot grow)."""
    def out_of_memory(**kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(estimators, "extinction_scaling", out_of_memory)
    cfg = write_config(tmp_path, {"offspring": POI, "seed": 1, "K_list": [100], "paths": 300,
                                  "batches": 30, "out": str(tmp_path / "runs")})
    assert main(["extinction-scaling", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {shown}\n" in captured.err


@pytest.mark.parametrize("kind, payload, fragment", [
    ("conditional-on-tau", {"offspring": NEAR_ONE, "K": 10, "u1": 0.5, "paths": 30,
                            "batches": 30}, "offspring mean 0.9999999 is too close to 1"),
    ("clt-check", {"offspring": POI, "K": 1000, "a": 0.5, "indices": [1, 2, 3000],
                   "paths": 4000, "batches": 40}, "index 2 exceeds ell(a) - 1 = 1"),
])
def test_cli_refuses_before_simulating(tmp_path, capsys, kind, payload, fragment):
    """A config that an exact oracle or the limit model cannot serve exits
    with code 2 before anything is simulated."""
    cfg = write_config(tmp_path, {"seed": 1, **payload, "out": str(tmp_path / "runs")})
    started = time.perf_counter()
    assert main([kind, "--config", cfg]) == 2
    assert time.perf_counter() - started < 1.0
    assert f"error: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("kind, payload, fragment", [
    ("conditional-on-tau", {"offspring": POI, "K": 10, "u1": 0.3, "paths": 60, "batches": 30},
     "no tau group reached"),
    ("invariance", {"offspring": POI, "K": 10, "u1": 0.3, "paths": 60, "batches": 30,
                    "eps_grid": [0.0]}, "no path puts X at floor(u2 tau)"),
    ("gaussian-cov", {"offspring": BERN, "a": 0.999, "indices": [1]}, "index 1 exceeds ell(a) - 1"),
    ("extinction-scaling", {"offspring": POI, "K_list": [10], "paths": 30, "batches": 30,
                            "cap_multiplier": 1}, "K=10: batch 0 has no path extinct"),
    ("clt-check", {"offspring": BERN, "K": 2, "indices": [1, 6], "paths": 60, "batches": 30},
     "every batch gives cov[1,6] = 0"),
])
def test_cli_refuses_data_it_cannot_estimate(tmp_path, capsys, monkeypatch, kind, payload,
                                             fragment):
    """A valid config whose simulated data or limit model holds nothing to
    estimate exits with code 2 and a message, like an invalid config.

    Two cases are degenerate whatever the draws, through stand-ins: under a
    law where every individual has one child no path dies out, and clt-check
    gets batches of two paths that share X_1 or X_6 (in turn), so each
    batch's cov[1,6] is exactly 0 while the batch means and variances
    differ."""
    if kind == "extinction-scaling":
        monkeypatch.setattr(OffspringDistribution, "closure_sums",
                            lambda self, counts, gen: np.asarray(counts, dtype=np.int64))
    if kind == "clt-check":
        monkeypatch.setattr(estimators, "_theta_batch", lambda stack, **_: np.vstack([
            np.array([[1, 0], [1, 1]] if b % 2 else [[0, 0], [1, 0]]) for b in stack]))
    cfg = write_config(tmp_path, {"seed": 1, **payload, "out": str(tmp_path / "runs")})
    assert main([kind, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {fragment}" in captured.err


# ---------------------------------------------------------------------------
# fuzzing: whatever the config, the CLI exits 0, 1 or 2


LAWS = [BERN, POI, {"kind": "binomial", "n": 2, "p": 0.3}, {"kind": "geometric", "p": 0.3},
        {"kind": "pmf", "table": {"0": 0.5, "1": 0.3, "2": 0.2}}]


def _in_range(batches: int) -> dict:
    """An in-range value for every config key but experiment and out, at small sizes."""
    floats = partial(hs.floats, allow_subnormal=False)
    return {
        "offspring": hs.sampled_from(LAWS),
        "seed": hs.integers(0, 2**32),
        "K": hs.integers(1, 64),
        "K_list": hs.lists(hs.integers(10, 64), min_size=1, max_size=3),
        "paths": hs.integers(1, 120 // batches).map(lambda per: per * batches),
        "batches": hs.just(batches),
        "workers": hs.just(1),
        "plot_data": hs.booleans(),
        "write_trajectories": hs.booleans(),
        "horizon": hs.integers(1, 40),
        "cap_multiplier": hs.integers(1, 10),
        "levels": hs.lists(floats(0.0, 0.95), min_size=1, max_size=3),
        "a": floats(0.0, 0.9),
        "indices": hs.lists(hs.integers(1, 6), min_size=1, max_size=3, unique=True).map(sorted),
        "mode": hs.sampled_from(MODES),
        "u1": floats(0.05, 0.45),
        "u2": floats(0.5, 0.95),
        "l": hs.integers(1, 3),
        "eps_grid": hs.lists(floats(-0.2, 0.2), min_size=1, max_size=3, unique=True),
        "window_rel": floats(0.01, 0.5),
        "rel_tol": floats(0.01, 1.0),
        "ratio_band": hs.tuples(floats(0.1, 0.9), floats(1.1, 3.0)).map(list),
        "min_bin_count": hs.integers(1, 50),
        "bin_mode": hs.sampled_from(["quantile", "distinct"]),
        "min_group_count": hs.integers(1, 50),
        "tau_sampler": hs.sampled_from(["auto", "trajectory"]),
        "median_rel_tol": floats(0.01, 1.0),
        "trend_gates": hs.lists(hs.sampled_from(["median", "mean", "kEm"]), unique=True),
        "trend_slack": floats(0.0, 1.0),
        "exact_oracle": hs.booleans(),
        "se_k": floats(0.5, 8.0),
        "min_mode_separation": floats(0.0, 10.0),
        "ad_significance": hs.sampled_from(AD_SIGNIFICANCE_LEVELS),
        "ad_min_scale": floats(0.0, 200.0),
        "allow_supercritical": hs.booleans(),
    }


#: Values that are malformed for most keys; run from inside tmp_path, so a
#: string taken as `out` stays there.
MALFORMED = ["x", -1, 1.5, [], {}, None, True, float("nan"), [1, "x"]]
MALFORMED_FOR = {
    "K": [10**19],
    "K_list": [[10, 10**19]],
    "tau_sampler": ["lifetime"],
    "offspring": [{"kind": "bernoulli", "p": "x"}, {"kind": "pmf", "table": {"0": 1.0, "x": 0.0}}],
}


@hs.composite
def fuzz_configs(draw, kind: str):
    values = _in_range(30 if kind in ESTIMATORS else draw(hs.integers(1, 6)))
    assert set(values) | {"experiment", "out"} == set(CONFIG_KEYS)
    required = [key for key, row in CONFIG_KEYS.items() if kind in row.required]
    always = {"paths", "batches", *required}
    config = {key: draw(strategy) for key, strategy in values.items()
              if key in always or draw(hs.booleans())}
    bad = draw(hs.one_of(hs.none(), hs.sampled_from(list(CONFIG_KEYS))))
    if bad is not None:
        config[bad] = draw(hs.sampled_from(MALFORMED + MALFORMED_FOR.get(bad, [])))
    return config


@pytest.mark.parametrize("kind", EXPERIMENTS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=hs.data())
def test_cli_exit_codes_under_fuzzed_configs(tmp_path, monkeypatch, kind, data):
    """Any config either runs (exit 0 or 1) or exits 2 with a message, never a traceback."""
    config = data.draw(fuzz_configs(kind))
    monkeypatch.chdir(tmp_path)
    config.setdefault("out", "runs")
    assert main([kind, "--config", write_config(tmp_path, config)]) in (0, 1, 2)


def test_every_name_the_benchmark_traces_resolves():
    """perfbench/spans.py replaces functions by (owner, attribute); a name that
    is deleted or moved would make a traced benchmark run fail with KeyError."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pairs = [(owner, attr) for _, owners, _ in spans.targets() for owner, attr in owners]
    assert pairs
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in pairs if attr not in vars(owner)]
    assert not missing


#: simulate runs coupled's function, with no truncation levels.
UNREAD_PARAMETERS = {"simulate": {"levels"}}


@pytest.mark.parametrize("kind", EXPERIMENTS)
def test_config_rows_feed_every_parameter_of_the_kind_function(kind):
    """A row that forgets a kind would leave the function on its own default."""
    params = set(inspect.signature(getattr(estimators, RUNNERS[kind])).parameters) - {"dist"}
    fed = {row.param or key for key, row in CONFIG_KEYS.items() if kind in row.kinds}
    assert fed == params - UNREAD_PARAMETERS.get(kind, set())


def test_harness_leaves_the_batch_engine_to_estimators():
    """harness uses no private name of estimators, process or exact, by
    import or by attribute, nor the engine's layout, horizon, header or
    covariance helpers."""
    tree = ast.parse(Path(harness.__file__).read_text(encoding="utf-8"))
    used = {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    used |= {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    engine = {"batch_layout", "default_horizon", "trajectory_header", "covariance_matrix"}
    assert not [(module, name) for module, name in used
                if module in ("estimators", "process", "exact") and name.startswith("_")
                or name in engine]
    assert set(ESTIMATORS) == set(EXPERIMENTS) - {"simulate", "coupled", "gaussian-cov"}


def test_runtime_imports_no_scipy():
    """scipy is a test dependency only: importing the package and its CLI in a
    fresh interpreter must not load any scipy module."""
    code = ("import sys, branchlab, branchlab.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(branchlab.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
