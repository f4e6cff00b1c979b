"""Command-line front end: one subcommand per experiment kind.

Standard output carries machine-readable results only (the report
JSON, or the covariance matrix for gaussian-cov); progress, warnings,
and errors go to standard error. Exit status is 0 when every gated
statistic passed, 1 when any failed, and 2 for unusable configs,
unwritable output, simulated data a run cannot estimate from, or a run
that does not fit in memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .estimators import DegenerateSample, EmptyConditioningSet, InsufficientBinMass
from .gaussian_limit import OutOfValidityRange
from .harness import CONFIG_KEYS, EXPERIMENTS, ConfigError, IoError, load_config, render_json, run

#: The config keys that a command-line flag overrides.
FLAG_KEYS = tuple(key for key, row in CONFIG_KEYS.items() if row.flag)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="Subcritical branching-process experiments driven by a JSON config.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="<experiment>")
    for kind in EXPERIMENTS:
        cmd = sub.add_parser(kind, help=f"run the {kind} experiment")
        cmd.add_argument("--config", required=True, help="JSON config file")
        for key in FLAG_KEYS:
            cmd.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                             **CONFIG_KEYS[key].flag)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k in FLAG_KEYS and v is not None}
    try:
        config = load_config(args.config)
        declared = config.get("experiment")
        if declared is not None and declared != args.experiment:
            raise ConfigError(
                f"config file says experiment={declared!r} but the subcommand is {args.experiment!r}"
            )
        config.update(overrides)
        config["experiment"] = args.experiment
        result = run(config)
    except (ConfigError, IoError, DegenerateSample, EmptyConditioningSet,
            InsufficientBinMass, OutOfValidityRange, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if result.matrix is not None:
        print(json.dumps(result.matrix))
    else:
        sys.stdout.write(render_json(result.payload))
    return 0 if result.report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
