"""Subcritical branching-process simulation and extinction asymptotics.

The package is organised bottom-up:

``offspring``
    Offspring-law objects (closed families and explicit tables), built
    from JSON descriptors, with inverse-CDF sampling and closure sums.
``randomness``
    Counter-addressed random streams so every (path, generation) block
    is reproducible independently of execution order.
``process``
    Population trajectories, truncated/shifted companion processes and
    the coupled simulation used by the sandwich experiments.
``exact``
    Small-case oracles: generating-function iteration and exhaustive
    enumeration, used to calibrate the Monte Carlo estimators, and the
    deterministic limits of the stopping times.
``gaussian_limit``
    The limiting Gaussian sequence: covariance models and sampling.
``estimators``
    One function per experiment kind: deterministic parallel batch runs,
    batch means, standard errors and pass/fail verdicts.
``harness``
    The config table, validation, dispatch to each kind's function, and
    report files.
"""

from __future__ import annotations

__version__ = "0.8.0"

from .estimators import (
    DegenerateSample,
    EmptyConditioningSet,
    ExperimentReport,
    InsufficientBinMass,
    StatEntry,
    clt_covariance_check,
    conditional_moment_check,
    conditional_on_tau_check,
    extinction_scaling,
    invariance_check,
    invariance_target,
)
from .exact import boundary_warnings, limit_constant
from .gaussian_limit import (
    NotPositiveSemiDefinite,
    OutOfValidityRange,
    ThetaCovariance,
    covariance_matrix,
    sample_theta,
    theta_covariance,
    theta_variance,
)
from .harness import ConfigError, Diagnostic, IoError, RunResult, config_hash, load_config, run, validate
from .offspring import (
    InvalidParameter,
    NonNormalizedPMF,
    OffspringDistribution,
    SupercriticalWithoutOverride,
    make_distribution,
)
from .process import (
    CoupledPaths,
    PathRecord,
    default_horizon,
    floor_level,
    simulate_coupled,
    simulate_path,
    write_trajectories,
)
from .randomness import RandomnessSource

__all__ = [
    "ConfigError",
    "CoupledPaths",
    "DegenerateSample",
    "Diagnostic",
    "EmptyConditioningSet",
    "ExperimentReport",
    "InsufficientBinMass",
    "InvalidParameter",
    "IoError",
    "NonNormalizedPMF",
    "NotPositiveSemiDefinite",
    "OffspringDistribution",
    "OutOfValidityRange",
    "PathRecord",
    "RandomnessSource",
    "RunResult",
    "StatEntry",
    "SupercriticalWithoutOverride",
    "ThetaCovariance",
    "boundary_warnings",
    "clt_covariance_check",
    "conditional_moment_check",
    "conditional_on_tau_check",
    "config_hash",
    "covariance_matrix",
    "default_horizon",
    "extinction_scaling",
    "floor_level",
    "invariance_check",
    "invariance_target",
    "limit_constant",
    "load_config",
    "make_distribution",
    "run",
    "sample_theta",
    "simulate_coupled",
    "simulate_path",
    "theta_covariance",
    "theta_variance",
    "validate",
    "write_trajectories",
    "__version__",
]
