"""The extinction-time law of a Galton-Watson process, computed apart from branchlab.

A single line started from one individual is extinct by generation n with
probability q_n, where q_0 = 0 and q_{n+1} = f(q_n) for the offspring pgf f.
K independent lines give P(tau_K <= n) = q_n^K. The recursion is iterated on
the survival probability s_n = 1 - q_n through s -> 1 - f(1 - s), written
with expm1/log1p so that survival stays resolvable far below machine epsilon.
For bernoulli offspring the law is the closed form (1 - p^n)^K.

Only the offspring descriptors of the benchmark's workloads are needed:
bernoulli, binomial, poisson and explicit pmf tables.
"""

from __future__ import annotations

import math

import numpy as np

#: Generations are added until P(tau_K > n) falls below this.
TAIL_CUTOFF = 1e-18


def offspring_mean(descriptor: dict) -> float:
    kind = descriptor["kind"]
    if kind == "bernoulli":
        return float(descriptor["p"])
    if kind == "binomial":
        return descriptor["n"] * float(descriptor["p"])
    if kind == "poisson":
        return float(descriptor["lambda"])
    if kind == "pmf":
        return sum(int(k) * float(w) for k, w in descriptor["table"].items())
    raise ValueError(f"no extinction law for offspring kind {kind!r}")


def _survival_step(descriptor: dict):
    """The map s -> 1 - f(1 - s) for the offspring law."""
    kind = descriptor["kind"]
    if kind == "binomial":
        n, p = descriptor["n"], float(descriptor["p"])
        return lambda s: -math.expm1(n * math.log1p(-p * s))
    if kind == "poisson":
        lam = float(descriptor["lambda"])
        return lambda s: -math.expm1(-lam * s)
    if kind == "pmf":
        table = [(int(k), float(w)) for k, w in descriptor["table"].items() if int(k) > 0]

        def step(s: float) -> float:
            if s >= 1.0:
                return sum(w for _, w in table)
            return sum(-w * math.expm1(k * math.log1p(-s)) for k, w in table)

        return step
    raise ValueError(f"no extinction law for offspring kind {kind!r}")


def extinction_cdf(descriptor: dict, K: int, horizon: int = 0) -> np.ndarray:
    """P(tau_K <= n) for n = 0..N, where N >= horizon and P(tau_K > N) < TAIL_CUTOFF."""
    m = offspring_mean(descriptor)
    if not 0.0 < m < 1.0:
        raise ValueError(f"the law needs a subcritical mean, got {m}")
    cdf = [0.0]
    if descriptor["kind"] == "bernoulli":
        n = 0
        while n < horizon or 1.0 - cdf[-1] >= TAIL_CUTOFF:
            n += 1
            cdf.append(math.exp(K * math.log1p(-m**n)))
        return np.array(cdf)
    step = _survival_step(descriptor)
    s = 1.0
    while len(cdf) <= horizon or 1.0 - cdf[-1] >= TAIL_CUTOFF:
        s = step(s)
        cdf.append(math.exp(K * math.log1p(-s)) if s < 1.0 else 0.0)
    return np.array(cdf)


def tau_pmf(descriptor: dict, K: int, horizon: int = 0) -> np.ndarray:
    """P(tau_K = n) for n = 0..N, on the same grid as :func:`extinction_cdf`."""
    return np.diff(extinction_cdf(descriptor, K, horizon), prepend=0.0)


def tau_moments(pmf: np.ndarray, horizon: int | None = None) -> tuple[float, float, float]:
    """(P(tau <= h), E[tau | tau <= h], Var[tau | tau <= h]); h = None means no cap."""
    p = pmf if horizon is None else pmf[: horizon + 1]
    ns = np.arange(len(p), dtype=float)
    mass = float(p.sum())
    mean = float(ns @ p) / mass
    var = float(((ns - mean) ** 2) @ p) / mass
    return mass, mean, var


def mean_power(pmf: np.ndarray, m: float) -> float:
    """E[m^tau] under the given extinction-time law."""
    return float(pmf @ m ** np.arange(len(pmf), dtype=float))


def em_factor(pmf: np.ndarray, m: float, u_pred: float, u_cond: float, power: int) -> float:
    """E[m^(l (floor(u_pred tau) - floor(u_cond tau)))] over extinct paths."""
    total = 0.0
    for t, p in enumerate(pmf):
        if p > 0.0:
            total += p * m ** (power * (math.floor(u_pred * t) - math.floor(u_cond * t)))
    return float(total / pmf.sum())
