"""Exact small-case results used to calibrate the Monte Carlo estimators.

Everything here is deterministic arithmetic, no sampling:

* generating-function iteration gives the exact law of the extinction
  time for any offspring family — P(a single line is alive at n) obeys
  s_{n+1} = 1 - f(1 - s_n) with s_0 = 1, and K independent lines give
  P(tau_K <= n) = (1 - s_n)^K;
* quantiles of tau_K and exact summation of E m^tau_K from that law;
* exhaustive enumeration of every bernoulli trajectory for tiny K,
  with its exact probability, so estimator pipelines can be checked
  against closed-form conditional expectations path by path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .offspring import OffspringDistribution


def _tail_from_survival(s: float, K: int) -> float:
    """P(tau_K > n) = 1 - (1 - s)^K from the single-line survival s."""
    if s >= 1.0:
        return 1.0
    if s <= 0.0:
        return 0.0
    return -math.expm1(K * math.log1p(-s))


_MAX_GENERATIONS = 10_000_000


def _survival(dist: OffspringDistribution) -> Iterator[float]:
    """s_0 = 1, s_1, s_2, ...: P(a single line is alive at generation n).

    Iterates the complement map s -> 1 - f(1 - s), which stays accurate
    down to denormal survival probabilities where the plain fixed-point
    iteration of the generating function saturates one ulp short of 1.
    Raises RuntimeError when asked for more than ``_MAX_GENERATIONS``
    steps, so a sum that never meets its tolerance cannot loop forever.
    """
    s = 1.0
    for _ in range(_MAX_GENERATIONS + 1):
        yield s
        s = dist.pgf_complement(s)
    raise RuntimeError(f"survival iteration did not converge in {_MAX_GENERATIONS} generations")


def line_survival_probs(dist: OffspringDistribution, horizon: int) -> np.ndarray:
    """s_n = P(a single line is alive at generation n), n = 0..horizon."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return np.fromiter(itertools.islice(_survival(dist), horizon + 1), float, horizon + 1)


def extinction_cdf(dist: OffspringDistribution, K: int, horizon: int) -> np.ndarray:
    """P(tau_K <= n) for n = 0..horizon, exact for any offspring law."""
    if K < 0:
        raise ValueError(f"initial size must be >= 0, got {K}")
    if K == 0:
        return np.ones(horizon + 1)
    s = line_survival_probs(dist, horizon)
    with np.errstate(divide="ignore"):
        return np.exp(K * np.log1p(-np.minimum(s, 1.0)))


def tau_quantile(dist: OffspringDistribution, K: int, prob: float = 0.5) -> int:
    """Smallest n with P(tau_K <= n) >= prob (the median by default)."""
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    if K == 0:
        return 0
    if dist.mean >= 1.0:
        raise ValueError("quantiles need a strictly subcritical mean")
    for n, s in enumerate(_survival(dist)):
        if _tail_from_survival(s, K) <= 1.0 - prob:
            return n


def mean_m_tau(dist: OffspringDistribution, K: int, tol: float = 1e-15) -> float:
    """E[m^tau_K] by exact summation of m^n * P(tau_K = n), to a tail below
    ``tol`` relative to the sum: E[m^tau_K] is about C / K, so an absolute
    tol would let K E[m^tau_K] drift by up to K * tol."""
    m = dist.mean
    if not 0.0 < m < 1.0:
        raise ValueError(f"needs a strictly subcritical positive mean, got {m}")
    if K == 0:
        return 1.0
    total, power = 0.0, 1.0
    for s_prev, s in itertools.pairwise(_survival(dist)):
        power *= m
        total += power * (_tail_from_survival(s_prev, K) - _tail_from_survival(s, K))
        # remaining mass contributes at most m^{n+1} * P(tau > n)
        if power * m * _tail_from_survival(s, K) < tol * total:
            return total


@dataclass(frozen=True)
class EnumeratedPath:
    """One bernoulli trajectory with its exact probability."""

    sizes: tuple[int, ...]
    prob: float

    @property
    def extinct(self) -> bool:
        return self.sizes[-1] == 0

    @property
    def tau(self) -> int | None:
        return len(self.sizes) - 1 if self.extinct else None


def enumerate_bernoulli_paths(p: float, K: int, horizon: int) -> list[EnumeratedPath]:
    """Every trajectory of the bernoulli(p) process from K, with weights.

    Bernoulli offspring never branch, so trajectories are nonincreasing
    and the step law is binomial(X_n, p); the full tree is tiny for
    K <= 12 and horizon <= 6. Paths still alive at the horizon are
    returned censored (sizes end at a positive value); probabilities of
    the returned set sum to one.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if K < 0 or K > 16:
        raise ValueError(f"enumeration is for 0 <= K <= 16, got {K}")
    if not 1 <= horizon <= 8:
        raise ValueError(f"enumeration is for 1 <= horizon <= 8, got {horizon}")

    @lru_cache(maxsize=None)
    def binom_pmf(n: int, k: int) -> float:
        return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)

    out: list[EnumeratedPath] = []

    def recurse(sizes: tuple[int, ...], prob: float):
        x = sizes[-1]
        if x == 0 or len(sizes) - 1 == horizon:
            out.append(EnumeratedPath(sizes, prob))
            return
        for nxt in range(x + 1):
            recurse(sizes + (nxt,), prob * binom_pmf(x, nxt))

    if K == 0:
        return [EnumeratedPath((0,), 1.0)]
    recurse((K,), 1.0)
    return out
