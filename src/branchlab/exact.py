"""Exact small-case results used to calibrate the Monte Carlo estimators.

Everything here is deterministic arithmetic, no sampling:

* generating-function iteration gives the exact law of the extinction
  time for any offspring family — P(a single line is alive at n) obeys
  s_{n+1} = 1 - f(1 - s_n) with s_0 = 1, and K independent lines give
  P(tau_K <= n) = (1 - s_n)^K;
* quantiles of tau_K and exact summation of E m^tau_K from that law;
* the deterministic limits of the stopping times for offspring mean m:
  the scaling constant c = -1/log m (the extinction time is about
  c log K), the limit level index ell(a) = min{l: m^l <= a} of the
  hitting time of floor(a K), the step indicator
  chi_{n+1} = 1{m^{n+1} > a}, and warnings for levels on a power of m;
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


#: The most steps the survival iteration takes before it gives up.
MAX_GENERATIONS = 10_000_000


def oracle_steps(dist: OffspringDistribution, K: int) -> float:
    """About how many survival steps the oracles need from K, for 0 < m < 1:
    s_n <= m^n, so their sums and quantiles stop by n = (log K + 35) / -log m."""
    return (math.log(K) + 35) / -math.log(dist.mean)


def _survival(dist: OffspringDistribution) -> Iterator[float]:
    """s_0 = 1, s_1, s_2, ...: P(a single line is alive at generation n).

    Iterates the complement map s -> 1 - f(1 - s), which stays accurate
    down to denormal survival probabilities where the plain fixed-point
    iteration of the generating function saturates one ulp short of 1.
    Raises RuntimeError when asked for more than ``MAX_GENERATIONS``
    steps, so a sum that never meets its tolerance cannot loop forever.
    """
    s = 1.0
    for _ in range(MAX_GENERATIONS + 1):
        yield s
        s = dist.pgf_complement(s)
    raise RuntimeError(f"survival iteration did not converge in {MAX_GENERATIONS} generations")


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


class InvalidLevel(ValueError):
    """Level argument outside (0, 1)."""


def _subcritical(m: float) -> float:
    """``m`` itself; ValueError unless it is a subcritical mean in (0, 1)."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"offspring mean must be in (0, 1), got {m}")
    return m


def ell(m: float, a: float) -> int:
    """Smallest positive integer l with m^l <= a, for mean m.

    The log-ratio candidate ceil(log a / log m) can land one off when
    m^l sits within float error of a, so the candidate is fixed up by
    exact comparison against powers built by repeated multiplication.
    """
    _subcritical(m)
    if not 0.0 < a < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {a}")
    candidate = max(1, math.ceil(math.log(a) / math.log(m)))
    while _power(m, candidate) > a:
        candidate += 1
    while candidate > 1 and _power(m, candidate - 1) <= a:
        candidate -= 1
    return candidate


def chi(m: float, n: int, a: float) -> int:
    """Limit indicator of generation n surviving level a: 1{m^{n+1} > a}."""
    _subcritical(m)
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    if a < 0.0:
        raise InvalidLevel(f"level must be >= 0, got {a}")
    return 1 if _power(m, n + 1) > a else 0


def limit_constant(m: float) -> float:
    """Scaling constant c = -1/log m of the extinction-time law."""
    return -1.0 / math.log(_subcritical(m))


def boundary_warnings(
    m: float, levels, *, tol: float = 1e-6, max_l: int = 10_000
) -> list[str]:
    """Warn about levels sitting on a power of m.

    Convergence of hitting times to ell(a) is fragile when m^l == a for
    some small l (ties flip on sample noise), so configs are screened
    for |m^l - a| < tol.
    """
    out = []
    for a in levels:
        if not 0.0 < a < 1.0:
            continue
        power = 1.0
        for l in range(1, max_l + 1):
            power *= m
            if abs(power - a) < tol:
                out.append(
                    f"level a={a} is within {tol} of m^{l}={power}; "
                    "hitting-time limits are unstable at this boundary"
                )
                break
            if power < a - tol:
                break
    return out


def _power(m: float, l: int) -> float:
    # repeated multiplication: reproducible across platforms, exact
    # enough for the boundary fixup at l <= 10^4
    out = 1.0
    for _ in range(l):
        out *= m
    return out


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
