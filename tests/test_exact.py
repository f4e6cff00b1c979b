"""The exact oracles themselves, cross-checked by independent arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from branchlab.exact import (
    EnumeratedPath,
    enumerate_bernoulli_paths,
    extinction_cdf,
    line_survival_probs,
    mean_m_tau,
    tau_quantile,
)
from branchlab.offspring import make_distribution

BERN = make_distribution({"kind": "bernoulli", "p": 0.5})
POIS = make_distribution({"kind": "poisson", "lambda": 0.7})
BINOM = make_distribution({"kind": "binomial", "n": 2, "p": 0.4})


def test_line_probs_bernoulli_closed_form():
    q = 1.0 - line_survival_probs(BERN, 30)
    np.testing.assert_allclose(q, 1.0 - 0.5 ** np.arange(31), rtol=0, atol=0)


def test_extinction_cdf_bernoulli_closed_form():
    cdf = extinction_cdf(BERN, 10, 20)
    expected = (1.0 - 0.5 ** np.arange(21)) ** 10
    np.testing.assert_allclose(cdf, expected, atol=1e-14)
    assert extinction_cdf(BERN, 0, 3).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_extinction_cdf_monotone_and_proper():
    for dist in (BERN, POIS):
        cdf = extinction_cdf(dist, 50, 200)
        assert cdf[0] == 0.0
        assert (np.diff(cdf) >= 0).all()
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_tau_quantile():
    assert tau_quantile(BERN, 10) == 4  # (1-2^-4)^10 = 0.524 first over 1/2
    assert tau_quantile(BERN, 10, prob=0.2) == 3
    assert tau_quantile(BERN, 0) == 0
    cdf = extinction_cdf(POIS, 1000, 100)
    expected = int(np.argmax(cdf >= 0.5))
    assert tau_quantile(POIS, 1000) == expected


def test_mean_m_tau_direct_summation():
    """E[m^tau] = sum over n of m^n (cdf_n - cdf_{n-1}), independently.

    E[m^tau] is about C / K, so the comparison is relative: at K = 10^12
    a tail cut at an absolute 1e-15 is off by parts in 10^4."""
    large = [(dist, K) for dist in (BINOM, BERN, POIS) for K in (10**8, 10**10, 10**12)]
    for dist, K in [(BERN, 10), (BERN, 100), (POIS, 25)] + large:
        m = dist.mean
        cdf = extinction_cdf(dist, K, 300)
        direct = float((m ** np.arange(1, 301) * np.diff(cdf)).sum())
        assert mean_m_tau(dist, K) == pytest.approx(direct, rel=1e-12, abs=0), (dist, K)


def test_mean_m_tau_known_value():
    # 10 * sum_n 0.5^n [(1 - 0.5^n)^10 - (1 - 0.5^{n-1})^10], summed longhand
    total = 0.0
    for n in range(1, 200):
        total += 0.5**n * ((1 - 0.5**n) ** 10 - (1 - 0.5 ** (n - 1)) ** 10)
    assert 10 * mean_m_tau(BERN, 10) == pytest.approx(10 * total, abs=1e-12)


def test_mean_m_tau_limit_direction():
    """K E[m^tau] approaches its limit from below and is near it by K=10^4."""
    vals = [K * mean_m_tau(BERN, K) for K in (100, 1000, 10_000)]
    assert vals == sorted(vals)
    limit = (1 - 0.5) / math.log(2)  # lim of K E[m^tau] for m = 0.5
    assert abs(vals[-1] - limit) < 0.01


def test_enumeration_probabilities_sum_to_one():
    paths = enumerate_bernoulli_paths(0.5, 6, 6)
    assert sum(p.prob for p in paths) == pytest.approx(1.0, abs=1e-12)
    for p in paths:
        sizes = p.sizes
        assert sizes[0] == 6
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))  # lines never branch
        if p.extinct:
            assert p.tau == len(sizes) - 1 and sizes[-1] == 0
        else:
            assert len(sizes) == 7 and sizes[-1] > 0 and p.tau is None


def test_enumeration_reproduces_extinction_cdf():
    K, horizon = 7, 6
    paths = enumerate_bernoulli_paths(0.5, K, horizon)
    cdf = extinction_cdf(BERN, K, horizon)
    for n in range(horizon + 1):
        mass = sum(p.prob for p in paths if p.extinct and p.tau <= n)
        assert mass == pytest.approx(cdf[n], abs=1e-12)


def test_enumeration_satisfies_thinning_mean():
    """E X_s = K m^s holds exactly on the enumerated ensemble (Wald)."""
    K, horizon = 9, 5
    paths = enumerate_bernoulli_paths(0.5, K, horizon)
    for s in range(horizon + 1):
        mean = sum(
            p.prob * (p.sizes[s] if s < len(p.sizes) else 0) for p in paths
        )
        assert mean == pytest.approx(K * 0.5**s, abs=1e-12)


def test_enumeration_conditional_mean_is_thinning():
    """E[X_{s+1} | X_s = x] = m x on the enumerated ensemble."""
    paths = enumerate_bernoulli_paths(0.4, 5, 4)
    s = 1
    for x in range(1, 6):
        num = sum(p.prob * p.sizes[s + 1] for p in paths
                  if len(p.sizes) > s + 1 and p.sizes[s] == x)
        den = sum(p.prob for p in paths
                  if len(p.sizes) > s + 1 and p.sizes[s] == x)
        if den > 0:
            assert num / den == pytest.approx(0.4 * x, abs=1e-12)


def test_enumeration_edge_cases_and_validation():
    assert enumerate_bernoulli_paths(0.5, 0, 3) == [EnumeratedPath((0,), 1.0)]
    with pytest.raises(ValueError):
        enumerate_bernoulli_paths(0.5, 20, 3)
    with pytest.raises(ValueError):
        enumerate_bernoulli_paths(0.5, 5, 0)
    with pytest.raises(ValueError):
        enumerate_bernoulli_paths(1.0, 5, 3)


def test_oracles_validate_inputs():
    with pytest.raises(ValueError):
        line_survival_probs(BERN, -1)
    with pytest.raises(ValueError):
        extinction_cdf(BERN, -2, 5)
    with pytest.raises(ValueError):
        tau_quantile(BERN, 10, prob=1.0)
    with pytest.raises(ValueError):
        mean_m_tau(make_distribution({"kind": "pmf", "table": {"0": 1.0}}), 5)
