"""Stopping times and deterministic limit quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from branchlab.offspring import make_distribution
from branchlab.process import PathRecord, simulate_path
from branchlab.randomness import RandomnessSource
from branchlab.stopping import (
    InvalidLevel,
    LimitOracle,
    NeverHit,
    boundary_warnings,
    chi,
    ell,
    hitting_time,
    limit_constant,
)

BERN = make_distribution({"kind": "bernoulli", "p": 0.5})


def _record(sizes, extinct=True):
    tau = len(sizes) - 1 if extinct else None
    return PathRecord(sizes[0], list(sizes), extinct, tau, not extinct)


def test_extinction_time_median_against_cdf_oracle():
    """Sample median of tau matches the median of (1 - m^n)^K."""
    K, paths = 10, 20_000
    cdf = lambda n: (1.0 - 0.5**n) ** K
    exact_median = next(n for n in range(100) if cdf(n) >= 0.5)
    assert exact_median == 4  # 0.875^10 = 0.263, 0.9375^10 = 0.524
    src = RandomnessSource(301)
    records = [simulate_path(K, BERN, src, p) for p in range(paths)]
    assert all(rec.extinct for rec in records)
    taus = np.array([rec.extinction_time for rec in records])
    assert int(np.median(taus)) == exact_median


def test_hitting_time_scan_and_reduction_to_extinction():
    path = _record([100, 30, 9, 0])
    assert hitting_time(path, 0.1, 100) == 2
    assert hitting_time(path, 0.0, 100) == path.extinction_time == 3
    assert hitting_time(path, 0.5, 100) == 1
    # nonincreasing in a along one path
    hits = [hitting_time(path, a, 100) for a in (0.0, 0.05, 0.1, 0.3, 0.5)]
    assert hits == sorted(hits, reverse=True)


def test_hitting_time_never_hit():
    with pytest.raises(NeverHit):
        hitting_time(_record([100, 80], extinct=False), 0.1, 100)


def test_hitting_time_concentrates_at_ell():
    """P(tau_{a,K} = ell(a)) is near one at K = 10^5, m = 0.5, a = 0.1."""
    oracle = LimitOracle(0.5)
    target = ell(oracle, 0.1)
    src = RandomnessSource(302)
    paths = 300
    hits = sum(
        hitting_time(simulate_path(100_000, BERN, src, p, horizon=8), 0.1, 100_000)
        == target
        for p in range(paths)
    )
    assert hits / paths >= 0.95


@pytest.mark.parametrize("m, a, expected", [
    (0.5, 0.1, 4),     # 0.5^4 = 0.0625 <= 0.1 < 0.125
    (0.5, 0.99, 1),
    (0.5, 0.25, 2),    # boundary m^2 = a is inclusive
    (0.5, 0.5, 1),
    (0.9, 0.9000000001, 1),
    (0.9, 0.8999999999, 2),  # just under m itself
    (0.3, 0.027, 3),
])
def test_ell_values(m, a, expected):
    assert ell(LimitOracle(m), a) == expected


def test_ell_boundary_fixup_on_exact_powers():
    """When a is exactly m^k in floats, ell must return k, not k +- 1."""
    for m in (0.3, 0.5, 0.8, 0.9):
        power = 1.0
        for k in range(1, 60):
            power *= m
            assert ell(LimitOracle(m), power) == k, (m, k)


def test_ell_monotonicity():
    oracle = LimitOracle(0.6)
    grid = np.linspace(0.01, 0.99, 197)
    vals = [ell(oracle, a) for a in grid]
    assert all(x >= y for x, y in zip(vals, vals[1:]))  # nonincreasing in a
    for a in (0.05, 0.2, 0.7):
        by_m = [ell(LimitOracle(m), a) for m in (0.2, 0.4, 0.6, 0.8, 0.95)]
        assert all(x <= y for x, y in zip(by_m, by_m[1:]))  # nondecreasing in m


def test_ell_invalid_levels():
    oracle = LimitOracle(0.5)
    for a in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidLevel):
            ell(oracle, a)


def test_chi_values():
    oracle = LimitOracle(0.5)
    assert chi(oracle, 0, 0.4) == 1
    assert chi(oracle, 3, 0.4) == 0
    assert all(chi(oracle, n, 0.0) == 1 for n in range(80))


def test_chi_consistent_with_ell_exhaustively():
    """chi(n, a) = 1 exactly when n + 1 < ell(a), including boundaries."""
    for m in (0.3, 0.5, 0.8, 0.9):
        oracle = LimitOracle(m)
        levels = list(np.linspace(0.003, 0.997, 83))
        power = 1.0
        for k in range(1, 30):
            power *= m
            levels.append(power)  # exact-power boundaries
        for a in levels:
            l = ell(oracle, a)
            for n in range(64):
                assert chi(oracle, n, a) == (1 if n + 1 < l else 0), (m, a, n)


def test_limit_constant_values():
    assert limit_constant(LimitOracle(0.5)) == pytest.approx(1.4426950408889634)
    assert limit_constant(LimitOracle(1 / math.e)) == pytest.approx(1.0)
    assert limit_constant(LimitOracle(0.8)) == pytest.approx(4.481420931536456)


@pytest.mark.parametrize("m", [0.0, 1.0, 1.2, -0.5])
def test_limit_oracle_rejects_non_subcritical(m):
    with pytest.raises(ValueError):
        LimitOracle(m)


def test_boundary_warnings():
    assert boundary_warnings(0.5, [0.25]) != []
    assert boundary_warnings(0.5, [0.3]) == []
    assert boundary_warnings(0.5, [0.25 + 5e-7, 0.3]) != []
    assert boundary_warnings(0.5, [0.0, 0.3]) == []  # 0 is never a boundary
