"""Trajectory and coupling tests, exact where possible, else statistical."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs

from test_offspring import SUBCRITICAL_SPECS, _chisquare_gof, _sum_law_pmf

from branchlab.estimators import _tau_hist_batch
from branchlab.exact import extinction_cdf
from branchlab.harness import _coupled_batch, _simulate_batch
from branchlab.offspring import make_distribution
from branchlab.process import (
    PathRecord,
    coupled_floors,
    coupled_step,
    default_horizon,
    floor_level,
    plain_sizes,
    plain_trajectory_rows,
    simulate_coupled,
    simulate_path,
    write_trajectories,
)
from branchlab.randomness import RandomnessSource

BERN = make_distribution({"kind": "bernoulli", "p": 0.5})
POIS = make_distribution({"kind": "poisson", "lambda": 0.7})
ZERO = make_distribution({"kind": "pmf", "table": {"0": 1.0}})
FAMILIES = [make_distribution(spec) for spec in SUBCRITICAL_SPECS]


def test_step_of_zero_is_zero():
    gen = RandomnessSource(1).handle().generator
    floors = np.zeros(3, dtype=np.int64)
    sizes, flags = coupled_step(np.zeros((4, 3), dtype=np.int64), floors, BERN, gen)
    assert not sizes.any() and not flags.any()
    sizes, _ = coupled_step(np.full((4, 3), 100, dtype=np.int64), floors, ZERO, gen)
    assert not sizes.any()


def test_step_binomial_gof():
    """bernoulli(p) offspring: one step from K is exactly binomial(K, p)."""
    gen = RandomnessSource(17).handle().generator
    K, n_rep = 50, 10_000
    floors = coupled_floors([0.2, 0.6], K)
    sizes, _ = coupled_step(np.full((n_rep, 3), K, dtype=np.int64), floors, BERN, gen)
    draws = sizes[:, 0]
    pmf = st.binom.pmf(np.arange(K + 1), K, 0.5)
    keep = pmf * n_rep >= 10
    observed = np.bincount(draws, minlength=K + 1)
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(pmf[keep], pmf[~keep].sum()) * n_rep
    assert st.chisquare(obs, exp).pvalue > 1e-3


@pytest.mark.parametrize("dist", FAMILIES[1:], ids=lambda d: d.kind)
def test_step_follows_closure_law(dist):
    """Every column of one engine step is the exact sum law of its own size.

    Rows hold the sizes 9, 16, 25 in shuffled column orders, so a gap
    scattered back to the wrong column shows as a wrong marginal.
    """
    rng = np.random.default_rng(5)
    gen = RandomnessSource(18).handle().generator
    base = np.array([9, 16, 25])
    n_rep = 20_000
    perms = np.argsort(rng.random((n_rep, 3)), axis=1)
    sizes, _ = coupled_step(base[perms], np.zeros(3, dtype=np.int64), dist, gen)
    for col, size in enumerate(base):
        draws = sizes[perms == col]
        upper = int(size * dist.mean + 12 * math.sqrt(size * dist.variance)) + 10
        pmf, tail = _sum_law_pmf(dist, int(size), upper)
        stat, pvalue = _chisquare_gof(draws, pmf, tail)
        assert pvalue > 1e-3, f"size {size}: chi2={stat:.1f}, p={pvalue:.2e}"


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.kind)
def test_joint_law_of_prefix_sums(dist):
    """For s0 < s1: Cov(S(s0), S(s1)) = s0 sigma^2, and S(s1) - S(s0) is
    uncorrelated with S(s0); z-tests on one engine step with shuffled
    column orders."""
    rng = np.random.default_rng(6)
    gen = RandomnessSource(19).handle().generator
    base = np.array([8, 14, 30])
    n_rep = 40_000
    perms = np.argsort(rng.random((n_rep, 3)), axis=1)
    sizes, _ = coupled_step(base[perms], np.zeros(3, dtype=np.int64), dist, gen)
    S = np.empty_like(sizes)
    np.put_along_axis(S, perms, sizes, axis=1)  # columns back in base order

    def z_cov(x, y, target):
        prod = (x - x.mean()) * (y - y.mean())
        return (prod.mean() - target) / (prod.std() / math.sqrt(len(prod)))

    for i, s0 in enumerate(base):
        mean = S[:, i].mean()
        se = math.sqrt(s0 * dist.variance / n_rep)
        assert abs(mean - s0 * dist.mean) < 4 * se, f"E S({s0})"
        for j in range(i + 1, len(base)):
            z = z_cov(S[:, i], S[:, j], s0 * dist.variance)
            assert abs(z) < 4, f"Cov(S({s0}), S({base[j]})): z = {z:.2f}"
            z = z_cov(S[:, i], S[:, j] - S[:, i], 0.0)
            assert abs(z) < 4, f"Cov(S({s0}), increment to {base[j]}): z = {z:.2f}"


def _assert_extinction_cdf(hist: np.ndarray, dist, K: int, paths: int) -> None:
    """z-gate the empirical extinction-time CDF of ``paths`` paths (``hist``
    counts extinctions by generation) against exact.extinction_cdf.

    The normal z holds where both tails expect >= 10 paths; beyond that one
    straggler alone would read |z| > 4. At least 5 generations are gated.
    """
    empirical = np.cumsum(hist) / paths
    exact = extinction_cdf(dist, K, len(hist) - 1)
    sel = np.minimum(exact, 1 - exact) * paths >= 10
    z = np.abs(empirical - exact)[sel] / np.sqrt(exact * (1 - exact) / paths)[sel]
    assert sel.sum() >= 5, f"only {sel.sum()} generations expect >= 10 paths in both tails"
    assert z.max() < 4, f"worst |z| = {z.max():.2f} at n = {int(np.flatnonzero(sel)[z.argmax()])}"


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.kind)
def test_coupled_base_extinction_law(dist):
    """The coupled base path's extinction times follow exact.extinction_cdf."""
    K, paths = 12, 20_000
    horizon = default_horizon(K, dist.mean)
    hist, censored, *_ = _coupled_batch(
        0, layout=[(0, paths)], seed=31, dist=dist, K=K, levels=[0.25, 0.5],
        horizon=horizon, dump=False,
    )
    assert censored == 0
    _assert_extinction_cdf(hist, dist, K, paths)


@pytest.mark.parametrize("runner", ["tau_hist", "simulate"])
@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.kind)
def test_plain_engine_extinction_law(dist, runner):
    """Extinction times of the plain batch engine, as the extinction-scaling
    and simulate kinds run it, follow exact.extinction_cdf."""
    K, paths = 12, 20_000
    horizon = default_horizon(K, dist.mean)
    if runner == "tau_hist":
        hist, censored = _tau_hist_batch(0, seed=32, layout=[(0, paths)], dist=dist, K=K,
                                         slot=0, cap=horizon)
    else:
        hist, censored, _ = _simulate_batch(0, layout=[(0, paths)], seed=33, dist=dist, K=K,
                                            horizon=horizon, dump=False)
    assert censored == 0
    _assert_extinction_cdf(hist, dist, K, paths)


def test_plain_sizes_stop_rule_and_floor():
    """The engine stops after the first all-zero generation; a floor keeps
    every size at or above it until the horizon."""
    gen = RandomnessSource(4).handle().generator
    rows = list(plain_sizes(3, 50, ZERO, gen, 10))
    assert len(rows) == 1 and not rows[0].any()
    rows = list(plain_sizes(40, 50, BERN, gen, 30))
    assert not rows[-1].any() and all(r.any() for r in rows[:-1])
    rows = list(plain_sizes(40, 50, BERN, gen, 30, floor=6))
    assert len(rows) == 30 and all((r >= 6).all() for r in rows)


@pytest.mark.parametrize("dist", [BERN, FAMILIES[-1]], ids=lambda d: d.kind)
def test_batch_rows_match_write_trajectories(dist):
    """The batch formatter writes the same bytes as write_trajectories for
    paths run on their closure streams, some extinct at different times and
    some censored at the horizon."""
    horizon, first = 7, 3
    src = RandomnessSource(12)
    recs = [simulate_path(20, dist, src, p, horizon=horizon) for p in range(first, first + 30)]
    assert {rec.extinct for rec in recs} == {True, False}
    sizes = np.zeros((horizon + 1, len(recs)), dtype=np.int64)
    for i, rec in enumerate(recs):
        sizes[:len(rec.sizes), i] = rec.sizes
    buf = io.StringIO()
    write_trajectories(recs, buf)
    assert "path,n,X\n" + plain_trajectory_rows(sizes, first) == buf.getvalue()


def test_step_truncated_floor_and_precondition():
    """Truncated columns are floored at b = floor(a K) and never start a
    step below it; their indicator reads whether the sum beat the floor."""
    gen = RandomnessSource(2).handle().generator
    floors = coupled_floors([0.25, 0.5], 100)
    sizes, flags = coupled_step(np.full((3, 3), 100, dtype=np.int64), floors, ZERO, gen)
    assert (sizes == [0, 25, 50]).all() and not flags.any()
    sizes = np.full((500, 3), 100, dtype=np.int64)
    for _ in range(8):
        sizes, flags = coupled_step(sizes, floors, BERN, gen)
        assert (sizes >= floors).all()
        assert (flags == (sizes[:, 1:] > floors[1:])).all()


def test_step_truncated_at_level_zero_equals_step():
    gen = RandomnessSource(3).handle().generator
    sizes = np.full((200, 3), 40, dtype=np.int64)
    floors = coupled_floors([0.0, 0.3], 40)
    for _ in range(6):
        sizes, _ = coupled_step(sizes, floors, POIS, gen)
        assert (sizes[:, 1] == sizes[:, 0]).all()


@pytest.mark.parametrize("a, K, expected", [
    (0.0, 100, 0),
    (0.25, 100, 25),
    (0.1, 100, 10),   # 0.1 * 100 is 9.999... in binary; guard keeps 10
    (0.5, 7, 3),
    (0.999, 1000, 999),
])
def test_floor_level(a, K, expected):
    assert floor_level(a, K) == expected


def test_simulate_path_from_zero():
    rec = simulate_path(0, BERN, RandomnessSource(0), 0)
    assert rec.sizes == [0] and rec.extinct and rec.extinction_time == 0
    assert not rec.horizon_exceeded


def test_simulate_path_absorbs_and_ends_at_zero():
    src = RandomnessSource(5)
    for path in range(50):
        rec = simulate_path(30, BERN, src, path)
        assert rec.sizes[0] == 30
        assert all(x >= 0 for x in rec.sizes)
        assert rec.extinct and rec.sizes[-1] == 0
        assert all(x > 0 for x in rec.sizes[:-1])  # single zero, at the end
        assert rec.extinction_time == len(rec.sizes) - 1


def test_extinction_cdf_matches_closed_form():
    """bernoulli(m): P(tau <= n) = (1 - m^n)^K, independent lines."""
    K, paths = 10, 20_000
    src = RandomnessSource(101)
    taus = np.array([simulate_path(K, BERN, src, p).extinction_time
                     for p in range(paths)])
    for n in (1, 2, 3, 5, 8):
        target = (1.0 - 0.5**n) ** K
        se = math.sqrt(target * (1.0 - target) / paths)
        assert abs((taus <= n).mean() - target) < 4 * se, f"n={n}"


def test_mean_law():
    """E X_n = K m^n; variance of X_n is exact for a one-step check."""
    K, n, paths = 1000, 5, 4000
    m, var = POIS.mean, POIS.variance
    src = RandomnessSource(55)
    finals = np.empty(paths)
    for p in range(paths):
        rec = simulate_path(K, POIS, src, p, horizon=n)
        finals[p] = rec.sizes[n] if len(rec.sizes) > n else 0
    target = K * m**n
    sd = math.sqrt(K * var * m ** (n - 1) * (1 - m**n) / (1 - m))
    assert abs(finals.mean() - target) < 4 * sd / math.sqrt(paths)


def test_simulate_path_and_coupled_base_share_law():
    taus_p = [simulate_path(64, BERN, RandomnessSource(31), p).extinction_time
              for p in range(2000)]
    taus_c = [simulate_coupled(64, BERN, [0.2, 0.5], RandomnessSource(32), p,
                               horizon=30).extinction_time
              for p in range(2000)]
    assert None not in taus_c
    assert st.ks_2samp(taus_p, taus_c).pvalue > 1e-3


def test_horizon_exceeded_reported_not_raised():
    rec = simulate_path(10_000, BERN, RandomnessSource(9), 0, horizon=2)
    assert rec.horizon_exceeded and not rec.extinct
    assert rec.extinction_time is None and len(rec.sizes) == 3


def test_default_horizon():
    assert default_horizon(1024, 0.5) == 10 * math.ceil(math.log(1024) / math.log(2))
    assert default_horizon(100, 0.0) == 10
    with pytest.raises(ValueError):
        default_horizon(100, 1.0)


def test_sandwich_holds_for_bernoulli_paths():
    """Y_n^(a) <= X_n <= X_n^(a) at every generation, every level."""
    src = RandomnessSource(202)
    levels = [0.05, 0.2, 0.5]
    for path in range(200):
        coup = simulate_coupled(100, BERN, levels, src, path, horizon=25)
        for a in levels:
            for n in range(coup.horizon + 1):
                assert coup.shifted[a][n] <= coup.base_sizes[n] <= coup.truncated[a][n]


def test_upper_bound_and_level_monotonicity_any_law():
    """X <= X^(a) and X^(a2) <= X^(a1) for a2 < a1 hold for any offspring law."""
    src = RandomnessSource(203)
    levels = [0.1, 0.3, 0.6]
    for path in range(100):
        coup = simulate_coupled(80, POIS, levels, src, path, horizon=25)
        for n in range(coup.horizon + 1):
            x = coup.base_sizes[n]
            sizes = [coup.truncated[a][n] for a in levels]
            assert all(x <= s for s in sizes)
            assert sizes == sorted(sizes)


def test_shift_identity_and_floor_invariant():
    src = RandomnessSource(204)
    coup = simulate_coupled(60, BERN, [0.25], src, 0, horizon=20)
    floor = coup.floors[0.25]
    assert floor == 15
    for n in range(coup.horizon + 1):
        assert coup.truncated[0.25][n] >= floor
        assert coup.shifted[0.25][n] == coup.truncated[0.25][n] - floor


def test_levels_coincide_before_decoupling():
    """For a2 < a1 all processes equal the base until X first dips to
    floor(a1*K)."""
    src = RandomnessSource(205)
    a1, a2 = 0.4, 0.1
    for path in range(100):
        coup = simulate_coupled(50, POIS, [a2, a1], src, path, horizon=25)
        hit = next(
            (n for n, x in enumerate(coup.base_sizes) if x <= coup.floors[a1]),
            coup.horizon + 1,
        )
        for n in range(min(hit, coup.horizon + 1)):
            assert coup.truncated[a1][n] == coup.truncated[a2][n] == coup.base_sizes[n]


def test_indicator_matches_shift_positivity():
    """I_n = 1{S(X_n^(a)) > floor}, which holds iff Y_{n+1} > 0."""
    src = RandomnessSource(206)
    a = 0.3
    for path in range(60):
        coup = simulate_coupled(40, BERN, [a], src, path, horizon=15)
        for n in range(coup.horizon):
            assert (coup.shifted[a][n + 1] > 0) == (coup.indicators[a][n] == 1)


_LEVEL = hs.floats(0.0, 0.95, allow_nan=False)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    family=hs.sampled_from(FAMILIES),
    K=hs.integers(1, 300),
    levels=hs.lists(_LEVEL, max_size=3),
    horizon=hs.integers(1, 30),
    path=hs.integers(0, 2**32),
)
def test_coupled_identities_hold_pathwise(family, K, levels, horizon, path):
    """Sandwich, shift identity, level monotonicity, agreement with the base
    until X first dips to a level's floor, and level 0 equal to the base.

    The lower half of the sandwich, Y^(a) <= X, needs offspring <= 1: the
    b individuals the truncated process has on top may have more than b
    children otherwise. The upper half holds for every law.
    """
    coup = simulate_coupled(K, family, [0.0, *levels], RandomnessSource(7), path, horizon)
    base = coup.base_sizes
    lines = family.single_child
    assert coup.truncated[0.0] == coup.shifted[0.0] == base
    previous = None
    for a in coup.levels:
        floor, upper, shifted = coup.floors[a], coup.truncated[a], coup.shifted[a]
        hit = next((n for n, x in enumerate(base) if x <= floor), len(base))
        assert upper[:hit] == base[:hit]
        for n in range(horizon + 1):
            assert base[n] <= upper[n] and (shifted[n] <= base[n] or not lines)
            assert shifted[n] + floor == upper[n] and upper[n] >= floor
            assert previous is None or previous[n] <= upper[n]
        assert coup.indicators[a] == [int(y > 0) for y in shifted[1:]]
        previous = upper


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    family=hs.sampled_from(FAMILIES),
    K=hs.integers(1, 300),
    levels=hs.lists(_LEVEL, min_size=1, max_size=3, unique=True).map(sorted),
    horizon=hs.integers(1, 30),
    count=hs.integers(1, 40),
)
def test_coupled_batch_counts_no_violations(family, K, levels, horizon, count):
    hist, censored, *bad, text = _coupled_batch(
        0, layout=[(0, count)], seed=3, dist=family, K=K, levels=levels,
        horizon=horizon, dump=True,
    )
    sandwich, *others = bad
    assert others == [0, 0, 0]
    assert sandwich == 0
    assert int(hist.sum()) + censored == count
    assert len(text.splitlines()) == count * (horizon + 1)


def test_level_zero_degenerates_to_base():
    src = RandomnessSource(207)
    coup = simulate_coupled(30, BERN, [0.0], src, 4, horizon=12)
    assert coup.truncated[0.0] == coup.base_sizes
    assert coup.shifted[0.0] == coup.base_sizes


def test_shifted_concentration():
    """Y_n^(a)/K concentrates at max(0, m^n - a): mean close, sd ~ K^{-1/2}."""
    dist = make_distribution({"kind": "poisson", "lambda": 0.6})
    K, a, paths = 4000, 0.2, 400
    src = RandomnessSource(208)
    ys = {n: [] for n in (1, 2, 6)}
    for path in range(paths):
        coup = simulate_coupled(K, dist, [a], src, path, horizon=7)
        for n in ys:
            ys[n].append(coup.shifted[a][n] / K)
    for n, vals in ys.items():
        vals = np.array(vals)
        target = max(0.0, 0.6**n - a)
        assert abs(vals.mean() - target) < 4 * vals.std() / math.sqrt(paths) + 1e-4
        assert vals.std() < 5 / math.sqrt(K)


def test_indicator_frequency_approaches_chi():
    """Frequency of I_n^(a) nears 1{m^{n+1} > a} away from the boundary."""
    dist = make_distribution({"kind": "poisson", "lambda": 0.6})
    K, a, paths = 4000, 0.2, 300
    src = RandomnessSource(209)
    freq = {1: 0, 5: 0}  # 0.6^2 = 0.36 > 0.2;  0.6^6 = 0.047 < 0.2
    for path in range(paths):
        coup = simulate_coupled(K, dist, [a], src, path, horizon=7)
        for n in freq:
            freq[n] += coup.indicators[a][n]
    assert freq[1] / paths > 0.99
    assert freq[5] / paths < 0.01


def test_write_trajectories_coupled_format():
    src = RandomnessSource(210)
    recs = [simulate_coupled(20, BERN, [0.25, 0.5], src, p, horizon=4)
            for p in range(2)]
    buf = io.StringIO()
    write_trajectories(recs, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ("path,n,X,Xa_0.2500,Ya_0.2500,I_0.2500,"
                        "Xa_0.5000,Ya_0.5000,I_0.5000")
    assert len(lines) == 1 + 2 * 5
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "20"]
    last_row = lines[5].split(",")
    assert last_row[1] == "4" and last_row[5] == "" and last_row[8] == ""
    mid_row = lines[2].split(",")
    assert mid_row[5] in {"0", "1"} and mid_row[8] in {"0", "1"}


def test_write_trajectories_plain_format():
    rec = PathRecord(initial_size=5, sizes=[5, 2, 0], extinct=True,
                     extinction_time=2, horizon_exceeded=False, path=3)
    buf = io.StringIO()
    write_trajectories([rec], buf)
    assert buf.getvalue() == "path,n,X\n3,0,5\n3,1,2\n3,2,0\n"


def test_write_trajectories_rejects_mixed_levels():
    src = RandomnessSource(211)
    a = simulate_coupled(10, BERN, [0.2], src, 0, horizon=3)
    b = simulate_coupled(10, BERN, [0.4], src, 1, horizon=3)
    with pytest.raises(ValueError):
        write_trajectories([a, b], io.StringIO())
