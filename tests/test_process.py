"""Trajectory and coupling tests, exact where possible, else statistical."""

from __future__ import annotations

import io
import math
from functools import partial

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hs

from test_offspring import SUBCRITICAL_SPECS, _chisquare_gof, _sum_law_pmf

from branchlab import estimators, process
from branchlab.estimators import _hist_rows, _tau_hist_batch, batch_layout
from branchlab.exact import extinction_cdf, tau_quantile
from branchlab.offspring import OffspringDistribution, make_distribution
from branchlab.process import (
    PathRecord,
    coupled_floors,
    coupled_record,
    coupled_step,
    csv_rows,
    default_horizon,
    floor_level,
    plain_batch,
    simulate_coupled,
    simulate_path,
    trajectory_header,
    trajectory_rows,
    write_trajectories,
)
from branchlab.randomness import RandomnessSource

BERN = make_distribution({"kind": "bernoulli", "p": 0.5})
POIS = make_distribution({"kind": "poisson", "lambda": 0.7})
ZERO = make_distribution({"kind": "pmf", "table": {"0": 1.0}})
FAMILIES = [make_distribution(spec) for spec in SUBCRITICAL_SPECS]


def test_step_of_zero_is_zero():
    gen = RandomnessSource(1).handle()
    floors = np.zeros(3, dtype=np.int64)
    sizes, flags = coupled_step(np.zeros((4, 3), dtype=np.int64), floors, BERN, gen)
    assert not sizes.any() and not flags.any()
    sizes, _ = coupled_step(np.full((4, 3), 100, dtype=np.int64), floors, ZERO, gen)
    assert not sizes.any()


def test_step_binomial_gof():
    """bernoulli(p) offspring: one step from K is exactly binomial(K, p)."""
    gen = RandomnessSource(17).handle()
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
    """Every column of one engine step is the exact sum law of its own size,
    on rows that hold the sizes 9, 16, 25 in ascending column order, so a
    running sum of gaps that lands on the wrong column shows as a wrong
    marginal."""
    gen = RandomnessSource(18).handle()
    base = np.array([9, 16, 25])
    n_rep = 20_000
    sizes, _ = coupled_step(np.tile(base, (n_rep, 1)), np.zeros(3, dtype=np.int64), dist, gen)
    for col, size in enumerate(base):
        draws = sizes[:, col]
        upper = int(size * dist.mean + 12 * math.sqrt(size * dist.variance)) + 10
        pmf, tail = _sum_law_pmf(dist, int(size), upper)
        stat, pvalue = _chisquare_gof(draws, pmf, tail)
        assert pvalue > 1e-3, f"size {size}: chi2={stat:.1f}, p={pvalue:.2e}"


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.kind)
def test_joint_law_of_prefix_sums(dist):
    """For s0 < s1: Cov(S(s0), S(s1)) = s0 sigma^2, and S(s1) - S(s0) is
    uncorrelated with S(s0); z-tests on one engine step of rows in
    ascending column order."""
    gen = RandomnessSource(19).handle()
    base = np.array([8, 14, 30])
    n_rep = 40_000
    S, _ = coupled_step(np.tile(base, (n_rep, 1)), np.zeros(3, dtype=np.int64), dist, gen)

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


def _sorting_step(sizes, floors, dist, gen):
    """The engine step as it was when rows came in any column order: sort
    each row, draw the gaps of the sorted sizes and scatter their running
    sums back to the columns."""
    if sizes.shape[1] > 1:
        order = np.argsort(sizes, axis=1)
        gaps = np.diff(np.sort(sizes, axis=1), axis=1, prepend=0)
        progeny = np.empty_like(sizes)
        progeny[np.arange(len(sizes))[:, None], order] = np.cumsum(
            dist.closure_sums(gaps, gen), axis=1)
    else:
        progeny = dist.closure_sums(sizes[:, 0], gen)[:, None]
    flags = progeny[:, 1:] > floors[1:]
    return (np.maximum(progeny, floors) if floors.any() else progeny), flags


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    family=hs.sampled_from(FAMILIES),
    paths=hs.sampled_from([1, 3, 70, 300]),
    cols=hs.integers(1, 4),
    top=hs.sampled_from([1, 4, 40, 3000]),
    zeros=hs.sampled_from([0.0, 0.5, 0.9]),
    seed=hs.integers(0, 2**16),
)
def test_step_on_ascending_rows_matches_the_sorting_step(family, paths, cols, top, zeros, seed):
    """On rows whose sizes do not decrease, with ties and zero gaps, and
    nondecreasing floors, coupled_step gives the sizes and flags of the
    sort-and-scatter step and leaves its generator at the same next draw;
    calls of 300 rows or more cross the 256-draw table rule."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, top + 1, (paths, cols)) * (rng.random((paths, cols)) >= zeros)
    sizes = np.cumsum(gaps, axis=1)
    floors = np.cumsum(rng.integers(0, top + 1, cols) * (rng.random(cols) >= zeros))
    floors[0] = 0
    gen, twin = RandomnessSource(seed).handle(), RandomnessSource(seed).handle()
    got, want = coupled_step(sizes, floors, family, gen), _sorting_step(sizes, floors, family, twin)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(gen.random(4), twin.random(4))


def test_step_refuses_a_decreasing_row():
    """A row whose sizes decrease raises ValueError before anything is drawn."""
    gen, twin = RandomnessSource(4).handle(), RandomnessSource(4).handle()
    sizes = np.array([[3, 5, 5], [2, 7, 6]])
    with pytest.raises(ValueError, match="do not decrease"):
        coupled_step(sizes, np.zeros(3, dtype=np.int64), BERN, gen)
    assert gen.random() == twin.random()


class _GapSpy:
    """Stands in for a law: closure_sums records the sizes it is given and
    returns them as their own progeny sums."""

    def __init__(self):
        self.seen = []

    def closure_sums(self, counts, gen):
        self.seen.append(np.array(counts))
        return np.array(counts)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    paths=hs.integers(1, 300),
    cols=hs.integers(1, 5),
    top=hs.sampled_from([1, 40, 3000]),
    fortran=hs.booleans(),
    seed=hs.integers(0, 2**16),
)
def test_step_draws_the_row_differences(paths, cols, top, fortran, seed):
    """coupled_step draws one progeny sum per gap, the gaps being
    np.diff(sizes, axis=1, prepend=0), in either memory order, and returns
    their running sums floored; a row made to decrease raises ValueError
    before anything is drawn."""
    rng = np.random.default_rng(seed)
    sizes = np.cumsum(rng.integers(0, top + 1, (paths, cols)), axis=1)
    floors = np.cumsum(rng.integers(0, top + 1, cols))
    floors[0] = 0
    layout = np.asfortranarray if fortran else np.ascontiguousarray
    spy = _GapSpy()
    stepped, flags = coupled_step(layout(sizes), floors, spy, None)
    gaps = spy.seen[0] if cols > 1 else spy.seen[0][:, None]
    assert np.array_equal(gaps, np.diff(sizes, axis=1, prepend=0))
    assert np.array_equal(stepped, np.maximum(sizes, floors))
    assert np.array_equal(flags, sizes[:, 1:] > floors[1:])
    if cols > 1:
        row, col = rng.integers(paths), rng.integers(1, cols)
        sizes[row, :col] += sizes[row, col] - sizes[row, col - 1] + 1
        with pytest.raises(ValueError, match="do not decrease"):
            coupled_step(layout(sizes), floors, spy, None)
        assert len(spy.seen) == 1


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
    [hist], censored, *_ = _tau_hist_batch(
        range(1), layout=[(0, paths)], seed=31, dist=dist, K=K, levels=[0.25, 0.5],
        horizon=horizon, dump=False,
    )
    assert censored == 0
    _assert_extinction_cdf(hist, dist, K, paths)


@pytest.mark.parametrize("runner", ["tau_hist", "simulate"])
@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.kind)
def test_plain_engine_extinction_law(dist, runner):
    """Extinction times of the plain batch engine follow exact.extinction_cdf,
    without the size matrix (extinction-scaling, and simulate without a dump)
    and with it (simulate writing trajectories), where each path's rows end
    at its extinction time."""
    K, paths = 12, 20_000
    horizon = default_horizon(K, dist.mean)
    dump = runner == "simulate"
    [hist], censored, text = _tau_hist_batch(range(1), seed=32 + dump, layout=[(0, paths)],
                                             dist=dist, K=K, horizon=horizon, dump=dump)
    assert censored == 0
    _assert_extinction_cdf(hist, dist, K, paths)
    if dump:
        rows = np.array([line.split(",") for line in text.splitlines()], dtype=np.int64)
        ends = rows[rows[:, 2] == 0]
        assert (ends[:, 0] == np.arange(paths)).all() and len(rows) == paths + ends[:, 1].sum()
        assert (np.bincount(ends[:, 1], minlength=hist.size) == hist).all()


def test_plain_batch_stop_rule_and_floor():
    """The engine stops after the first generation in which every path is 0;
    a floor keeps every path live, at or above the floor, until the horizon."""
    gen = RandomnessSource(4).handle()
    taus, rows, _, _ = plain_batch(3, 50, ZERO, gen, 10, rows=True)
    assert len(rows) == 2 and not rows[1].any() and (taus == 1).all()
    _, rows, _, _ = plain_batch(40, 50, BERN, gen, 30, rows=True)
    assert not rows[-1].any() and all(sizes.any() for sizes in rows[:-1])
    taus, rows, _, _ = plain_batch(40, 50, BERN, gen, 30, [6], rows=True)
    assert rows.shape == (31, 50, 1) and (rows >= 6).all() and (taus < 0).all()


def test_coupled_rows_stay_in_fortran_order_after_a_path_dies(monkeypatch):
    """With levels [0.0] every floor is 0, so paths die and are dropped
    generation after generation; every matrix that reaches coupled_step,
    the first and each one left after a compaction, is in Fortran order."""
    seen = []

    def spy(sizes, *args):
        seen.append((len(sizes), sizes.flags.f_contiguous))
        return coupled_step(sizes, *args)

    monkeypatch.setattr(process, "coupled_step", spy)
    gen = RandomnessSource(5).handle()
    taus, _, _, _ = plain_batch(40, 400, BERN, gen, 30, coupled_floors([0.0], 40), rows=True)
    assert (taus > 0).all()
    assert len({n for n, _ in seen}) > 3  # compacted several times
    assert all(fortran for _, fortran in seen)


def _full_width_sizes(K, paths, dist, gen, horizon, floor):
    """The engine without dropping dead paths: every path, every generation."""
    sizes, rows = np.full(paths, K, dtype=np.int64), []
    for _ in range(horizon):
        sizes = dist.closure_sums(sizes, gen)
        if floor:
            sizes = np.maximum(sizes, floor)
        rows.append(sizes)
        if not sizes.any():
            break
    return rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    family=hs.sampled_from(FAMILIES),
    K=hs.sampled_from([3, 40, 300]),
    paths=hs.sampled_from([50, 600]),
    floor=hs.sampled_from([0, 1, 5]),
    seed=hs.integers(0, 2**32),
)
def test_plain_batch_matches_full_width_loop(family, K, paths, floor, seed):
    """Scattered back to full width, the live-path engine gives the sizes of
    a loop that steps every path, and leaves the generator at the same
    draw. K and paths put sizes on both sides of the table limit C and the
    256-draw rule."""
    horizon = default_horizon(K, family.mean)
    ref_gen = RandomnessSource(seed).handle()
    gen = RandomnessSource(seed).handle()
    _, sizes, _, _ = plain_batch(K, paths, family, gen, horizon, [floor], rows=True)
    rows = sizes[1:, :, 0]
    ref = _full_width_sizes(K, paths, family, ref_gen, horizon, floor)
    assert len(rows) == len(ref)
    assert all((row == want).all() for row, want in zip(rows, ref))
    assert (gen.random(8) == ref_gen.random(8)).all()


def _stepped_as_rows(K, paths, dist, gen, horizon, floor):
    """Plain paths as one-column rows [X] through ``coupled_step``, dead
    rows dropped: their extinction times and (generations, paths) sizes."""
    floors = np.array([floor], dtype=np.int64)
    taus, live = np.full(paths, -1, dtype=np.int64), np.arange(paths)
    sizes, matrix = np.full((paths, 1), K, dtype=np.int64), [np.full(paths, K, dtype=np.int64)]
    for n in range(1, horizon + 1):
        sizes, flags = coupled_step(sizes, floors, dist, gen)
        assert flags.shape == (len(live), 0)
        matrix.append(np.zeros(paths, dtype=np.int64))
        matrix[-1][live] = sizes[:, 0]
        dead = sizes[:, 0] == 0
        taus[live[dead]] = n
        if dead.all():
            break
        live, sizes = live[~dead], sizes[~dead]
    return taus, np.stack(matrix)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    family=hs.sampled_from(FAMILIES),
    K=hs.sampled_from([3, 40, 300]),
    paths=hs.sampled_from([50, 600]),
    floor=hs.sampled_from([0, 1, 5]),
    cap=hs.sampled_from([None, 4]),
    rows=hs.booleans(),
    seed=hs.integers(0, 2**32),
)
def test_plain_batch_steps_plain_rows_as_coupled_step_does(family, K, paths, floor, cap, rows,
                                                           seed):
    """``plain_batch`` on plain rows gives the extinction times, the size
    matrix and the next draw of [X] rows stepped one generation at a time
    through ``coupled_step``, dead rows dropped. A floor keeps every path
    live to the horizon; a cap of 4 censors paths."""
    horizon = cap or default_horizon(K, family.mean)
    ref_gen = RandomnessSource(seed).handle()
    gen = RandomnessSource(seed).handle()
    taus, sizes, flags, bad = plain_batch(K, paths, family, gen, horizon, [floor], rows=rows)
    want_taus, want_sizes = _stepped_as_rows(K, paths, family, ref_gen, horizon, floor)
    assert (taus == want_taus).all() and bad == []
    if rows:
        assert sizes.shape == (*want_sizes.shape, 1) and (sizes[:, :, 0] == want_sizes).all()
        assert flags.shape == (len(want_sizes) - 1, paths, 0)
    else:
        assert sizes is None and flags is None
    assert (gen.random(8) == ref_gen.random(8)).all()


@pytest.mark.parametrize("cap", [6, None], ids=["censored", "extinct"])
@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.kind)
def test_plain_engine_draws_only_for_live_paths(monkeypatch, dist, cap):
    """No dead path reaches ``closure_sums``, there is one call per
    generation and none after the last path dies, and the rows drawn are
    the batch's live path-generations: tau for a path extinct at tau, the
    cap for a censored one. Plain paths draw one size per row, none of them
    0; coupled paths at level 0 draw their two gaps [X, 0] per row, and die
    with their base."""
    calls = []
    closure_sums = OffspringDistribution.closure_sums

    def spy(self, counts, gen):
        calls.append(np.array(counts))
        return closure_sums(self, counts, gen)

    monkeypatch.setattr(OffspringDistribution, "closure_sums", spy)
    cap = cap or default_horizon(40, dist.mean)
    for levels in ([], [0.0]):
        calls.clear()
        [hist], censored, *bad, _ = _tau_hist_batch(range(1), seed=8, layout=[(0, 500)],
                                                    dist=dist, K=40, horizon=cap, levels=levels)
        assert bad == ([0, 0, 0, 0] if levels else [])
        rows = [gaps.reshape(len(gaps), -1) for gaps in calls]
        assert all(row.shape[1] == 1 + len(levels) and row[:, 0].all() for row in rows)
        assert sum(map(len, rows)) == hist @ np.arange(hist.size) + censored * cap
        assert len(calls) == (cap if censored else hist.size - 1)
        assert (censored > 0) == (cap == 6)


def _reference_text(records) -> str:
    buf = io.StringIO()
    write_trajectories(records, buf)
    return buf.getvalue()


#: (K, first path, horizon) of each plain and coupled case, per law: each
#: horizon leaves some paths extinct and some alive. The wide cases have
#: sizes from 5 digits down to 1 and path ids that cross 99 -> 100.
_ROW_CASES = {
    "bernoulli": [(20, 3, 7), (99_990, 95, 18)],
    "pmf": [(20, 3, 7), (99_990, 95, 34)],
}
_COUPLED_CASES = {
    "bernoulli": [(20, [0.0, 0.15, 0.5], 7), (10_000, [0.0, 0.05, 0.3], 14), (20, [0.0], 40)],
    "pmf": [(20, [0.0, 0.15, 0.5], 7), (10_000, [0.0, 0.05, 0.3], 27), (20, [0.0], 40)],
}


@pytest.mark.parametrize("dist", [BERN, FAMILIES[-1]], ids=lambda d: d.kind)
def test_batch_rows_match_write_trajectories(dist):
    """The batch formatter writes the same bytes as write_trajectories for
    plain paths run on their closure streams, some extinct at different
    times and some censored at the horizon, and for coupled paths at levels
    that include 0, whose base dies out before the horizon in some paths and
    not in others; at K = 20 and at a K whose sizes and path ids cross
    powers of ten. The coupled reference steps every path to the horizon,
    and the formatter gets the engine's rows: at level 0 alone every path
    dies out well before the horizon, where the engine stops early and
    still keeps every generation."""
    for K, first, horizon in _ROW_CASES[dist.kind]:
        src = RandomnessSource(12)
        recs = [simulate_path(K, dist, src, p, horizon=horizon) for p in range(first, first + 30)]
        assert {rec.extinct for rec in recs} == {True, False}
        sizes = np.zeros((horizon + 1, len(recs), 1), dtype=np.int64)
        for i, rec in enumerate(recs):
            sizes[:len(rec.sizes), i, 0] = rec.sizes
        assert "path,n,X\n" + trajectory_rows(sizes, first) == _reference_text(recs)

    first = 95
    for K, levels, horizon in _COUPLED_CASES[dist.kind]:
        floors = coupled_floors(levels, K)
        gen = RandomnessSource(13).handle()
        rows, flags = [np.full((30, len(floors)), K, dtype=np.int64)], []
        for _ in range(horizon):
            step, flag = coupled_step(rows[-1], floors, dist, gen)
            rows.append(step)
            flags.append(flag)
        rows, flags = np.stack(rows), np.stack(flags)
        coupled = [coupled_record(K, levels, rows[:, i], flags[:, i], first + i) for i in range(30)]
        assert {rec.extinct for rec in coupled} == ({True} if levels == [0.0] else {True, False})
        assert rows[horizon - 1].any() == (levels != [0.0])
        _, sizes, marks, _ = plain_batch(K, 30, dist, RandomnessSource(13).handle(), horizon,
                                         floors, rows=True)
        text = trajectory_rows(sizes, first, floors, marks)
        assert trajectory_header(levels) + "\n" + text == _reference_text(coupled)


#: Values at every digit-count boundary, at the uint32 and 2^53 edges, and random ones.
_FIELDS = hs.one_of(
    hs.sampled_from([0, 2**32 - 1, 2**32, 2**53 - 1, 2**63 - 1]
                    + [10**k - 1 for k in range(1, 19)] + [10**k for k in range(1, 19)]),
    hs.integers(0, 2**63 - 1),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    table=hs.integers(1, 4).flatmap(lambda cols: hs.lists(
        hs.tuples(*[hs.tuples(_FIELDS, hs.booleans())] * cols), min_size=1, max_size=25)),
    masked=hs.lists(hs.booleans(), min_size=4, max_size=4),
    negative=hs.booleans(),
)
def test_csv_rows_writes_what_percent_d_writes(table, masked, negative):
    """csv_rows writes each row as its fields in "%d", joined by commas and
    ended by a newline, and leaves a cell empty where its column's blank mask
    is set; a column without a mask has no empty cell. A negative field
    raises ValueError."""
    cols = len(table[0])
    columns = [np.array([row[c][0] for row in table], dtype=np.int64) for c in range(cols)]
    blank = {c: np.array([row[c][1] for row in table]) for c in range(cols) if masked[c]}
    if negative:
        columns[-1][len(table) // 2] = -1 - columns[-1][len(table) // 2] // 2
        with pytest.raises(ValueError, match="nonnegative"):
            csv_rows(columns, blank)
        return
    expected = "".join(
        ",".join("" if c in blank and blank[c][j] else "%d" % columns[c][j]
                 for c in range(cols)) + "\n"
        for j in range(len(table)))
    assert csv_rows(columns, blank) == expected


def test_step_truncated_floor_and_precondition():
    """Truncated columns are floored at b = floor(a K) and never start a
    step below it; their indicator reads whether the sum beat the floor."""
    gen = RandomnessSource(2).handle()
    floors = coupled_floors([0.25, 0.5], 100)
    sizes, flags = coupled_step(np.full((3, 3), 100, dtype=np.int64), floors, ZERO, gen)
    assert (sizes == [0, 25, 50]).all() and not flags.any()
    sizes = np.full((500, 3), 100, dtype=np.int64)
    for _ in range(8):
        sizes, flags = coupled_step(sizes, floors, BERN, gen)
        assert (sizes >= floors).all()
        assert (flags == (sizes[:, 1:] > floors[1:])).all()


def test_step_truncated_at_level_zero_equals_step():
    gen = RandomnessSource(3).handle()
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


def _batched_hist(dist, K, paths, seed, horizon=None, levels=()):
    """The extinction-time histogram and censored count of ``paths`` paths
    from K, run as 40 batches through the batch worker and its stacks."""
    layout = batch_layout(paths, 40)
    fn = partial(_tau_hist_batch, seed=seed, layout=layout, dist=dist, K=K,
                 horizon=horizon or default_horizon(K, dist.mean), levels=levels)
    [parts] = estimators._run_stacks([fn], layout, 1)
    hists = [hist for part in parts for hist in part[0]]
    return _hist_rows(hists).sum(axis=0), sum(part[1] for part in parts)


def test_extinction_cdf_matches_closed_form():
    """bernoulli(m): P(tau <= n) = (1 - m^n)^K, independent lines."""
    K, paths = 10, 20_000
    hist, censored = _batched_hist(BERN, K, paths, 101)
    assert censored == 0
    for n in (1, 2, 3, 5, 8):
        target = (1.0 - 0.5**n) ** K
        se = math.sqrt(target * (1.0 - target) / paths)
        assert abs(hist[:n + 1].sum() / paths - target) < 4 * se, f"n={n}"


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
    """Plain paths and the base of coupled paths, each run as batches, have
    extinction times of one law."""
    plain, censored = _batched_hist(BERN, 64, 2000, 31)
    coupled, coupled_censored = _batched_hist(BERN, 64, 2000, 32, horizon=30, levels=[0.2, 0.5])
    assert censored == coupled_censored == 0
    taus_p, taus_c = (np.repeat(np.arange(hist.size), hist) for hist in (plain, coupled))
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
    [hist], censored, *bad, text = _tau_hist_batch(
        range(1), layout=[(0, count)], seed=3, dist=family, K=K, levels=levels,
        horizon=horizon, dump=True,
    )
    sandwich, *others = bad
    assert others == [0, 0, 0]
    assert sandwich == 0
    assert int(hist.sum()) + censored == count
    assert len(text.splitlines()) == count * (horizon + 1)


def test_violations_count_each_gate_and_are_none_when_clean():
    """Rows with floors [0, 2, 5]: a clean row with tied levels, X > X^(a),
    a wrong indicator, decreasing levels whose shifted size also exceeds X,
    which counts as a sandwich violation only when no individual has more
    than one child, and a level below its floor. Each gate gives its total
    over the rows; clean rows alone give None."""
    floors = np.array([0, 2, 5])
    sizes = np.array([[3, 5, 5], [4, 3, 5], [3, 3, 5], [1, 6, 5], [1, 1, 5]])
    flags = np.array([[True, False], [True, False], [False, False], [True, False],
                      [False, False]])
    for single_child, sandwich in [(False, [0, 1, 0, 0, 0]), (True, [0, 1, 0, 1, 0])]:
        found = process._violations(sizes, flags, floors, single_child)
        rows = [[s, f, i, m] for s, f, i, m in
                zip(sandwich, [0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0])]
        assert found.tolist() == np.sum(rows, axis=0).tolist()
        assert process._violations(sizes[:1], flags[:1], floors, single_child) is None
        found = process._violations(sizes[4:], flags[4:], floors, single_child)
        assert found.tolist() == [0, 1, 0, 0]


def _reference_violations(sizes, flags, floors, single_child):
    """The four gate totals counted outright, None when all are 0: the
    reference for _violations, which counts only once one test of every
    gate fires."""
    base, upper = sizes[:, :1], sizes[:, 1:]
    shifted = upper - floors[1:]
    gates = [((shifted > base) & single_child) | (base > upper), upper < floors[1:],
             flags != (shifted > 0), upper[:, 1:] < upper[:, :-1]]
    totals = np.array([np.count_nonzero(gate) for gate in gates])
    return totals if totals.any() else None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    paths=hs.integers(1, 50),
    levels=hs.integers(1, 4),
    single_child=hs.booleans(),
    gate=hs.sampled_from([None, 0, 1, 2, 3]),
    fortran=hs.booleans(),
    seed=hs.integers(0, 2**16),
)
def test_violations_equal_the_reference_when_each_gate_fires_alone(paths, levels, single_child,
                                                                    gate, fortran, seed):
    """On clean coupled rows no gate fires, and _violations gives None.
    One row is then mutated so that one gate alone fires: the sandwich
    (its base raised above a level, or, for a single-child law, dropped
    to 0 under a level's shifted size), the shift identity (the row cut
    below the last floor, flags kept true to the cut row), an indicator
    (one flag flipped) or level monotonicity (a level raised above the
    next, for a law with more than one child). _violations gives the
    reference's totals, in either memory order."""
    rng = np.random.default_rng(seed)
    floors = np.append(0, np.sort(rng.integers(1, 50, levels)))
    base = rng.integers(0, 100, (paths, 1))
    rise = np.minimum(np.cumsum(rng.integers(0, 30, (paths, levels)), axis=1), floors[1:])
    S = np.hstack([base, base + rise])  # S(X^(a)) - b_a <= S(X): clean for any law
    sizes, flags = np.maximum(S, floors), S[:, 1:] > floors[1:]
    assert _reference_violations(sizes, flags, floors, single_child) is None
    row = rng.integers(paths)
    if gate == 0 and single_child and (sizes[row, 1:] > floors[1:]).any() and rng.random() < 0.5:
        sizes[row, 0] = 0
    elif gate == 0:
        sizes[row, 0] = sizes[row, 1:].max() + 1
    elif gate == 1:
        sizes[row] = np.minimum(sizes[row], floors[-1] - 1)
        flags[row] = sizes[row, 1:] > floors[1:]
    elif gate == 2:
        flags[row, rng.integers(levels)] ^= True
    elif gate == 3 and levels > 1:
        single_child, col = False, rng.integers(2, levels + 1)
        sizes[row, col - 1] = sizes[row, col] + 1
        flags[row, col - 2] = True
    want = _reference_violations(sizes, flags, floors, single_child)
    if fortran:
        sizes, flags = np.asfortranarray(sizes), np.asfortranarray(flags)
    got = process._violations(sizes, flags, floors, single_child)
    if gate is None or (gate == 3 and levels == 1):
        assert want is None and got is None
    else:
        assert (want > 0).tolist() == [g == gate for g in range(4)]
        assert np.array_equal(got, want)


def test_plain_batch_adds_up_each_generations_violations(monkeypatch):
    """Each generation's violation totals add up over the stack: with a
    stand-in that finds one of each kind per live row, a stack reports its
    live path-generations four times over. At level 0 a row lives until its
    base dies, so that is the sum of its taus; the real gates find none."""
    K, horizon = 6, 40
    floors = coupled_floors([0.0], K)
    taus, _, _, bad = plain_batch(K, 8, BERN, RandomnessSource(24).handle(), horizon, floors)
    assert (taus > 0).all() and bad == [0] * 4
    monkeypatch.setattr(process, "_violations", lambda sizes, *_: np.full(4, len(sizes)))
    taus, _, _, bad = plain_batch(K, 8, BERN, RandomnessSource(24).handle(), horizon, floors)
    assert (taus > 0).all() and bad == [int(taus.sum())] * 4


def _layout(counts):
    """The layout whose batches hold ``counts`` paths."""
    return [(int(sum(counts[:b])), c) for b, c in enumerate(counts)]


def _assert_parts_equal(part, want):
    assert len(part) == len(want)
    for got, expected in zip(part, want):
        if isinstance(expected, list):  # a stack's per-batch histograms
            _assert_parts_equal(got, expected)
        elif isinstance(expected, np.ndarray):
            assert got.shape == expected.shape and np.array_equal(got, expected)
        else:
            assert got == expected


#: A stack budget small enough for a short layout to hold several stacks.
_BUDGET = 300

#: Paths per batch: stacks whose sizes fall on both sides of the 256-draw
#: table rule (coupled rows count every column as one size), and a batch
#: over the budget, which runs alone.
_COUNTS = hs.lists(hs.sampled_from([1, 7, 90, 256, 301]), min_size=1, max_size=8)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    family=hs.sampled_from(FAMILIES),
    counts=_COUNTS,
    tails=hs.tuples(_COUNTS, _COUNTS),
    K=hs.sampled_from([2, 40, 300]),
    horizon=hs.integers(1, 25),
    dump=hs.booleans(),
    levels=hs.one_of(hs.just([]),
                     hs.lists(_LEVEL, min_size=1, max_size=3, unique=True).map(sorted)),
)
def test_a_stacks_parts_do_not_depend_on_the_other_stacks(family, counts, tails, K, horizon,
                                                          dump, levels):
    """Run through ``_run_stacks`` among every stack of its layout, a stack
    gives the part ``_tau_hist_batch`` gives on it alone, plain or coupled:
    extinction times, violation counts and trajectory text. Two layouts that
    share their first batches and then differ (a batch at the budget ends
    the shared stacks in both) give the stacks of those shared batches the
    same parts. Short horizons leave paths censored."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_STACK_PATHS", _BUDGET)
        runs = []
        for tail in tails:
            layout = _layout(counts + [_BUDGET] + tail)
            fn = partial(_tau_hist_batch, seed=22, layout=layout, dist=family, K=K,
                         horizon=horizon, levels=levels, dump=dump)
            [parts] = estimators._run_stacks([fn], layout, 1)
            stacks = estimators._stacks(layout)
            alone = [fn(stack) for stack in stacks]
            assert len(parts) == len(alone) == len(stacks)
            assert [len(part[0]) for part in parts] == [len(stack) for stack in stacks]
            for part, want in zip(parts, alone):
                _assert_parts_equal(part, want)
            runs.append(parts)
        shared = len(estimators._stacks(_layout(counts)))
    for part, want in zip(*(parts[:shared] for parts in runs)):
        _assert_parts_equal(part, want)


def test_stacks_draw_from_distinct_streams(monkeypatch):
    """Stacks of one shape, and one stack at two slots, give different size
    rows: a stack draws from the handle stream of its first batch and its
    slot."""
    monkeypatch.setattr(estimators, "_STACK_PATHS", 40)
    layout = batch_layout(160, 8)
    stacks = estimators._stacks(layout)
    assert stacks == [range(b, b + 2) for b in range(0, 8, 2)]
    kw = dict(seed=5, layout=layout, dist=POIS, K=40, horizon=30, dump=True)

    def rows(stack, slot):  # the trajectory rows without their path numbers
        text = _tau_hist_batch(stack, slot=slot, **kw)[-1]
        return [line.split(",", 1)[1] for line in text.splitlines()]

    drawn = [rows(stack, 0) for stack in stacks] + [rows(stacks[0], 1)]
    assert all(a != b for i, a in enumerate(drawn) for b in drawn[i + 1:])


@pytest.mark.parametrize("levels", [[], [0.1, 0.5]], ids=["plain", "coupled"])
def test_a_one_batch_stack_draws_on_its_batchs_handle(levels):
    """A stack of one batch gives the part of ``plain_batch`` on that batch
    alone, fed by the batch's own handle stream at the slot."""
    layout, K, horizon, seed = batch_layout(90, 3), 40, 12, 6
    dist, floors = FAMILIES[0], coupled_floors(levels, K)
    for b, slot in [(0, 0), (2, 0), (1, 3)]:
        part = _tau_hist_batch(range(b, b + 1), seed=seed, layout=layout, dist=dist, K=K,
                               horizon=horizon, levels=levels, slot=slot, dump=True)
        gen = RandomnessSource(seed).handle(b, slot)
        taus, sizes, flags, bad = plain_batch(K, layout[b][1], dist, gen, horizon, floors,
                                              rows=True)
        want = ([np.bincount(taus[taus >= 0])], int(np.count_nonzero(taus < 0)), *bad,
                trajectory_rows(sizes, layout[b][0], floors, flags))
        _assert_parts_equal(part, want)


@pytest.mark.parametrize("levels", [[], [0.0, 0.2]], ids=["plain", "coupled"])
@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.kind)
def test_a_stacks_rows_join_its_batches_trimmed_rows(dist, levels):
    """The trajectory rows of a stack's size matrix are those of its batches'
    columns, each trimmed to the batch's last generation: its largest tau
    for a plain batch with no censored path, else the horizon. Plain rows
    stop at a path's first 0 and coupled rows keep every generation, so no
    trim changes a byte. The horizon leaves some paths censored, and some
    batches whose last path dies before it."""
    counts, K = [1, 7, 30, 3, 12, 40], 20
    horizon = tau_quantile(dist, K, 0.98)
    floors = coupled_floors(levels, K)
    trimmed = censored = False
    for seed in range(4):
        taus, sizes, flags, _ = plain_batch(K, sum(counts), dist, RandomnessSource(seed).handle(),
                                            horizon, floors, rows=True)
        pieces = []
        for start, count in _layout(counts):
            batch = slice(start, start + count)
            dies = (taus[batch] >= 0).all()
            last = int(taus[batch].max()) if dies and not levels else horizon
            trimmed |= dies and last < len(sizes) - 1
            pieces.append(trajectory_rows(sizes[:last + 1, batch], start, floors,
                                          flags[:last, batch]))
        censored |= bool((taus < 0).any())
        assert trajectory_rows(sizes, 0, floors, flags) == "".join(pieces)
    assert censored and trimmed == (not levels)


@pytest.mark.parametrize("dist", [BERN, POIS, FAMILIES[-1]], ids=lambda d: d.kind)
def test_each_generation_calls_closure_sums_once_on_the_live_gaps(monkeypatch, dist):
    """A generation of a stack is one ``closure_sums`` call: on the sizes of
    the rows alive before the step for plain rows, and on the gaps of their
    ascending sizes for coupled rows, in stack order. Batches of a stack that
    die out at different generations, some above the 256-draw rule, still
    make one call per generation until the last path dies."""
    calls = []
    closure_sums = OffspringDistribution.closure_sums

    def spy(self, counts, gen):
        calls.append(np.array(counts))
        return closure_sums(self, counts, gen)

    monkeypatch.setattr(OffspringDistribution, "closure_sums", spy)
    counts, K, horizon = [3, 400, 1, 260, 50], 30, 40
    for floors in (np.zeros(1, dtype=np.int64), coupled_floors([0.1, 0.5], K)):
        calls.clear()
        taus, sizes, _, _ = plain_batch(K, sum(counts), dist, RandomnessSource(23).handle(),
                                        horizon, floors, rows=True)
        for n in range(1, len(sizes)):
            rows = sizes[n - 1][sizes[n - 1][:, -1] > 0]  # alive before the step
            want = rows[:, 0] if len(floors) == 1 else np.diff(rows, axis=1, prepend=0)
            assert len(calls) >= n and calls[n - 1].shape == want.shape
            assert np.array_equal(calls[n - 1], want)
        assert len(calls) == len(sizes) - 1
        assert (taus >= 0).any() if len(floors) == 1 else len(calls) == horizon
    calls.clear()
    taus, _, _, _ = plain_batch(K, sum(counts), dist, RandomnessSource(23).handle(), horizon)
    parts = np.split(taus, np.cumsum(counts)[:-1])
    assert len({int(part.max()) for part in parts}) > 1
    assert len(calls) == (int(taus.max()) if (taus >= 0).all() else horizon)


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
