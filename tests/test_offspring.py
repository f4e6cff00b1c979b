"""Offspring distribution tests against independent scipy oracles."""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

import branchlab

from branchlab.offspring import (
    _SUM_TABLE_CELLS,
    _SUM_TABLE_MAX_COUNT,
    _TAIL_MASS,
    InvalidParameter,
    NonNormalizedPMF,
    SupercriticalWithoutOverride,
    _sum_law_blocks,
    _sum_table,
    make_distribution,
)

SUBCRITICAL_SPECS = [
    {"kind": "bernoulli", "p": 0.6},
    {"kind": "binomial", "n": 3, "p": 0.25},
    {"kind": "poisson", "lambda": 0.8},
    {"kind": "geometric", "p": 0.45},
    {"kind": "pmf", "table": {"0": 0.5, "1": 0.3, "2": 0.2}},
]
#: A pmf whose support is wide enough to lower the number of tabulated sizes.
WIDE_PMF = {"kind": "pmf", "table": {"0": 0.99, "50": 0.01}}
TABLE_SPECS = SUBCRITICAL_SPECS + [WIDE_PMF]
TABLE_IDS = [s["kind"] for s in SUBCRITICAL_SPECS] + ["pmf-wide"]


def _oracle_pmf(spec, k):
    """Reference pmf from scipy (conventions independent of our code)."""
    kind = spec["kind"]
    if kind == "bernoulli":
        return st.bernoulli.pmf(k, spec["p"])
    if kind == "binomial":
        return st.binom.pmf(k, spec["n"], spec["p"])
    if kind == "poisson":
        return st.poisson.pmf(k, spec["lambda"])
    if kind == "geometric":
        # our convention: P(k) = (1-p) p^k for k >= 0
        return (1.0 - spec["p"]) * spec["p"] ** k
    table = spec["table"]
    if np.isscalar(k):
        return table.get(str(int(k)), 0.0)
    return np.array([table.get(str(int(x)), 0.0) for x in k])


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_moments_match_oracle(spec):
    kind = spec["kind"]
    dist = make_distribution(spec)
    ks = np.arange(200)
    pmf = np.asarray(_oracle_pmf(spec, ks), dtype=float)
    mean = float((ks * pmf).sum())
    var = float((ks**2 * pmf).sum()) - mean**2
    assert dist.mean == pytest.approx(mean, abs=1e-12), kind
    assert dist.variance == pytest.approx(var, abs=1e-10), kind
    assert dist.std == pytest.approx(math.sqrt(var), abs=1e-10)


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_inverse_cdf_recovers_pmf(spec):
    """A fine uniform grid pushed through inverse_cdf reproduces the pmf."""
    dist = make_distribution(spec)
    n = 400_001
    u = (np.arange(n) + 0.5) / n
    draws = dist.inverse_cdf(u)
    assert draws.dtype == np.int64
    assert (np.diff(draws) >= 0).all()  # quantile function is monotone
    for k in range(int(draws.max()) + 1):
        frac = (draws == k).mean()
        assert frac == pytest.approx(float(_oracle_pmf(spec, k)), abs=2.0 / n)


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_empirical_mean_five_sigma(spec):
    dist = make_distribution(spec)
    rng = np.random.default_rng(1234)
    n = 1_000_000
    draws = dist.inverse_cdf(rng.random(n))
    se = dist.std / math.sqrt(n)
    assert abs(draws.mean() - dist.mean) < 5 * se
    # variance check is looser: 4th-moment driven standard error
    s4 = ((draws - draws.mean()) ** 4).mean()
    var_se = math.sqrt(max(s4 - dist.variance**2, 0.0) / n)
    assert abs(draws.var() - dist.variance) < 5 * var_se + 1e-9


def _chisquare_gof(draws, pmf, tail):
    """Chi-square GOF of ``draws`` against ``pmf`` on 0..len(pmf)-1.

    ``tail`` is the law's mass above that range. Bins holding >= 20
    expected counts are tested one by one; the others and the tail are
    lumped into a rest bin. Its expected mass is summed directly, since
    1 minus the kept mass can cancel to exactly 0 and then chisquare
    divides 0 by 0. A rest bin of zero mass is left out of the test, and
    no draw may fall in it.
    """
    n = len(draws)
    upper = len(pmf) - 1
    observed = np.bincount(draws, minlength=upper + 1)[: upper + 1]
    keep = pmf * n >= 20
    obs, exp = observed[keep], pmf[keep] * n
    rest_obs = observed[~keep].sum() + (draws > upper).sum()
    rest_mass = pmf[~keep].sum() + tail
    if rest_mass > 0:
        obs, exp = np.append(obs, rest_obs), np.append(exp, rest_mass * n)
    else:
        assert rest_obs == 0, f"{rest_obs} draws outside the law's support"
    return st.chisquare(obs, exp)


def _sum_law_pmf(dist, size: int, upper: int) -> tuple[np.ndarray, float]:
    """Exact pmf on 0..upper of the sum of ``size`` offspring, and the mass above."""
    ks = np.arange(upper + 1)
    p = dist.params.get("p")
    if dist.kind == "bernoulli":
        law = st.binom(size, p)
    elif dist.kind == "binomial":
        law = st.binom(size * dist.params["n"], p)
    elif dist.kind == "poisson":
        law = st.poisson(size * dist.params["lambda"])
    elif dist.kind == "geometric":
        law = st.nbinom(size, 1.0 - p)
    else:
        one = np.zeros(max(dist.params["table"]) + 1)
        for k, w in dist.params["table"].items():
            one[k] = w
        pmf = np.array([1.0])
        for _ in range(size):
            pmf = np.convolve(pmf, one)
        pmf = np.append(pmf, np.zeros(max(0, upper + 1 - len(pmf))))
        return pmf[: upper + 1], float(pmf[upper + 1:].sum())
    return law.pmf(ks), float(law.sf(upper))


@pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["1", "C-1", "C", "C+1"])
@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_closure_sums_follow_sum_law_across_table_limit(spec, offset):
    """Sums of 1, C-1 and C individuals (the table path) and of C+1 (the
    named sampler) follow the exact law of the sum; C is the law's number
    of tabulated sizes."""
    dist = make_distribution(spec)
    limit = _sum_table(dist).max_count
    size = 1 if offset is None else limit + offset
    draws = dist.closure_sums(np.full(60_000, size), np.random.default_rng(41))
    upper = int(size * dist.mean + 12 * math.sqrt(size * dist.variance)) + 10
    pmf, tail = _sum_law_pmf(dist, size, upper)
    stat, pvalue = _chisquare_gof(draws, pmf, tail)
    assert pvalue > 1e-3, f"size {size}: chi2={stat:.1f}, p={pvalue:.2e}"


def test_closure_sums_keep_the_input_shape():
    """A (paths, 1+L) matrix of gaps, as coupled_step passes it for rows
    with levels, comes back as a matrix of sums of the same shape, on the
    table path and on the named sampler alike."""
    dist = make_distribution({"kind": "binomial", "n": 3, "p": 0.25})
    rng = np.random.default_rng(3)
    for paths in (4, 400):
        sizes = rng.integers(0, 260, (paths, 3))
        sums = dist.closure_sums(sizes, rng)
        assert sums.shape == sizes.shape and sums.dtype == np.int64
        assert not sums[sizes == 0].any()
        assert (sums <= 3 * sizes).all()


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_closure_sums_without_masks_draw_as_the_table_or_the_sampler(spec):
    """A call of at least 256 sizes that all lie in 1..C, C the law's number
    of tabulated sizes, draws what the table draws on them in array order,
    and a call with every size above C, or above C and 0, what the named
    sampler draws; each leaves its generator where a twin generator that
    ran the table or the sampler alone is left. A call of 255 sizes in
    1..C uses the sampler."""
    dist = make_distribution(spec)
    table = _sum_table(dist)
    rng = np.random.default_rng(12)
    for shape in [(256,), (300,), (100, 3)]:
        small = rng.integers(1, table.max_count + 1, shape)
        large = small + table.max_count
        for counts, draw in [(small, lambda c, g: table.draw(c.ravel(), g).reshape(c.shape)),
                             (large, dist._named_sums),
                             (large * (rng.random(shape) < 0.5), dist._named_sums),
                             (small.ravel()[:255], dist._named_sums)]:
            gen, twin = np.random.default_rng(13), np.random.default_rng(13)
            assert np.array_equal(dist.closure_sums(counts, gen), draw(counts, twin))
            assert gen.random() == twin.random()


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` returns given uniforms."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, n: int) -> np.ndarray:
        assert n == len(self.u)
        return self.u


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_sum_table_draw_inverts_each_row(spec):
    """The guide-table draw returns, for every size c and uniform u, the
    first cell of row c whose cumulative weight exceeds u, as a plain
    search of the row finds it: on random uniforms, and on every
    cumulative weight of a row and the float just below it."""
    table = _sum_table(make_distribution(spec))
    edges = np.append(table.guide[table.guide_start[1:]], len(table.cdf))
    rng = np.random.default_rng(4)
    counts = rng.integers(1, table.max_count + 1, 50_000)
    u = rng.random(len(counts))
    for c in (1, table.max_count // 2, table.max_count):
        cdf = table.cdf[edges[c - 1]:edges[c]]
        near = np.concatenate([cdf, np.nextafter(cdf, 0.0), [0.0]])
        counts = np.append(counts, np.full(np.count_nonzero(near < 1.0), c))
        u = np.append(u, near[near < 1.0])
    expected = np.empty_like(counts)
    for c in np.unique(counts):
        at = counts == c
        cdf = table.cdf[edges[c - 1]:edges[c]]
        expected[at] = table.offset[c] + edges[c - 1] + np.searchsorted(cdf, u[at], side="right")
    assert (table.draw(counts, _FixedUniforms(u)) == expected).all()


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=TABLE_IDS)
def test_zero_sizes_draw_nothing(spec):
    """Sizes of 0 consume no randomness: an all-zero input leaves the
    generator as it was, and zeros inserted between sizes leave the draws
    of the other sizes unchanged, for a call too small for the table and
    one that uses it."""
    dist = make_distribution(spec)
    gen = np.random.default_rng(8)
    state = gen.bit_generator.state
    for paths in (5, 1000):
        assert not dist.closure_sums(np.zeros((paths, 3), dtype=np.int64), gen).any()
    assert gen.bit_generator.state == state
    for n in (8, 2000):
        sizes = np.random.default_rng(n).integers(1, 300, n)
        padded = np.zeros(3 * n, dtype=np.int64)
        padded[1::3] = sizes
        plain = dist.closure_sums(sizes, np.random.default_rng(9))
        spaced = dist.closure_sums(padded, np.random.default_rng(9))
        assert (spaced[1::3] == plain).all()
        assert not spaced[padded == 0].any()


#: pmfs on {0, top} whose supports are wide enough to lower the number of
#: tabulated sizes, and too wide for even one row.
WIDE_TOPS, TOO_WIDE_TOPS = (50, 1000), (10**6, 10**12)


def test_law_hash_is_kept_but_not_pickled():
    """Equal laws hash alike however they were built, and the hash is kept on
    the law. A pickled law carries no hash: in a process with another string
    hash seed, as under a spawn start method, an unpickled law hashes like
    one built there and finds the same sum table."""
    law = make_distribution({"kind": "pmf", "table": {"0": 0.5, "2": 0.2, "1": 0.3}})
    same = make_distribution({"kind": "pmf", "table": {1: 0.3, 0: 0.5, 2: 0.2}})
    assert law == same and hash(law) == hash(same) and law._hash == hash(law)
    for spec in SUBCRITICAL_SPECS:
        assert hash(make_distribution(spec)) == hash(make_distribution(json.loads(json.dumps(spec))))
    blob = pickle.dumps(law)
    assert pickle.loads(blob)._hash is None
    code = ("import pickle, sys; from branchlab.offspring import make_distribution, _sum_table; "
            "law = pickle.loads(sys.stdin.buffer.read()); "
            "built = make_distribution({'kind': 'pmf', 'table': {0: 0.5, 1: 0.3, 2: 0.2}}); "
            "print(hash(law) == hash(built), _sum_table(law) is _sum_table(built), hash('pmf'))")
    env = {**os.environ, "PYTHONPATH": str(Path(branchlab.__file__).resolve().parents[1])}
    seen = set()
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code], input=blob, capture_output=True,
                             env={**env, "PYTHONHASHSEED": seed}, check=True)
        equal, shared, string_hash = out.stdout.decode().split()
        assert equal == shared == "True"
        seen.add(string_hash)
    assert len(seen) == 2  # the string hash seed does change string hashes


def _two_point(top):
    return make_distribution({"kind": "pmf", "table": {0: 1 - 0.5 / top, top: 0.5 / top}})


def test_sum_table_stays_within_its_cell_budget():
    """Every law's table fits the cell budget and tabulates at least 128
    sizes; a wide support gets fewer, and a support too wide for one row
    gets none."""
    for spec in SUBCRITICAL_SPECS:
        table = _sum_table(make_distribution(spec))
        assert 128 <= table.max_count <= _SUM_TABLE_MAX_COUNT
        assert len(table.cdf) <= _SUM_TABLE_CELLS
    for top in WIDE_TOPS:
        table = _sum_table(_two_point(top))
        assert 1 < table.max_count < 128
        assert len(table.cdf) <= _SUM_TABLE_CELLS
    for top in TOO_WIDE_TOPS:
        huge = _two_point(top)
        assert _sum_table(huge) is None
        sums = huge.closure_sums(np.array([0, 1, 3, 1000]), np.random.default_rng(2))
        assert sums[0] == 0 and (sums % top == 0).all()


@pytest.mark.parametrize("dist", [make_distribution(s) for s in TABLE_SPECS]
                         + [_two_point(top) for top in (*WIDE_TOPS, 5000)],
                         ids=TABLE_IDS + [f"pmf-0-{top}" for top in (*WIDE_TOPS, 5000)])
def test_sum_tables_build_fast(dist):
    """Every table builds in under 10 ms, the wide pmfs' too (a pmf on
    {0, 5000} fits one row): the work bound stops the rows a wide pmf would
    take long to convolve. The best of five builds leaves out the pauses of
    a shared machine."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _sum_table.__wrapped__(dist)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.010, f"best build {min(times) * 1e3:.1f} ms"


def _sum_law_rows(dist, sizes):
    """Row c of the law's sum table for each c in ``sizes``, before the
    table normalizes it: (the sum value of its first cell, its masses)."""
    rows, count = {}, 0
    for start, block, _, lo, hi in _sum_law_blocks(dist):
        for i in range(len(block)):
            if count + i + 1 in sizes:
                rows[count + i + 1] = (start + lo[i], block[i, lo[i]:hi[i]])
        count += len(block)
    return rows


def _exact_sum_law(dist, size, values):
    """The exact pmf of the sum of ``size`` offspring on ``values``, and the
    mass below and above them."""
    p = dist.params.get("p")
    law = {"bernoulli": lambda: st.binom(size, p),
           "binomial": lambda: st.binom(size * dist.params.get("n", 1), p),
           "poisson": lambda: st.poisson(size * dist.params.get("lambda", 0.0)),
           "geometric": lambda: st.nbinom(size, 1.0 - (p or 0.0))}.get(dist.kind)
    lo, hi = int(values[0]), int(values[-1])
    if law is not None:
        law = law()
        return law.pmf(values), float(law.cdf(lo - 1)), float(law.sf(hi))
    one = np.zeros(max(dist.params["table"]) + 1)
    for k, w in dist.params["table"].items():
        one[k] = w
    pmf = np.array([1.0])
    for _ in range(size):
        pmf = np.convolve(pmf, one)
    return pmf[values], float(pmf[:lo].sum()), float(pmf[hi + 1:].sum())


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_sum_table_rows_match_exact_laws(spec):
    """Rows 129, C/2 and C of the sum table are the exact laws of the sum:
    every cell carrying 1e-12 or more within 1e-12 of itself, less than
    2^-53 cut off on each side, and the table's cumulative weights those
    of the row."""
    dist = make_distribution(spec)
    table = _sum_table(dist)
    sizes = {129, table.max_count // 2, table.max_count}
    for c, (first, mass) in _sum_law_rows(dist, sizes).items():
        values = first + np.arange(len(mass))
        exact, below, above = _exact_sum_law(dist, c, values)
        big = exact >= 1e-12
        assert np.abs(mass[big] / exact[big] - 1).max() < 1e-12, f"row {c}"
        assert below < _TAIL_MASS and above < _TAIL_MASS, f"row {c}: cut {below:.2e}, {above:.2e}"
        cdf = table.cdf[values - table.offset[c]]
        assert np.abs(cdf - np.cumsum(mass) / mass.sum()).max() < 1e-15, f"row {c}"


def test_geometric_sum_table_builds_fast():
    """geometric has unbounded support; its rows are cut where the tail
    mass drops below 2^-53, so the table builds in a few milliseconds."""
    dist = make_distribution({"kind": "geometric", "p": 0.45})
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _sum_table.__wrapped__(dist)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.010, f"best build {min(times) * 1e3:.1f} ms"


@pytest.mark.parametrize(
    "spec, count, sum_law",
    [
        ({"kind": "bernoulli", "p": 0.6}, 7, lambda: st.binom(7, 0.6)),
        ({"kind": "binomial", "n": 3, "p": 0.25}, 5, lambda: st.binom(15, 0.25)),
        ({"kind": "poisson", "lambda": 0.8}, 9, lambda: st.poisson(7.2)),
        ({"kind": "geometric", "p": 0.45}, 6, lambda: st.nbinom(6, 0.55)),
    ],
    ids=["bernoulli", "binomial", "poisson", "geometric"],
)
def test_closure_draw_matches_exact_sum_law(spec, count, sum_law):
    """Closure sampling follows the known closed-form law of the sum."""
    dist = make_distribution(spec)
    law = sum_law()
    rng = np.random.default_rng(99)
    n = 60_000
    draws = np.array([dist.sample_sum(count, rng) for _ in range(n)])
    upper = int(law.ppf(1.0 - 1e-6)) + 1
    pmf = law.pmf(np.arange(upper + 1))
    stat, pvalue = _chisquare_gof(draws, pmf, law.sf(upper))
    assert pvalue > 1e-3, f"chi2={stat:.1f}, p={pvalue:.2e}"


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_direct_summation_agrees_with_closure(spec):
    """Summing individual inverse-CDF draws gives the closure sum's law."""
    dist = make_distribution(spec)
    rng = np.random.default_rng(7)
    count = 8
    a = dist.inverse_cdf(rng.random((30_000, count))).sum(axis=1)
    b = np.array([dist.sample_sum(count, rng) for _ in range(30_000)])
    se = dist.std * math.sqrt(2 * count / 30_000)
    assert abs(a.mean() - b.mean()) < 5 * se
    assert st.ks_2samp(a, b).pvalue > 1e-3


def test_pmf_closure_matches_exact_convolution():
    """Table closure sums follow the exact n-fold convolution law."""
    dist = make_distribution({"kind": "pmf",
                              "table": {"0": 0.5, "1": 0.3, "2": 0.2}})
    count, n = 7, 60_000
    law = np.array([0.5, 0.3, 0.2])
    for _ in range(count - 1):
        law = np.convolve(law, [0.5, 0.3, 0.2])
    rng = np.random.default_rng(23)
    draws = dist.closure_sums(np.full(n, count), rng)
    stat, pvalue = _chisquare_gof(draws, law, 0.0)
    assert pvalue > 1e-3, f"chi2={stat:.1f}, p={pvalue:.2e}"


def test_closure_sums_vectorized_matches_scalar_law():
    dist = make_distribution({"kind": "geometric", "p": 0.45})
    rng = np.random.default_rng(11)
    counts = np.array([0, 3, 0, 5, 1, 0, 12])
    sums = np.vstack([dist.closure_sums(counts, rng) for _ in range(40_000)])
    assert (sums[:, counts == 0] == 0).all()
    exp_mean = counts * dist.mean
    exp_se = np.sqrt(counts * dist.variance / len(sums))
    nonzero = counts > 0
    assert (np.abs(sums.mean(0) - exp_mean)[nonzero] < 5 * exp_se[nonzero]).all()


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_pgf_matches_series(spec):
    dist = make_distribution(spec)
    ks = np.arange(400)
    pmf = np.asarray(_oracle_pmf(spec, ks), dtype=float)
    for s in (0.0, 0.3, 0.77, 1.0):
        assert dist.pgf(s) == pytest.approx(float((pmf * s**ks).sum()), abs=1e-12)
    # pgf'(1) = mean, via central difference
    h = 1e-6
    deriv = (dist.pgf(1.0) - dist.pgf(1.0 - h)) / h
    assert deriv == pytest.approx(dist.mean, abs=1e-4)


@pytest.mark.parametrize("spec, expected", [
    ({"kind": "bernoulli", "p": 0.6}, True),
    ({"kind": "binomial", "n": 1, "p": 0.3}, True),
    ({"kind": "binomial", "n": 3, "p": 0.25}, False),
    ({"kind": "pmf", "table": {"0": 0.4, "1": 0.6}}, True),
    ({"kind": "pmf", "table": {"0": 0.5, "1": 0.3, "2": 0.2}}, False),
    ({"kind": "poisson", "lambda": 0.8}, False),
    ({"kind": "geometric", "p": 0.45}, False),
    ({"kind": "geometric", "p": 0.0}, True),
])
def test_single_child(spec, expected):
    assert make_distribution(spec).single_child is expected


def test_sample_sum_count_edge_cases():
    dist = make_distribution({"kind": "poisson", "lambda": 0.5})
    rng = np.random.default_rng(0)
    assert dist.sample_sum(0, rng) == 0
    with pytest.raises(InvalidParameter):
        dist.sample_sum(-1, rng)


@pytest.mark.parametrize(
    "spec, expected",
    [
        ({"kind": "bernoulli", "p": 0.0}, 0),
        ({"kind": "binomial", "n": 4, "p": 0.0}, 0),
        ({"kind": "poisson", "lambda": 0.0}, 0),
        ({"kind": "geometric", "p": 0.0}, 0),
    ],
)
def test_degenerate_laws_are_constant(spec, expected):
    dist = make_distribution(spec)
    rng = np.random.default_rng(3)
    draws = dist.inverse_cdf(rng.random(1000))
    assert (draws == expected).all()
    assert dist.sample_sum(10, rng) == 10 * expected


def test_binomial_p_one_needs_override():
    dist = make_distribution({"kind": "binomial", "n": 4, "p": 1.0},
                             allow_supercritical=True)
    rng = np.random.default_rng(3)
    assert (dist.inverse_cdf(rng.random(100)) == 4).all()


@pytest.mark.parametrize(
    "spec, err",
    [
        ({"p": 0.5}, InvalidParameter),                                # no kind
        ({"kind": "zeta", "s": 2}, InvalidParameter),                  # unknown
        ({"kind": "bernoulli"}, InvalidParameter),                     # missing p
        ({"kind": "bernoulli", "p": 1.2}, InvalidParameter),
        ({"kind": "bernoulli", "p": -0.1}, InvalidParameter),
        ({"kind": "binomial", "n": 0, "p": 0.5}, InvalidParameter),
        ({"kind": "binomial", "n": 2.5, "p": 0.5}, InvalidParameter),
        ({"kind": "poisson", "lambda": -1.0}, InvalidParameter),
        ({"kind": "geometric", "p": 1.0}, InvalidParameter),
        ({"kind": "pmf", "table": {}}, InvalidParameter),
        ({"kind": "pmf", "table": {"-1": 0.5, "0": 0.5}}, InvalidParameter),
        ({"kind": "pmf", "table": {"0": 0.7, "1": -0.3}}, InvalidParameter),
        ({"kind": "pmf", "table": {"0": 0.5, "1": 0.4}}, NonNormalizedPMF),
        ({"kind": "pmf", "table": {"x": 1.0}}, InvalidParameter),
    ],
)
def test_invalid_specs_raise(spec, err):
    with pytest.raises(err):
        make_distribution(spec)


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "bernoulli", "p": 1.0},
        {"kind": "poisson", "lambda": 1.0},
        {"kind": "geometric", "p": 0.5},
        {"kind": "pmf", "table": {"0": 0.4, "2": 0.6}},
    ],
)
def test_supercritical_guard(spec):
    with pytest.raises(SupercriticalWithoutOverride):
        make_distribution(spec)
    assert make_distribution(spec, allow_supercritical=True).mean >= 1.0
    # the override can also live inside the descriptor itself
    assert make_distribution({**spec, "allow_supercritical": True}).mean >= 1.0


def test_pmf_table_accepts_int_keys_and_normalization_slack():
    a = make_distribution({"kind": "pmf", "table": {0: 0.5, 1: 0.5 - 1e-12}})
    assert a.mean == pytest.approx(0.5, abs=1e-9)


def test_sample_accepts_generator_and_rejects_other():
    dist = make_distribution({"kind": "bernoulli", "p": 0.3})
    assert dist.sample_sum(1, np.random.default_rng(5)) in (0, 1)
    with pytest.raises(TypeError):
        dist.sample_sum(1, "not-a-generator")


@pytest.mark.parametrize("lam", [0.7, 30.0, 800.0, 5000.0])
def test_poisson_inverse_cdf_matches_scipy_quantiles(lam):
    """The poisson cdf table is built from logs, so a mean far above 745,
    where e^-lambda underflows, still has the right quantiles."""
    dist = make_distribution({"kind": "poisson", "lambda": lam}, allow_supercritical=lam >= 1)
    u = np.array([1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 1 - 1e-6])
    np.testing.assert_array_equal(dist.inverse_cdf(u), st.poisson.ppf(u, lam))


def test_poisson_too_wide_to_tabulate_is_refused():
    with pytest.raises(InvalidParameter, match="tabulated"):
        make_distribution({"kind": "poisson", "lambda": 1e12}, allow_supercritical=True)
