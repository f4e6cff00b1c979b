"""Offspring distribution tests against independent scipy oracles."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.stats as st

from branchlab.offspring import (
    InvalidParameter,
    NonNormalizedPMF,
    SupercriticalWithoutOverride,
    make_distribution,
)

SUBCRITICAL_SPECS = [
    {"kind": "bernoulli", "p": 0.6},
    {"kind": "binomial", "n": 3, "p": 0.25},
    {"kind": "poisson", "lambda": 0.8},
    {"kind": "geometric", "p": 0.45},
    {"kind": "pmf", "table": {"0": 0.5, "1": 0.3, "2": 0.2}},
]


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


@pytest.mark.parametrize("spec", SUBCRITICAL_SPECS, ids=lambda s: s["kind"])
def test_descriptor_roundtrip(spec):
    dist = make_distribution(spec)
    desc = json.loads(json.dumps(dist.descriptor()))
    rebuilt = make_distribution(desc)
    assert rebuilt == dist
    assert rebuilt.mean == dist.mean and rebuilt.variance == dist.variance


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
    assert dist.sample(np.random.default_rng(5)) in (0, 1)
    with pytest.raises(TypeError):
        dist.sample("not-a-generator")
