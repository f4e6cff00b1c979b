"""Gaussian limit sequence: recursions and both covariance modes."""

from __future__ import annotations

import numpy as np
import pytest

from branchlab.exact import enumerate_bernoulli_paths
from branchlab.gaussian_limit import (
    MODES,
    OutOfValidityRange,
    ThetaCovariance,
    closed_form_variance,
    covariance_matrix,
    is_positive_semidefinite,
    theta_covariance,
    theta_variance,
)


def test_variance_base_case_and_example():
    cov = ThetaCovariance(0.5)
    assert theta_variance(cov, 1) == 1.0
    assert theta_variance(cov, 2) == pytest.approx(0.75)  # 0.25*1 + 0.5


@pytest.mark.parametrize("m", [0.3, 0.5, 0.8])
def test_variance_recursion_equals_closed_form(m):
    cov = ThetaCovariance(m)
    for j in range(1, 51):
        assert theta_variance(cov, j) == pytest.approx(
            closed_form_variance(m, j), abs=1e-12
        )


def test_variance_positive_and_vanishing():
    cov = ThetaCovariance(0.6)
    vals = [theta_variance(cov, j) for j in range(1, 200)]
    assert all(v > 0 for v in vals)
    assert vals[-1] < 1e-30


def test_truncated_variance_recursion():
    cov = ThetaCovariance(0.5, a=0.1)  # ell(0.1) = 4, valid j <= 3
    assert theta_variance(cov, 1) == 1.0
    assert theta_variance(cov, 2) == pytest.approx(0.25 * 1 + 0.5 - 0.1)
    assert theta_variance(cov, 3) == pytest.approx(0.25 * 0.65 + 0.25 - 0.1)
    with pytest.raises(OutOfValidityRange):
        theta_variance(cov, 4)


def test_covariance_modes_at_the_adjudication_point():
    paper = ThetaCovariance(0.5, mode="paper")
    mart = ThetaCovariance(0.5, mode="martingale")
    assert theta_covariance(paper, 1, 1) == pytest.approx(1.0)  # 0.5 + 0.5
    assert theta_covariance(mart, 1, 1) == pytest.approx(0.5)
    # lag zero is the variance in both modes
    assert theta_covariance(paper, 3, 0) == theta_covariance(mart, 3, 0)


@pytest.mark.parametrize("m", [0.3, 0.5, 0.8])
def test_modes_differ_by_exactly_the_printed_cross_term(m):
    paper = ThetaCovariance(m, mode="paper")
    mart = ThetaCovariance(m, mode="martingale")
    for j in range(1, 8):
        for n in range(1, 8):
            gap = theta_covariance(paper, j, n) - theta_covariance(mart, j, n)
            assert gap == pytest.approx(n * m ** (j + n - 1), abs=1e-12)


def test_martingale_mode_matches_exhaustive_enumeration():
    """cov(theta_1, theta_2) from the exact two-generation law with K = 3."""
    p, K = 0.5, 3
    paths = enumerate_bernoulli_paths(p, K, 2)
    x1 = lambda rec: rec.sizes[1] if len(rec.sizes) > 1 else 0
    x2 = lambda rec: rec.sizes[2] if len(rec.sizes) > 2 else 0
    e1 = sum(rec.prob * x1(rec) for rec in paths)
    e2 = sum(rec.prob * x2(rec) for rec in paths)
    cov_x = sum(rec.prob * x1(rec) * x2(rec) for rec in paths) - e1 * e2
    scale = K * p * (1 - p)  # var(X_1) = K * offspring variance
    mart = ThetaCovariance(p, mode="martingale")
    assert cov_x / scale == pytest.approx(theta_covariance(mart, 1, 1), abs=1e-12)
    paper = ThetaCovariance(p, mode="paper")
    assert cov_x / scale != pytest.approx(theta_covariance(paper, 1, 1), abs=1e-3)


def test_covariance_matrix_shapes_and_values():
    cov = ThetaCovariance(0.5, mode="martingale")
    single = covariance_matrix(cov, [1])
    assert single.shape == (1, 1) and single[0, 0] == 1.0
    M = covariance_matrix(cov, [1, 2, 4])
    assert np.allclose(M, M.T)
    assert M[0, 1] == pytest.approx(theta_covariance(cov, 1, 1))
    assert M[0, 2] == pytest.approx(theta_covariance(cov, 1, 3))
    assert M[1, 2] == pytest.approx(theta_covariance(cov, 2, 2))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("m, a, indices", [
    (0.7, 0.0, [1, 2, 5, 9, 30, 31]),
    (0.5, 0.0, [3]),
    (0.6, 0.1, [1, 2, 3, 4]),
    (0.9, 0.05, [1, 3, 7, 20]),
])
def test_covariance_matrix_is_bit_identical_to_its_cells(mode, m, a, indices):
    """One variance recursion and one cell per unordered pair give exactly
    the per-cell values, and an index past ell(a) - 1 is refused with the
    same message."""
    cov = ThetaCovariance(m, mode=mode, a=a)
    cells = np.array([[theta_covariance(cov, min(p, q), abs(p - q)) for q in indices]
                      for p in indices])
    assert np.array_equal(covariance_matrix(cov, indices), cells)
    if a:
        past = [1, cov.max_index + 1, cov.max_index + 2]
        with pytest.raises(OutOfValidityRange) as want:
            theta_covariance(cov, 1, past[1] - 1)
        with pytest.raises(OutOfValidityRange) as got:
            covariance_matrix(cov, past)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("m", [0.3, 0.5, 0.8])
def test_martingale_matrices_are_psd(m):
    cov = ThetaCovariance(m, mode="martingale")
    M = covariance_matrix(cov, list(range(1, 11)))
    assert is_positive_semidefinite(M)


def test_paper_matrix_fails_psd_at_half():
    cov = ThetaCovariance(0.5, mode="paper")
    M = covariance_matrix(cov, [1, 2])
    # det = 1 * 0.75 - 1^2 < 0
    assert not is_positive_semidefinite(M)


def test_covariance_matrix_index_validation():
    cov = ThetaCovariance(0.5)
    for bad in ([2, 1], [1, 1], [0, 1], []):
        if bad == []:
            continue
        with pytest.raises(ValueError):
            covariance_matrix(cov, bad)


def test_model_validation():
    with pytest.raises(ValueError):
        ThetaCovariance(1.0)
    with pytest.raises(ValueError):
        ThetaCovariance(0.5, mode="exact")
    with pytest.raises(ValueError):
        ThetaCovariance(0.5, a=1.0)
    with pytest.raises(ValueError):
        theta_variance(ThetaCovariance(0.5), 0)
    with pytest.raises(ValueError):
        theta_covariance(ThetaCovariance(0.5), 1, -1)
