"""The limiting Gaussian sequence of the rescaled process.

theta_j is the limit of (X_j - K m^j) / (S sqrt(K)) as K grows, where m
and S^2 are the offspring mean and variance; with a truncation level
a > 0 the same recursion carries m^j - a in place of m^j and is valid
for indices up to ell(a) - 1.

Two cross-covariance models are implemented side by side:

* ``paper``:      cov(theta_j, theta_{j+n}) = m^n var(theta_j)
                  + sum_{i=1..n} m^{i-1} (m^{j+n-i} - a),
                  which reduces to m^n var(theta_j) + n m^{j+n-1}
                  at a = 0;
* ``martingale``: cov(theta_j, theta_{j+n}) = m^n var(theta_j), the
                  value implied by E(X_{j+n} | X_j) = m^n X_j.

The two agree on every variance and differ on cross terms; neither is
hardcoded as correct — the covariance experiment adjudicates them
empirically. Sampling uses the autoregressive construction
theta_{j+1} = m theta_j + zeta_j sqrt(m^j - a), whose second moments
match the variance recursion and the martingale cross terms by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import ell

MODES = ("paper", "martingale")


class OutOfValidityRange(ValueError):
    """Index beyond ell(a) - 1, where the truncated recursion stops."""


class NotPositiveSemiDefinite(ValueError):
    """A covariance matrix failed its factorization check."""


@dataclass(frozen=True)
class ThetaCovariance:
    """Covariance model of the limit sequence for one (m, mode, a)."""

    m: float
    mode: str = "paper"
    a: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"mean must be in (0, 1), got {self.m}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.a < 1.0:
            raise ValueError(f"truncation level must be in [0, 1), got {self.a}")

    @property
    def max_index(self) -> int | None:
        """Largest valid index, ell(a) - 1; None means unbounded (a = 0)."""
        if self.a == 0.0:
            return None
        return ell(self.m, self.a) - 1

    def _check_index(self, top: int):
        limit = self.max_index
        if limit is not None and top > limit:
            raise OutOfValidityRange(
                f"index {top} exceeds ell(a) - 1 = {limit} for a = {self.a}"
            )


def _variances(cov: ThetaCovariance, indices: Sequence[int]) -> list[float]:
    """var(theta_j) for each j of the ascending ``indices``, from one pass
    of the recursion var_{j+1} = m^2 var_j + m^j - a."""
    m, a = cov.m, cov.a
    var, power, j, out = 1.0, 1.0, 1, []  # var(theta_1), m^0
    for target in indices:
        for _ in range(j, target):
            power *= m
            var = m * m * var + power - a
        j = target
        out.append(var)
    return out


def theta_variance(cov: ThetaCovariance, j: int) -> float:
    """var(theta_j) from the recursion var_{j+1} = m^2 var_j + m^j - a."""
    if j < 1:
        raise ValueError(f"index must be >= 1, got {j}")
    cov._check_index(j)
    return _variances(cov, [j])[0]


def closed_form_variance(m: float, j: int) -> float:
    """Unrolled a = 0 recursion: var(theta_j) = m^{j-1}(1 - m^j)/(1 - m)."""
    return m ** (j - 1) * (1.0 - m**j) / (1.0 - m)


def _covariance(cov: ThetaCovariance, j: int, n: int, var: float) -> float:
    """cov(theta_j, theta_{j+n}) under the model's mode, given var(theta_j)."""
    m, a = cov.m, cov.a
    base = m**n * var
    if cov.mode == "martingale" or n == 0:
        return base
    cross = sum(m ** (i - 1) * (m ** (j + n - i) - a) for i in range(1, n + 1))
    return base + cross


def theta_covariance(cov: ThetaCovariance, j: int, n: int) -> float:
    """cov(theta_j, theta_{j+n}) under the model's mode."""
    if n < 0:
        raise ValueError(f"lag must be >= 0, got {n}")
    cov._check_index(j + n)
    return _covariance(cov, j, n, theta_variance(cov, j))


def covariance_matrix(
    cov: ThetaCovariance, indices: Sequence[int], *, require_psd: bool = False
) -> np.ndarray:
    """Covariance matrix over the given indices.

    Runs the variance recursion once, up to the largest index, and fills
    each unordered pair once: every cell is bit-identical to
    :func:`theta_covariance`. With ``require_psd`` the matrix is
    additionally put through the eigenvalue check and rejected loudly —
    never silently repaired — when it fails.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx) or any(i < 1 for i in idx):
        raise ValueError(f"indices must be distinct positive integers, got {idx}")
    if sorted(idx) != idx:
        raise ValueError(f"indices must be sorted, got {idx}")
    for i in idx:
        cov._check_index(i)
    var = _variances(cov, idx)
    M = np.empty((len(idx), len(idx)))
    for p, ip in enumerate(idx):
        for q in range(p, len(idx)):
            M[p, q] = M[q, p] = _covariance(cov, ip, idx[q] - ip, var[p])
    if require_psd and not is_positive_semidefinite(M):
        raise NotPositiveSemiDefinite(
            f"covariance matrix for mode={cov.mode!r}, m={cov.m}, "
            f"indices={idx} has min eigenvalue {np.linalg.eigvalsh(M).min():.3e}"
        )
    return M


def is_positive_semidefinite(matrix: np.ndarray, rel_tol: float = 1e-10) -> bool:
    """Eigenvalue test with relative slack for rounding only."""
    eig = np.linalg.eigvalsh(matrix)
    return bool(eig.min() >= -rel_tol * max(eig.max(), 1e-300))


def sample_theta(
    cov: ThetaCovariance, horizon: int, gen: np.random.Generator, *, size: int | None = None
) -> np.ndarray:
    """Sample the sequence theta_1..theta_horizon autoregressively.

    Returns one vector of length ``horizon``, or a (size, horizon)
    matrix when ``size`` is given. The construction is mode-independent;
    its empirical covariance is the martingale-mode one.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    cov._check_index(horizon)
    rows = 1 if size is None else size
    z = gen.standard_normal((rows, horizon))
    theta = np.empty_like(z)
    theta[:, 0] = z[:, 0]
    m, a = cov.m, cov.a
    power = 1.0
    for j in range(1, horizon):
        power *= m
        theta[:, j] = m * theta[:, j - 1] + z[:, j] * np.sqrt(power - a)
    return theta[0] if size is None else theta
