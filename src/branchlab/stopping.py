"""Stopping times of realized paths and their deterministic limits.

Realized quantity: the level-hitting time tau_{a,K} = inf{l: X_l <=
floor(a*K)}, whose a = 0 case is the extinction time. Its deterministic
counterparts for offspring mean m: the limit level index
ell(a) = min{l: m^l <= a}, the step indicator chi_{n+1} = 1{m^{n+1} > a},
and the scaling constant c = -1/log m, the extinction time being about
c * log K.
"""

from __future__ import annotations

import math

from .process import PathRecord, floor_level


class NeverHit(ValueError):
    """The trajectory ended before reaching the requested level."""


class InvalidLevel(ValueError):
    """Level argument outside (0, 1)."""


def hitting_time(path: PathRecord, a: float, K: int) -> int:
    """First index l with X_l <= floor(a*K); a = 0 is the extinction time."""
    level = floor_level(a, K)
    for l, x in enumerate(path.sizes):
        if x <= level:
            return l
    raise NeverHit(
        f"trajectory never dropped to {level} within {len(path.sizes) - 1} steps"
    )


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
