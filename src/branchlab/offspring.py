"""Offspring distributions for branching simulations.

Every distribution exposes the same sampling surfaces:

* ``inverse_cdf`` maps uniforms to offspring counts (one uniform per
  individual);
* ``sample`` / ``sample_sum`` draw a single offspring or a progeny sum,
  and ``closure_sums`` an array of progeny sums, the sums through an
  exact law: a named closed form for bernoulli, binomial, poisson and
  geometric, and multinomial type counts dotted with the support for
  explicit tables.

Distributions are described by plain dicts, e.g. ``{"kind": "poisson",
"lambda": 0.7}`` or ``{"kind": "pmf", "table": {"0": 0.6, "1": 0.4}}``,
so configs can round-trip through JSON.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

_PMF_TOL = 1e-9
_KINDS = ("bernoulli", "binomial", "poisson", "geometric", "pmf")


class InvalidParameter(ValueError):
    """A distribution parameter is outside its legal range."""


class NonNormalizedPMF(ValueError):
    """An explicit pmf table does not sum to one."""


class SupercriticalWithoutOverride(ValueError):
    """Offspring mean >= 1 requested without the explicit override flag."""


class OffspringDistribution:
    """A nonnegative-integer offspring law with exact sum laws.

    Instances are value objects; build them with :func:`make_distribution`.
    ``mean`` and ``variance`` are exact. Table-based kinds carry their
    support and cumulative weights for inverse-CDF sampling; geometric
    inverts its CDF in closed form.
    """

    def __init__(
        self,
        kind: str,
        params: Mapping[str, Any],
        mean: float,
        variance: float,
        support: np.ndarray | None,
        cdf: np.ndarray | None,
    ):
        self.kind = kind
        self.params = dict(params)
        self.mean = float(mean)
        self.variance = float(variance)
        self._support = support
        self._cdf = cdf
        self._pvals: np.ndarray | None = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"OffspringDistribution({self.kind}, {inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OffspringDistribution):
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def single_child(self) -> bool:
        """Whether no individual has more than one child: support in {0, 1}."""
        if self._support is None:  # geometric
            return self.params["p"] == 0.0
        return int(self._support.max()) <= 1

    def descriptor(self) -> dict[str, Any]:
        """JSON-serializable description that round-trips through
        :func:`make_distribution`."""
        out: dict[str, Any] = {"kind": self.kind}
        out.update(self.params)
        return out

    # -- sampling ---------------------------------------------------------

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to offspring counts (int64)."""
        u = np.asarray(u)
        if self.kind == "bernoulli":
            # comparison beats table lookup; same mapping as the cdf table
            return (u >= 1.0 - self.params["p"]).astype(np.int64)
        if self.kind == "geometric":
            p = self.params["p"]
            if p == 0.0:
                return np.zeros(u.shape, dtype=np.int64)
            return np.floor(np.log1p(-u) / math.log(p)).astype(np.int64)
        # Table-based kinds. searchsorted(side="right") returns the first
        # index whose cumulative weight exceeds u; clip guards the
        # sub-2^-52 sliver of uniforms beyond the stored tail.
        idx = np.searchsorted(self._cdf, u, side="right")
        idx = np.minimum(idx, len(self._cdf) - 1)
        return self._support[idx]

    def sample(self, draw) -> int:
        """Draw one offspring count from a handle or numpy Generator."""
        gen = _as_generator(draw)
        return int(self.inverse_cdf(gen.random(1))[0])

    def sample_sum(self, count: int, draw) -> int:
        """Draw the sum of ``count`` independent offspring in one step,
        from the exact law of the sum."""
        if count < 0:
            raise InvalidParameter(f"count must be >= 0, got {count}")
        return int(self.closure_sums(np.array([count]), _as_generator(draw))[0])

    def closure_sums(self, counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Vectorized progeny sums for an array of sizes.

        Zero sizes yield zero offspring without consuming randomness for
        the degenerate entries where numpy would reject the parameter.
        """
        counts = np.asarray(counts, dtype=np.int64)
        k = self.kind
        if k == "bernoulli":
            return gen.binomial(counts, self.params["p"]).astype(np.int64)
        if k == "binomial":
            return gen.binomial(counts * self.params["n"], self.params["p"]).astype(np.int64)
        if k == "poisson":
            return gen.poisson(counts * self.params["lambda"]).astype(np.int64)
        if k == "geometric":
            p = self.params["p"]
            out = np.zeros(counts.shape, dtype=np.int64)
            if p == 0.0:
                return out
            pos = counts > 0
            if pos.any():
                out[pos] = gen.negative_binomial(counts[pos], 1.0 - p)
            return out
        draws = gen.multinomial(counts, self._table_pvals())
        return (draws @ self._support).astype(np.int64)

    def _table_pvals(self) -> np.ndarray:
        # Multinomial probabilities aligned with the stored support; the
        # renormalization absorbs the tolerance allowed in pmf tables.
        if self._pvals is None:
            ws = np.diff(self._cdf, prepend=0.0)
            self._pvals = ws / ws.sum()
        return self._pvals

    def pgf(self, s: float) -> float:
        """Probability generating function E s^xi at a point in [0, 1]."""
        k = self.kind
        if k == "bernoulli":
            p = self.params["p"]
            return 1.0 - p + p * s
        if k == "binomial":
            p = self.params["p"]
            return (1.0 - p + p * s) ** self.params["n"]
        if k == "poisson":
            return math.exp(self.params["lambda"] * (s - 1.0))
        if k == "geometric":
            p = self.params["p"]
            return (1.0 - p) / (1.0 - p * s)
        return float(sum(w * s**k_ for k_, w in self.params["table"].items()))

    def pgf_complement(self, s: float) -> float:
        """1 - pgf(1 - s), computed without cancellation for small s.

        Iterating survival probabilities through this map keeps their
        geometric decay resolvable far below machine epsilon, where the
        plain pgf saturates one ulp short of its fixed point at 1.
        """
        k = self.kind
        if k == "bernoulli":
            return self.params["p"] * s
        if k == "binomial":
            p = self.params["p"]
            return -math.expm1(self.params["n"] * math.log1p(-p * s))
        if k == "poisson":
            return -math.expm1(-self.params["lambda"] * s)
        if k == "geometric":
            p = self.params["p"]
            return p * s / (1.0 - p + p * s)
        table = self.params["table"]
        if s >= 1.0:
            return float(sum(w for k_, w in table.items() if k_ > 0))
        return float(sum(-w * math.expm1(k_ * math.log1p(-s))
                         for k_, w in table.items() if k_ > 0))


def _as_generator(draw) -> np.random.Generator:
    if isinstance(draw, np.random.Generator):
        return draw
    gen = getattr(draw, "generator", None)
    if isinstance(gen, np.random.Generator):
        return gen
    raise TypeError(f"expected a numpy Generator or draw handle, got {type(draw)!r}")


def _discrete_table(support, weights) -> tuple[np.ndarray, np.ndarray]:
    support = np.asarray(support, dtype=np.int64)
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf[-1] = max(cdf[-1], 1.0)
    return support, cdf


def _poisson_table(lam: float) -> tuple[np.ndarray, np.ndarray]:
    # Extend until the float cdf saturates; the residual tail mass is
    # below the resolution of a 53-bit uniform.
    probs = [math.exp(-lam)]
    total = probs[0]
    k = 0
    while total < 1.0 and probs[-1] > 0.0:
        k += 1
        probs.append(probs[-1] * lam / k)
        total += probs[-1]
        if k > 10_000:
            break
    return _discrete_table(np.arange(len(probs)), probs)


def _binomial_table(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    ks = np.arange(n + 1)
    logpmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in ks
    ]
    return _discrete_table(ks, np.exp(logpmf))


def make_distribution(
    spec: Mapping[str, Any], *, allow_supercritical: bool = False
) -> OffspringDistribution:
    """Build an :class:`OffspringDistribution` from a descriptor dict.

    Raises :class:`InvalidParameter` for out-of-range parameters,
    :class:`NonNormalizedPMF` if an explicit table does not sum to one
    within 1e-9, and :class:`SupercriticalWithoutOverride` if the mean is
    >= 1 and neither the keyword nor the descriptor key
    ``allow_supercritical`` is set.
    """
    if "kind" not in spec:
        raise InvalidParameter("distribution descriptor needs a 'kind'")
    kind = spec["kind"]
    if kind not in _KINDS:
        raise InvalidParameter(f"unknown distribution kind {kind!r}")
    allow = bool(allow_supercritical or spec.get("allow_supercritical", False))

    if kind == "bernoulli":
        p = float(_require(spec, "p"))
        if not 0.0 <= p <= 1.0:
            raise InvalidParameter(f"bernoulli p must be in [0, 1], got {p}")
        support, cdf = _discrete_table([0, 1], [1.0 - p, p])
        dist = OffspringDistribution(kind, {"p": p}, p, p * (1.0 - p), support, cdf)
    elif kind == "binomial":
        n = _require(spec, "n")
        p = float(_require(spec, "p"))
        if not (isinstance(n, int) and n >= 1):
            raise InvalidParameter(f"binomial n must be a positive integer, got {n!r}")
        if not 0.0 <= p <= 1.0:
            raise InvalidParameter(f"binomial p must be in [0, 1], got {p}")
        if p == 0.0:
            support, cdf = _discrete_table([0], [1.0])
        elif p == 1.0:
            support, cdf = _discrete_table([n], [1.0])
        else:
            support, cdf = _binomial_table(n, p)
        dist = OffspringDistribution(
            kind, {"n": n, "p": p}, n * p, n * p * (1.0 - p), support, cdf
        )
    elif kind == "poisson":
        lam = float(_require(spec, "lambda"))
        if lam < 0.0:
            raise InvalidParameter(f"poisson lambda must be >= 0, got {lam}")
        support, cdf = _poisson_table(lam)
        dist = OffspringDistribution(kind, {"lambda": lam}, lam, lam, support, cdf)
    elif kind == "geometric":
        p = float(_require(spec, "p"))
        if not 0.0 <= p < 1.0:
            raise InvalidParameter(f"geometric p must be in [0, 1), got {p}")
        mean = p / (1.0 - p)
        var = p / (1.0 - p) ** 2
        dist = OffspringDistribution(kind, {"p": p}, mean, var, None, None)
    else:  # pmf
        table = _require(spec, "table")
        if not table:
            raise InvalidParameter("pmf table must be nonempty")
        try:
            items = sorted((int(k), float(w)) for k, w in dict(table).items())
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"bad pmf table: {exc}") from None
        ks = [k for k, _ in items]
        ws = [w for _, w in items]
        if any(k < 0 for k in ks):
            raise InvalidParameter("pmf support must be nonnegative integers")
        if any(w < 0.0 for w in ws):
            raise InvalidParameter("pmf weights must be nonnegative")
        if abs(sum(ws) - 1.0) > _PMF_TOL:
            raise NonNormalizedPMF(f"pmf weights sum to {sum(ws)!r}, expected 1")
        mean = sum(k * w for k, w in items)
        var = sum(k * k * w for k, w in items) - mean * mean
        support, cdf = _discrete_table(ks, ws)
        dist = OffspringDistribution(
            kind, {"table": {k: w for k, w in items}}, mean, max(var, 0.0), support, cdf
        )

    if dist.mean >= 1.0 and not allow:
        raise SupercriticalWithoutOverride(
            f"offspring mean {dist.mean} >= 1; pass allow_supercritical=True "
            "to build a non-subcritical distribution"
        )
    return dist


def _require(spec: Mapping[str, Any], key: str):
    if key not in spec:
        raise InvalidParameter(f"distribution descriptor missing {key!r}")
    return spec[key]
