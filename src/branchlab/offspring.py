"""Offspring distributions for branching simulations.

Every distribution exposes the same sampling surfaces:

* ``inverse_cdf`` maps uniforms to offspring counts (one uniform per
  individual);
* ``sample`` / ``sample_sum`` draw a single offspring or a progeny sum,
  and ``closure_sums`` an array of progeny sums, the sums through an
  exact law. A sum of 1..C individuals inverts one uniform through a
  guide table over the tabulated c-fold convolution of the pmf, built
  once per law and process, when a call holds enough such sums to repay
  the table's fixed cost; other sums use a named closed form for
  bernoulli, binomial, poisson and geometric, and multinomial type counts
  dotted with the support for explicit tables. A sum of 0 individuals is
  0 and draws nothing.

Distributions are described by plain dicts, e.g. ``{"kind": "poisson",
"lambda": 0.7}`` or ``{"kind": "pmf", "table": {"0": 0.6, "1": 0.4}}``,
so configs can round-trip through JSON.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Mapping

import numpy as np

_PMF_TOL = 1e-9
_KINDS = ("bernoulli", "binomial", "poisson", "geometric", "pmf")
#: Tables hold the sum laws of 1.._SUM_TABLE_MAX_COUNT individuals, in at
#: most _SUM_TABLE_CELLS cells over all rows; a wide-support pmf gets fewer rows.
_SUM_TABLE_MAX_COUNT = 128
_SUM_TABLE_CELLS = 1 << 16
#: A call with fewer sizes in the table's range uses the named samplers:
#: below this many, the table's fixed cost per call outweighs its saving.
_SUM_TABLE_MIN_DRAWS = 256
#: Tail mass below the resolution of a 53-bit uniform.
_TAIL_MASS = 2.0**-53


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

    def __hash__(self) -> int:
        return hash((self.kind, frozenset(
            (k, frozenset(v.items()) if isinstance(v, dict) else v)
            for k, v in self.params.items()
        )))

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
        """Vectorized progeny sums for an array of sizes, of any shape.

        Sizes of 0 give 0 and draw nothing, so the draws of the other
        entries do not depend on how many zeros sit between them. When at
        least ``_SUM_TABLE_MIN_DRAWS`` sizes lie in 1..C, C the row count
        of the law's sum table, each of them draws one uniform from the
        table (all of them first, in array order) and the larger sizes then
        draw from the family's named sampler; otherwise every size does.
        """
        counts = np.asarray(counts, dtype=np.int64)
        table = _sum_table(self) if counts.size >= _SUM_TABLE_MIN_DRAWS else None
        if table is not None:
            small = (counts > 0) & (counts <= table.max_count)
            if np.count_nonzero(small) >= _SUM_TABLE_MIN_DRAWS:
                out = np.zeros(counts.shape, dtype=np.int64)
                out[small] = table.draw(counts[small], gen)
                large = counts > table.max_count
                if large.any():
                    out[large] = self._named_sums(counts[large], gen)
                return out
        return self._named_sums(counts, gen)

    def _named_sums(self, counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        # Progeny sums through the family's named sampler; numpy draws
        # nothing for a size of 0 in binomial, poisson and multinomial.
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

    def _dense_pmf(self, cells: int) -> np.ndarray | None:
        """The offspring pmf on 0, 1, ..., max support, or None if that
        takes more than ``cells`` cells; geometric is cut where its tail
        mass p^n drops below 2^-53."""
        if self._support is None:
            p = self.params["p"]
            n = 1 if p == 0.0 else math.floor(math.log(_TAIL_MASS) / math.log(p)) + 1
            return (1.0 - p) * p ** np.arange(n) if n <= cells else None
        if self._support.max() >= cells:
            return None
        return np.bincount(self._support, weights=self._table_pvals())

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


class _SumTable:
    """The laws of the progeny sums of 1..max_count individuals, each row
    inverted from one uniform through a guide table (Chen & Asau 1974).

    Row c is the c-fold convolution of the offspring pmf, its upper tail
    cut where the mass beyond falls below 2^-53 and its zero-mass cells
    left out. The rows lie end to end in ``values`` (sum values) and
    ``cdf`` (cumulative weights, 1.0 exactly at each row's end). Row c
    with n cells gets g = 4n guide slots, plus one, from
    ``guide_start[c]``; slot j holds the first cell whose key
    floor(cdf * g) is not below j. For a uniform u with key j, the first
    cell whose cumulative weight exceeds u (the ``inverse_cdf``
    convention) therefore lies between the cells of slots j and j + 1;
    these hold a quarter of a cell on average, but a tail whose cells
    carry little mass can put many cells in one slot.
    """

    def __init__(self, rows: list[np.ndarray]):
        self.max_count = len(rows)
        dense = np.zeros((len(rows), max(len(row) for row in rows)))
        for c, row in enumerate(rows):
            dense[c, : len(row)] = row
        cum = np.cumsum(dense, axis=1)
        owner, self.values = np.nonzero(dense)
        self.cdf = cum[owner, self.values] / cum[owner, -1]
        size = 4 * np.bincount(owner, minlength=len(rows))
        slots = np.cumsum(size + 1)
        # Slot keys of different rows do not overlap, so one running count
        # of the cells below each slot fills every guide; the slot after
        # the last row bounds that row's last slot.
        key = (self.cdf * size[owner]).astype(np.int64) + (slots - size - 1)[owner]
        at = np.bincount(key, minlength=slots[-1] + 1)
        self.guide = np.cumsum(at) - at
        # Indexed by the number of individuals c; index 0 is unused.
        self.guide_start = np.append(0, slots - size - 1)
        self.guide_size = np.append(0.0, size)

    def draw(self, counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """One progeny sum per size in ``counts`` (1-D, in 1..max_count)."""
        u = gen.random(len(counts))
        slot = self.guide_start[counts] + (u * self.guide_size[counts]).astype(np.int64)
        cell, last = self.guide[slot], self.guide[slot + 1]
        # One comparison settles the sums whose slot holds at most one cell;
        # the others bisect their [lo, hi] bracket.
        step = self.cdf[cell] <= u
        cell += step
        todo = np.flatnonzero(step & (cell < last))
        if todo.size:
            lo, hi, v = cell[todo], last[todo], u[todo]
            for _ in range(int((hi - lo).max()).bit_length()):
                mid = (lo + hi) >> 1
                right = self.cdf[mid] <= v
                lo = np.where(right, mid + 1, lo)
                hi = np.where(right, hi, mid)
            cell[todo] = lo
        return self.values[cell]


def _cut_tail(row: np.ndarray) -> np.ndarray:
    """``row`` up to the first cell beyond which less than 2^-53 of mass lies."""
    tail = np.cumsum(row[::-1])[::-1]
    return row[: max(1, int(np.count_nonzero(tail >= _TAIL_MASS)))]


@functools.lru_cache(maxsize=16)
def _sum_table(dist: OffspringDistribution) -> _SumTable | None:
    """The law's sum table, built once per process; None when not even the
    one-individual row fits the cell budget.

    Rows are added while the dense length of the next row (before its
    zero-mass cells are left out) keeps the total within the budget.
    """
    pmf = dist._dense_pmf(_SUM_TABLE_CELLS)
    if pmf is None:
        return None
    pmf = _cut_tail(pmf)
    rows, cells = [pmf], len(pmf)
    while len(rows) < _SUM_TABLE_MAX_COUNT and cells + len(rows[-1]) + len(pmf) - 1 <= _SUM_TABLE_CELLS:
        rows.append(_cut_tail(np.convolve(rows[-1], pmf)))
        cells += len(rows[-1])
    return _SumTable(rows)


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
        p = _require(spec, "p", float)
        if not 0.0 <= p <= 1.0:
            raise InvalidParameter(f"bernoulli p must be in [0, 1], got {p}")
        support, cdf = _discrete_table([0, 1], [1.0 - p, p])
        dist = OffspringDistribution(kind, {"p": p}, p, p * (1.0 - p), support, cdf)
    elif kind == "binomial":
        n = _require(spec, "n")
        p = _require(spec, "p", float)
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
        lam = _require(spec, "lambda", float)
        if not lam >= 0.0:
            raise InvalidParameter(f"poisson lambda must be >= 0, got {lam}")
        support, cdf = _poisson_table(lam)
        dist = OffspringDistribution(kind, {"lambda": lam}, lam, lam, support, cdf)
    elif kind == "geometric":
        p = _require(spec, "p", float)
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
        if not all(w >= 0.0 for w in ws):
            raise InvalidParameter("pmf weights must be nonnegative")
        if not abs(sum(ws) - 1.0) <= _PMF_TOL:
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


def _require(spec: Mapping[str, Any], key: str, convert=lambda value: value):
    if key not in spec:
        raise InvalidParameter(f"distribution descriptor missing {key!r}")
    try:
        return convert(spec[key])
    except (TypeError, ValueError):
        raise InvalidParameter(f"bad {key}: {spec[key]!r}") from None
