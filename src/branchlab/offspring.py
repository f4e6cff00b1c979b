"""Offspring distributions for branching simulations.

Every distribution exposes the same sampling surfaces:

* ``inverse_cdf`` maps uniforms to offspring counts (one uniform per
  individual);
* ``sample_sum`` draws one progeny sum and ``closure_sums`` an array of
  them, through the exact law of the sum. A sum of 1..C individuals (C
  up to 1024) inverts one uniform through a guide table over the
  tabulated c-fold convolution of the pmf, cut on both tails, built once
  per law and process, when a call holds enough such sums to repay the
  table's fixed cost; other sums use a named closed form for bernoulli,
  binomial, poisson and geometric, and multinomial type counts dotted
  with the support for explicit tables. A sum of 0 individuals is 0 and
  draws nothing.

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
#: most _SUM_TABLE_CELLS cells over all rows (24 bytes each: a float64
#: cumulative weight, an int64 guide slot, which indexes the weights
#: without a cast, and a uint64 search key); a wide-support pmf gets fewer rows.
_SUM_TABLE_MAX_COUNT = 1024
_SUM_TABLE_CELLS = 1 << 17
#: The multiply-adds all of a table's convolutions may take: a wide pmf's
#: rows are long, and this bounds its build time where the cells do not.
_SUM_TABLE_WORK = 1 << 24
#: Rows per block of the table's build.
_SUM_TABLE_BLOCK = 32
#: The largest matrix product, in multiply-adds, that OpenBLAS keeps on one
#: thread.
_BLAS_ONE_THREAD = 1 << 18
#: A call with fewer sizes in the table's range uses the named samplers:
#: below this many, the table's fixed cost per call outweighs its saving.
_SUM_TABLE_MIN_DRAWS = 256
#: The most cells a poisson cdf may take.
_POISSON_CELLS = 1 << 20
#: Tail mass below the resolution of a 53-bit uniform.
_TAIL_MASS = 2.0**-53
#: Rows are convolved from rows trimmed where this much smaller mass lies
#: beyond them, and poisson and geometric pmfs are cut there: the mass
#: dropped then moves no cell of a table row that carries 1e-12 or more by
#: more than about 1e-13 of itself.
_BUILD_TAIL_MASS = 2.0**-93


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
        self._hash: int | None = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"OffspringDistribution({self.kind}, {inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OffspringDistribution):
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __hash__(self) -> int:
        # Every closure_sums call of a table-sized batch looks the law up in
        # the _sum_table cache, so the hash is kept once computed. It is not
        # pickled: string hashes differ between processes.
        if self._hash is None:
            self._hash = hash((self.kind, frozenset(
                (k, frozenset(v.items()) if isinstance(v, dict) else v)
                for k, v in self.params.items()
            )))
        return self._hash

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_hash": None}

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def single_child(self) -> bool:
        """Whether no individual has more than one child: support in {0, 1}."""
        if self._support is None:  # geometric
            return self.params["p"] == 0.0
        return int(self._support.max()) <= 1

    # -- sampling ---------------------------------------------------------

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to offspring counts (int64)."""
        u = np.asarray(u)
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

    def sample_sum(self, count: int, gen: np.random.Generator) -> int:
        """Draw the sum of ``count`` independent offspring in one step,
        from the exact law of the sum."""
        if count < 0:
            raise InvalidParameter(f"count must be >= 0, got {count}")
        if not isinstance(gen, np.random.Generator):
            raise TypeError(f"expected a numpy Generator, got {type(gen)!r}")
        return int(self.closure_sums(np.array([count]), gen)[0])

    def closure_sums(self, counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Vectorized progeny sums for an array of sizes, of any shape.

        Sizes of 0 give 0 and draw nothing, so the draws of the other
        entries do not depend on how many zeros sit between them. When at
        least ``_SUM_TABLE_MIN_DRAWS`` sizes lie in 1..C, C the row count
        of the law's sum table, each of them draws one uniform from the
        table (all of them first, in row-major order) and the larger sizes then
        draw from the family's named sampler; otherwise every size does.
        """
        counts = np.asarray(counts, dtype=np.int64)
        table = _sum_table(self) if counts.size >= _SUM_TABLE_MIN_DRAWS else None
        if table is None:
            return self._named_sums(counts, gen)
        flat, top = counts.ravel(), table.max_count
        inside = (flat - 1).view(np.uint64) < top  # 1 <= size <= C; 0 wraps
        many = np.count_nonzero(inside)
        if many < _SUM_TABLE_MIN_DRAWS:
            return self._named_sums(counts, gen)
        if many == flat.size:
            return table.draw(flat, gen).reshape(counts.shape)
        out = np.zeros(flat.size, dtype=np.int64)
        out[inside] = table.draw(flat[inside], gen)
        large = flat > top
        if large.any():
            out[large] = self._named_sums(flat[large], gen)
        return out.reshape(counts.shape)

    def _named_sums(self, counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        # Progeny sums through the family's named sampler; numpy draws
        # nothing for a size of 0 in binomial, poisson and multinomial.
        k = self.kind
        if k == "geometric":
            p = self.params["p"]
            out = np.zeros(counts.shape, dtype=np.int64)
            if p == 0.0:
                return out
            pos = counts > 0
            if pos.any():
                out[pos] = gen.negative_binomial(counts[pos], 1.0 - p)
            return out
        if k == "bernoulli":
            sums = gen.binomial(counts, self.params["p"])
        elif k == "binomial":
            sums = gen.binomial(counts * self.params["n"], self.params["p"])
        elif k == "poisson":
            sums = gen.poisson(counts * self.params["lambda"])
        else:
            sums = gen.multinomial(counts, self._table_pvals()) @ self._support
        return sums.astype(np.int64, copy=False)  # already int64: no copy

    def _dense_pmf(self, cells: int) -> np.ndarray | None:
        """The offspring pmf on 0, 1, ..., max support, or None if that
        takes more than ``cells`` cells; poisson and geometric are cut where
        their tail mass drops below ``_BUILD_TAIL_MASS``."""
        if self.kind == "geometric":
            p = self.params["p"]
            n = 1 if p == 0.0 else math.floor(math.log(_BUILD_TAIL_MASS) / math.log(p)) + 1
            return (1.0 - p) * p ** np.arange(n) if n <= cells else None
        if self.kind == "poisson":
            return _poisson_pmf(self.params["lambda"], cells)
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

    Row c is the c-fold convolution of the offspring pmf, cut on both tails
    where the mass beyond falls below 2^-53 (see :func:`_sum_law_blocks`).
    Rows are stored a block at a time, each from its lower cut and as wide
    as the block's widest row: ``cdf`` holds the cumulative weights of the
    cells, 1.0 exactly at a row's last kept cell and no less past it, and
    cell k of row c holds the sum value ``offset[c] + k``. Row c with n
    kept cells gets n guide slots, plus one, from ``guide_start[c]``; slot
    j holds the first cell whose key floor(cdf * n) is not below j. For a
    uniform u with key j, the first cell whose cumulative weight
    exceeds u (the ``inverse_cdf`` convention) therefore lies between the
    cells of slots j and j + 1; a row cut on both tails has few cells of
    little mass, so most slots hold at most one cell. The draw steps each
    slot's first cell once if its cumulative weight is at or below u. The
    first cell of slot j + 1 has floor(cdf * n) >= j + 1 > u * n, so its
    weight exceeds u: a cell still at or below u after the step lies inside
    its slot, and only those draws search ``key``, ascending over the
    table: cell k of row c holds
    ``(c - 1) << 54 | ceil(cdf * 2^53)``, and for u on the 2^-53 grid of
    ``Generator.random`` the first key above ``(c - 1) << 54 | u * 2^53`` is
    the answer; ``cdf`` settles the ties of a u off the grid.
    """

    def __init__(self, blocks):
        # Rows are taken from the blocks _sum_law_blocks yields while their
        # cells fit the budget. The cells go straight into arrays sized for
        # the budget: touching fresh pages costs more than the arithmetic,
        # so temporaries stay per block.
        self.cdf = np.empty(_SUM_TABLE_CELLS)
        self.guide = np.empty(_SUM_TABLE_CELLS + _SUM_TABLE_MAX_COUNT, dtype=np.int64)
        self.key = np.empty(_SUM_TABLE_CELLS, dtype=np.uint64)
        sizes, offsets, cells, slots, rows = [], [], 0, 0, 0
        for start, _, cum, lo, hi in blocks:
            n = hi - lo
            width = np.maximum.accumulate(n)
            fit = int(np.count_nonzero(cells + np.arange(1, len(n) + 1) * width <= _SUM_TABLE_CELLS))
            if not fit:
                break
            full, span, width = len(n), cum.shape[1], int(width[fit - 1])
            lo, hi, n = lo[:fit], hi[:fit], n[:fit]
            flat, first = cum.ravel(), np.arange(0, fit * span, span)
            below = np.where(lo > 0, flat[first + lo - 1], 0.0)
            # Each row from its lower cut, over the block's widest row;
            # columns past the block's end repeat its last.
            cols = np.minimum(lo[:, None] + np.arange(width), span - 1)
            cols += first[:, None]
            out = self.cdf[cells: cells + fit * width].reshape(fit, width)
            np.take(flat, cols, out=out, mode="clip")  # in range: clip skips a buffer
            out -= below[:, None]
            out /= (flat[first + hi - 1] - below)[:, None]
            keys = self.key[cells: cells + fit * width].reshape(fit, width)
            np.multiply(out, 2.0**53, out=keys.view(np.float64))  # no temporary to fault in
            np.ceil(keys.view(np.float64), out=keys, casting="unsafe")
            keys += (np.arange(rows, rows + fit, dtype=np.uint64) << 54)[:, None]
            # Row keys do not overlap, so one running count of the cells
            # below each slot fills every guide of the block.
            ends = np.cumsum(n + 1)
            key = (out * n[:, None]).astype(np.int64)
            key += (ends - n - 1)[:, None]
            at = np.bincount(key.ravel(), minlength=ends[-1])
            guide = np.cumsum(at, out=self.guide[slots: slots + ends[-1]])
            guide -= at - cells
            sizes.append(n)
            offsets.append(start + lo - cells - width * np.arange(fit))
            cells, slots, rows = cells + fit * width, slots + int(ends[-1]), rows + fit
            if fit < full:
                break
        n = np.concatenate([np.zeros(0, dtype=np.int64), *sizes])
        self.max_count = len(n)
        self.cdf, self.guide, self.key = self.cdf[:cells], self.guide[:slots], self.key[:cells]
        # Indexed by the number of individuals c; index 0 is unused.
        self.guide_start = np.append(0, np.cumsum(n + 1) - n - 1)
        self.guide_size = np.append(0.0, n)
        self.offset = np.concatenate([[0], *offsets])
        self.row_key = (np.arange(len(n) + 1, dtype=np.uint64) - 1) << 54  # index 0 unused

    def draw(self, counts: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """One progeny sum per size in ``counts`` (1-D, in 1..max_count)."""
        u = gen.random(len(counts))
        slot = self.guide_start[counts] + (u * self.guide_size[counts]).astype(np.int64)
        cell = self.guide[slot]
        # One step settles the sums whose slot holds at most one cell; the
        # others, about 3%, are still at or below u and search the keys.
        cell += self.cdf[cell] <= u
        far = np.flatnonzero(self.cdf[cell] <= u)
        v = u[far]
        at = np.searchsorted(self.key, self.row_key[counts[far]] | (v * 2.0**53).astype(np.uint64),
                             side="right")
        while (tie := self.cdf[at] <= v).any():  # a u off the 2^-53 grid may tie a key
            at += tie
        cell[far] = at
        return self.offset[counts] + cell


def _sum_law_blocks(dist: OffspringDistribution):
    """The laws of the progeny sums of 1, 2, ... individuals, in blocks of
    rows: a generator of (start, rows, cum, lo, hi), nothing when the pmf
    is too wide for the cell budget.

    ``rows[i]`` is the law of the next sum on the values start, start + 1,
    ..., ``cum[i]`` its running total, and its cells ``lo[i]..hi[i]-1`` are
    those left when each tail is cut where less than 2^-53 of mass lies
    beyond it. The first block holds the laws of 1..B individuals, B =
    ``_SUM_TABLE_BLOCK``, convolved one after the other. Each later block
    holds the next B laws at once, as the block before's last law convolved
    with each of the first B, in one matrix product; both factors are first
    cut where less than ``_BUILD_TAIL_MASS`` lies beyond them. Stops after
    ``_SUM_TABLE_MAX_COUNT`` rows, or before a convolution or a block whose
    multiply-adds would take the total past ``_SUM_TABLE_WORK``.
    """
    pmf = dist._dense_pmf(_SUM_TABLE_CELLS)
    if pmf is None:
        return
    powers, work = [pmf], len(pmf)
    while len(powers) < _SUM_TABLE_BLOCK and work + len(powers[-1]) * len(pmf) <= _SUM_TABLE_WORK:
        work += len(powers[-1]) * len(pmf)
        powers.append(np.convolve(powers[-1], pmf))
    rows = np.zeros((len(powers), len(powers[-1])))
    for i, power in enumerate(powers):
        rows[i, : len(power)] = power
    start, count, kernel = 0, 0, None
    while True:
        rows = rows[: _SUM_TABLE_MAX_COUNT - count]
        cum = rows.cumsum(axis=1)
        back = rows[:, ::-1].cumsum(axis=1)[:, ::-1]  # the mass at and above each value
        yield (start, rows, cum, (cum < _TAIL_MASS).sum(axis=1),
               rows.shape[1] - (back < _TAIL_MASS).sum(axis=1))
        count += len(rows)
        if count == _SUM_TABLE_MAX_COUNT or len(rows) < _SUM_TABLE_BLOCK:
            return
        if kernel is None:
            # The first block's laws on the values 0..K-1, reversed: row
            # j of the product is then the seed convolved with law j.
            inside = (cum >= _BUILD_TAIL_MASS) & (back >= _BUILD_TAIL_MASS)
            top = int(inside.any(axis=0).nonzero()[0][-1])
            kernel = np.where(inside, rows, 0.0)[:, top::-1].copy()
        keep = ((cum[-1] >= _BUILD_TAIL_MASS) & (back[-1] >= _BUILD_TAIL_MASS)).nonzero()[0]
        seed, start = rows[-1, keep[0]: keep[-1] + 1], start + int(keep[0])
        span = kernel.shape[1]
        width = len(seed) + span - 1
        work += len(kernel) * span * width
        if work > _SUM_TABLE_WORK:
            return
        padded = np.zeros(width + span - 1)
        padded[span - 1: span - 1 + len(seed)] = seed
        # Row i is padded[i: i + span], a window of the zero-padded seed.
        windows = np.ndarray((width, span), buffer=padded, strides=(8, 8))
        # Products of at most _BLAS_ONE_THREAD multiply-adds, which OpenBLAS
        # runs on one thread: a second thread costs more than it saves here,
        # and far more when another process holds the other core.
        step = max(1, _BLAS_ONE_THREAD // kernel.size)
        out = np.empty((width, len(kernel)))
        for at in range(0, width, step):
            np.matmul(windows[at: at + step], kernel.T, out=out[at: at + step])
        rows = np.ascontiguousarray(out.T)


@functools.lru_cache(maxsize=16)
def _sum_table(dist: OffspringDistribution) -> _SumTable | None:
    """The law's sum table, built once per process; None when the pmf's
    support is too wide for even the one-individual row.
    """
    table = _SumTable(_sum_law_blocks(dist))
    return table if table.max_count else None


def _discrete_table(support, weights) -> tuple[np.ndarray, np.ndarray]:
    support = np.asarray(support, dtype=np.int64)
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf[-1] = max(cdf[-1], 1.0)
    return support, cdf


def _poisson_pmf(lam: float, cells: int) -> np.ndarray | None:
    """The poisson(lam) pmf on 0, 1, ..., cut where its tail mass drops
    below ``_BUILD_TAIL_MASS``, or None if that takes more than ``cells``.

    Past k >= 2 lam the terms at least halve, so the tail beyond a term is
    below it; logs keep e^-lam from underflowing.
    """
    if 2 * lam >= cells:
        return None
    probs = []
    while len(probs) <= 2 * lam or probs[-1] >= _BUILD_TAIL_MASS:
        k = len(probs)
        probs.append(math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) if lam else float(k == 0))
    return np.array(probs) if len(probs) <= cells else None


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
        pmf = _poisson_pmf(lam, _POISSON_CELLS)
        if pmf is None:
            raise InvalidParameter(f"poisson lambda must be below {_POISSON_CELLS // 2} "
                                   f"for its cdf to be tabulated, got {lam}")
        support, cdf = _discrete_table(np.arange(len(pmf)), pmf)
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
