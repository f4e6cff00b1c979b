"""Galton-Watson trajectories and truncated/shifted companions on shared sums.

The base process follows X_{n+1} = sum_{j=1}^{X_n} xi_{n,j} started from
X_0 = K. For a truncation level a in [0, 1) the companion process is
floored at b = floor(a*K) each step, X_{n+1}^(a) = max{b, progeny sum},
and its shifted version is Y_n^(a) = X_n^(a) - b. All processes are
driven by one progeny prefix sum S(s) = sum_{j<=s} xi_{n,j} per
generation, read at their current sizes. Only those 1+L values are ever
drawn: the gaps between the sorted sizes are independent progeny sums
(shared block sums, not individual draws), which gives the exact joint
law of S at those points. Because offspring counts are nonnegative, S is
nondecreasing, so the pathwise sandwich Y_n^(a) <= X_n <= X_n^(a) and the
pre-decoupling agreement between levels are checkable sample by sample,
not just in law (the lower half, Y_n^(a) <= X_n, only for offspring in
{0, 1}).

One engine steps every kind of path. :func:`coupled_step` is the one
generation step: each path is a row of sizes with one floor per column,
the plain chain being the one-column row [X] with floor 0 (or the chain
floored at b with floor b), for which the gap is the size itself.
:func:`plain_sizes` is the one generation loop: it steps only the live
paths, and drops a path once every column of its row is 0, so extinct
paths cost nothing.

The engine steps a *stack*: consecutive batches held in one matrix whose
paths are numbered batch after batch, all drawing from one generator. A
generation is one sort, one ``closure_sums`` call over the whole stack and
one compaction, so a batch's draws depend on which batches share its
stack; the uniforms of distinct paths are disjoint, so the batches stay
independent. A one-batch stack is a plain batch. Every stack, a single
path included, goes through :func:`plain_batch`, which scatters those
steps back into each batch's extinction times, size and indicator
matrices and gate-violation counts, and :func:`trajectory_rows` turns a
plain or coupled batch's sizes into its trajectory CSV rows with
:func:`csv_rows`, a numpy kernel that writes the digits of every integer
of a batch at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .offspring import OffspringDistribution
from .randomness import RandomnessSource


def floor_level(a: float, K: int) -> int:
    """floor(a*K), guarded against binary representation error.

    Levels arrive through JSON configs, so a value meant as 0.1*K may be
    stored as the float just under it; the epsilon keeps the floor from
    dropping a whole unit in that case.
    """
    if not 0.0 <= a < 1.0:
        raise ValueError(f"truncation level must be in [0, 1), got {a}")
    return int(math.floor(a * K + 1e-9))


def default_horizon(K: int, mean: float, multiplier: int = 10) -> int:
    """Generation cap: ``multiplier`` times the asymptotic mean scale.

    The mean extinction scale is log K / (-log mean); ten times that
    makes survival past the cap astronomically unlikely while keeping
    runtime bounded. Requires a strictly subcritical mean.
    """
    if not 0.0 <= mean < 1.0:
        raise ValueError(
            f"no default horizon for offspring mean {mean}; pass an explicit one"
        )
    if mean == 0.0:
        return max(1, multiplier)
    scale = math.log(max(K, 2)) / -math.log(mean)
    return multiplier * max(1, math.ceil(scale))


@dataclass
class PathRecord:
    """One realized trajectory of the base process.

    ``sizes`` starts at X_0 = K and, if the path went extinct, ends at
    its first zero (zero is absorbing, so nothing follows it). When the
    generation cap was hit first, ``horizon_exceeded`` is set instead of
    raising: callers decide whether a censored path is acceptable.
    """

    initial_size: int
    sizes: list[int]
    extinct: bool
    extinction_time: int | None
    horizon_exceeded: bool
    path: int = 0

    def __post_init__(self):
        if self.extinct:
            assert self.extinction_time == len(self.sizes) - 1


@dataclass
class CoupledPaths:
    """Base and truncated/shifted processes driven by shared progeny sums.

    All sequences share the grid n = 0..horizon. ``indicators[a][n]``
    tells whether the level-a progeny sum at generation n exceeded the
    floor, i.e. whether Y_{n+1}^(a) > 0; it has one entry per simulated
    step (none for the final row). Base sizes keep trailing zeros so the
    rows stay aligned across levels.
    """

    initial_size: int
    levels: list[float]
    floors: dict[float, int]
    base_sizes: list[int]
    truncated: dict[float, list[int]]
    shifted: dict[float, list[int]]
    indicators: dict[float, list[int]]
    extinct: bool
    extinction_time: int | None
    horizon_exceeded: bool
    path: int = 0

    @property
    def horizon(self) -> int:
        return len(self.base_sizes) - 1


def batch_slices(counts: Sequence[int]) -> list[slice]:
    """Each batch's paths in a stack whose batches hold ``counts`` paths."""
    return [slice(end - count, end) for count, end in zip(counts, accumulate(counts))]


def plain_sizes(
    K: int,
    paths: int,
    dist: OffspringDistribution,
    gen: np.random.Generator,
    horizon: int,
    floors: Sequence[int] = (0,),
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Step ``paths`` paths from K on the one generator ``gen``, one
    generation per yield.

    A path is a row of one size per entry of ``floors`` (see
    :func:`coupled_step`), every size starting at K. Yields ``(live, sizes,
    flags)`` at generations 1, 2, ..., horizon: ``live`` holds the indices
    of the paths alive before the step, and ``sizes`` and ``flags`` their
    next sizes and indicators. Zero is absorbing, so a path whose sizes are
    all 0 is dropped after the yield, and the generator stops once none is
    left. ``closure_sums`` draws nothing for a size of 0, so dropping the
    dead paths changes no draw of the live ones.
    """
    floors = np.asarray(floors, dtype=np.int64)
    live = np.arange(paths)
    sizes = np.full((paths, floors.size), K, dtype=np.int64)
    for _ in range(horizon):
        sizes, flags = coupled_step(sizes, floors, dist, gen)
        yield live, sizes, flags
        alive = np.flatnonzero(sizes.any(axis=1))
        if alive.size < len(sizes):
            if not alive.size:
                return
            live, sizes = live[alive], np.take(sizes, alive, axis=0)


def plain_batch(
    K: int,
    counts: Sequence[int],
    dist: OffspringDistribution,
    gen: np.random.Generator,
    horizon: int,
    floors: Sequence[int] = (0,),
    *,
    rows: bool = False,
) -> list[tuple[np.ndarray, np.ndarray | None, np.ndarray | None, list[int]]]:
    """Run a stack of batches on :func:`plain_sizes`, all drawing from ``gen``.

    Batch i holds ``counts[i]`` paths, numbered batch after batch; the
    counts only split the results. Returns one ``(taus, sizes, flags,
    bad)`` per batch. ``taus`` holds each path's extinction time, the first
    generation at which its first column is 0, or -1 if that column is
    alive at the horizon. With ``rows``, ``sizes`` is the (generations,
    paths, 1+L) size matrix from K on, 0 after a path died out, and
    ``flags`` the (generations-1, paths, L) indicators; else both are None.
    With levels (L > 0), ``bad`` holds the batch's four gate-violation
    counts over every generation (see :func:`_violations`); else it is
    empty. A plain batch's rows stop with the last generation it stepped,
    so a batch that dies out early keeps no rows up to the horizon,
    whatever the other batches of its stack do. A batch with levels keeps
    every generation up to the horizon, with zeros after all its sizes
    reached 0.
    """
    floors = np.asarray(floors, dtype=np.int64)
    total, levels = sum(counts), len(floors) - 1
    taus = np.full(total, -1, dtype=np.int64)
    bad = np.zeros((total, 4 if levels else 0), dtype=np.int64)
    matrix, marks = [np.full((total, 1 + levels), K, dtype=np.int64)], []
    for n, (live, sizes, flags) in enumerate(plain_sizes(K, total, dist, gen, horizon, floors), 1):
        dead = live[sizes[:, 0] == 0]
        if levels:  # a row with levels outlives its base
            dead = dead[taus[dead] < 0]
            found = _violations(sizes, flags, floors, dist.single_child)
            if found.any():  # a correct run finds none, so the scatter is rare
                bad[live] += found
        taus[dead] = n
        if rows:  # the step's own matrices until a path dies, then scattered among zeros
            scattered = len(live) < total
            matrix.append(np.zeros((total, 1 + levels), dtype=np.int64) if scattered else sizes)
            marks.append(np.zeros((total, levels), dtype=bool) if scattered else flags)
            if scattered:
                matrix[-1][live], marks[-1][live] = sizes, flags
    if not rows:
        return [(taus[batch], None, None, bad[batch].sum(axis=0).tolist())
                for batch in batch_slices(counts)]
    if levels:  # every generation up to the horizon
        pad = horizon + 1 - len(matrix)
        matrix += [np.zeros_like(matrix[0])] * pad
        marks += [np.zeros_like(marks[0])] * pad
    matrix, marks = np.stack(matrix), np.stack(marks)
    parts = []
    for batch in batch_slices(counts):
        last = horizon if levels or (taus[batch] < 0).any() else int(taus[batch].max())
        parts.append((taus[batch], matrix[:last + 1, batch], marks[:last, batch],
                      bad[batch].sum(axis=0).tolist()))
    return parts


def simulate_path(
    K: int,
    dist: OffspringDistribution,
    src: RandomnessSource,
    path: int,
    *,
    horizon: int | None = None,
) -> PathRecord:
    """Run the base process until extinction or the generation cap.

    Runs :func:`plain_batch` on a stack of one one-path batch fed by the
    path's closure stream.
    """
    if K < 0:
        raise ValueError(f"initial size must be >= 0, got {K}")
    if K == 0:
        return PathRecord(0, [0], True, 0, False, path)
    if horizon is None:
        horizon = default_horizon(K, dist.mean)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    [(taus, sizes, _, _)] = plain_batch(K, [1], dist, src.closure_generator(path), horizon,
                                        rows=True)
    tau = int(taus[0])
    extinct = tau >= 0
    return PathRecord(K, sizes[:, 0, 0].tolist(), extinct, tau if extinct else None, not extinct,
                      path)


def coupled_step(
    sizes: np.ndarray,
    floors: np.ndarray,
    dist: OffspringDistribution,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One generation of a stack of paths: the engine's only step.

    ``sizes`` is a (paths, 1+L) matrix of current sizes and ``floors`` the
    matching (1+L) floors. A coupled row is [X, X^(a_1), ..., X^(a_L)] with
    floors [0, b_1, ..., b_L]; a plain row is [X] with floor 0, or the
    chain floored at b with floor b. Each row is sorted; the gaps between
    consecutive sizes (the first gap being the smallest size) are drawn as
    independent progeny sums in one ``closure_sums`` call on ``gen``, and
    their running sums, scattered back to the columns, are the progeny
    prefix sums S(.) at the current sizes. A one-column row's gap is its
    size, so it needs no sort or scatter. Returns the next sizes
    max(floor, S) and the (paths, L) indicators 1{S(X^(a)) > b_a}.
    """
    if sizes.shape[1] > 1:
        order = np.argsort(sizes, axis=1)
        gaps = np.diff(np.sort(sizes, axis=1), axis=1, prepend=0)
        progeny = np.empty_like(sizes)
        progeny[np.arange(len(sizes))[:, None], order] = np.cumsum(
            dist.closure_sums(gaps, gen), axis=1)
    else:  # drawn as a vector: numpy's samplers are slower on an (n, 1) matrix
        progeny = dist.closure_sums(sizes[:, 0], gen)[:, None]
    flags = progeny[:, 1:] > floors[1:]
    return (np.maximum(progeny, floors) if floors.any() else progeny), flags


def _violations(sizes: np.ndarray, flags: np.ndarray, floors: np.ndarray,
                single_child: bool) -> np.ndarray:
    """Sandwich, shift-identity, indicator and level-monotonicity violations
    of one generation of coupled rows, as a (paths, 4) count matrix.

    The sandwich gates X <= X^(a) for every law, and Y^(a) <= X only when no
    individual has more than one child: otherwise the b_a individuals that
    X^(a) has on top of X may have more than b_a children.
    """
    base, upper = sizes[:, :1], sizes[:, 1:]
    shifted = upper - floors[1:]
    return np.column_stack([
        np.count_nonzero(((shifted > base) & single_child) | (base > upper), axis=1),
        np.count_nonzero(shifted + floors[1:] != upper, axis=1),
        np.count_nonzero(flags != (shifted > 0), axis=1),
        np.count_nonzero(np.diff(upper, axis=1) < 0, axis=1),
    ])


def coupled_floors(levels: Sequence[float], K: int) -> np.ndarray:
    """[0, b_1, ..., b_L]: the floor of each column of a coupled batch."""
    return np.array([0] + [floor_level(a, K) for a in levels], dtype=np.int64)


def coupled_record(
    K: int, levels: Sequence[float], sizes: np.ndarray, flags: np.ndarray, path: int
) -> CoupledPaths:
    """One coupled path from its (horizon+1, 1+L) sizes and (horizon, L) indicators."""
    floors = {a: floor_level(a, K) for a in levels}
    base = sizes[:, 0]
    zeros = np.flatnonzero(base == 0)
    extinction_time = int(zeros[0]) if zeros.size else None
    return CoupledPaths(
        initial_size=K,
        levels=list(levels),
        floors=floors,
        base_sizes=base.tolist(),
        truncated={a: sizes[:, i + 1].tolist() for i, a in enumerate(levels)},
        shifted={a: (sizes[:, i + 1] - floors[a]).tolist() for i, a in enumerate(levels)},
        indicators={a: flags[:, i].astype(int).tolist() for i, a in enumerate(levels)},
        extinct=extinction_time is not None,
        extinction_time=extinction_time,
        horizon_exceeded=extinction_time is None,
        path=path,
    )


def simulate_coupled(
    K: int,
    dist: OffspringDistribution,
    levels: Sequence[float],
    src: RandomnessSource,
    path: int,
    horizon: int | None = None,
) -> CoupledPaths:
    """Drive the base process and every truncation level on shared sums.

    Runs :func:`plain_batch` on a stack of one one-path batch with one
    column per level, fed by the path's closure stream: the base next size
    is S(X_n), the level-a next size is max{floor_a, S(X_n^(a))}, and the
    indicator is 1{S(X_n^(a)) > floor_a}.
    The level 0 process coincides with the base path identically. Without
    levels the path is a plain one, whose sizes end at its extinction.
    """
    if K < 0:
        raise ValueError(f"initial size must be >= 0, got {K}")
    levels = sorted(set(float(a) for a in levels))
    floors = coupled_floors(levels, K)
    if horizon is None:
        horizon = default_horizon(max(K, 1), dist.mean)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    [(_, sizes, flags, _)] = plain_batch(K, [1], dist, src.closure_generator(path), horizon,
                                         floors, rows=True)
    return coupled_record(K, levels, sizes[:, 0], flags[:, 0], path)


def level_label(a: float) -> str:
    """The name level ``a`` gives its trajectory columns: ``a`` at 4 decimals,
    with -0.0 written as 0.0000."""
    return f"{a + 0.0:.4f}"  # -0.0 + 0.0 is 0.0


def trajectory_header(levels: Sequence[float]) -> str:
    cols = ["path", "n", "X"]
    for a in map(level_label, levels):
        cols += [f"Xa_{a}", f"Ya_{a}", f"I_{a}"]
    return ",".join(cols)


def write_trajectories(
    records: Iterable[PathRecord | CoupledPaths], out: IO[str]
) -> None:
    """Dump trajectories as CSV, one row per (path, generation).

    Plain paths produce the three base columns; coupled paths add one
    column group per truncation level. Indicators describe the step out
    of a row, so the final row of each path leaves them blank.
    """
    header: str | None = None
    for rec in records:
        levels = rec.levels if isinstance(rec, CoupledPaths) else []
        if header is None:
            header = trajectory_header(levels)
            out.write(header + "\n")
        elif trajectory_header(levels) != header:
            raise ValueError("all records in one dump must share their levels")
        if isinstance(rec, CoupledPaths):
            last = rec.horizon
            for n, x in enumerate(rec.base_sizes):
                row = [str(rec.path), str(n), str(x)]
                for a in levels:
                    row += [
                        str(rec.truncated[a][n]),
                        str(rec.shifted[a][n]),
                        "" if n == last else str(rec.indicators[a][n]),
                    ]
                out.write(",".join(row) + "\n")
        else:
            for n, x in enumerate(rec.sizes):
                out.write(f"{rec.path},{n},{x}\n")


def csv_rows(columns: Sequence[np.ndarray], blank: Mapping[int, np.ndarray] | None = None) -> str:
    """The ASCII CSV text of one or more equal-length columns of nonnegative integers.

    Row j joins ``columns[c][j]`` as ``"%d"`` with commas and ends with a
    newline; the cells where ``blank[c]`` is true are left empty. Each
    column gets one byte slot per digit of its largest value and one for
    its separator, in a (bytes, rows) uint8 matrix whose every slot is a
    contiguous row. Repeated ``// 10`` fills the digit slots, in uint32
    when the column's largest value fits, and a keep mask drops leading
    zeros and blank cells. One ``np.compress`` of the transposed matrix
    then leaves the text. Raises ValueError on a negative value.
    """
    if any(col.min(initial=0) < 0 for col in columns):
        raise ValueError("csv_rows writes nonnegative integers only")
    blank = blank or {}
    tops = [int(col.max(initial=0)) for col in columns]
    widths = [len(str(top)) for top in tops]
    text = np.empty((sum(widths) + len(columns), len(columns[0])), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    end = 0
    for c, (col, top, width) in enumerate(zip(columns, tops, widths)):
        start, end = end, end + width
        q = col.astype(np.uint32 if top < 2**32 else np.int64)
        for slot in range(end - 1, start - 1, -1):
            np.greater(q, 0, out=keep[slot])
            tens = q // 10
            text[slot] = q - 10 * tens
            q = tens
        text[start:end] += ord("0")
        keep[end - 1] = True
        if c in blank:
            keep[start:end] &= ~blank[c]
        text[end] = ord(",")
        keep[end] = True
        end += 1
    text[-1] = ord("\n")
    return np.compress(keep.T.ravel(), text.T.ravel()).tobytes().decode("ascii")


def trajectory_rows(
    sizes: np.ndarray,
    first_path: int,
    floors: np.ndarray | None = None,
    flags: np.ndarray | None = None,
) -> str:
    """The rows :func:`write_trajectories` writes for a batch of paths.

    ``sizes`` is the (generations, paths, 1+L) size matrix [X, X^(a_1),
    ..., X^(a_L)] from X_0 on, and path i of the batch is ``first_path + i``.
    Plain paths (L = 0) run to their first zero, or to the last generation
    if they never reach 0. Coupled paths write every generation, with
    Y^(a) = X^(a) - b_a from ``floors`` = [0, b_1, ..., b_L] and the
    (generations-1, paths, L) indicators ``flags``, blank on the last row.
    Both go through :func:`csv_rows`.
    """
    gens, paths, width = sizes.shape
    base = sizes[:, :, 0].T
    if width == 1:
        keep = np.ones(base.shape, dtype=bool)
        keep[:, 1:] = base[:, :-1] > 0
        path, n = np.nonzero(keep)
        return csv_rows([path + first_path, n, base[keep]])
    path = np.repeat(np.arange(first_path, first_path + paths), gens)
    n = np.tile(np.arange(gens), paths)
    upper = sizes[:, :, 1:].transpose(2, 1, 0).reshape(width - 1, -1)
    shifted = upper - floors[1:, None]
    indicators = np.zeros((width - 1, paths, gens), dtype=np.uint8)
    indicators[:, :, :-1] = flags.transpose(2, 1, 0)
    last = np.zeros((paths, gens), dtype=bool)
    last[:, -1] = True
    columns = [path, n, base.ravel()]
    for i in range(width - 1):
        columns += [upper[i], shifted[i], indicators[i].ravel()]
    return csv_rows(columns, {5 + 3 * i: last.ravel() for i in range(width - 1)})
