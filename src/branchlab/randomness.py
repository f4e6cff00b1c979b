"""Counter-addressed randomness for reproducible, coupled simulations.

All draws come from numpy's Philox-4x64 counter-based generator. The
128-bit key holds ``(seed, path)`` and the 256-bit counter reserves one
word for the generation index and one for a stream tag, so every
``(seed, path, generation, stream)`` owns a disjoint block of 2^64
outputs. Consequences:

* the j-th uniform of a generation block is a pure function of
  ``(seed, path, generation, j)``, whatever else was read before it;
* blocks are prefix-stable: asking for 5 uniforms returns the first 5
  of the 9 you would get asking for 9;
* paths are embarrassingly parallel, since nothing is shared or
  consumed across path indices.

Addressed uniform blocks live on the ``UNIFORMS`` stream. No simulation
reads it; ``uniforms`` stays because the benchmark's tracer names it.
Simulations draw progeny sums, never individual offspring: a single path
(plain or coupled) consumes its free-running ``CLOSURE`` stream in
generation order, and a stack of batches consumes the ``HANDLE`` stream
rooted at (its first batch, slot). The coupled processes share block sums
drawn from these streams, not addressed individual draws.
"""

from __future__ import annotations

import numpy as np

TAG_UNIFORMS = 0
TAG_CLOSURE = 1
TAG_HANDLE = 2

_U64 = 1 << 64


class RandomnessSource:
    """Factory for addressed uniforms and sequential generators.

    A source is cheap to construct and safe to share; every call returns a
    generator of its own, so several can be read at once. Worker processes
    should each build their own from the same seed.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or not 0 <= seed < _U64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        self.seed = seed

    def _generator(self, path: int, generation: int, tag: int) -> np.random.Generator:
        """A fresh generator at the start of the (path, generation, tag) block."""
        if not 0 <= path < _U64:
            raise ValueError(f"path index out of range: {path}")
        if not 0 <= generation < _U64:
            raise ValueError(f"generation out of range: {generation}")
        return np.random.Generator(np.random.Philox(
            counter=np.array([0, generation, tag, 0], dtype=np.uint64),
            key=np.array([self.seed, path], dtype=np.uint64)))

    def uniforms(self, path: int, generation: int, count: int) -> np.ndarray:
        """The first ``count`` uniforms of the (path, generation) block."""
        return self._generator(path, generation, TAG_UNIFORMS).random(count)

    def closure_generator(self, path: int) -> np.random.Generator:
        """Sequential generator for a path's closure stream.

        The stream starts at a fixed address per ``(seed, path)`` and is
        consumed in generation order by the caller.
        """
        return self._generator(path, 0, TAG_CLOSURE)

    def handle(self, path: int = 0, generation: int = 0) -> np.random.Generator:
        """A sequential generator rooted at (path, generation)."""
        return self._generator(path, generation, TAG_HANDLE)
