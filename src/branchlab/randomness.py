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

Addressed uniform blocks live on the ``UNIFORMS`` stream; the bernoulli
lifetime sampler inverts one per path. Simulations draw progeny sums,
never individual offspring: a single path (plain or coupled) consumes its
free-running ``CLOSURE`` stream in generation order, and batch loops
consume a ``HANDLE`` stream rooted at (batch, slot). The coupled
processes share block sums drawn from these streams, not addressed
individual draws.
"""

from __future__ import annotations

import numpy as np

TAG_UNIFORMS = 0
TAG_CLOSURE = 1
TAG_HANDLE = 2

_U64 = 1 << 64


class RandomnessSource:
    """Factory for addressed uniforms and sequential generators.

    A source is cheap to construct and safe to share within one process;
    worker processes should each build their own from the same seed.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int) or not 0 <= seed < _U64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        self.seed = seed
        self._bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._closure_bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self._closure_gen = np.random.Generator(self._closure_bitgen)
        self._closure_state = self._closure_bitgen.state

    def _position(self, path: int, generation: int, tag: int) -> np.random.Generator:
        if not 0 <= path < _U64:
            raise ValueError(f"path index out of range: {path}")
        if not 0 <= generation < _U64:
            raise ValueError(f"generation out of range: {generation}")
        st = self._state
        st["state"]["key"][:] = (self.seed, path)
        st["state"]["counter"][:] = (0, generation, tag, 0)
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bitgen.state = st
        return self._gen

    def uniforms(self, path: int, generation: int, count: int) -> np.ndarray:
        """The first ``count`` uniforms of the (path, generation) block."""
        return self._position(path, generation, TAG_UNIFORMS).random(count)

    def closure_generator(self, path: int) -> np.random.Generator:
        """Sequential generator for a path's closure stream.

        The stream starts at a fixed address per ``(seed, path)`` and is
        consumed in generation order by the caller. Repositioning happens
        in place: the generator previously returned for another path is
        invalidated (simulate paths one at a time per source).
        """
        if not 0 <= path < _U64:
            raise ValueError(f"path index out of range: {path}")
        st = self._closure_state
        st["state"]["key"][:] = (self.seed, path)
        st["state"]["counter"][:] = (0, 0, TAG_CLOSURE, 0)
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._closure_bitgen.state = st
        return self._closure_gen

    def handle(self, path: int = 0, generation: int = 0) -> DrawHandle:
        """An independent sequential handle rooted at (path, generation).

        Handles own their generator, so several can be alive at once.
        """
        bitgen = np.random.Philox(key=np.array([self.seed, path], dtype=np.uint64))
        st = bitgen.state
        st["state"]["counter"][:] = (0, generation, TAG_HANDLE, 0)
        bitgen.state = st
        return DrawHandle(np.random.Generator(bitgen), path, generation)


class DrawHandle:
    """A positioned, sequentially consumed randomness handle."""

    def __init__(self, generator: np.random.Generator, path: int, generation: int):
        self.generator = generator
        self.path = path
        self.generation = generation

    def uniform(self) -> float:
        return float(self.generator.random())

    def uniforms(self, count: int) -> np.ndarray:
        return self.generator.random(count)

    def __repr__(self) -> str:
        return f"DrawHandle(path={self.path}, generation={self.generation})"
