"""Deterministic random streams.

Every stochastic component draws from an :class:`RngState`, which is fully
determined by a ``(seed, stream_id)`` pair. Equal pairs reproduce equal draw
sequences on every platform; components that must not share draws are given
distinct stream ids (see :meth:`RngState.substream`).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 mixer; maps 64-bit ints to 64-bit ints."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RngState:
    """A named random stream: PCG64 keyed by (seed, stream_id).

    The generator is created lazily and advances as values are drawn, so
    whatever draws from a shared RngState changes what later draws see.
    Derive independent child streams with :meth:`substream`.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def substream(self, tag: int) -> "RngState":
        """Fresh independent stream; a pure function of (seed, stream_id, tag)."""
        return RngState(self.seed, splitmix64(self.stream_id ^ splitmix64(int(tag))))

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngState(seed={self.seed}, stream_id={self.stream_id})"
