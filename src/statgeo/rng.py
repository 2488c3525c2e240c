"""Seeded random streams with deterministic replay and child derivation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RngStream:
    """A PCG64 generator owned by exactly one caller.

    Two streams built from the same seed replay bit-identical sample
    sequences. ``child(key)`` derives an independent stream
    deterministically, which is how optimizers refresh common random
    numbers per iteration without sharing mutable state.
    """

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._gen = np.random.default_rng(np.random.SeedSequence(self.seed))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def child(self, key: int) -> "RngStream":
        stream = RngStream.__new__(RngStream)
        stream.seed = self.seed
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
        stream._gen = np.random.default_rng(seq)
        return stream
