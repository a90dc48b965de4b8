"""Deterministic random number management.

Every stochastic component of the reproduction (topology generation, random
tree construction, RanSub subset selection, loss draws, gossip target
selection) draws from a named child of a single root seed, so a whole
experiment is reproducible from one integer and individual subsystems remain
decoupled: adding draws to one subsystem does not perturb another.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 63-bit child seed from a root seed and a label."""
    digest = zlib.crc32(f"{root_seed}:{name}".encode("utf-8"))
    return (root_seed * 1_000_003 + digest) & 0x7FFF_FFFF_FFFF_FFFF


class SeededRng:
    """A labelled wrapper around :class:`random.Random`.

    Provides the handful of sampling helpers the protocols need, plus the
    ability to spawn further named children (e.g. one per overlay node).
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(_derive_seed(seed, name))

    def child(self, name: str) -> "SeededRng":
        """Create a child generator whose stream is independent of this one."""
        return SeededRng(_derive_seed(self.seed, self.name + "/" + name), name)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly choose one element of a non-empty sequence."""
        return self._random.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements; clamps ``k`` to the population size."""
        k = min(k, len(population))
        return self._random.sample(population, k)

    def shuffle(self, items: list[T]) -> None:
        """Shuffle a list in place."""
        self._random.shuffle(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one element with probability proportional to its weight."""
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def permutation(self, items: Iterable[T]) -> list[T]:
        """Return a shuffled copy of ``items``."""
        out = list(items)
        self._random.shuffle(out)
        return out


def spawn_rng(seed: int, *names: str) -> SeededRng:
    """Convenience constructor walking a path of child names from a root seed."""
    rng = SeededRng(seed)
    for name in names:
        rng = rng.child(name)
    return rng
