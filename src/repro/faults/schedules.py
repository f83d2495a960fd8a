"""Deterministic fault schedules: *when* an armed fault fires.

Hit indexes are 1-based and private to each arming, and a schedule's
decision is a function of the hit index alone, so the same schedule — a
fresh instance or one re-armed — always reproduces the same firing
pattern for the same workload: the property the crash-torture harness
depends on to shrink and replay failures.
"""

from __future__ import annotations

import random
from typing import Protocol


class Schedule(Protocol):
    def should_fire(self, hit: int) -> bool:
        """Decide for the ``hit``-th time the site is reached (1-based)."""
        ...


class Never:
    """A disarmed placeholder (useful to neutralize a shared arming)."""

    def should_fire(self, hit: int) -> bool:
        return False


class Always:
    """Fire on every hit."""

    def should_fire(self, hit: int) -> bool:
        return True


class OnNth:
    """Fire exactly once, on the nth hit (1-based)."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("OnNth needs n >= 1 (hit indexes are 1-based)")
        self.n = n

    def should_fire(self, hit: int) -> bool:
        return hit == self.n

    def __repr__(self) -> str:
        return f"OnNth({self.n})"


class EveryKth:
    """Fire on every kth hit (k, 2k, 3k, ...), optionally at most ``limit`` times."""

    def __init__(self, k: int, limit: int | None = None):
        if k < 1:
            raise ValueError("EveryKth needs k >= 1")
        self.k = k
        self.limit = limit

    def should_fire(self, hit: int) -> bool:
        return hit % self.k == 0 and (self.limit is None or hit <= self.k * self.limit)

    def __repr__(self) -> str:
        return f"EveryKth({self.k})"


class SeededProbability:
    """Fire each hit with probability ``p``, from a private seeded RNG.

    The RNG is owned by the schedule instance and reseeded at hit 1, so
    the decision sequence is a pure function of (seed, hit index) —
    independent of any other randomness in the process, and the same
    again when the instance is re-armed.
    """

    def __init__(self, p: float, seed: int, limit: int | None = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.p = p
        self.seed = seed
        self.limit = limit
        self._rng = random.Random(seed)
        self._fired = 0

    def should_fire(self, hit: int) -> bool:
        if hit == 1:
            self._rng = random.Random(self.seed)
            self._fired = 0
        if self.limit is not None and self._fired >= self.limit:
            # Keep consuming the stream so the decision for hit N never
            # depends on whether earlier fires were suppressed.
            self._rng.random()
            return False
        if self._rng.random() < self.p:
            self._fired += 1
            return True
        return False

    def __repr__(self) -> str:
        return f"SeededProbability(p={self.p}, seed={self.seed})"
