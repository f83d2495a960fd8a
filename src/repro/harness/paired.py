"""The one sampling routine: alternating pairs of seed-identical work.

This host's speed swings 1.8x for stretches of seconds (``bench/calib.py``),
so a ratio of two wall-clock samples taken at different times says little.
Here every arm runs the same seeded work within one pair, a pair lasts
milliseconds, arm order alternates so no arm always runs warm, and the
cyclic GC is paused so a collection does not land on whichever arm is
running. :func:`paired` is the only place the harness reads a clock around
a workload; every timing it reports is a per-pair ratio or a quartile of
one arm's samples.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.obs.metrics import get_registry

#: ``arm(seed)`` does the untimed preparation for one pair (seed the RNG,
#: flip a switch, fill a table) and returns the work to time.
Arm = Callable[[int], Callable[[], object]]


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


@dataclass
class Paired:
    """What one :func:`paired` run measured."""

    times: dict[str, list[float]]           # arm -> seconds, one per pair
    counts: dict[str, dict[str, float]]     # arm -> registry-counter deltas, whole run

    @property
    def pairs(self) -> int:
        return len(next(iter(self.times.values())))

    def per_pair(self) -> dict[str, dict[str, float]]:
        """Each arm's counter deltas per pair (per run of its work)."""
        return {arm: {c: v / self.pairs for c, v in counts.items()}
                for arm, counts in self.counts.items()}

    def wall_ms(self, arm: str, per: int = 1) -> list[float]:
        """The arm's (q1, median, q3) in ms, per ``per`` units of work."""
        return [round(q * 1000.0 / per, 4) for q in quartiles(self.times[arm])]

    def ratios(self, arm: str, base: str) -> list[float]:
        return [a / b for a, b in zip(self.times[arm], self.times[base])]

    def ratio(self, arm: str, base: str) -> float:
        """Median over pairs of ``arm``'s time over ``base``'s."""
        return statistics.median(self.ratios(arm, base))

    def claim(
        self, text: str, paper: str, measured: str, arm: str, base: str, below: float = 1.0
    ) -> dict:
        """The claim "``arm`` takes under ``below`` x ``base``'s time".

        ✓ when that holds in at least nine tenths of the pairs and the median
        ratio clears ``below`` by more than the ratios' interquartile
        distance; ✗ when the opposite does; ``~`` (unresolved) otherwise.
        A paired claim is reported, never asserted.
        """
        ratios = self.ratios(arm, base)
        q1, median, q3 = quartiles(ratios)
        wins = sum(r < below for r in ratios)
        losses = sum(r > below for r in ratios)
        verdict = "~"
        if abs(below - median) > q3 - q1:
            if wins >= 0.9 * len(ratios) and median < below:
                verdict = "✓"
            elif losses >= 0.9 * len(ratios) and median > below:
                verdict = "✗"
        return {
            "claim": text, "paper": paper, "measured": measured,
            "basis": "paired", "verdict": verdict, "wins": f"{wins}/{len(ratios)}",
        }


def paired(
    arms: Mapping[str, Arm], pairs: int, seed_base: int, counters: Sequence[str] = ()
) -> Paired:
    """Run every arm once per pair on seed ``seed_base + i``; time the work.

    ``counters`` names registry counters whose movement over each arm's
    timed work is summed per arm — the counted half of a demand.
    """
    registry = get_registry()
    names = list(arms)
    times: dict[str, list[float]] = {name: [] for name in names}
    counts = {name: dict.fromkeys(counters, 0) for name in names}
    gc.collect()
    gc.disable()
    try:
        for i in range(pairs):
            for name in names if i % 2 == 0 else reversed(names):
                work = arms[name](seed_base + i)
                before = [registry.value(counter) for counter in counters]
                started = time.perf_counter()
                work()
                times[name].append(time.perf_counter() - started)
                for counter, value in zip(counters, before):
                    counts[name][counter] += registry.value(counter) - value
    finally:
        gc.enable()
    return Paired(times, counts)
