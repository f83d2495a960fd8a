"""Leakage accounting: per-column counters of adversary-observable events.

The paper's Figure 5 analysis treats leakage qualitatively (which ecalls
reveal what); "Information Flows in Encrypted Databases" argues leakage
should be an *accountable quantity*. This module makes it one: every
adversary-observable event is attributed to the column whose data it
reveals something about —

* ``det_equality`` — a DET ciphertext byte comparison (equality classes
  of the column become visible wherever its ciphertexts are ordered);
* ``rnd_comparison`` — an RND comparison verdict returned in the clear
  by the enclave (ordering leakage of range processing);
* ``index_touch`` — a B+-tree node touched during a descent over the
  column's index (access-pattern leakage).

Counts are global per (column, kind); every observation also lands in
the flight recorder as a ``leak.*`` event carrying the active statement
identity, so a recording answers "which statement leaked what about
which column". Inside a statement the observations are buffered in its
record and reach the ledger in one locked pass when it settles — batched,
never dropped and never merged across columns or kinds; a read includes
the calling thread's own open statements, as ``Counter.value`` does.
"""

from __future__ import annotations

import threading

from repro.obs.flightrec import record_event
from repro.obs.metrics import get_registry

#: Accountable leakage kinds → the flight-recorder event they emit.
LEAK_KINDS: dict[str, str] = {
    "det_equality": "leak.det_equality",
    "rnd_comparison": "leak.rnd_comparison",
    "index_touch": "leak.index_touch",
}

#: Label used when instrumentation cannot name the column (e.g. an
#: ad-hoc comparator outside any table schema).
UNLABELLED = "<unlabelled>"


class LeakageAccountant:
    """Per-(column, kind) counts of adversary-observable events."""

    def __init__(self, registry=None):
        self._registry = registry or get_registry()
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self._total = self._registry.counter(
            "leakage.events_observed",
            help="adversary-observable events attributed to columns",
        )

    def record(self, column: str | None, kind: str, count: int = 1) -> None:
        if kind not in LEAK_KINDS:
            raise ValueError(
                f"unknown leakage kind {kind!r}; declared: {sorted(LEAK_KINDS)}"
            )
        if count <= 0 or not self._registry.enabled:
            return
        column = column or UNLABELLED
        statement = self._registry.thread.record
        if statement is None:
            self._settle([((column, kind), count)])
        elif self in statement.deferred:
            statement.deferred[self].append(((column, kind), count))
        else:
            statement.deferred[self] = [((column, kind), count)]
        self._total.inc(count)
        record_event(LEAK_KINDS[kind], column=column, count=count)

    def _settle(self, observations) -> None:
        with self._lock:
            counts = self._counts
            for key, count in observations:
                counts[key] = counts.get(key, 0) + count

    def snapshot(self) -> dict[str, dict[str, int]]:
        """``{column: {kind: count}}`` with zero-count kinds omitted: settled
        statements plus the calling thread's own open ones, as
        :attr:`Counter.value` reads ``leakage.events_observed``."""
        with self._lock:
            counts = dict(self._counts)
        statement = self._registry.thread.record
        while statement is not None:
            for key, count in statement.deferred.get(self, ()):
                counts[key] = counts.get(key, 0) + count
            statement = statement.parent
        out: dict[str, dict[str, int]] = {}
        for (column, kind), count in sorted(counts.items()):
            out.setdefault(column, {})[kind] = count
        return out

    def total(self, column: str | None = None) -> int:
        return sum(
            sum(kinds.values())
            for col, kinds in self.snapshot().items()
            if column is None or col == column
        )

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()


_global_accountant = LeakageAccountant()


def get_leakage_accountant() -> LeakageAccountant:
    """The process-global accountant comparators and indexes report into."""
    return _global_accountant


def record_leak(column: str | None, kind: str, count: int = 1) -> None:
    """Module-level hook used by comparators and the B+-tree."""
    _global_accountant.record(column, kind, count)
