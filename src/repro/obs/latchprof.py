"""Latch-contention profiling over the declared lock hierarchy.

The repo declares a total lock order (``DEFAULT_LOCK_ORDER`` in
:mod:`repro.analysis.config`) that the static analyzer enforces — but
until now nothing measured *contention* along it: which level threads
actually queue on, for how long, attributed to which statement. This
module adds that:

* :class:`TimedLatch` — a drop-in reentrant latch for the storage-layer
  ``_latch``/``_lock`` attributes. Uncontended acquisition is one extra
  non-blocking ``acquire`` attempt; only contended acquisitions measure
  and report their wait.
* :class:`LatchProfiler` — per-level and per-latch cumulative/max wait
  accounting. Waits also feed per-level *counters* (``latch.l07_waits``,
  ``latch.l07_wait_seconds``), which is what routes them through the
  waiting thread's :class:`~repro.obs.metrics.StatementRecord` into its
  statement's :class:`~repro.obs.querystats.QueryStats` — per-statement
  contention in ``EXPLAIN STATS`` without any per-statement plumbing.

Every contended wait is also a ``latch.wait`` flight-recorder event, so
recordings show contention on the timeline next to the statement spans.
"""

from __future__ import annotations

import threading
import time
from fnmatch import fnmatch

from repro.analysis.config import DEFAULT_LOCK_ORDER
from repro.obs.flightrec import record_event
from repro.obs.metrics import Counter, get_registry


class LatchProfiler:
    """Attributes latch waits to levels of the declared lock order."""

    def __init__(self, levels: tuple[str, ...] = DEFAULT_LOCK_ORDER, registry=None):
        self.levels = levels
        self._registry = registry or get_registry()
        self._lock = threading.Lock()
        #: latch id -> (level, that level's waits / wait_seconds counters)
        self._level_cache: dict[str, tuple[int, Counter, Counter]] = {}
        #: latch id -> {"level", "waits", "total_s", "max_s"}
        self._stats: dict[str, dict] = {}
        self._total_waits = self._registry.counter(
            "latch.waits", help="contended latch acquisitions"
        )
        self._total_seconds = self._registry.counter(
            "latch.wait_seconds", help="cumulative time blocked on latches"
        )

    def level_of(self, latch_id: str) -> int:
        """Index of the first declared pattern matching ``latch_id``
        (``len(levels)`` when undeclared — below every declared level)."""
        return self._resolve(latch_id)[0]

    def _resolve(self, latch_id: str) -> tuple[int, Counter, Counter]:
        cached = self._level_cache.get(latch_id)
        if cached is not None:
            return cached
        level = len(self.levels)
        for i, pattern in enumerate(self.levels):
            if fnmatch(latch_id, pattern):
                level = i
                break
        # Registered here, once per latch id — never on the waiting path.
        resolved = (
            level,
            self._registry.counter(f"latch.l{level:02d}_waits"),
            self._registry.counter(f"latch.l{level:02d}_wait_seconds"),
        )
        with self._lock:
            self._level_cache[latch_id] = resolved
        return resolved

    def record_wait(self, latch_id: str, wait_s: float) -> None:
        """Account one contended wait on ``latch_id``."""
        if not self._registry.enabled:
            return
        level, level_waits, level_seconds = self._resolve(latch_id)
        with self._lock:
            entry = self._stats.setdefault(
                latch_id,
                {"level": level, "waits": 0, "total_s": 0.0, "max_s": 0.0},
            )
            entry["waits"] += 1
            entry["total_s"] += wait_s
            entry["max_s"] = max(entry["max_s"], wait_s)
        self._total_waits.inc()
        self._total_seconds.inc(wait_s)
        # Per-level counters carry the wait into the waiting statement's
        # record, and from there into its QueryStats.latch_level_waits.
        level_waits.inc()
        level_seconds.inc(wait_s)
        record_event(
            "latch.wait", latch=latch_id, level=level, duration_s=wait_s
        )

    def snapshot(self) -> dict[str, dict]:
        """Per-latch stats (copy), keyed by latch id."""
        with self._lock:
            return {latch: dict(entry) for latch, entry in self._stats.items()}

    def by_level(self) -> dict[int, dict]:
        """Aggregate the per-latch stats up to hierarchy levels."""
        out: dict[int, dict] = {}
        for latch, entry in self.snapshot().items():
            level = entry["level"]
            agg = out.setdefault(
                level,
                {
                    "pattern": (
                        self.levels[level]
                        if level < len(self.levels)
                        else "<undeclared>"
                    ),
                    "waits": 0,
                    "total_s": 0.0,
                    "max_s": 0.0,
                    "latches": [],
                },
            )
            agg["waits"] += entry["waits"]
            agg["total_s"] += entry["total_s"]
            agg["max_s"] = max(agg["max_s"], entry["max_s"])
            agg["latches"].append(latch)
        return dict(sorted(out.items()))

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()


#: The interpreter's reentrant lock type (``threading.RLock`` is a factory).
_RLock = type(threading.RLock())


class TimedLatch(_RLock):
    """A reentrant latch that reports contended waits to the profiler.

    It *is* the interpreter's reentrant lock — ``release`` and leaving a
    ``with`` block are the lock's own, no Python frame — with acquisition
    overridden to time the waits that actually block.

    ``name`` is the latch's fully-qualified id (``module.Class.attr``),
    matched against the declared lock order exactly like the static
    analyzer matches lock identities — the runtime and static views of
    the hierarchy use the same names.
    """

    __slots__ = ("name", "_profiler")

    def __new__(cls, name: str, profiler: "LatchProfiler | None" = None):
        return super().__new__(cls)

    def __init__(self, name: str, profiler: "LatchProfiler | None" = None):
        self.name = name
        self._profiler = profiler or get_latch_profiler()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # Fast path: uncontended (or reentrant) acquisition measures nothing.
        if _RLock.acquire(self, False):
            return True
        if not blocking:
            return False
        started = time.perf_counter()
        acquired = _RLock.acquire(self, True, timeout)
        self._profiler.record_wait(self.name, time.perf_counter() - started)
        return acquired

    def __enter__(self) -> "TimedLatch":
        # The fast path again, in this frame: a ``with`` on an uncontended
        # latch costs one Python call.
        if not _RLock.acquire(self, False):
            self.acquire()
        return self

    def __repr__(self) -> str:
        return f"TimedLatch({self.name!r})"


_global_profiler = LatchProfiler()


def get_latch_profiler() -> LatchProfiler:
    """The process-global latch profiler."""
    return _global_profiler
