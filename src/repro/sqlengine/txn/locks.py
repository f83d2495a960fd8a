"""A lock manager with shared/exclusive row and table locks.

Deadlocks are handled by timeout alone: there is no wait-for graph, so a
genuine cycle waits out the full timeout before one of its transactions
raises. The TPC-C transactions do not acquire locks in one consistent
order: New-Order updates STOCK rows in the order its items are drawn, so
two New-Orders on one warehouse can lock the same items in opposite
orders. A timeout therefore means plain queueing that outlasted the
timer, contention with a *deferred* transaction (the Section 4.5
scenario), or a real deadlock cycle.

``locks.acquired`` counts grants. A request for a resource the
transaction already holds in a mode that covers it — X covers either
mode, S covers S — returns at once: it neither waits nor counts. That is
how an UPDATE or DELETE asks again for the row lock its qualification
took. An S→X upgrade is a new grant and takes the normal path.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import LockTimeoutError
from repro.obs.flightrec import record_event
from repro.obs.latchprof import get_latch_profiler
from repro.obs.metrics import get_registry

#: The lock-order identity of the manager's condition variable — the same
#: name the static analyzer derives, so the runtime contention profile and
#: the declared hierarchy line up.
_LOCK_ID = "repro.sqlengine.txn.locks.LockManager._cond"

Resource = tuple  # ("table", name) or ("row", table, rid)


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class _LockState:
    mode: LockMode | None = None
    holders: set[int] = field(default_factory=set)


class LockManager:
    """Grants S/X locks on opaque resource tuples."""

    def __init__(self, default_timeout_s: float = 2.0):
        self._states: dict[Resource, _LockState] = defaultdict(_LockState)
        self._held: dict[int, set[Resource]] = defaultdict(set)
        self._cond = threading.Condition()
        self.default_timeout_s = default_timeout_s
        registry = get_registry()
        self._acquired = registry.counter("locks.acquired")
        self._waits = registry.counter("locks.waits")
        self._timeouts = registry.counter("locks.timeouts")
        self._wait_hist = registry.histogram(
            "locks.wait_seconds", help="time blocked waiting for a lock grant"
        )

    def acquire(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        timeout_s: float | None = None,
    ) -> None:
        """Block until the lock is granted; raise on timeout."""
        deadline = None
        wait_started = None
        timeout = self.default_timeout_s if timeout_s is None else timeout_s
        with self._cond:
            held = self._states.get(resource)
            if held is not None and txn_id in held.holders and (
                held.mode is LockMode.EXCLUSIVE or mode is LockMode.SHARED
            ):
                return
            while True:
                state = self._states[resource]
                if self._compatible(state, txn_id, mode):
                    state.holders.add(txn_id)
                    if mode is LockMode.EXCLUSIVE or state.mode is None:
                        state.mode = (
                            LockMode.EXCLUSIVE
                            if mode is LockMode.EXCLUSIVE or state.mode is LockMode.EXCLUSIVE
                            else LockMode.SHARED
                        )
                    self._held[txn_id].add(resource)
                    self._acquired.inc()
                    if wait_started is not None:
                        waited = time.monotonic() - wait_started
                        self._wait_hist.observe(waited)
                        get_latch_profiler().record_wait(_LOCK_ID, waited)
                        record_event(
                            "lock.wait",
                            resource=repr(resource),
                            mode=mode.value,
                            duration_s=waited,
                        )
                    return
                if deadline is None:
                    wait_started = time.monotonic()
                    deadline = wait_started + timeout
                    self._waits.inc()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._timeouts.inc()
                    waited = time.monotonic() - wait_started
                    self._wait_hist.observe(waited)
                    get_latch_profiler().record_wait(_LOCK_ID, waited)
                    record_event(
                        "lock.timeout",
                        resource=repr(resource),
                        mode=mode.value,
                        duration_s=waited,
                    )
                    raise LockTimeoutError(
                        f"txn {txn_id} timed out waiting for {mode.value} lock on {resource}"
                    )
                self._cond.wait(timeout=remaining)

    @staticmethod
    def _compatible(state: _LockState, txn_id: int, mode: LockMode) -> bool:
        if not state.holders:
            return True
        if state.holders == {txn_id}:
            return True  # upgrade / re-entrant
        if mode is LockMode.SHARED and state.mode is LockMode.SHARED:
            return True
        return False

    def release_all(self, txn_id: int) -> None:
        with self._cond:
            for resource in self._held.pop(txn_id, set()):
                state = self._states.get(resource)
                if state is None:
                    continue
                state.holders.discard(txn_id)
                if not state.holders:
                    state.mode = None
                    self._states.pop(resource, None)
                elif state.holders and state.mode is LockMode.EXCLUSIVE:
                    # Sole-holder X may remain only if a single holder is left.
                    if len(state.holders) > 1:
                        state.mode = LockMode.SHARED
            self._cond.notify_all()

    def held_by(self, txn_id: int) -> set[Resource]:
        with self._cond:
            return set(self._held.get(txn_id, set()))

    def is_locked(self, resource: Resource) -> bool:
        with self._cond:
            state = self._states.get(resource)
            return bool(state and state.holders)

    def rehold(self, txn_id: int, resources: set[Resource]) -> None:
        """Re-grant locks to a transaction (recovery re-acquires the locks
        a deferred transaction held before the crash)."""
        with self._cond:
            for resource in resources:
                state = self._states[resource]
                state.holders.add(txn_id)
                state.mode = LockMode.EXCLUSIVE
                self._held[txn_id].add(resource)
