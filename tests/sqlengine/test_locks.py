"""The lock manager."""

import threading
import time

import pytest

from repro.errors import LockTimeoutError
from repro.obs.metrics import get_registry
from repro.sqlengine.txn.locks import LockManager, LockMode


class TestLocks:
    def test_shared_locks_compatible(self):
        lm = LockManager(default_timeout_s=0.1)
        lm.acquire(1, ("row", "t", 1), LockMode.SHARED)
        lm.acquire(2, ("row", "t", 1), LockMode.SHARED)

    def test_exclusive_conflicts_with_shared(self):
        lm = LockManager(default_timeout_s=0.05)
        lm.acquire(1, ("row", "t", 1), LockMode.SHARED)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, ("row", "t", 1), LockMode.EXCLUSIVE)

    def test_exclusive_conflicts_with_exclusive(self):
        lm = LockManager(default_timeout_s=0.05)
        lm.acquire(1, ("row", "t", 1), LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, ("row", "t", 1), LockMode.EXCLUSIVE)

    def test_reentrant(self):
        lm = LockManager(default_timeout_s=0.05)
        lm.acquire(1, ("row", "t", 1), LockMode.EXCLUSIVE)
        lm.acquire(1, ("row", "t", 1), LockMode.EXCLUSIVE)
        lm.acquire(1, ("row", "t", 1), LockMode.SHARED)

    def test_release_unblocks_waiter(self):
        lm = LockManager(default_timeout_s=2.0)
        lm.acquire(1, ("row", "t", 1), LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def waiter():
            lm.acquire(2, ("row", "t", 1), LockMode.EXCLUSIVE)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        lm.release_all(1)
        assert acquired.wait(timeout=2.0)
        thread.join()

    def test_release_all_releases_everything(self):
        lm = LockManager(default_timeout_s=0.05)
        lm.acquire(1, ("row", "t", 1), LockMode.EXCLUSIVE)
        lm.acquire(1, ("row", "t", 2), LockMode.EXCLUSIVE)
        lm.release_all(1)
        lm.acquire(2, ("row", "t", 1), LockMode.EXCLUSIVE)
        lm.acquire(2, ("row", "t", 2), LockMode.EXCLUSIVE)

    def test_held_by(self):
        lm = LockManager()
        lm.acquire(1, ("row", "t", 1), LockMode.EXCLUSIVE)
        assert lm.held_by(1) == {("row", "t", 1)}
        assert lm.held_by(2) == set()

    def test_rehold_for_deferred_recovery(self):
        # Recovery re-grants a deferred transaction's locks (Section 4.5).
        lm = LockManager(default_timeout_s=0.05)
        lm.rehold(99, {("row", "t", 1), ("row", "t", 2)})
        assert lm.is_locked(("row", "t", 1))
        with pytest.raises(LockTimeoutError):
            lm.acquire(1, ("row", "t", 2), LockMode.EXCLUSIVE)
        lm.release_all(99)
        lm.acquire(1, ("row", "t", 2), LockMode.EXCLUSIVE)

    def test_different_resources_independent(self):
        lm = LockManager(default_timeout_s=0.05)
        lm.acquire(1, ("row", "t", 1), LockMode.EXCLUSIVE)
        lm.acquire(2, ("row", "t", 2), LockMode.EXCLUSIVE)


def _count(name: str) -> int:
    return get_registry().counter(name).value


class TestReGrant:
    """A request the transaction's held lock already covers — X covers
    either mode, S covers S — is re-granted at once: no wait path, and
    ``locks.acquired`` counts grants, not requests."""

    ROW = ("row", "t", 1)

    def test_covering_request_does_not_wait_behind_a_queued_transaction(self):
        lm = LockManager(default_timeout_s=2.0)
        lm.acquire(1, self.ROW, LockMode.EXCLUSIVE)
        waits = _count("locks.waits")
        queued = threading.Thread(target=lm.acquire, args=(2, self.ROW, LockMode.EXCLUSIVE))
        queued.start()
        try:
            deadline = time.monotonic() + 2.0
            while _count("locks.waits") == waits and time.monotonic() < deadline:
                time.sleep(0.001)
            assert _count("locks.waits") == waits + 1, "transaction 2 never queued"
            acquired = _count("locks.acquired")
            # A zero timeout: any request that took the wait path would raise.
            lm.acquire(1, self.ROW, LockMode.EXCLUSIVE, timeout_s=0.0)
            lm.acquire(1, self.ROW, LockMode.SHARED, timeout_s=0.0)
            assert _count("locks.acquired") == acquired
            assert _count("locks.waits") == waits + 1
        finally:
            lm.release_all(1)
            queued.join(timeout=2.0)
        assert lm.held_by(2) == {self.ROW}

    def test_shared_covers_shared_beside_another_holder(self):
        lm = LockManager(default_timeout_s=0.05)
        lm.acquire(1, self.ROW, LockMode.SHARED)
        lm.acquire(2, self.ROW, LockMode.SHARED)
        acquired = _count("locks.acquired")
        lm.acquire(1, self.ROW, LockMode.SHARED, timeout_s=0.0)
        assert _count("locks.acquired") == acquired

    def test_upgrade_behind_a_second_shared_holder_still_blocks_and_times_out(self):
        lm = LockManager(default_timeout_s=0.05)
        lm.acquire(1, self.ROW, LockMode.SHARED)
        lm.acquire(2, self.ROW, LockMode.SHARED)
        timeouts = _count("locks.timeouts")
        with pytest.raises(LockTimeoutError):
            lm.acquire(1, self.ROW, LockMode.EXCLUSIVE)
        assert _count("locks.timeouts") == timeouts + 1
        # Alone again, the upgrade is a grant of its own.
        lm.release_all(2)
        acquired = _count("locks.acquired")
        lm.acquire(1, self.ROW, LockMode.EXCLUSIVE, timeout_s=0.0)
        assert _count("locks.acquired") == acquired + 1
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, self.ROW, LockMode.SHARED)

    def test_release_all_frees_a_re_granted_resource_once(self):
        lm = LockManager(default_timeout_s=0.05)
        for mode in (LockMode.EXCLUSIVE, LockMode.EXCLUSIVE, LockMode.SHARED):
            lm.acquire(1, self.ROW, mode)
        assert lm.held_by(1) == {self.ROW}
        lm.release_all(1)
        assert not lm.is_locked(self.ROW) and lm.held_by(1) == set()
        lm.acquire(2, self.ROW, LockMode.EXCLUSIVE, timeout_s=0.0)
        assert lm.held_by(2) == {self.ROW}

    def test_locks_acquired_counts_grants_only(self):
        lm = LockManager(default_timeout_s=0.05)
        other = ("row", "t", 2)
        acquired = _count("locks.acquired")
        requests = [
            (1, self.ROW, LockMode.EXCLUSIVE),   # grant
            (1, self.ROW, LockMode.EXCLUSIVE),   # covered
            (1, self.ROW, LockMode.SHARED),      # covered
            (1, other, LockMode.SHARED),         # grant
            (2, other, LockMode.SHARED),         # grant
            (1, other, LockMode.SHARED),         # covered
        ]
        for txn_id, resource, mode in requests:
            lm.acquire(txn_id, resource, mode)
        assert _count("locks.acquired") == acquired + 3
