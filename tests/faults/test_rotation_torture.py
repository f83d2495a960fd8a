"""Crash-torture over the online key-rotation fault sites.

One fault armed at one rotation-path site per run — ``rotation.begin``,
``rotation.batch``, ``rotation.checkpoint``, ``rotation.end``,
``enclave.recrypt_batch``, plus the underlying ``wal.append`` /
``wal.flush`` the checkpoints ride on — while a rotation sweeps a
populated column. After ``crash(); recover()``:

* **exactly-one-key** — every stored envelope MAC-verifies under exactly
  one of {old, new} CEK (the enclave's pass-through makes batch replay
  idempotent, so a half-applied batch can never leave a third state);
* **no lost rows** — every pre-fault row is present and decrypts to its
  original value through a fresh client;
* **resumability** — if recovery reinstated the rotation, a client that
  re-attests and re-authorizes the same statement text drives it to the
  terminal all-new state with the version bump applied exactly once.

The ``ALTER COLUMN`` DDL runs the same job inside one statement, so it is
one of the matrix's drivers: a rotating and a decrypting DDL crashed
mid-job recover to one form per cell, and re-running the statement adopts
the job and finishes it.

The pre-rotation *restore* adversary gets its own class: restoring a
backup taken before the rotation must be refused by BOTH the WAL-chain
anchor (``wal.prefix``) and the per-CEK version floor
(``cek.version:<name>``).
"""

from __future__ import annotations

import pytest

from repro.crypto.aead import CellCipher
from repro.errors import ExecutionError, FaultInjected, ForcedCrash, StaleRestoreError
from repro.faults import ForceCrash, OnNth, PartialFlush, RaiseTransient, get_fault_registry
from repro.faults.rollback import StaleCekVersion
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.rotation import DEFAULT_BATCH_SIZE
from repro.sqlengine.server import QUARANTINE_MESSAGE
from repro.tools.rotation import resume_rotation, rotate_cek_online

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"
ROWS = 40

# Every fault site the rotation path registers, each crashed at an early
# and a later hit so the begin/first-batch/mid-sweep/end phases are all
# exercised. ``enclave.recrypt_batch`` fires per cell inside the ecall;
# a crash there models the enclave worker dying mid-batch.
ROTATION_SITES = [
    ("rotation.begin", 1),
    ("rotation.batch", 1),
    ("rotation.batch", 3),
    ("rotation.checkpoint", 1),
    ("rotation.checkpoint", 3),
    ("rotation.end", 1),
    ("enclave.recrypt_batch", 1),
    ("enclave.recrypt_batch", 17),
]

WAL_SITES = [
    ("wal.append", ForceCrash, 2),
    ("wal.flush", ForceCrash, 2),
    ("wal.flush", lambda: PartialFlush(drop_last=1), 2),
]


#: The in-place DDL for each kind the DDL matrix drives (target key, text).
DDL = {
    "rotate": ("RotNewCEK", "ALTER TABLE T ALTER COLUMN value int ENCRYPTED WITH "
               "(COLUMN_ENCRYPTION_KEY = RotNewCEK, ENCRYPTION_TYPE = Randomized, "
               f"ALGORITHM = '{ALGO}')"),
    "decrypt": ("", "ALTER TABLE T ALTER COLUMN value int"),
}


def build(stack_factory, rows: int = ROWS):
    stack = stack_factory()
    stack.conn.execute_ddl(
        "CREATE TABLE T(id int PRIMARY KEY, value int ENCRYPTED WITH "
        "(COLUMN_ENCRYPTION_KEY = RotOldCEK, ENCRYPTION_TYPE = Randomized, "
        f"ALGORITHM = '{ALGO}'))"
    )
    for i in range(rows):
        stack.conn.execute(
            "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 3}
        )
    return stack


def census(stack) -> dict[str, int]:
    engine = stack.server.engine
    slot = engine.table("T").schema.column_index("value")
    old = CellCipher(stack.materials["RotOldCEK"])
    new = CellCipher(stack.materials["RotNewCEK"])
    counts = {"old": 0, "new": 0, "neither": 0, "both": 0, "plaintext": 0}
    for __, row in engine.scan("T"):
        cell = row[slot]
        if not isinstance(cell, Ciphertext):
            counts["plaintext"] += 1
            continue
        under_old = old.verify(cell.envelope)
        under_new = new.verify(cell.envelope)
        if under_old and under_new:
            counts["both"] += 1
        elif under_old:
            counts["old"] += 1
        elif under_new:
            counts["new"] += 1
        else:
            counts["neither"] += 1
    return counts


def drive_until_fault(stack, rid) -> BaseException | None:
    """Step the rotation until it finishes or the armed fault fires."""
    try:
        while True:
            more, __ = stack.server.rotate_step(rid)
            if not more:
                return None
    except (ForcedCrash, FaultInjected) as exc:
        return exc


def assert_recovered_consistent(stack, expect_resumable: bool) -> None:
    counts = census(stack)
    assert counts["neither"] == 0 and counts["both"] == 0, counts
    assert counts["old"] + counts["new"] == ROWS, counts

    report = stack.server.rotation_states()
    active = [s for s in report if s.active]
    if active:
        assert expect_resumable
        rid = active[0].rotation_id
        conn = stack.fresh_conn()
        resume_rotation(conn, rid, "T", "value", "RotNewCEK")
    assert not any(s.active for s in stack.server.rotation_states())

    # Terminal (or never-started) state must be single-keyed...
    counts = census(stack)
    assert counts["old"] == 0 or counts["new"] == 0, counts
    if counts["new"] == ROWS:
        assert stack.server.cek_versions() == {"RotNewCEK": 2}
    else:
        # The fault killed the rotation before its begin became durable:
        # the untouched column must not have ratcheted any version.
        assert counts["old"] == ROWS
        assert stack.server.cek_versions() == {}

    # ...and every row readable with its original value by a fresh client.
    conn = stack.fresh_conn()
    rows = conn.execute("SELECT id, value FROM T").rows
    assert sorted(rows) == [(i, i * 3) for i in range(ROWS)]

    # Idempotence: another crash + recovery changes nothing.
    before = census(stack)
    stack.server.crash()
    stack.server.recover()
    assert census(stack) == before


class TestRotationCrashMatrix:
    @pytest.mark.parametrize(
        "site,nth", ROTATION_SITES, ids=[f"{s}-hit{n}" for s, n in ROTATION_SITES]
    )
    def test_crash_at_rotation_site(self, site, nth, rotation_stack_factory):
        faults = get_fault_registry()
        stack = build(rotation_stack_factory)
        armed = faults.arm(site, OnNth(nth), ForceCrash())
        try:
            try:
                rid = rotate_cek_online(
                    stack.conn, "T", "value", "RotNewCEK", batch_size=8, run=False
                )
            except (ForcedCrash, FaultInjected):
                rid = None  # begin itself crashed
            if rid is not None:
                drive_until_fault(stack, rid)
        finally:
            faults.disarm(armed)
        stack.server.crash()
        stack.server.recover()
        assert_recovered_consistent(stack, expect_resumable=True)

    @pytest.mark.parametrize(
        "site,action,nth",
        WAL_SITES,
        ids=[f"{s}-{i}" for i, (s, __, ___) in enumerate(WAL_SITES)],
    )
    def test_crash_at_wal_site_under_rotation(
        self, site, action, nth, rotation_stack_factory
    ):
        faults = get_fault_registry()
        stack = build(rotation_stack_factory)
        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=8, run=False
        )
        armed = faults.arm(site, OnNth(nth), action())
        try:
            drive_until_fault(stack, rid)
        except Exception:
            pass  # non-crash fault surfaced through the step: fine
        finally:
            faults.disarm(armed)
        stack.server.crash()
        stack.server.recover()
        assert_recovered_consistent(stack, expect_resumable=True)

    def test_transient_batch_fault_does_not_kill_the_job(
        self, rotation_stack_factory
    ):
        """A transient fault inside one batch aborts only that batch; the
        driving loop simply calls step again."""
        faults = get_fault_registry()
        stack = build(rotation_stack_factory)
        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=8, run=False
        )
        armed = faults.arm("rotation.batch", OnNth(2), RaiseTransient())
        try:
            with pytest.raises(Exception):
                stack.server.rotate_run(rid)
            total = stack.server.rotate_run(rid)  # retry completes the sweep
            assert total >= 0
        finally:
            faults.disarm(armed)
        counts = census(stack)
        assert counts["new"] == ROWS and counts["old"] == 0
        assert stack.server.cek_versions() == {"RotNewCEK": 2}

    def test_matrix_covers_every_rotation_fault_site(self):
        covered = {site for site, __ in ROTATION_SITES}
        assert covered == {
            "rotation.begin",
            "rotation.batch",
            "rotation.checkpoint",
            "rotation.end",
            "enclave.recrypt_batch",
        }


class TestDdlCrashMatrix:
    """The in-place DDL as a lifecycle job: crashed mid-job, recovered,
    then finished by running the same statement again."""

    @pytest.mark.parametrize("site,nth", [("rotation.batch", 2), ("rotation.end", 1)])
    @pytest.mark.parametrize("kind", sorted(DDL))
    def test_a_crashed_alter_column_is_finished_by_rerunning_it(
        self, kind, site, nth, rotation_stack_factory
    ):
        rows = 2 * DEFAULT_BATCH_SIZE + 10      # the batch crash lands mid-column
        stack = build(rotation_stack_factory, rows=rows)
        target, text = DDL[kind]
        faults = get_fault_registry()
        armed = faults.arm(site, OnNth(nth), ForceCrash())
        try:
            with pytest.raises(ForcedCrash):
                stack.conn.execute_ddl(text, authorize_enclave=True)
        finally:
            faults.disarm(armed)
        stack.server.crash()
        stack.server.recover()

        # Every cell in exactly one form: under the old key, or converted.
        counts = census(stack)
        converted = "new" if target else "plaintext"
        assert counts["old"] + counts[converted] == rows, counts
        if site == "rotation.batch":
            assert counts["old"] > 0 and counts[converted] > 0, counts
        assert [s.kind for s in stack.server.rotation_states() if s.active] == [kind]

        conn = stack.fresh_conn()
        conn.execute_ddl(text, authorize_enclave=True)
        assert not any(s.active for s in stack.server.rotation_states())
        assert census(stack)[converted] == rows
        assert stack.server.cek_versions() == ({target: 2} if target else {})
        assert sorted(conn.execute("SELECT id, value FROM T").rows) == [
            (i, i * 3) for i in range(rows)]
        assert stack.server.audit() == []

    @pytest.mark.parametrize("kind", sorted(DDL))
    def test_the_window_a_crash_leaves_reads_through_the_driver(
        self, kind, rotation_stack_factory
    ):
        """Between the crash and the re-run the column holds two forms. A
        reader gets every value through the driver; a filter reads across
        two keys, but not across plaintext and ciphertext, which is refused
        by name until the re-run finishes the job."""
        rows = 2 * DEFAULT_BATCH_SIZE + 10
        stack = build(rotation_stack_factory, rows=rows)
        target, text = DDL[kind]
        select, where = "SELECT id, value FROM T", "SELECT id FROM T WHERE value = @v"
        faults = get_fault_registry()
        armed = faults.arm("rotation.batch", OnNth(2), ForceCrash())
        try:
            with pytest.raises(ForcedCrash):
                stack.conn.execute_ddl(text, authorize_enclave=True)
        finally:
            faults.disarm(armed)
        stack.server.crash()
        stack.server.recover()
        counts = census(stack)
        assert counts["old"] > 0 and counts["new" if target else "plaintext"] > 0, counts

        fresh = stack.fresh_conn()
        expected = [(i, i * 3) for i in range(rows)]
        assert sorted(fresh.execute(select).rows) == expected
        if target:
            assert fresh.execute(where, {"v": 21}).rows == [(7,)]
        else:
            with pytest.raises(ExecutionError, match=r"T\.value is mid-decrypt \(job rot-"):
                fresh.execute(where, {"v": 21})

        fresh.execute_ddl(text, authorize_enclave=True)
        assert sorted(fresh.execute(select).rows) == expected
        assert fresh.execute(where, {"v": 21}).rows == [(7,)]


class TestPreRotationRestoreRefused:
    """The acceptance scenario: a backup taken before the rotation is
    restored afterwards. Recovery must refuse it, and the violation list
    must show BOTH independent detections — the WAL chain no longer
    extends the anchored head, and the catalog's CEK version sits below
    the enclave-held floor."""

    def _anchored_stack(self, factory):
        stack = factory(freshness=True)
        stack.conn.execute_ddl(
            "CREATE TABLE T(id int PRIMARY KEY, value int ENCRYPTED WITH "
            "(COLUMN_ENCRYPTION_KEY = RotOldCEK, ENCRYPTION_TYPE = Randomized, "
            f"ALGORITHM = '{ALGO}'))"
        )
        for i in range(ROWS):
            stack.conn.execute(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 3}
            )
        return stack

    def test_pre_rotation_backup_restore_is_quarantined(
        self, rotation_stack_factory
    ):
        stack = self._anchored_stack(rotation_stack_factory)
        backup = StaleCekVersion()
        backup.capture(stack.server.engine)

        rotate_cek_online(stack.conn, "T", "value", "RotNewCEK", batch_size=8)
        assert stack.server.cek_versions() == {"RotNewCEK": 2}
        stack.server.engine.checkpoint()

        backup.restore()
        stack.server.crash()
        with pytest.raises(StaleRestoreError):
            stack.server.recover()
        assert stack.server.quarantined
        session = stack.server.connect()
        with pytest.raises(StaleRestoreError) as refusal:
            session.execute("SELECT id FROM T", {})
        assert str(refusal.value) == QUARANTINE_MESSAGE

    @pytest.mark.parametrize("driver", ["online-tool", "DDL"])
    def test_both_detections_fire_independently(self, rotation_stack_factory, driver):
        """Inspect the anchor's verdict itself: the stale state violates
        the WAL-prefix check AND the cek.version floor — either alone
        would refuse the restore. The in-place DDL's rotation bumps the
        version exactly as the online tool's does."""
        stack = self._anchored_stack(rotation_stack_factory)
        backup = StaleCekVersion()
        backup.capture(stack.server.engine)

        if driver == "DDL":
            stack.conn.execute_ddl(DDL["rotate"][1], authorize_enclave=True)
        else:
            rotate_cek_online(stack.conn, "T", "value", "RotNewCEK", batch_size=8)
        stack.server.engine.checkpoint()
        backup.restore()
        stack.server.crash()

        with pytest.raises(StaleRestoreError) as refusal:
            stack.server.recover()
        message = str(refusal.value)
        assert "wal.prefix" in message, message
        assert "cek.version:RotNewCEK" in message, message

    def test_operator_acceptance_rebaselines_the_version_floor(
        self, rotation_stack_factory
    ):
        stack = self._anchored_stack(rotation_stack_factory)
        backup = StaleCekVersion()
        backup.capture(stack.server.engine)
        rotate_cek_online(stack.conn, "T", "value", "RotNewCEK", batch_size=8)
        stack.server.engine.checkpoint()
        backup.restore()
        stack.server.crash()
        with pytest.raises(StaleRestoreError):
            stack.server.recover()

        report = stack.server.accept_restored_state()
        assert report.freshness_verified
        assert not stack.server.quarantined
        # The restored world has no rotation: all rows back under the old
        # key, no version entries, and queries work.
        counts = census(stack)
        assert counts["old"] == ROWS
        conn = stack.fresh_conn()
        rows = conn.execute("SELECT id, value FROM T").rows
        assert sorted(rows) == [(i, i * 3) for i in range(ROWS)]
