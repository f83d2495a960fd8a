"""Online key-lifecycle jobs: every in-place column conversion.

Section 2.4.2 of the paper moves initial encryption, key rotation and
decryption in-enclave so data never leaves the server. This module makes
those operations *online*: a :class:`KeyRotationJob`,
:class:`InitialEncryptionJob` or :class:`DecryptionJob` walks a column
batch-at-a-time through the enclave's batched ecall for its kind (one
boundary crossing per batch) while concurrent sessions keep reading and
writing the table. The admin verbs (``SqlServer.rotate_start`` …) and the
``ALTER TABLE … ALTER COLUMN`` DDL both run these jobs.

The moving parts, in the order a rotation touches them:

* **Begin** — the kind's ecall is sent an empty batch, so a text no client
  authorized is refused before anything changes. A ``ROTATE_BEGIN`` record
  (txn 0, like CHECKPOINT) carrying the encoded :class:`RotationDescriptor`
  is then flushed *before* any state changes, then the catalog gains a
  :class:`~repro.sqlengine.catalog.ColumnRotationState` and the column's
  metadata flips to its target (the new CEK, or plaintext). From that
  point new DML arrives in the target form while old rows are still in
  the old one — the mixed-version window the driver resolves per cell.
* **Batch** — lock a batch of rows, re-read under lock, push the cells
  still in the old form through the kind's ecall (a rotation's cells
  already under the new key pass through unchanged, which makes replay
  idempotent), update the rows in one ordinary transaction, commit, then
  checkpoint a ``ROTATE_PROGRESS`` record with the cumulative watermark.
* **Sweep convergence** — the job keeps sweeping the heap until a full
  sweep changes nothing: racing writers holding stale metadata may still
  land old-form cells behind the cursor, and only a clean sweep proves
  the terminal all-new state.
* **End** — ``ROTATE_END`` carrying the new CEK *version* is flushed
  first (the durable form of the version bump), then the catalog bump is
  applied, then the freshness anchor witnesses it (a decryption leaves no
  key behind and bumps nothing). A crash anywhere in
  that tail leaves the catalog at-or-ahead of the anchor — adopted at
  the next verify, never a false positive — while a restore to a
  pre-rotation image reports a version *below* what the anchor holds and
  is refused (``cek.version:<name>``), independently of the WAL-chain
  fork the same restore causes.

Crash recovery (:meth:`StorageEngine.recover` step 4c) replays this
state machine from the durable records alone: an un-ended rotation is
reinstated at its checkpointed watermark via :func:`reinstate_rotation`,
an ended one re-applies the version bump via ``ensure_cek_version``.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.crypto.aead import EncryptionScheme
from repro.errors import BindError, LockTimeoutError, SqlError
from repro.faults.registry import fault_site
from repro.obs.flightrec import record_event
from repro.sqlengine.catalog import ColumnRotationState
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.storage.heap import RowId
from repro.sqlengine.storage.wal import LogOp
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import deserialize_value, serialize_value

if TYPE_CHECKING:
    from repro.sqlengine.engine import StorageEngine

_BEGIN = fault_site("rotation.begin")
_BATCH = fault_site("rotation.batch")
_CHECKPOINT = fault_site("rotation.checkpoint")
_END = fault_site("rotation.end")

#: One sweep's batch size if the caller does not choose one.
DEFAULT_BATCH_SIZE = 64

_FIELD_SEP = "\x1f"


@dataclass(frozen=True)
class RotationDescriptor:
    """The durable identity of a rotation, carried by ROTATE_BEGIN."""

    table: str
    column: str
    old_cek: str
    new_cek: str
    scheme: EncryptionScheme
    kind: str = "rotate"  # "rotate" | "encrypt" | "decrypt"


@dataclass
class RotationStatus:
    """One lifecycle job's observable progress (also a wire struct)."""

    rotation_id: str
    table: str
    column: str
    old_cek: str
    new_cek: str
    kind: str
    watermark: int
    rows_rotated: int
    active: bool


def encode_rotation_descriptor(descriptor: RotationDescriptor) -> bytes:
    return _FIELD_SEP.join(
        (
            descriptor.table,
            descriptor.column,
            descriptor.old_cek,
            descriptor.new_cek,
            descriptor.scheme.name,
            descriptor.kind,
        )
    ).encode("utf-8")


def decode_rotation_descriptor(blob: bytes) -> RotationDescriptor:
    parts = blob.decode("utf-8").split(_FIELD_SEP)
    if len(parts) != 6:
        raise SqlError(f"malformed rotation descriptor ({len(parts)} fields)")
    table, column, old_cek, new_cek, scheme_name, kind = parts
    return RotationDescriptor(
        table=table,
        column=column,
        old_cek=old_cek,
        new_cek=new_cek,
        scheme=EncryptionScheme[scheme_name],
        kind=kind,
    )


def encode_watermark(value: int) -> bytes:
    return value.to_bytes(8, "big", signed=True)


def _flip_column_metadata(
    engine: "StorageEngine", descriptor: RotationDescriptor
) -> None:
    """Point the column's catalog metadata at the job's target: the new
    CEK, or plaintext for a decryption (idempotent)."""
    target = None
    if descriptor.new_cek:
        target = engine.catalog.encryption_info(descriptor.new_cek, descriptor.scheme)
    engine.catalog.set_column_encryption(descriptor.table, descriptor.column, target)
    if target is not None:
        engine.rebind_index_cek(descriptor.table, descriptor.column, descriptor.new_cek)


def reinstate_rotation(
    engine: "StorageEngine",
    rotation_id: str,
    descriptor: RotationDescriptor,
    watermark: int,
) -> ColumnRotationState:
    """Recovery replay of a durable ROTATE_BEGIN without its ROTATE_END.

    The durable records are authoritative over whatever the in-memory
    catalog still believes: the rotation state is (re)installed at the
    checkpointed watermark and the column's metadata re-flipped — both
    idempotent, so recovering twice lands in the same place. The resumed
    job re-sweeps from the heap's start; the enclave's pass-through makes
    re-processing already-converted cells a no-op.
    """
    existing = engine.catalog.column_rotation(descriptor.table, descriptor.column)
    if existing is not None and existing.rotation_id != rotation_id:
        # A stale in-memory rotation from before the restore; the WAL wins.
        engine.catalog.finish_column_rotation(existing.rotation_id)
        existing = None
    if existing is None:
        state = ColumnRotationState(
            rotation_id=rotation_id,
            table=descriptor.table,
            column=descriptor.column,
            old_cek=descriptor.old_cek,
            new_cek=descriptor.new_cek,
            watermark=watermark,
            kind=descriptor.kind,
        )
        engine.catalog.begin_column_rotation(state)
    else:
        state = existing
        engine.catalog.advance_rotation(rotation_id, watermark)
    _flip_column_metadata(engine, descriptor)
    record_event("rotation.resume", rotation_id=rotation_id, watermark=watermark)
    return state


class KeyLifecycleJob:
    """Base class: the online batch-at-a-time column conversion loop.

    Driven by :meth:`step` (one batch per call, so a server can interleave
    it with regular traffic or a wire client can drive it remotely) or
    :meth:`run` (to completion). ``query_text`` is the client-authorized
    DDL text gating the enclave's encrypt/recrypt/decrypt oracle — the job
    cannot touch plaintext without an attested session having authorized
    exactly this statement. A subclass names its kind, what it refuses,
    which cells it converts and the ecall that converts them.
    """

    kind = "rotate"

    def __init__(
        self,
        engine: "StorageEngine",
        rotation_id: str,
        query_text: str,
        table: str,
        column: str,
        new_cek: str,
        batch_size: int = DEFAULT_BATCH_SIZE,
        scheme: EncryptionScheme | None = None,
    ):
        if batch_size < 1:
            raise SqlError("rotation batch size must be >= 1")
        self.engine = engine
        self.rotation_id = rotation_id
        self.query_text = query_text
        self.table = table
        self.column = column
        self.new_cek = new_cek
        self.batch_size = batch_size
        self._scheme = scheme
        self.done = False
        self._old_cek = ""
        #: The last row the current sweep considered.
        self._cursor: RowId | None = None
        #: One driver at a time: a tool and a re-run DDL may share the job.
        self._step_lock = threading.Lock()
        self._changed_in_sweep = 0
        self._rows_rotated = 0
        self._watermark = -1

    # -- subclass hooks ----------------------------------------------------

    def _refuse(self, current: EncryptionInfo | None) -> None:
        """Raise :class:`SqlError` if this kind cannot convert the column
        from its ``current`` encryption."""
        raise NotImplementedError

    def _needs_conversion(self, cell) -> bool:
        raise NotImplementedError

    def _convert(self, cells: list) -> list:
        """The batch through the kind's ecall: one boundary crossing."""
        raise NotImplementedError

    # -- shared preconditions ------------------------------------------------

    def _descriptor(self) -> RotationDescriptor:
        """Validate preconditions and build the durable descriptor."""
        schema = self.engine.catalog.table(self.table)
        column = schema.column(self.column)
        current = column.column_type.encryption
        self._refuse(current)
        if self.new_cek:
            self.engine.catalog.cek(self.new_cek)
        return RotationDescriptor(
            table=schema.name,
            column=column.name,
            old_cek=current.cek_name if current is not None else "",
            new_cek=self.new_cek,
            scheme=self._scheme or current.scheme,
            kind=self.kind,
        )

    def _refuse_indexed(self) -> None:
        """Refuse a column an index is keyed on: mid-job the index would
        hold keys in two forms that no one comparison orders."""
        table = self.engine.table(self.table)
        slot = table.schema.column_index(self.column)
        for index in table.indexes.values():
            if slot in index.key_slots:
                raise SqlError(
                    f"column {self.table}.{self.column} is a key of index "
                    f"{index.schema.name!r}; drop it, convert the column, then "
                    "recreate it"
                )

    def _enclave(self):
        if self.engine.enclave is None:
            raise SqlError(f"an online {self.kind} job requires an enclave")
        return self.engine.enclave

    # -- lifecycle ---------------------------------------------------------

    def begin(self) -> str:
        """Durably start the rotation and flip the column's metadata.

        Ordering: the ROTATE_BEGIN flush lands *before* any catalog
        mutation, so a crash during begin leaves either no trace (record
        not durable — nothing to resume) or a durable record recovery
        reinstates — never a catalog rotation with no durable anchor.
        """
        engine = self.engine
        descriptor = self._descriptor()
        if engine.catalog.column_rotation(self.table, self.column) is not None:
            raise SqlError(
                f"column {self.table}.{self.column} already under rotation"
            )
        self._old_cek, self._scheme = descriptor.old_cek, descriptor.scheme
        # An empty batch proves the text is authorized before anything
        # changes. The one job the enclave never converts for is an initial
        # encryption to a key it may not hold: the AEv1 client tool's
        # driver writes every cell of that one.
        if self.kind != "encrypt" or engine.catalog.cek_enclave_enabled(self.new_cek):
            self._convert([])
        if _BEGIN.armed:
            _BEGIN.fire(rotation_id=self.rotation_id)
        engine.wal.append(
            0,
            LogOp.ROTATE_BEGIN,
            table=self.rotation_id,
            after=encode_rotation_descriptor(descriptor),
        )
        engine.wal.flush()
        state = ColumnRotationState(
            rotation_id=self.rotation_id,
            table=descriptor.table,
            column=descriptor.column,
            old_cek=descriptor.old_cek,
            new_cek=descriptor.new_cek,
            kind=descriptor.kind,
        )
        engine.catalog.begin_column_rotation(state)
        _flip_column_metadata(engine, descriptor)
        # Indexes keyed on the column now hold envelopes under both CEKs;
        # the enclave's comparison ecalls need the pair to probe both.
        if engine.enclave is not None and self.kind == "rotate":
            engine.enclave.begin_rotation(descriptor.old_cek, descriptor.new_cek)
        record_event(
            "rotation.begin", rotation_id=self.rotation_id, job=descriptor.kind
        )
        return self.rotation_id

    def resume(self) -> None:
        """Adopt a recovery-reinstated rotation (fresh sweep from the top)."""
        state = self.engine.catalog.rotation(self.rotation_id)
        self._old_cek = state.old_cek
        # Re-open the enclave's mixed-key comparison window: a process
        # restart started from an enclave with no registered pairs.
        if self.engine.enclave is not None and self.kind == "rotate":
            self.engine.enclave.begin_rotation(state.old_cek, state.new_cek)
        self._watermark = state.watermark
        self._rows_rotated = max(0, state.rows_rotated)
        self._cursor = None
        self._changed_in_sweep = 0
        self.done = False

    def step(self) -> tuple[bool, int]:
        """Convert one batch. Returns ``(more_work, rows_changed)``.

        A lock timeout aborts only the current batch (the job retries the
        same region on the next call); every committed batch is followed
        by a flushed ROTATE_PROGRESS checkpoint, so crash recovery never
        loses more than the in-flight batch — and that batch's row
        updates were transactional, so it is all-or-nothing too.
        """
        with self._step_lock:
            return self._step()

    def _step(self) -> tuple[bool, int]:
        if self.done:
            return (False, 0)
        engine = self.engine
        try:
            state = engine.catalog.rotation(self.rotation_id)
        except BindError:
            self.done = True
            return (False, 0)
        table = engine.table(state.table)
        slot = table.schema.column_index(state.column)

        # Resume the sweep at the cursor: a step reads only its own batch.
        rows = table.heap.scan_after(self._cursor or RowId(-1, -1))
        batch = [rid for rid, __ in itertools.islice(rows, self.batch_size)]
        if not batch:
            if self._changed_in_sweep:
                # Racing writers may have landed old-key cells behind the
                # cursor; only a clean sweep proves terminal all-new.
                self._cursor = None
                self._changed_in_sweep = 0
                return (True, 0)
            self._finish(state)
            return (False, 0)

        if _BATCH.armed:
            _BATCH.fire(rotation_id=self.rotation_id, size=len(batch))
        txn = engine.begin()
        try:
            targets: list = []
            for rid in batch:
                engine.lock_row(txn, state.table, rid)
                # Re-read under lock: the scan was unlocked and the row
                # may have moved on (or away) since.
                row = engine.read(state.table, rid)
                if row is not None and self._needs_conversion(row[slot]):
                    targets.append((rid, row))
            outputs = self._convert([row[slot] for _, row in targets]) if targets else []
            changed = 0
            for (rid, row), new_cell in zip(targets, outputs):
                if new_cell == row[slot]:
                    continue  # passed through: already under the new key
                engine.update(
                    txn, state.table, rid, row[:slot] + (new_cell,) + row[slot + 1 :]
                )
                changed += 1
            engine.commit(txn)
        except LockTimeoutError:
            engine.abort(txn)
            return (True, 0)
        except BaseException:
            try:
                engine.abort(txn)
            except Exception:
                pass  # a forced crash may already have wedged the engine
            raise

        self._cursor = batch[-1]
        self._changed_in_sweep += changed
        self._rows_rotated += changed
        self._watermark = max(self._watermark, 0) + changed
        state.rows_rotated = self._rows_rotated

        # Checkpoint: the batch's row updates are durable (commit flushed),
        # now make the progress watermark durable too. A crash between the
        # two replays the batch — idempotent via enclave pass-through.
        if _CHECKPOINT.armed:
            _CHECKPOINT.fire(rotation_id=self.rotation_id, watermark=self._watermark)
        engine.wal.append(
            0,
            LogOp.ROTATE_PROGRESS,
            table=self.rotation_id,
            after=encode_watermark(self._watermark),
        )
        engine.wal.flush()
        engine.catalog.advance_rotation(self.rotation_id, self._watermark)
        record_event(
            "rotation.batch",
            rotation_id=self.rotation_id,
            rows=changed,
            watermark=self._watermark,
        )
        return (True, changed)

    def run(self) -> int:
        """Drive the job to completion; returns total rows converted."""
        while self.step()[0]:
            pass
        return self._rows_rotated

    def _finish(self, state: ColumnRotationState) -> None:
        """Durably complete: END record, version bump, anchor witness.

        The ROTATE_END flush is the durable form of the CEK version bump
        and strictly precedes the anchor witness — the ordering that
        keeps the catalog at-or-ahead of the anchor under any crash.
        """
        engine = self.engine
        if _END.armed:
            _END.fire(rotation_id=self.rotation_id)
        # A decryption leaves no key behind: its END carries no version.
        version = engine.catalog.cek_version(state.new_cek) + 1 if state.new_cek else 0
        engine.wal.append(
            0,
            LogOp.ROTATE_END,
            table=self.rotation_id,
            after=encode_watermark(version),
        )
        engine.wal.flush()
        if state.new_cek:
            version = engine.catalog.ensure_cek_version(state.new_cek, version)
            if engine.freshness is not None:
                engine.freshness.witness_cek_version(state.new_cek, version)
        engine.catalog.finish_column_rotation(self.rotation_id)
        if engine.enclave is not None and self.kind == "rotate":
            engine.enclave.end_rotation(state.old_cek, state.new_cek)
        self.done = True
        record_event(
            "rotation.end",
            rotation_id=self.rotation_id,
            rows=self._rows_rotated,
            version=version,
        )

    def status(self) -> RotationStatus:
        state = None
        try:
            state = self.engine.catalog.rotation(self.rotation_id)
        except BindError:
            pass
        return RotationStatus(
            rotation_id=self.rotation_id,
            table=self.table,
            column=self.column,
            old_cek=state.old_cek if state else self._old_cek,
            new_cek=self.new_cek,
            kind=self.kind,
            watermark=state.watermark if state else self._watermark,
            rows_rotated=self._rows_rotated,
            active=not self.done,
        )


class KeyRotationJob(KeyLifecycleJob):
    """Re-encrypt one encrypted column from its current CEK to a new one."""

    kind = "rotate"

    def _refuse(self, current: EncryptionInfo | None) -> None:
        if current is None:
            raise SqlError(
                f"column {self.table}.{self.column} is not encrypted; use "
                "an initial-encryption job to encrypt it online"
            )
        if current.cek_name == self.new_cek:
            # Under one key the enclave's pass-through cannot tell a
            # converted cell from an unconverted one: it would never end.
            raise SqlError(
                f"column {self.table}.{self.column} is already under CEK "
                f"{self.new_cek!r}; a change of scheme needs another CEK"
            )
        if self._scheme not in (None, current.scheme):
            self._refuse_indexed()  # a same-scheme rotation keeps its indexes

    def _needs_conversion(self, cell) -> bool:
        # Every non-NULL ciphertext goes through the enclave; cells already
        # under the new key come back unchanged (pass-through), so the
        # sweep's convergence check still sees them as untouched.
        return isinstance(cell, Ciphertext)

    def _convert(self, cells: list) -> list:
        return self._enclave().recrypt_batch_for_ddl(
            self.query_text, self._old_cek, self.new_cek, cells, self._scheme
        )


class InitialEncryptionJob(KeyLifecycleJob):
    """Encrypt a plaintext column online (the paper's initial encryption).

    The column's metadata flips to encrypted at begin, so new DML arrives
    as ciphertext while the sweep converts the plaintext backlog; the
    engine's row validation tolerates plaintext cells exactly while this
    job's rotation state is active.
    """

    kind = "encrypt"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self._scheme is None:
            raise SqlError("initial encryption requires an explicit scheme")

    def _refuse(self, current: EncryptionInfo | None) -> None:
        if current is not None:
            raise SqlError(
                f"column {self.table}.{self.column} is already encrypted"
            )
        self._refuse_indexed()

    def _needs_conversion(self, cell) -> bool:
        return cell is not None and not isinstance(cell, Ciphertext)

    def _convert(self, cells: list) -> list:
        return self._enclave().encrypt_for_ddl(
            self.query_text, self.new_cek, [serialize_value(c) for c in cells], self._scheme
        )


class DecryptionJob(KeyLifecycleJob):
    """Turn an encrypted column back to plaintext online: the mirror of
    :class:`InitialEncryptionJob`. The column flips to plaintext at begin;
    row validation tolerates ciphertext cells exactly while this job's
    rotation state is active. It has no target CEK and bumps no version.
    """

    kind = "decrypt"

    def _refuse(self, current: EncryptionInfo | None) -> None:
        if current is None:
            raise SqlError(f"column {self.table}.{self.column} is not encrypted")
        if self.new_cek:
            raise SqlError("a decryption job has no target CEK")
        self._refuse_indexed()

    def _needs_conversion(self, cell) -> bool:
        return isinstance(cell, Ciphertext)

    def _convert(self, cells: list) -> list:
        # Turning encryption off exposes plaintext to the server by
        # definition; the client authorized exactly this text.
        plaintexts = self._enclave().decrypt_for_ddl(self.query_text, self._old_cek, cells)
        return [deserialize_value(plaintext) for plaintext in plaintexts]


#: Every lifecycle job by its kind: what ``rotate_start`` starts and what
#: ``rotate_resume`` rebuilds from a reinstated rotation.
JOB_KINDS: dict[str, type[KeyLifecycleJob]] = {
    cls.kind: cls for cls in (KeyRotationJob, InitialEncryptionJob, DecryptionJob)
}
