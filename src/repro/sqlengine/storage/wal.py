"""The write-ahead log.

Log records carry physical images (serialized rows) for redo and enough
information for *logical* undo — the combination the paper describes for
SQL Server ("redo recovery is physical, but undo recovery of indexes is
logical", Section 4.5). Like the data pages, the log is adversary-visible:
before/after images of encrypted cells are ciphertext envelopes.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ForcedCrash
from repro.faults.actions import PartialFlushDirective
from repro.faults.registry import fault_site
from repro.obs.flightrec import record_event
from repro.obs.latchprof import TimedLatch
from repro.obs.metrics import get_registry
from repro.sqlengine.storage.heap import RowId

#: Chain digest before any record is folded. Must equal
#: ``repro.enclave.anchor.GENESIS`` — the host cannot import across the
#: trust boundary, so the constant (32 zero bytes) is mirrored here.
CHAIN_GENESIS = b"\x00" * 32

# Bound once: get_registry().counter(name) validates the name and takes the
# registry lock, and append() runs for every row operation.
_records_appended = get_registry().counter("wal.records_appended")
_bytes_written = get_registry().counter("wal.bytes_written")
_flushes = get_registry().counter("wal.flushes")

_APPEND = fault_site("wal.append")
_FLUSH = fault_site("wal.flush")


class LogOp(enum.Enum):
    BEGIN = "begin"
    # Two-phase commit: the participant's durable promise to commit on
    # request. The record's ``table`` field carries the global transaction
    # id (gtid) — as do the COMMIT/ABORT records resolving it, so recovery
    # can replay coordinator decisions idempotently.
    PREPARE = "prepare"
    COMMIT = "commit"
    ABORT = "abort"
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"
    CHECKPOINT = "checkpoint"
    # Online key rotation (logged under txn_id 0, like CHECKPOINT, so the
    # loser/in-doubt analysis never adopts them). ``table`` carries the
    # rotation id; ``after`` carries the encoded rotation descriptor or
    # batch watermark. Folding these through the freshness chain means a
    # restore to a pre-rotation log forks the chain at ROTATE_BEGIN.
    ROTATE_BEGIN = "rotate_begin"
    ROTATE_PROGRESS = "rotate_progress"
    ROTATE_END = "rotate_end"


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    txn_id: int
    op: LogOp
    table: str | None = None
    rid: RowId | None = None
    before: bytes | None = None   # serialized row image
    after: bytes | None = None    # serialized row image


def encode_record(record: LogRecord) -> bytes:
    """Stable byte encoding of one record for the freshness hash chain.

    Length-prefixed so no two distinct records share an encoding. The
    freshness anchor folds these blobs — any edit, reorder, or swap of
    durable records changes every chain digest from that point on.
    """

    def _field(data: bytes) -> bytes:
        return len(data).to_bytes(4, "big") + data

    rid = b"" if record.rid is None else (
        record.rid.page_id.to_bytes(8, "big") + record.rid.slot.to_bytes(4, "big")
    )
    return b"".join((
        record.lsn.to_bytes(8, "big"),
        record.txn_id.to_bytes(8, "big", signed=True),
        _field(record.op.value.encode("utf-8")),
        _field((record.table or "").encode("utf-8")),
        _field(rid),
        _field(record.before or b""),
        _field(record.after or b""),
    ))


def chain_fold(digest: bytes, blob: bytes) -> bytes:
    """One chain step; must match ``repro.enclave.anchor.fold``."""
    return hashlib.sha256(digest + blob).digest()


@dataclass
class WriteAheadLog:
    """An append-only log that survives crashes (unlike the buffer pool).

    Alongside the records the log maintains a rolling SHA-256 **chain**
    over the durable stream (extended at flush time, one
    :func:`chain_fold` per newly durable record). The chain head feeds
    the freshness anchor: ``flush_hook`` — when set — is called *after*
    the latch is released with ``(flushed_lsn, chain_digest)`` on every
    completed flush. A partial flush (power loss mid-fsync) extends the
    chain but never calls the hook, exactly as a real crash between
    fsync and the anchor ecall would.
    """

    _records: list[LogRecord] = field(default_factory=list)
    _lock: TimedLatch = field(
        default_factory=lambda: TimedLatch(
            "repro.sqlengine.storage.wal.WriteAheadLog._lock"
        )
    )
    _next_lsn: int = 0
    flushed_lsn: int = -1
    #: chain head: digest over durable records ``[_base_lsn, _chain_lsn]``
    _chain_lsn: int = -1
    _chain_digest: bytes = CHAIN_GENESIS
    #: truncation base: records below ``_base_lsn`` are discarded; the
    #: digest at ``_base_lsn - 1`` seeds the fold
    _base_lsn: int = 0
    _base_digest: bytes = CHAIN_GENESIS
    flush_hook: "Callable[[int, bytes], None] | None" = None

    def append(
        self,
        txn_id: int,
        op: LogOp,
        table: str | None = None,
        rid: RowId | None = None,
        before: bytes | None = None,
        after: bytes | None = None,
    ) -> LogRecord:
        if _APPEND.armed:
            _APPEND.fire(txn_id=txn_id, op=op)
        with self._lock:
            record = LogRecord(
                lsn=self._next_lsn,
                txn_id=txn_id,
                op=op,
                table=table,
                rid=rid,
                before=before,
                after=after,
            )
            self._next_lsn += 1
            self._records.append(record)
            # Counter updates stay inside the lock: a concurrent flush()
            # holds the same lock, so flushed_lsn can never cover a record
            # whose metrics have not landed yet (the totals and the
            # durability horizon advance atomically together).
            _records_appended.inc()
            _bytes_written.inc(len(before or b"") + len(after or b""))
        return record

    def flush(self) -> None:
        """Force the log to "disk" (commit durability point)."""
        directive = _FLUSH.fire() if _FLUSH.armed else None
        if isinstance(directive, PartialFlushDirective):
            with self._lock:
                # The tail never regresses: a previously durable record
                # stays durable; only the newest drop_last records miss.
                partial = self._next_lsn - 1 - directive.drop_last
                self.flushed_lsn = max(self.flushed_lsn, partial)
                self._extend_chain_locked()
            if directive.then_crash:
                raise ForcedCrash("wal.flush", "power lost mid-flush (torn log tail)")
            return
        with self._lock:
            self.flushed_lsn = self._next_lsn - 1
            flushed = self.flushed_lsn
            self._extend_chain_locked()
            digest = self._chain_digest
            hook = self.flush_hook
        _flushes.inc()
        record_event("wal.flush", flushed_lsn=flushed)
        if hook is not None:
            # Outside the latch: the hook crosses into the freshness
            # anchor (enclave/TPM), which must never nest inside storage
            # latches other than the caller's.
            hook(flushed, digest)

    # ------------------------------------------------------ freshness chain

    def _extend_chain_locked(self) -> None:
        """Fold newly durable records into the chain (latch held)."""
        if self._chain_lsn >= self.flushed_lsn or not self._records:
            return
        first_lsn = self._records[0].lsn
        start = self._chain_lsn + 1
        for record in self._records[start - first_lsn : self.flushed_lsn + 1 - first_lsn]:
            self._chain_digest = chain_fold(self._chain_digest, encode_record(record))
        self._chain_lsn = self.flushed_lsn

    def _digest_at_locked(self, upto_lsn: int) -> bytes:
        """The chain digest covering records ``[_base_lsn, upto_lsn]``."""
        if upto_lsn < self._base_lsn - 1:
            raise ValueError(
                f"lsn {upto_lsn} is below the truncation base {self._base_lsn}"
            )
        digest = self._base_digest
        for record in self._records:
            if record.lsn > upto_lsn:
                break
            digest = chain_fold(digest, encode_record(record))
        return digest

    def chain_state(self) -> tuple[int, bytes]:
        """The durable chain head ``(lsn, digest)``."""
        with self._lock:
            return self._chain_lsn, self._chain_digest

    def chain_base(self) -> tuple[int, bytes]:
        """The truncation base ``(lsn, digest at lsn - 1)``."""
        with self._lock:
            return self._base_lsn, self._base_digest

    def durable_chain_blobs(self) -> list[bytes]:
        """Encoded durable records above the base, for anchor verification."""
        with self._lock:
            return [
                encode_record(r)
                for r in self._records
                if self._base_lsn <= r.lsn <= self.flushed_lsn
            ]

    def records(self, durable_only: bool = True) -> list[LogRecord]:
        """Log records visible after a crash (those flushed), or all."""
        with self._lock:
            if durable_only:
                return [r for r in self._records if r.lsn <= self.flushed_lsn]
            return list(self._records)

    def drop_unflushed(self) -> int:
        """Discard records that never reached disk (crash semantics).

        The unflushed tail lives in the process's log buffer — volatile
        memory — so a crash loses it. Leaving it in place would let a
        post-recovery flush resurrect a COMMIT that was never durable,
        changing what the *next* recovery replays (an idempotence
        violation the anchored torture matrix caught). LSNs of the lost
        records are reused, exactly like rewriting a log file from the
        durable tail offset. Returns the number of records dropped.
        """
        with self._lock:
            keep = [r for r in self._records if r.lsn <= self.flushed_lsn]
            lost = len(self._records) - len(keep)
            self._records = keep
            self._next_lsn = self.flushed_lsn + 1
            return lost

    def tear_tail(self, lsn: int) -> int:
        """Post-crash test hook: tear the durable stream down to ``lsn``.

        Models a torn log tail discovered at recovery: records with
        ``lsn`` above the tear point were never fully on disk. Returns
        the number of durable records lost. Only meaningful between
        ``crash()`` and ``recover()`` — tearing a live log is nonsense.
        """
        with self._lock:
            lost = max(0, self.flushed_lsn - lsn)
            if lsn < self.flushed_lsn:
                self.flushed_lsn = lsn
            self._records = [r for r in self._records if r.lsn <= lsn]
            # Keep the LSN sequence contiguous: the torn region of the
            # file gets overwritten by whatever is logged next, and the
            # incremental chain fold assumes gap-free durable LSNs.
            self._next_lsn = min(self._next_lsn, max(lsn, -1) + 1)
            if lsn < self._chain_lsn:
                # The chain head covered records that no longer exist on
                # disk: recompute it over what survived the tear.
                self._chain_lsn = max(lsn, self._base_lsn - 1)
                self._chain_digest = self._digest_at_locked(self._chain_lsn)
            return lost

    def truncate_before(self, lsn: int) -> int:
        """Discard records below ``lsn`` (log truncation); returns count."""
        with self._lock:
            if lsn > self._base_lsn:
                # The new base digest must be computed while the records
                # below the cut still exist; it seeds every future fold.
                self._base_digest = self._digest_at_locked(lsn - 1)
                self._base_lsn = lsn
                if self._chain_lsn < lsn - 1:
                    self._chain_lsn = lsn - 1
                    self._chain_digest = self._base_digest
            keep = [r for r in self._records if r.lsn >= lsn]
            dropped = len(self._records) - len(keep)
            self._records = keep
            return dropped

    def size(self) -> int:
        with self._lock:
            return len(self._records)

    def adversary_view(self) -> list[LogRecord]:
        """Everything in the log — the strong adversary reads it freely."""
        return self.records(durable_only=False)

    # -- adversary hooks (the host owns the log file) ----------------------

    def snapshot_state(self) -> "WalSnapshot":
        """Copy the durable log state — the adversary taking a backup."""
        with self._lock:
            return WalSnapshot(
                records=tuple(self._records),
                next_lsn=self._next_lsn,
                flushed_lsn=self.flushed_lsn,
                chain_lsn=self._chain_lsn,
                chain_digest=self._chain_digest,
                base_lsn=self._base_lsn,
                base_digest=self._base_digest,
            )

    def restore_state(self, snapshot: "WalSnapshot") -> None:
        """Swap an old-but-valid log back in — the rollback attack.

        The restored log is internally consistent (its own chain cache
        included), so nothing host-side can tell it is stale; only the
        anchor's held head — which the restore cannot rewind — can.
        """
        with self._lock:
            self._records = list(snapshot.records)
            self._next_lsn = snapshot.next_lsn
            self.flushed_lsn = snapshot.flushed_lsn
            self._chain_lsn = snapshot.chain_lsn
            self._chain_digest = snapshot.chain_digest
            self._base_lsn = snapshot.base_lsn
            self._base_digest = snapshot.base_digest


@dataclass(frozen=True)
class WalSnapshot:
    """A point-in-time copy of the durable WAL state (adversary backup)."""

    records: tuple[LogRecord, ...]
    next_lsn: int
    flushed_lsn: int
    chain_lsn: int
    chain_digest: bytes
    base_lsn: int
    base_digest: bytes
