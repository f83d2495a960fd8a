"""The storage engine: tables, indexes, transactions, and recovery.

This facade ties the substrates together and implements the Section 4.5
behaviours around crash recovery of encrypted indexes:

* redo is physical (row images from the WAL, no keys needed);
* undo of transactions that touched tables with encrypted *range* indexes
  is logical — it needs enclave comparisons, hence enclave keys, which the
  client only supplies when running queries. Missing keys make recovery
  mark such transactions **deferred**: they keep their locks, blocking
  updates to the rows they touched (and log truncation) until the client
  connects or the index is invalidated;
* with **constant-time recovery (CTR)** enabled, the versioned heap makes
  the database fully available immediately (undo to the committed version
  is keyless); the *version cleaner* retries the index cleanup in the
  background until keys arrive;
* **index invalidation** forces resolution by skipping index recovery and
  marking the index invalid; automatic when no enclave is configured.
  Clustered indexes on encrypted columns are rejected at DDL time because
  invalidating one would lose data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.crypto.aead import EncryptionScheme
from repro.enclave import Enclave
from repro.errors import (
    ConstraintError,
    KeysUnavailableError,
    PageCorruptError,
    RecoveryError,
    SqlError,
    TransactionError,
)
from repro.sqlengine.storage.freshness import FreshnessAnchor, page_digest
from repro.faults.registry import fault_site
from repro.obs.metrics import get_registry
from repro.sqlengine.storage.page import Page
from repro.sqlengine.catalog import Catalog, IndexSchema, TableSchema
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.index.btree import BPlusTree
from repro.sqlengine.index.comparators import (
    CellComparator,
    CiphertextBinaryComparator,
    CompositeComparator,
    EnclaveComparator,
    PlaintextComparator,
)
from repro.sqlengine.storage.bufferpool import BufferPool
from repro.sqlengine.storage.disk import Disk
from repro.sqlengine.storage.heap import HeapFile, RowId
from repro.sqlengine.storage.record import RowCodec, deserialize_row, serialize_row
from repro.sqlengine.storage.wal import LogOp, LogRecord, WriteAheadLog
from repro.sqlengine.txn.locks import LockManager, LockMode
from repro.sqlengine.txn.transaction import (
    Transaction,
    TransactionManager,
    TxnState,
    UndoEntry,
)


_COMMIT = fault_site("engine.commit")
_PREPARE = fault_site("engine.prepare")
_INDEX_INSERT = fault_site("engine.index_insert")


#: The log record that compensates each undo-entry kind.
_COMPENSATION = {"insert": LogOp.DELETE, "delete": LogOp.INSERT, "update": LogOp.UPDATE}


class IndexState(enum.Enum):
    READY = "ready"
    PENDING_REBUILD = "pending"   # waiting for enclave keys after a crash
    INVALID = "invalid"           # invalidated during recovery (Section 4.5)


@dataclass
class IndexObject:
    """A live index: schema + tree + recovery state.

    Keys are tuples (one element per indexed column) even for single-column
    indexes, so composite indexes mixing plaintext and encrypted columns —
    like TPC-C's CUSTOMER_NC1 — work uniformly.
    """

    schema: IndexSchema
    tree: BPlusTree
    key_slots: list[int]
    state: IndexState = IndexState.READY
    cek_names: tuple[str, ...] = ()  # CEKs of encrypted key columns

    @property
    def usable(self) -> bool:
        return self.state is IndexState.READY and self.schema.valid

    def key_of(self, row: tuple) -> tuple:
        return tuple(row[slot] for slot in self.key_slots)


@dataclass
class TableObject:
    schema: TableSchema
    heap: HeapFile
    indexes: dict[str, IndexObject] = field(default_factory=dict)
    #: ``(schema version, RowCodec)``: rebuilt when the version moves.
    codec: tuple[int, RowCodec | None] = (-1, None)


@dataclass
class PendingCleanup:
    """CTR version-cleaner work: index entries of a rolled-back txn."""

    txn_id: int
    table: str
    retries: int = 0


class StorageEngine:
    """The transactional storage engine underneath the SQL executor."""

    def __init__(
        self,
        catalog: Catalog | None = None,
        enclave: Enclave | None = None,
        ctr_enabled: bool = True,
        lock_timeout_s: float = 2.0,
        buffer_pool_pages: int = 4096,
        batch_index_probes: bool = True,
        freshness: FreshnessAnchor | None = None,
    ):
        self.catalog = catalog or Catalog()
        self.enclave = enclave
        self.ctr_enabled = ctr_enabled
        self.batch_index_probes = batch_index_probes
        self.disk = Disk()
        self.wal = WriteAheadLog()
        self.pool = BufferPool(self.disk, capacity=buffer_pool_pages, wal=self.wal)
        # Paper mode (no anchor) stays the default: recovery behaviour and
        # the Figure 8/9 calibration are unchanged unless an anchor is
        # explicitly configured.
        self.freshness = freshness
        if freshness is not None:
            freshness.attach_engine(self)
        self.locks = LockManager(default_timeout_s=lock_timeout_s)
        self.txns = TransactionManager()
        self.tables: dict[str, TableObject] = {}
        self.deferred: dict[int, Transaction] = {}
        # 2PC participants: gtid → prepared transaction (in-doubt after a
        # crash until the coordinator's decision arrives), plus the gtids
        # whose decision already landed so coordinator retries stay
        # idempotent (rebuilt from the WAL at recovery).
        self.prepared: dict[str, Transaction] = {}
        self._resolved_gtids: set[str] = set()
        self.pending_cleanups: list[PendingCleanup] = []
        # Durable metadata (simulating system pages): table → heap page ids.
        self._durable_table_pages: dict[str, list[int]] = {}

    # ------------------------------------------------------------------ DDL

    def create_table(self, schema: TableSchema) -> TableObject:
        self.catalog.create_table(schema)
        table = TableObject(schema=schema, heap=HeapFile(schema.name, self.pool))
        self.tables[schema.name.lower()] = table
        self._durable_table_pages[schema.name.lower()] = []
        if schema.primary_key:
            pk_index = IndexSchema(
                name=f"pk_{schema.name}",
                table_name=schema.name,
                column_names=schema.primary_key,
                unique=True,
            )
            self._create_index_object(table, pk_index)
            schema.indexes[pk_index.name] = pk_index
        self.catalog.bump_schema_version()
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name.lower(), None)
        self.catalog.drop_table(name)

    def create_index(self, index: IndexSchema) -> IndexObject:
        table = self.table(index.table_name)
        for column_name in index.column_names:
            column = table.schema.column(column_name)
            if index.clustered and column.is_encrypted:
                # Section 4.5: invalidating a clustered index loses data, so
                # clustered indexes on encrypted columns are not supported.
                raise SqlError(
                    "clustered indexes are not supported on encrypted columns"
                )
            enc = column.column_type.encryption
            if (
                enc is not None
                and enc.scheme is EncryptionScheme.RANDOMIZED
                and not enc.enclave_enabled
            ):
                raise SqlError(
                    "cannot index a randomized column without an enclave-enabled key"
                )
        obj = self._create_index_object(table, index)
        table.schema.indexes[index.name] = index
        # Build from existing rows (an index build sorts the data — the
        # ordering leakage the paper notes for RND range indexes).
        entries = []
        for rid, row in table.heap.scan():
            entries.append((obj.key_of(row), rid))
        obj.tree.bulk_build(entries)
        self.catalog.bump_schema_version()
        return obj

    def _create_index_object(self, table: TableObject, index: IndexSchema) -> IndexObject:
        if index.name in table.indexes:
            raise SqlError(f"index {index.name!r} already exists")
        key_slots: list[int] = []
        cells: list[CellComparator] = []
        cek_names: list[str] = []
        leak_column: str | None = None
        for column_name in index.column_names:
            column = table.schema.column(column_name)
            key_slots.append(table.schema.column_index(column_name))
            enc = column.column_type.encryption
            # The leakage ledger attributes observations to qualified
            # column names; the first encrypted key column labels the
            # tree's access pattern.
            column_label = f"{table.schema.name}.{column_name}"
            if enc is None:
                cells.append(CellComparator(PlaintextComparator()))
            elif enc.scheme is EncryptionScheme.DETERMINISTIC:
                cells.append(
                    CellComparator(CiphertextBinaryComparator(column=column_label))
                )
                cek_names.append(enc.cek_name)
                leak_column = leak_column or column_label
            else:
                if self.enclave is None:
                    raise SqlError("a range index on a RND column requires an enclave")
                cells.append(
                    CellComparator(
                        EnclaveComparator(
                            self.enclave,
                            enc.cek_name,
                            batch_probes=self.batch_index_probes,
                            column=column_label,
                        )
                    )
                )
                cek_names.append(enc.cek_name)
                leak_column = leak_column or column_label
        obj = IndexObject(
            schema=index,
            tree=BPlusTree(
                CompositeComparator(cells),
                unique=index.unique,
                leak_column=leak_column,
            ),
            key_slots=key_slots,
            cek_names=tuple(cek_names),
        )
        table.indexes[index.name] = obj
        return obj

    def drop_index(self, table_name: str, index_name: str) -> None:
        table = self.table(table_name)
        table.indexes.pop(index_name, None)
        table.schema.indexes.pop(index_name, None)
        self.catalog.bump_schema_version()

    def rebind_index_cek(self, table_name: str, column_name: str, new_cek: str) -> None:
        """Repoint index comparators after a rotation's metadata flip.

        Enclave comparators capture the column's CEK name at index build
        time; when an online rotation flips the column to a new CEK the
        trees keyed on it must follow, or the first post-rotation probe
        MAC-fails against entries rewritten under the new key.
        """
        table = self.table(table_name)
        target = column_name.lower()
        for obj in table.indexes.values():
            names = [name.lower() for name in obj.schema.column_names]
            if target not in names:
                continue
            for name, cell in zip(names, obj.tree.comparator.cells):
                if name == target and isinstance(cell.inner, EnclaveComparator):
                    cell.inner.rebind_cek(new_cek)
            obj.cek_names = tuple(
                enc.cek_name
                for enc in (
                    table.schema.column(column).column_type.encryption
                    for column in obj.schema.column_names
                )
                if enc is not None
            )

    def table(self, name: str) -> TableObject:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SqlError(f"unknown table {name!r}") from None

    # ----------------------------------------------------------- transactions

    def begin(self) -> Transaction:
        return self.txns.begin()

    def _ensure_begin_logged(self, txn: Transaction) -> None:
        if not txn.begin_logged:
            self.wal.append(txn.txn_id, LogOp.BEGIN)
            txn.begin_logged = True

    def commit(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise TransactionError(f"cannot commit txn in state {txn.state}")
        if _COMMIT.armed:
            _COMMIT.fire(txn_id=txn.txn_id)
        self._ensure_begin_logged(txn)
        self.wal.append(txn.txn_id, LogOp.COMMIT)
        self.wal.flush()
        self.txns.finish(txn, TxnState.COMMITTED)
        self.locks.release_all(txn.txn_id)

    def abort(self, txn: Transaction) -> None:
        if not txn.is_active:
            raise TransactionError(f"cannot abort txn in state {txn.state}")
        self._ensure_begin_logged(txn)
        self._undo(txn, log_compensation=True)
        self.wal.append(txn.txn_id, LogOp.ABORT)
        self.wal.flush()
        self.txns.finish(txn, TxnState.ABORTED)
        self.locks.release_all(txn.txn_id)

    # -------------------------------------------------- two-phase commit

    def prepare(self, txn: Transaction, gtid: str) -> None:
        """Phase one: durably promise to commit ``txn`` under ``gtid``.

        The PREPARE record (gtid in the ``table`` field) reaches disk
        before we answer the coordinator; the transaction keeps every
        lock and its undo log, so either decision remains executable —
        including after a crash, when recovery rebuilds it as in-doubt.
        """
        if not txn.is_active:
            raise TransactionError(f"cannot prepare txn in state {txn.state}")
        if gtid in self.prepared or gtid in self._resolved_gtids:
            raise TransactionError(f"gtid {gtid!r} already prepared or resolved")
        if _PREPARE.armed:
            _PREPARE.fire(txn_id=txn.txn_id, gtid=gtid)
        self._ensure_begin_logged(txn)
        self.wal.append(txn.txn_id, LogOp.PREPARE, table=gtid)
        self.wal.flush()
        self.txns.finish(txn, TxnState.PREPARED)
        self.prepared[gtid] = txn

    def commit_prepared(self, gtid: str) -> bool:
        """Phase two, commit decision. Idempotent: a coordinator retrying
        after a crash gets ``False`` if the decision already applied."""
        if gtid in self._resolved_gtids:
            return False
        txn = self.prepared.pop(gtid, None)
        if txn is None:
            # Presumed abort: an unknown, unresolved gtid was never
            # prepared here (or its PREPARE never became durable).
            raise TransactionError(f"no prepared transaction for gtid {gtid!r}")
        self.wal.append(txn.txn_id, LogOp.COMMIT, table=gtid)
        self.wal.flush()
        txn.state = TxnState.COMMITTED
        txn.undo_log.clear()
        self._resolved_gtids.add(gtid)
        self.locks.release_all(txn.txn_id)
        return True

    def abort_prepared(self, gtid: str) -> bool:
        """Phase two, abort decision (also the presumed-abort path)."""
        if gtid in self._resolved_gtids:
            return False
        txn = self.prepared.pop(gtid, None)
        if txn is None:
            # Presumed abort: nothing prepared means nothing to undo.
            return False
        self._undo(txn, log_compensation=True)
        self.wal.append(txn.txn_id, LogOp.ABORT, table=gtid)
        self.wal.flush()
        txn.state = TxnState.ABORTED
        self._resolved_gtids.add(gtid)
        self.locks.release_all(txn.txn_id)
        return True

    def indoubt_gtids(self) -> list[str]:
        """Gtids awaiting a coordinator decision (recovery repopulates)."""
        return sorted(self.prepared)

    # ------------------------------------------------------------------- DML

    def insert(self, txn: Transaction, table_name: str, row: tuple) -> RowId:
        table = self.table(table_name)
        record = self._encode_row(table, row)
        self._ensure_begin_logged(txn)
        rid = table.heap.insert(record, row)
        try:
            # The heap can hand out a reused slot whose rid another
            # transaction still locks (it deleted the old row and hasn't
            # finished): a lock timeout must not leak the unlogged row.
            self.locks.acquire(txn.txn_id, ("row", table_name.lower(), rid), LockMode.EXCLUSIVE)
        except Exception:
            table.heap.delete(rid)
            raise
        try:
            self._index_insert(table, row, rid)
        except Exception:
            # Constraint violation or injected fault: either way the heap
            # row must not outlive its missing index entries.
            table.heap.delete(rid)
            raise
        try:
            self.wal.append(
                txn.txn_id, LogOp.INSERT, table=table_name.lower(), rid=rid, after=record
            )
        except Exception:
            # Write-ahead rule: a change that could not be logged must not
            # survive in memory either — eviction or checkpoint could push
            # it to disk with recovery knowing nothing about it.
            self._index_delete(table, row, rid)
            table.heap.delete(rid)
            raise
        txn.undo_log.append(UndoEntry("insert", table_name.lower(), rid, None, row))
        txn.touched_tables.add(table_name.lower())
        return rid

    def delete(self, txn: Transaction, table_name: str, rid: RowId) -> None:
        table = self.table(table_name)
        self.locks.acquire(txn.txn_id, ("row", table_name.lower(), rid), LockMode.EXCLUSIVE)
        self._ensure_begin_logged(txn)
        row = table.heap.read(rid)
        self._index_delete(table, row, rid)
        before = table.heap.delete(rid)
        try:
            self.wal.append(
                txn.txn_id, LogOp.DELETE, table=table_name.lower(), rid=rid, before=before
            )
        except Exception:
            table.heap.insert_at(rid, before)
            self._index_reinsert_raw(table, row, rid)
            raise
        txn.undo_log.append(UndoEntry("delete", table_name.lower(), rid, row, None))
        txn.touched_tables.add(table_name.lower())

    def update(self, txn: Transaction, table_name: str, rid: RowId, new_row: tuple) -> None:
        table = self.table(table_name)
        record = self._encode_row(table, new_row)
        self.locks.acquire(txn.txn_id, ("row", table_name.lower(), rid), LockMode.EXCLUSIVE)
        self._ensure_begin_logged(txn)
        old_row = table.heap.read(rid)
        moves = self._moved_keys(table, old_row, new_row)
        self._index_rekey(table, rid, moves)
        try:
            before = table.heap.update(rid, record, new_row)
        except SqlError:
            # The row grew past its page's free space (e.g. in-place
            # encryption turning small plaintext into 65+-byte envelopes):
            # relocate it, repointing index entries at the new rid.
            self._relocate_row(txn, table, table_name.lower(), rid, old_row, new_row, record)
            return
        try:
            self.wal.append(
                txn.txn_id,
                LogOp.UPDATE,
                table=table_name.lower(),
                rid=rid,
                before=before,
                after=record,
            )
        except Exception:
            table.heap.update(rid, before)
            self._index_rekey_back(rid, moves, len(moves))
            raise
        txn.undo_log.append(UndoEntry("update", table_name.lower(), rid, old_row, new_row))
        txn.touched_tables.add(table_name.lower())

    def _relocate_row(
        self,
        txn: Transaction,
        table: TableObject,
        table_name: str,
        rid: RowId,
        old_row: tuple,
        new_row: tuple,
        record: bytes,
    ) -> RowId:
        before = table.heap.delete(rid)
        new_rid = table.heap.insert(record)
        self.locks.acquire(txn.txn_id, ("row", table_name, new_rid), LockMode.EXCLUSIVE)
        for obj in list(table.indexes.values()):
            if obj.state is not IndexState.READY or not obj.schema.valid:
                continue
            key = obj.key_of(new_row)
            obj.tree.delete(key, rid)
            obj.tree.insert(key, new_rid)
        self.wal.append(txn.txn_id, LogOp.DELETE, table=table_name, rid=rid, before=before)
        self.wal.append(txn.txn_id, LogOp.INSERT, table=table_name, rid=new_rid, after=record)
        txn.undo_log.append(UndoEntry("delete", table_name, rid, old_row, None))
        txn.undo_log.append(UndoEntry("insert", table_name, new_rid, None, new_row))
        txn.touched_tables.add(table_name)
        return new_rid

    def lock_row(self, txn: Transaction, table_name: str, rid: RowId) -> None:
        """Acquire an exclusive row lock ahead of a read-modify-write.

        Update/delete qualification must be re-checked *after* this lock:
        reads are unlocked, so the row seen during scanning may be stale.
        """
        self.locks.acquire(txn.txn_id, ("row", table_name.lower(), rid), LockMode.EXCLUSIVE)

    def read(self, table_name: str, rid: RowId) -> tuple | None:
        return self.table(table_name).heap.read_or_none(rid)

    def scan(self, table_name: str) -> Iterator[tuple[RowId, tuple]]:
        return self.table(table_name).heap.scan()

    def _encode_row(self, table: TableObject, row: tuple) -> bytes:
        """``row``'s record, checked against the schema by the table's codec
        in the same pass, or by the full check for a row it does not cover."""
        version, codec = table.codec
        if version != self.catalog.schema_version:
            version = self.catalog.schema_version   # read before the schema, as _plan does
            codec = RowCodec(table.schema.columns)
            table.codec = (version, codec)
        record = codec.encode(row)
        if record is None:
            self._validate_row(table, row)
            record = serialize_row(row)
        return record

    def _validate_row(self, table: TableObject, row: tuple) -> None:
        if len(row) != table.schema.arity:
            raise SqlError(
                f"row arity {len(row)} does not match table "
                f"{table.schema.name!r} ({table.schema.arity} columns)"
            )
        for cell, column in zip(row, table.schema.columns):
            if cell is None:
                if not column.nullable:
                    raise ConstraintError(
                        f"column {column.name!r} does not allow NULL"
                    )
                continue
            ciphertext = isinstance(cell, Ciphertext)
            if ciphertext != column.is_encrypted:
                # An online initial encryption (decryption) flips the
                # column's metadata at ROTATE_BEGIN while old rows are still
                # plaintext (ciphertext); the sweep converts them. Only that
                # declared window tolerates the old form.
                rotation = self.catalog.column_rotation(
                    table.schema.name, column.name
                )
                window = "encrypt" if column.is_encrypted else "decrypt"
                if rotation is None or rotation.kind != window:
                    raise SqlError(
                        f"column {column.name!r} is encrypted; the engine only "
                        "accepts ciphertext for it (the driver encrypts)"
                        if column.is_encrypted
                        else f"column {column.name!r} is plaintext; got ciphertext"
                    )
            if not ciphertext:
                column.column_type.sql_type.validate(cell)

    # -------------------------------------------------------- index maintenance

    def _index_insert(self, table: TableObject, row: tuple, rid: RowId) -> None:
        if _INDEX_INSERT.armed:
            _INDEX_INSERT.fire(table=table.schema.name, rid=rid)
        inserted: list[tuple[IndexObject, object]] = []
        try:
            # list(): concurrent DDL on another session must not mutate the
            # dict under this iteration.
            for obj in list(table.indexes.values()):
                if obj.state is not IndexState.READY or not obj.schema.valid:
                    continue
                key = obj.key_of(row)
                obj.tree.insert(key, rid)
                inserted.append((obj, key))
        except Exception:
            for obj, key in inserted:
                obj.tree.delete(key, rid)
            raise

    def _index_delete(self, table: TableObject, row: tuple, rid: RowId) -> None:
        for obj in list(table.indexes.values()):
            if obj.state is not IndexState.READY or not obj.schema.valid:
                continue
            obj.tree.delete(obj.key_of(row), rid)

    def _index_reinsert_raw(self, table: TableObject, row: tuple, rid: RowId) -> None:
        """Restore just-removed index entries while rolling back a failed
        WAL append. No fault site, no constraint surprises: the entries
        were present moments ago."""
        for obj in list(table.indexes.values()):
            if obj.state is not IndexState.READY or not obj.schema.valid:
                continue
            obj.tree.insert(obj.key_of(row), rid)

    def _moved_keys(
        self, table: TableObject, old_row: tuple, new_row: tuple
    ) -> list[tuple[IndexObject, tuple, tuple]]:
        """``(index, old key, new key)`` for each usable index whose key
        differs between the two images of a row.

        An index whose key did not move needs nothing from an UPDATE: its
        entry already maps that key to that rid. A key cell moved unless
        it is the same object, or equal *and* of the same type (``1``,
        ``1.0`` and ``True`` are equal but are different cells; a
        ciphertext equals another by its envelope bytes).
        """
        moves: list[tuple[IndexObject, tuple, tuple]] = []
        for obj in list(table.indexes.values()):
            if not obj.usable:
                continue
            for slot in obj.key_slots:
                old, new = old_row[slot], new_row[slot]
                if old is not new and (type(old) is not type(new) or old != new):
                    moves.append((obj, obj.key_of(old_row), obj.key_of(new_row)))
                    break
        return moves

    def _index_rekey(
        self,
        table: TableObject,
        rid: RowId,
        moves: list[tuple[IndexObject, tuple, tuple]],
    ) -> None:
        """Re-key ``rid`` in the moved indexes: old entries out, new ones in.

        Between the two a reader of a moved index finds the row under
        neither key. The fault site fires there once per updated row,
        moved keys or not.
        """
        for obj, old_key, __ in moves:
            obj.tree.delete(old_key, rid)
        placed = 0
        try:
            if _INDEX_INSERT.armed:
                _INDEX_INSERT.fire(table=table.schema.name, rid=rid)
            for obj, __, new_key in moves:
                obj.tree.insert(new_key, rid)
                placed += 1
        except Exception:
            # Constraint violation or injected fault: the row keeps its
            # old image, so every moved index gets its old entry back.
            self._index_rekey_back(rid, moves, placed)
            raise

    @staticmethod
    def _index_rekey_back(
        rid: RowId, moves: list[tuple[IndexObject, tuple, tuple]], placed: int
    ) -> None:
        """Undo :meth:`_index_rekey` after the first ``placed`` new entries
        went in. No fault site: the old entries were present moments ago."""
        for i, (obj, old_key, new_key) in enumerate(moves):
            if i < placed:
                obj.tree.delete(new_key, rid)
            obj.tree.insert(old_key, rid)

    def _rebuild_index(self, table: TableObject, obj: IndexObject) -> None:
        entries = []
        for rid, row in table.heap.scan():
            entries.append((obj.key_of(row), rid))
        obj.tree = BPlusTree(obj.tree.comparator, unique=obj.schema.unique)
        obj.tree.bulk_build(entries)
        obj.state = IndexState.READY
        self.catalog.bump_schema_version()

    # ------------------------------------------------------------------- undo

    def _undo(self, txn: Transaction, log_compensation: bool) -> None:
        for entry in reversed(txn.undo_log):
            table = self.table(entry.table)
            if entry.op == "insert":
                current = table.heap.read_or_none(entry.rid)
                if current is not None:
                    self._index_delete(table, current, entry.rid)
                    table.heap.delete(entry.rid)
                if log_compensation:
                    self.wal.append(
                        txn.txn_id,
                        LogOp.DELETE,
                        table=entry.table,
                        rid=entry.rid,
                        before=serialize_row(entry.after or ()),
                    )
            elif entry.op == "delete":
                assert entry.before is not None
                record = serialize_row(entry.before)
                table.heap.insert_at(entry.rid, record)
                self._index_insert(table, entry.before, entry.rid)
                if log_compensation:
                    self.wal.append(
                        txn.txn_id,
                        LogOp.INSERT,
                        table=entry.table,
                        rid=entry.rid,
                        after=record,
                    )
            elif entry.op == "update":
                assert entry.before is not None and entry.after is not None
                record = serialize_row(entry.before)
                current = table.heap.read_or_none(entry.rid)
                if current is None:
                    table.heap.insert_at(entry.rid, record)
                    self._index_insert(table, entry.before, entry.rid)
                else:
                    # Like the forward UPDATE: indexes first, and only
                    # those whose key the restored image moves.
                    self._index_rekey(
                        table,
                        entry.rid,
                        self._moved_keys(table, current, entry.before),
                    )
                    table.heap.insert_at(entry.rid, record)
                if log_compensation:
                    self.wal.append(
                        txn.txn_id,
                        LogOp.UPDATE,
                        table=entry.table,
                        rid=entry.rid,
                        before=serialize_row(entry.after),
                        after=record,
                    )
        txn.undo_log.clear()

    # ------------------------------------------------------- checkpoint / crash

    def checkpoint(self) -> None:
        """Flush dirty pages and record durable heap membership."""
        self.pool.flush_all()
        for name, table in self.tables.items():
            self._durable_table_pages[name] = table.heap.page_ids
        self.wal.append(0, LogOp.CHECKPOINT)
        self.wal.flush()

    def crash(self) -> None:
        """Simulate a crash: all volatile state is lost.

        Dirty buffered pages vanish; the disk, the flushed WAL, and the
        (system-page) catalog and table-page metadata survive.
        """
        self.pool.drop_all()
        self.wal.drop_unflushed()
        self.locks = LockManager(default_timeout_s=self.locks.default_timeout_s)
        self.txns = TransactionManager()
        self.tables = {}
        self.deferred = {}
        self.prepared = {}
        self._resolved_gtids = set()
        self.pending_cleanups = []
        self.catalog.bump_schema_version()

    def recover(self) -> "RecoveryReport":
        """Run crash recovery: physical redo, then (deferrable) undo."""
        report = RecoveryReport()

        # 0. Sweep every on-disk page image through its checksum. A torn
        #    write (power loss mid-write) can hit any page the pool ever
        #    wrote back — checkpointed or evicted — so the sweep covers the
        #    whole disk, not just the durable heap metadata. A corrupt image
        #    is dropped and replaced by a fresh (dirty, so it writes back)
        #    empty page of the same id; physical redo recreates its rows
        #    from the WAL.
        torn_page_ids: set[int] = set()
        page_digests: dict[int, bytes] = {}
        for page_id in self.disk.page_ids():
            image = self.disk.read_page(page_id)
            try:
                Page.from_bytes(image)
            except PageCorruptError:
                self.disk.drop_page(page_id)
                self.pool.get_or_create(page_id).dirty = True
                get_registry().counter(
                    "recovery.torn_pages_detected",
                    help="page images failing their checksum at recovery",
                ).inc()
                report.torn_pages += 1
                torn_page_ids.add(page_id)
            else:
                page_digests[page_id] = page_digest(image)

        # 0b. Freshness gate: before trusting a byte of the durable state,
        #     check it against the anchor. An internally consistent but
        #     *old* WAL/disk (a restored snapshot, replayed pages, a
        #     pre-rotation backup) raises StaleRestoreError here instead
        #     of silently recovering; torn pages are exempt because their
        #     contents come back from the WAL this very check verified.
        if self.freshness is not None:
            verdict = self.freshness.verify_recovery(
                self.wal,
                page_digests,
                torn_page_ids,
                self.catalog.cek_versions(),
            )
            report.freshness_verified = True
            report.anchor_epoch = verdict.epoch

        # 1. Reattach heaps from durable metadata and recreate index objects
        #    from the (durable) catalog — empty for now, rebuilt in step 5.
        for schema in self.catalog.tables():
            table = TableObject(schema=schema, heap=HeapFile(schema.name, self.pool))
            self.tables[schema.name.lower()] = table
            for page_id in self._durable_table_pages.get(schema.name.lower(), []):
                if self.disk.has_page(page_id) or page_id in torn_page_ids:
                    table.heap.adopt_page(page_id)
                    self.pool.note_existing_page_id(page_id)
            for index_schema in schema.indexes.values():
                try:
                    obj = self._create_index_object(table, index_schema)
                except SqlError:
                    # A RND range index with no enclave configured (e.g. a
                    # backup restored on an enclave-less machine): index
                    # invalidation is automatic (Section 4.5).
                    index_schema.valid = False
                    report.invalidated_indexes.append(index_schema.name)
                    continue
                if not index_schema.valid:
                    obj.state = IndexState.INVALID

        records = self.wal.records(durable_only=True)
        if records:
            # New transactions must not reuse ids the durable log already
            # mentions: the *next* recovery would conflate their records
            # (e.g. treat a fresh PREPARE as resolved by an old COMMIT).
            self.txns.advance_past(max(r.txn_id for r in records))

        # 2. Physical redo of every row operation, in LSN order. Idempotent
        #    and keyless: images are (possibly ciphertext) bytes.
        for record in records:
            if record.op is LogOp.INSERT:
                table = self.table(record.table)
                table.heap.insert_at(record.rid, record.after)
                self.pool.note_existing_page_id(record.rid.page_id)
                report.redone += 1
            elif record.op is LogOp.DELETE:
                table = self.table(record.table)
                if table.heap.read_or_none(record.rid) is not None:
                    table.heap.delete(record.rid)
                report.redone += 1
            elif record.op is LogOp.UPDATE:
                table = self.table(record.table)
                table.heap.insert_at(record.rid, record.after)
                report.redone += 1

        # 3. Identify loser transactions. A transaction with a durable
        #    PREPARE but no decision record is *in-doubt*, not a loser:
        #    presumed-abort 2PC keeps it (and its locks) until the
        #    coordinator resolves it. Decisions for prepared txns carry
        #    their gtid in the table field; remembering them makes
        #    coordinator retries after a crash idempotent.
        finished = {
            r.txn_id for r in records if r.op in (LogOp.COMMIT, LogOp.ABORT)
        }
        self._resolved_gtids = {
            r.table
            for r in records
            if r.op in (LogOp.COMMIT, LogOp.ABORT) and r.table is not None
        }
        indoubt_gtid_by_txn: dict[int, str] = {
            r.txn_id: r.table
            for r in records
            if r.op is LogOp.PREPARE
            and r.table is not None
            and r.txn_id not in finished
        }
        losers: dict[int, Transaction] = {}
        indoubt: dict[int, Transaction] = {}
        for record in records:
            if record.op is LogOp.BEGIN and record.txn_id not in finished:
                txn = Transaction(txn_id=record.txn_id)
                if record.txn_id in indoubt_gtid_by_txn:
                    indoubt[record.txn_id] = txn
                else:
                    losers[record.txn_id] = txn
        for record in records:
            loser = losers.get(record.txn_id) or indoubt.get(record.txn_id)
            if loser is None:
                continue
            if record.op is LogOp.INSERT:
                loser.undo_log.append(
                    UndoEntry("insert", record.table, record.rid, None, deserialize_row(record.after))
                )
                loser.touched_tables.add(record.table)
            elif record.op is LogOp.DELETE:
                loser.undo_log.append(
                    UndoEntry("delete", record.table, record.rid, deserialize_row(record.before), None)
                )
                loser.touched_tables.add(record.table)
            elif record.op is LogOp.UPDATE:
                loser.undo_log.append(
                    UndoEntry(
                        "update",
                        record.table,
                        record.rid,
                        deserialize_row(record.before),
                        deserialize_row(record.after),
                    )
                )
                loser.touched_tables.add(record.table)

        # 4. Undo losers — deferring those gated on missing enclave keys.
        for loser in losers.values():
            gating = self._keyless_encrypted_indexes(loser.touched_tables)
            if gating and self.enclave is None:
                # No enclave configured (e.g. restoring a backup on a
                # machine without one): invalidation is automatic.
                for table_name, index_name in gating:
                    self.invalidate_index(table_name, index_name)
                    report.invalidated_indexes.append(index_name)
                gating = []
            if gating:
                if self.ctr_enabled:
                    # CTR: committed versions become visible immediately
                    # (keyless heap undo), locks are NOT retained; the
                    # version cleaner owns the index-side cleanup.
                    self._undo_heap_only(loser)
                    for table_name, __ in gating:
                        self.pending_cleanups.append(
                            PendingCleanup(txn_id=loser.txn_id, table=table_name)
                        )
                    loser.state = TxnState.ABORTED
                    self.wal.append(loser.txn_id, LogOp.ABORT)
                    report.ctr_reverted.append(loser.txn_id)
                else:
                    loser.state = TxnState.DEFERRED
                    self.deferred[loser.txn_id] = loser
                    self.locks.rehold(
                        loser.txn_id,
                        {("row", e.table, e.rid) for e in loser.undo_log},
                    )
                    report.deferred.append(loser.txn_id)
            else:
                self._undo_heap_only(loser)
                loser.state = TxnState.ABORTED
                self.wal.append(loser.txn_id, LogOp.ABORT)
                report.undone.append(loser.txn_id)

        # 4b. Reinstate in-doubt 2PC participants: state PREPARED, undo log
        #     rebuilt from the WAL, locks re-held — nothing may touch their
        #     rows until the coordinator's commit_prepared/abort_prepared.
        for txn in indoubt.values():
            gtid = indoubt_gtid_by_txn[txn.txn_id]
            txn.state = TxnState.PREPARED
            txn.begin_logged = True
            # Adopt pushes the id counter past the recovered id — a new
            # transaction reusing it would silently share the re-held
            # locks (same-holder grants) instead of blocking on them.
            self.txns.adopt(txn)
            self.txns.finish(txn, TxnState.PREPARED)
            self.prepared[gtid] = txn
            self.locks.rehold(
                txn.txn_id,
                {("row", e.table, e.rid) for e in txn.undo_log},
            )
            report.indoubt.append(gtid)
        self.wal.flush()

        # 4c. Key-lifecycle resume analysis. ROTATE_* records ride txn 0,
        #     so steps 2-4 ignored them; here they are authoritative over
        #     whatever the in-memory catalog still believes. A durable
        #     ROTATE_BEGIN without its ROTATE_END means the crash landed
        #     mid-rotation: rebuild the catalog's rotation state at the
        #     checkpointed watermark (and re-flip the column's CEK, which
        #     happens after the BEGIN flush) so a lifecycle job can resume.
        #     A durable ROTATE_END re-applies the version bump — the bump
        #     precedes the anchor witness, so recovery must never report a
        #     version *below* what the anchor holds.
        rotate_begun: dict[str, LogRecord] = {}
        rotate_watermarks: dict[str, int] = {}
        rotate_ended: dict[str, LogRecord] = {}
        for record in records:
            if record.table is None:
                continue
            if record.op is LogOp.ROTATE_BEGIN:
                rotate_begun[record.table] = record
            elif record.op is LogOp.ROTATE_PROGRESS:
                rotate_watermarks[record.table] = int.from_bytes(
                    record.after or b"", "big", signed=True
                )
            elif record.op is LogOp.ROTATE_END:
                rotate_ended[record.table] = record
        if rotate_begun:
            from repro.sqlengine.rotation import (
                decode_rotation_descriptor,
                reinstate_rotation,
            )

            for rotation_id, begin_record in rotate_begun.items():
                descriptor = decode_rotation_descriptor(begin_record.after or b"")
                end_record = rotate_ended.get(rotation_id)
                if end_record is not None:
                    version = int.from_bytes(end_record.after or b"", "big", signed=True)
                    if descriptor.new_cek:  # a decryption bumps nothing
                        self.catalog.ensure_cek_version(descriptor.new_cek, version)
                    # The column may be under a later rotation by now.
                    state = self.catalog.column_rotation(descriptor.table, descriptor.column)
                    if state is not None and state.rotation_id == rotation_id:
                        self.catalog.finish_column_rotation(rotation_id)
                    report.completed_rotations.append(rotation_id)
                else:
                    reinstate_rotation(
                        self,
                        rotation_id,
                        descriptor,
                        rotate_watermarks.get(rotation_id, -1),
                    )
                    report.resumed_rotations.append(rotation_id)

        # 5. Rebuild indexes. Keyless kinds rebuild now; enclave-comparator
        #    indexes rebuild only if the CEK is installed.
        for table in self.tables.values():
            for obj in table.indexes.values():
                if not obj.schema.valid:
                    obj.state = IndexState.INVALID
                    continue
                try:
                    self._rebuild_index(table, obj)
                except KeysUnavailableError:
                    obj.state = IndexState.PENDING_REBUILD
                    report.pending_indexes.append(obj.schema.name)

        # The tables and index objects are new and their states settled.
        self.catalog.bump_schema_version()
        return report

    def _undo_heap_only(self, txn: Transaction) -> None:
        """Undo against the heap using before-images; indexes are derived
        later by rebuild, so no index navigation (no keys) is needed."""
        for entry in reversed(txn.undo_log):
            table = self.table(entry.table)
            undone = serialize_row(entry.after) if entry.after is not None else None
            restored = serialize_row(entry.before) if entry.before is not None else None
            if restored is not None:
                table.heap.insert_at(entry.rid, restored)
            elif table.heap.read_or_none(entry.rid) is not None:
                table.heap.delete(entry.rid)
            self.wal.append(
                txn.txn_id,
                _COMPENSATION[entry.op],
                table=entry.table,
                rid=entry.rid,
                before=undone,
                after=restored,
            )

    def _keyless_encrypted_indexes(self, table_names: set[str]) -> list[tuple[str, str]]:
        """(table, index) pairs with enclave comparators whose CEK is absent."""
        gating: list[tuple[str, str]] = []
        for table_name in table_names:
            table = self.tables.get(table_name)
            if table is None:
                continue
            for obj in table.indexes.values():
                if not obj.schema.valid:
                    continue
                needs_enclave = any(
                    isinstance(cell.inner, EnclaveComparator)
                    for cell in obj.tree.comparator.cells
                )
                if needs_enclave and (
                    self.enclave is None
                    # installed_ceks() is the sanctioned ecall for this
                    # question; reaching into enclave.sqlos would cross
                    # the trust boundary (and trips the analyzer).
                    or not set(obj.cek_names) <= self.enclave.installed_ceks()
                ):
                    gating.append((table_name, obj.schema.name))
        return gating

    # ------------------------------------------------ deferred-txn resolution

    def resolve_deferred_transactions(self) -> list[int]:
        """Retry deferred undo — called when the client has supplied keys."""
        resolved: list[int] = []
        for txn_id in list(self.deferred):
            txn = self.deferred[txn_id]
            gating = self._keyless_encrypted_indexes(txn.touched_tables)
            if gating:
                continue
            self._undo_heap_only(txn)
            txn.state = TxnState.ABORTED
            self.wal.append(txn.txn_id, LogOp.ABORT)
            self.locks.release_all(txn_id)
            del self.deferred[txn_id]
            resolved.append(txn_id)
        self.wal.flush()
        # Indexes pending rebuild may now be buildable.
        self.retry_pending_indexes()
        return resolved

    def retry_pending_indexes(self) -> list[str]:
        rebuilt: list[str] = []
        for table in self.tables.values():
            for obj in table.indexes.values():
                if obj.state is IndexState.PENDING_REBUILD and obj.schema.valid:
                    try:
                        self._rebuild_index(table, obj)
                        rebuilt.append(obj.schema.name)
                    except KeysUnavailableError:
                        pass
        return rebuilt

    def run_version_cleaner(self) -> tuple[int, int]:
        """One CTR version-cleaner pass; returns (cleaned, still_pending).

        Cleanup here is completing the pending index rebuilds; each failed
        attempt increments the retry counter, reproducing "it keeps
        retrying" from Section 4.5.
        """
        still: list[PendingCleanup] = []
        cleaned = 0
        for pending in self.pending_cleanups:
            table = self.tables.get(pending.table)
            done = True
            if table is not None:
                for obj in table.indexes.values():
                    if obj.state is IndexState.PENDING_REBUILD and obj.schema.valid:
                        try:
                            self._rebuild_index(table, obj)
                        except KeysUnavailableError:
                            done = False
            if done:
                cleaned += 1
            else:
                pending.retries += 1
                still.append(pending)
        self.pending_cleanups = still
        return cleaned, len(still)

    def invalidate_index(self, table_name: str, index_name: str) -> None:
        """Skip recovery of an index and mark it invalid (Section 4.5)."""
        table = self.table(table_name)
        obj = table.indexes.get(index_name)
        if obj is None:
            raise SqlError(f"unknown index {index_name!r}")
        if obj.schema.clustered:
            raise RecoveryError("invalidating a clustered index would lose data")
        obj.schema.valid = False
        obj.state = IndexState.INVALID
        self.catalog.bump_schema_version()
        # Deferred transactions gated only on this index can now resolve.
        self.resolve_deferred_transactions()

    def apply_invalidation_policy(self, max_log_records: int | None = None) -> list[str]:
        """Policy-driven invalidation: e.g. log-space consumption threshold."""
        invalidated: list[str] = []
        if max_log_records is not None and self.wal.size() > max_log_records and self.deferred:
            tables = set()
            for txn in self.deferred.values():
                tables |= txn.touched_tables
            for table_name, index_name in self._keyless_encrypted_indexes(tables):
                self.invalidate_index(table_name, index_name)
                invalidated.append(index_name)
        return invalidated

    def truncate_log(self) -> int:
        """Truncate the WAL; blocked while deferred transactions exist."""
        if self.deferred:
            raise TransactionError(
                "log truncation is blocked by deferred transactions "
                "(client keys or index invalidation required)"
            )
        if self.prepared:
            raise TransactionError(
                "log truncation is blocked by in-doubt prepared transactions "
                "(their PREPARE records must survive until resolution)"
            )
        if self.freshness is not None:
            # Seal the durable horizon as the anchor's new chain base
            # before the records below it disappear — verification of any
            # later restore folds from this sealed base.
            self.wal.flush()
            self.freshness.seal_truncation(self.wal)
        return self.wal.truncate_before(self.wal.flushed_lsn + 1)

    # ---------------------------------------------------- consistency checks

    def verify_index_consistency(self) -> list[str]:
        """Compare every usable index against its heap, at quiesce.

        For each READY+valid index, the multiset of (key, rid) entries in
        the tree must equal the multiset derived from scanning the heap.
        Ciphertext keys compare by envelope bytes. Returns human-readable
        violation strings (empty = consistent). Only meaningful when no
        transactions are in flight.
        """
        from collections import Counter as _Counter

        def _norm(key: tuple) -> tuple:
            return tuple(
                cell.envelope if isinstance(cell, Ciphertext) else cell
                for cell in key
            )

        violations: list[str] = []
        for table in list(self.tables.values()):
            heap_rows = list(table.heap.scan())
            for obj in list(table.indexes.values()):
                if not obj.usable:
                    continue
                expected = _Counter(
                    (_norm(obj.key_of(row)), rid) for rid, row in heap_rows
                )
                actual = _Counter(
                    (_norm(key), rid) for key, rid in obj.tree.scan_all()
                )
                if expected != actual:
                    missing = expected - actual
                    extra = actual - expected
                    violations.append(
                        f"index {obj.schema.name!r} on {table.schema.name!r}: "
                        f"{sum(missing.values())} heap rows missing from index, "
                        f"{sum(extra.values())} stale index entries"
                    )
        return violations


@dataclass
class RecoveryReport:
    """What recovery did — the observable Section 4.5 outcomes."""

    redone: int = 0
    torn_pages: int = 0
    undone: list[int] = field(default_factory=list)
    deferred: list[int] = field(default_factory=list)
    #: gtids of in-doubt 2PC participants reinstated with locks held.
    indoubt: list[str] = field(default_factory=list)
    ctr_reverted: list[int] = field(default_factory=list)
    pending_indexes: list[str] = field(default_factory=list)
    invalidated_indexes: list[str] = field(default_factory=list)
    #: True when a freshness anchor verified the durable state (and, on
    #: success, re-anchored to it); always False in paper mode.
    freshness_verified: bool = False
    #: The anchor epoch after verification (each verify advances it).
    anchor_epoch: int | None = None
    #: Rotation ids whose ROTATE_BEGIN is durable but whose ROTATE_END is
    #: not: the crash landed mid-rotation and a lifecycle job can resume
    #: from the checkpointed watermark.
    resumed_rotations: list[str] = field(default_factory=list)
    #: Rotation ids whose ROTATE_END is durable: recovery re-applied the
    #: CEK version bump in case the crash beat the in-memory catalog.
    completed_rotations: list[str] = field(default_factory=list)
