"""Storage engine: DML, index maintenance, transactions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.errors import ConstraintError, SqlError
from repro.sqlengine.catalog import Catalog, ColumnSchema, IndexSchema, TableSchema, plain_column
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.engine import StorageEngine
from repro.sqlengine.storage.record import serialize_row
from repro.sqlengine.types import ColumnType, SqlType
from repro.sqlengine.values import serialize_value


@pytest.fixture()
def engine():
    eng = StorageEngine(lock_timeout_s=0.2)
    eng.create_table(
        TableSchema(
            name="t",
            columns=[plain_column("id", "INT", nullable=False), plain_column("v", "VARCHAR", 50)],
            primary_key=("id",),
        )
    )
    return eng


class TestDml:
    def test_insert_read(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.commit(txn)
        assert engine.read("t", rid) == (1, "a")

    def test_primary_key_enforced(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", (1, "a"))
        with pytest.raises(ConstraintError):
            engine.insert(txn, "t", (1, "b"))

    def test_pk_violation_leaves_no_orphan_row(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", (1, "a"))
        try:
            engine.insert(txn, "t", (1, "b"))
        except ConstraintError:
            pass
        engine.commit(txn)
        assert engine.table("t").heap.row_count() == 1

    def test_update_maintains_index(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.update(txn, "t", rid, (2, "a"))
        engine.commit(txn)
        pk = engine.table("t").indexes["pk_t"]
        assert pk.tree.search_eq((1,)) == []
        assert pk.tree.search_eq((2,)) == [rid]

    def test_delete_maintains_index(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.delete(txn, "t", rid)
        engine.commit(txn)
        assert engine.table("t").indexes["pk_t"].tree.search_eq((1,)) == []

    def test_arity_checked(self, engine):
        txn = engine.begin()
        with pytest.raises(SqlError):
            engine.insert(txn, "t", (1,))

    def test_not_null_enforced(self, engine):
        txn = engine.begin()
        with pytest.raises(ConstraintError):
            engine.insert(txn, "t", (None, "a"))

    def test_type_validated(self, engine):
        txn = engine.begin()
        with pytest.raises(SqlError):
            engine.insert(txn, "t", ("not-an-int", "a"))

    def test_varchar_length_enforced(self, engine):
        txn = engine.begin()
        with pytest.raises(SqlError):
            engine.insert(txn, "t", (1, "x" * 51))


class TestTransactions:
    def test_abort_restores_inserts(self, engine):
        txn = engine.begin()
        engine.insert(txn, "t", (1, "a"))
        engine.abort(txn)
        assert engine.table("t").heap.row_count() == 0
        assert engine.table("t").indexes["pk_t"].tree.search_eq((1,)) == []

    def test_abort_restores_deletes(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.commit(txn)
        txn2 = engine.begin()
        engine.delete(txn2, "t", rid)
        engine.abort(txn2)
        assert engine.read("t", rid) == (1, "a")
        assert engine.table("t").indexes["pk_t"].tree.search_eq((1,)) == [rid]

    def test_abort_restores_updates(self, engine):
        txn = engine.begin()
        rid = engine.insert(txn, "t", (1, "a"))
        engine.commit(txn)
        txn2 = engine.begin()
        engine.update(txn2, "t", rid, (1, "modified"))
        engine.abort(txn2)
        assert engine.read("t", rid) == (1, "a")

    def test_commit_twice_rejected(self, engine):
        txn = engine.begin()
        engine.commit(txn)
        from repro.errors import TransactionError

        with pytest.raises(TransactionError):
            engine.commit(txn)

    def test_row_lock_conflict_times_out(self, engine):
        txn1 = engine.begin()
        rid = engine.insert(txn1, "t", (1, "a"))
        txn2 = engine.begin()
        from repro.errors import LockTimeoutError

        with pytest.raises(LockTimeoutError):
            engine.delete(txn2, "t", rid)

    def test_locks_released_on_commit(self, engine):
        txn1 = engine.begin()
        rid = engine.insert(txn1, "t", (1, "a"))
        engine.commit(txn1)
        txn2 = engine.begin()
        engine.delete(txn2, "t", rid)  # no timeout
        engine.commit(txn2)


class TestEncryptedColumns:
    @pytest.fixture()
    def enc_engine(self, enclave, cek_material, enclave_cmk, enclave_cek):
        catalog = Catalog()
        catalog.create_cmk(enclave_cmk)
        catalog.create_cek(enclave_cek)
        enc = catalog.encryption_info("TestCEK", EncryptionScheme.RANDOMIZED)
        eng = StorageEngine(catalog=catalog, enclave=enclave, lock_timeout_s=0.2)
        eng.create_table(
            TableSchema(
                name="e",
                columns=[
                    plain_column("id", "INT", nullable=False),
                    ColumnSchema("secret", ColumnType(SqlType("INT"), enc)),
                ],
                primary_key=("id",),
            )
        )
        enclave.sqlos.install_key("TestCEK", cek_material)
        return eng

    def _cell(self, cek_material, v):
        return Ciphertext(
            CellCipher(cek_material).encrypt(serialize_value(v), EncryptionScheme.RANDOMIZED)
        )

    def test_plaintext_into_encrypted_column_rejected(self, enc_engine):
        txn = enc_engine.begin()
        with pytest.raises(SqlError, match="encrypted"):
            enc_engine.insert(txn, "e", (1, 42))

    def test_ciphertext_into_plaintext_column_rejected(self, enc_engine, cek_material):
        txn = enc_engine.begin()
        with pytest.raises(SqlError, match="plaintext"):
            enc_engine.insert(txn, "e", (self._cell(cek_material, 1), self._cell(cek_material, 2)))

    def test_null_allowed_in_encrypted_column(self, enc_engine):
        txn = enc_engine.begin()
        enc_engine.insert(txn, "e", (1, None))
        enc_engine.commit(txn)

    def test_range_index_on_encrypted(self, enc_engine, cek_material):
        txn = enc_engine.begin()
        for i in range(10):
            enc_engine.insert(txn, "e", (i, self._cell(cek_material, i * 5)))
        enc_engine.commit(txn)
        ix = enc_engine.create_index(
            IndexSchema(name="ix_secret", table_name="e", column_names=("secret",))
        )
        got = [r for __, r in ix.tree.range_scan(
            (self._cell(cek_material, 10),), (self._cell(cek_material, 30),)
        )]
        assert len(got) == 5  # 10, 15, 20, 25, 30

    def test_clustered_index_on_encrypted_rejected(self, enc_engine):
        with pytest.raises(SqlError, match="clustered"):
            enc_engine.create_index(
                IndexSchema(
                    name="cl", table_name="e", column_names=("secret",), clustered=True
                )
            )

    def test_rnd_index_without_enclave_enabled_key_rejected(self, plain_cmk, plain_cek):
        catalog = Catalog()
        catalog.create_cmk(plain_cmk)
        catalog.create_cek(plain_cek)
        enc = catalog.encryption_info("PlainCEK", EncryptionScheme.RANDOMIZED)
        eng = StorageEngine(catalog=catalog)
        eng.create_table(
            TableSchema(
                name="x",
                columns=[ColumnSchema("v", ColumnType(SqlType("INT"), enc))],
            )
        )
        with pytest.raises(SqlError):
            eng.create_index(IndexSchema(name="ix", table_name="x", column_names=("v",)))


class TestUpdateTouchesOnlyMovedIndexes:
    """Index work of an UPDATE is proportional to the keys it moved."""

    @pytest.fixture()
    def two(self):
        eng = StorageEngine(lock_timeout_s=0.2)
        eng.create_table(
            TableSchema(
                name="t",
                columns=[
                    plain_column("id", "INT", nullable=False),
                    plain_column("code", "INT"),
                    plain_column("v", "VARCHAR", 50),
                ],
                primary_key=("id",),
            )
        )
        eng.create_index(
            IndexSchema(name="ux_code", table_name="t", column_names=("code",), unique=True)
        )
        txn = eng.begin()
        rids = {i: eng.insert(txn, "t", (i, 100 + i, "a")) for i in range(1, 200)}
        eng.commit(txn)
        return eng, rids

    @staticmethod
    def snapshot(eng):
        table = eng.table("t")
        return (
            sorted(table.heap.scan()),
            {name: obj.tree.leaf_keys() for name, obj in table.indexes.items()},
            {name: list(obj.tree.scan_all()) for name, obj in table.indexes.items()},
        )

    @pytest.fixture()
    def tree_calls(self, monkeypatch):
        """Names of the trees whose insert/delete ran, in order."""
        from repro.sqlengine.index.btree import BPlusTree

        calls: list[tuple[str, object]] = []
        for name in ("insert", "delete"):
            original = getattr(BPlusTree, name)

            def spy(tree, key, rid, _name=name, _original=original):
                calls.append((_name, key))
                return _original(tree, key, rid)

            monkeypatch.setattr(BPlusTree, name, spy)
        return calls

    def test_non_key_update_mutates_no_tree_and_visits_no_node(self, two, tree_calls):
        from repro.obs.metrics import get_registry

        eng, rids = two
        __, leaves, entries = self.snapshot(eng)
        visited = get_registry().counter("index.nodes_visited")
        before = visited.value
        txn = eng.begin()
        eng.update(txn, "t", rids[7], (7, 107, "changed"))
        eng.commit(txn)
        assert tree_calls == [] and visited.value == before
        assert self.snapshot(eng)[1:] == (leaves, entries)
        assert eng.read("t", rids[7]) == (7, 107, "changed")
        assert eng.verify_index_consistency() == []

    def test_pk_qualified_non_key_update_costs_the_seek_alone(self, registry):
        from repro.client.driver import connect
        from repro.sqlengine.server import SqlServer

        conn = connect(SqlServer(), registry, column_encryption=False)
        conn.execute_ddl("CREATE TABLE t (id int PRIMARY KEY, code int, v varchar(20))")
        conn.execute_ddl("CREATE INDEX ix_code ON t (code)")
        for i in range(200):
            conn.execute(
                "INSERT INTO t (id, code, v) VALUES (@i, @c, @v)",
                {"i": i, "c": i % 9, "v": "a"},
            )
        seek = conn.execute("SELECT v FROM t WHERE id = @i", {"i": 77}).stats
        update = conn.execute("UPDATE t SET v = @v WHERE id = @i", {"v": "b", "i": 77}).stats
        assert seek.index_node_visits > 1
        assert update.index_node_visits == seek.index_node_visits
        assert conn.server.engine.verify_index_consistency() == []

    def test_update_moving_one_key_changes_only_that_tree(self, two, tree_calls):
        eng, rids = two
        __, leaves, entries = self.snapshot(eng)
        txn = eng.begin()
        eng.update(txn, "t", rids[7], (7, 9007, "a"))
        eng.commit(txn)
        assert tree_calls == [("delete", (107,)), ("insert", (9007,))]
        __, new_leaves, new_entries = self.snapshot(eng)
        assert new_leaves["pk_t"] == leaves["pk_t"]
        assert new_entries["pk_t"] == entries["pk_t"]
        assert ((9007,), rids[7]) in new_entries["ux_code"]
        assert ((107,), rids[7]) not in new_entries["ux_code"]
        assert eng.verify_index_consistency() == []

    def test_equal_cells_of_another_type_count_as_moved(self, tree_calls):
        # 2 == 2.0 in Python, but they are different cells with different
        # stored bytes: the index entry follows the heap's.
        eng = StorageEngine(lock_timeout_s=0.2)
        eng.create_table(
            TableSchema(
                name="f",
                columns=[plain_column("id", "INT", nullable=False), plain_column("x", "FLOAT")],
                primary_key=("id",),
            )
        )
        eng.create_index(IndexSchema(name="ix_x", table_name="f", column_names=("x",)))
        txn = eng.begin()
        rid = eng.insert(txn, "f", (1, 2))
        eng.commit(txn)
        del tree_calls[:]
        txn = eng.begin()
        eng.update(txn, "f", rid, (1, 2.0))
        assert tree_calls == [("delete", (2,)), ("insert", (2.0,))]
        eng.update(txn, "f", rid, (1, float("2")))  # equal, same type: stays
        eng.commit(txn)
        assert len(tree_calls) == 2
        assert [type(key[0]) for key, __ in eng.table("f").indexes["ix_x"].tree.scan_all()] == [float]
        assert eng.verify_index_consistency() == []

    def test_unique_violation_on_the_moved_key_changes_nothing(self, two):
        eng, rids = two
        before = self.snapshot(eng)
        txn = eng.begin()
        with pytest.raises(ConstraintError):
            eng.update(txn, "t", rids[7], (7, 108, "a"))  # 108 is row 8's code
        assert self.snapshot(eng) == before
        # ... also when an earlier index had already taken its new entry.
        with pytest.raises(ConstraintError):
            eng.update(txn, "t", rids[7], (5000, 108, "a"))
        assert self.snapshot(eng) == before
        eng.commit(txn)
        assert eng.verify_index_consistency() == []

    def test_abort_restores_moved_and_unmoved_keys(self, two):
        eng, rids = two
        before = self.snapshot(eng)
        txn = eng.begin()
        eng.update(txn, "t", rids[7], (7, 107, "changed"))
        eng.update(txn, "t", rids[8], (8, 9008, "changed"))
        eng.update(txn, "t", rids[9], (9009, 9109, "changed"))
        eng.abort(txn)
        heap, __, entries = self.snapshot(eng)
        assert (heap, entries) == (before[0], before[2])
        assert eng.verify_index_consistency() == []

    def test_new_image_is_encoded_before_any_index_moves(self, two, tree_calls, monkeypatch):
        from repro.sqlengine.storage.record import RowCodec

        eng, rids = two
        before = self.snapshot(eng)
        txn = eng.begin()
        # An INT the type check accepts and no record can hold: the codec
        # leaves it to the full check, whose encoding refuses it.
        with pytest.raises(SqlError, match="out of 64-bit range"):
            eng.update(txn, "t", rids[7], (7, 2**64, "a"))
        assert tree_calls == [] and self.snapshot(eng) == before

        def refuse(codec, row):
            raise SqlError("cannot encode")

        with monkeypatch.context() as patch, pytest.raises(SqlError, match="cannot encode"):
            patch.setattr(RowCodec, "encode", refuse)
            eng.update(txn, "t", rids[7], (7, 9007, "a"))
        assert tree_calls == [] and self.snapshot(eng) == before
        eng.abort(txn)
        assert eng.verify_index_consistency() == []

    def test_failed_log_append_restores_heap_and_moved_keys(self, two):
        from repro.errors import TransientFault
        from repro.faults import OnNth, RaiseTransient, get_fault_registry

        eng, rids = two
        txn = eng.begin()
        eng.update(txn, "t", rids[1], (1, 101, "b"))  # BEGIN is logged now
        before = self.snapshot(eng)
        armed = get_fault_registry().arm("wal.append", OnNth(1), RaiseTransient())
        try:
            with pytest.raises(TransientFault):
                eng.update(txn, "t", rids[7], (7, 9007, "b"))
        finally:
            get_fault_registry().disarm(armed)
        assert self.snapshot(eng) == before
        eng.commit(txn)
        assert eng.verify_index_consistency() == []


# -- the row codec is the full check, in one pass --------------------------------

_BASES = ("INT", "BIGINT", "FLOAT", "VARCHAR", "CHAR", "VARBINARY", "BIT")
_SCHEMES = (None, EncryptionScheme.DETERMINISTIC, EncryptionScheme.RANDOMIZED)
_STRING_LENGTH = 8
_KINDS = [
    (base, nullable, scheme)
    for base in _BASES for nullable in (False, True) for scheme in _SCHEMES
]

#: Every cell form a write can carry, at and past each type's edges.
EDGE_CELLS = [
    None, True, False, 0, 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1,
    1.5, float("nan"), -0.0, float("inf"),
    "", "x" * _STRING_LENGTH, "é" * (_STRING_LENGTH + 1), "\ud800",   # \ud800: no UTF-8
    b"", b"x" * _STRING_LENGTH, b"x" * (_STRING_LENGTH + 1),
    bytearray(b"ab"), bytearray(b"x" * (_STRING_LENGTH + 1)),
    Ciphertext(b""), Ciphertext(bytes(range(40))),
]
_EDGE_INTS = st.sampled_from([0, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1])


def _fitting(base: str, scheme):
    """Cells a column of ``base`` accepts (its ciphertext when encrypted)."""
    if scheme is not None:
        return st.binary(max_size=40).map(Ciphertext) | st.none()
    return st.none() | {
        "INT": st.integers(-(2**63), 2**63 - 1),
        "BIGINT": st.integers(-(2**63), 2**63 - 1),
        "FLOAT": st.floats() | st.integers(-(2**63), 2**63 - 1),
        "VARCHAR": st.text(max_size=_STRING_LENGTH),
        "CHAR": st.text(max_size=_STRING_LENGTH),
        "VARBINARY": st.binary(max_size=_STRING_LENGTH),
        "BIT": st.booleans(),
    }[base]


_ANY_CELL = st.sampled_from(EDGE_CELLS) | _EDGE_INTS | st.floats() | st.text(
    min_size=_STRING_LENGTH - 1, max_size=_STRING_LENGTH + 1
)


def _codec_engine(kinds, window: bool):
    """An engine with table ``c`` of one column per ``(base, nullable,
    scheme)``; with ``window``, each encrypted column is inside an online
    initial encryption."""
    from repro.keys.cek import CekEncryptedValue, ColumnEncryptionKey
    from repro.keys.cmk import ColumnMasterKey
    from repro.sqlengine.catalog import ColumnRotationState
    from repro.sqlengine.types import EncryptionInfo

    catalog = Catalog()
    catalog.create_cmk(ColumnMasterKey("CMK", "AZURE_KEY_VAULT_PROVIDER", "https://vault/k", True, b"\x01"))
    catalog.create_cek(
        ColumnEncryptionKey("CEK", [CekEncryptedValue("CMK", "RSA_OAEP", b"\x02", b"\x03")])
    )
    schema = TableSchema(name="c", columns=[
        ColumnSchema(
            f"c{i}",
            ColumnType(
                SqlType(base, _STRING_LENGTH if base in ("VARCHAR", "CHAR", "VARBINARY") else None),
                None if scheme is None else EncryptionInfo(scheme, "CEK", True),
            ),
            nullable=nullable,
        )
        for i, (base, nullable, scheme) in enumerate(kinds)
    ])
    eng = StorageEngine(catalog=catalog)
    table = eng.create_table(schema)
    if window:
        for column in schema.columns:
            if column.is_encrypted:
                catalog.begin_column_rotation(ColumnRotationState(
                    f"rot-{column.name}", "c", column.name, "", "CEK", kind="encrypt",
                ))
    return eng, table


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _covers(column: ColumnSchema, cell) -> bool:
    """Whether a cell is one the codec checks and encodes itself."""
    sql_type = column.column_type.sql_type
    if cell is None:
        return column.nullable
    if column.is_encrypted:
        return type(cell) is Ciphertext
    if type(cell) is int:
        return sql_type.base in ("INT", "BIGINT", "FLOAT") and -(2**63) <= cell < 2**63
    if type(cell) is float:
        return sql_type.base == "FLOAT"
    return (
        type(cell) is str and sql_type.base in ("VARCHAR", "CHAR")
        and len(cell) <= sql_type.length and cell != "\ud800"
    )


def assert_codec_is_the_full_check(eng, table, row) -> None:
    """The engine's encoding of ``row`` is the bytes ``serialize_row``
    writes for a row ``_validate_row`` accepts, or the exception that check
    raises (type and message); and the codec's own pass answers exactly the
    rows whose cells it covers."""
    from repro.sqlengine.storage.record import RowCodec

    def full_check():
        eng._validate_row(table, row)
        return serialize_row(row)

    expected = _outcome(full_check)
    assert _outcome(lambda: eng._encode_row(table, row)) == expected, row
    columns = table.schema.columns
    covered = len(row) == len(columns) and all(map(_covers, columns, row))
    encoded = RowCodec(columns).encode(row)
    assert (encoded is not None) == covered, row
    if covered:
        assert encoded == expected, row


@pytest.mark.parametrize("window", [False, True], ids=["steady", "encrypt-window"])
def test_the_row_codec_on_every_column_kind_and_edge_cell(window):
    """All seven base types x nullable x plaintext/DET/RND, each against
    every edge cell, one column at a time; then the wrong arities."""
    for kind in _KINDS:
        eng, table = _codec_engine([kind], window)
        for cell in EDGE_CELLS:
            assert_codec_is_the_full_check(eng, table, (cell,))
        assert_codec_is_the_full_check(eng, table, ())
        assert_codec_is_the_full_check(eng, table, (None, None))


@settings(max_examples=300, deadline=None)
@given(kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4),
       window=st.booleans(), data=st.data())
def test_the_row_codec_writes_the_full_checks_bytes_or_its_refusal(kinds, window, data):
    """Rows of several columns: the first misfit cell, wherever it sits,
    decides. Half the cells fit their column, so one misfit meets a codec
    that would otherwise have encoded the row."""
    eng, table = _codec_engine(kinds, window)
    row = tuple(
        data.draw(st.sampled_from([_fitting(base, scheme)] * 2 + [_ANY_CELL]).flatmap(
            lambda cells: cells
        ))
        for base, __, scheme in kinds
    )
    row = data.draw(st.sampled_from([row] * 4 + [row[:-1], row + (None,)]))   # wrong arities
    assert_codec_is_the_full_check(eng, table, row)
