"""Model-based and differential property tests on core structures."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
from repro.sqlengine.index.btree import BPlusTree
from repro.sqlengine.index.comparators import (
    CellComparator,
    CompositeComparator,
    PlaintextComparator,
)
from repro.sqlengine.storage.heap import RowId
from repro.sqlengine.storage.record import deserialize_row, serialize_row


def plain_tree(order=4):
    return BPlusTree(
        CompositeComparator([CellComparator(PlaintextComparator())]), order=order
    )


class BTreeModel(RuleBasedStateMachine):
    """The B+-tree against a reference multiset model."""

    def __init__(self):
        super().__init__()
        self.tree = plain_tree(order=4)
        self.model: dict[int, set[int]] = {}
        self.next_rid = 0

    @rule(key=st.integers(-20, 20))
    def insert(self, key):
        rid = RowId(0, self.next_rid)
        self.next_rid += 1
        self.tree.insert((key,), rid)
        self.model.setdefault(key, set()).add(rid.slot)

    @rule(key=st.integers(-20, 20))
    def delete_one(self, key):
        slots = self.model.get(key)
        if slots:
            slot = next(iter(slots))
            assert self.tree.delete((key,), RowId(0, slot))
            slots.discard(slot)
            if not slots:
                del self.model[key]
        else:
            assert not self.tree.delete((key,), RowId(0, 999_999))

    @rule(key=st.integers(-20, 20))
    def search(self, key):
        got = {r.slot for r in self.tree.search_eq((key,))}
        assert got == self.model.get(key, set())

    @rule(lo=st.integers(-20, 20), hi=st.integers(-20, 20))
    def range(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        got = [k[0] for k, __ in self.tree.range_scan((lo,), (hi,))]
        expected = sorted(
            k for k, slots in self.model.items() if lo <= k <= hi for __ in slots
        )
        assert got == expected

    @invariant()
    def size_matches(self):
        assert len(self.tree) == sum(len(s) for s in self.model.values())

    @invariant()
    def scan_is_sorted(self):
        keys = [k[0] for k, __ in self.tree.scan_all()]
        assert keys == sorted(keys)


TestBTreeModel = BTreeModel.TestCase
TestBTreeModel.settings = settings(max_examples=30, stateful_step_count=30, deadline=None)


from repro.crypto.aead import EncryptionScheme
from repro.sqlengine.types import EncryptionInfo


class TestProgramSerializationFuzz:
    ENC_INFOS = st.one_of(
        st.none(),
        st.builds(
            lambda det, cek, enc: EncryptionInfo(
                scheme=EncryptionScheme.DETERMINISTIC if det else EncryptionScheme.RANDOMIZED,
                cek_name=cek,
                enclave_enabled=enc,
            ),
            det=st.booleans(),
            cek=st.text(min_size=1, max_size=10),
            enc=st.booleans(),
        ),
    )

    @given(
        instructions=st.lists(
            st.one_of(
                st.builds(
                    lambda s, e: Instruction(Opcode.GET_DATA, (s, e)),
                    s=st.integers(0, 100),
                    e=ENC_INFOS,
                ),
                st.builds(
                    lambda v: Instruction(Opcode.PUSH_CONST, v),
                    v=st.one_of(st.none(), st.integers(-1000, 1000), st.text(max_size=20), st.booleans()),
                ),
                st.builds(lambda op: Instruction(Opcode.COMP, op), op=st.sampled_from(["=", "<", ">="])),
                st.just(Instruction(Opcode.AND)),
                st.just(Instruction(Opcode.NOT)),
                st.builds(lambda n: Instruction(Opcode.IS_NULL, n), n=st.booleans()),
                st.builds(
                    lambda s, e: Instruction(Opcode.SET_DATA, (s, e)),
                    s=st.integers(0, 10),
                    e=ENC_INFOS,
                ),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_serialize_roundtrip(self, instructions):
        program = StackProgram(instructions)
        blob = program.serialize()
        restored = StackProgram.deserialize(blob)
        assert restored.serialize() == blob
        assert len(restored.instructions) == len(instructions)


class TestRecordFuzz:
    @given(
        row=st.lists(
            st.one_of(
                st.none(),
                st.integers(-(2**62), 2**62),
                st.floats(allow_nan=False),
                st.text(max_size=50),
                st.binary(max_size=50),
                st.booleans(),
                st.builds(Ciphertext, st.binary(min_size=1, max_size=80)),
            ),
            max_size=12,
        ).map(tuple)
    )
    @settings(max_examples=80, deadline=None)
    def test_row_roundtrip(self, row):
        assert deserialize_row(serialize_row(row)) == row


_DIFF_STACK: dict = {}


def _differential_connection():
    """A lazily-built shared AE stack for the differential property test.

    One server/enclave for the whole module (RSA keygen is the expensive
    part); each example gets its own uniquely-named table.
    """
    if _DIFF_STACK:
        return _DIFF_STACK["conn"]
    from repro.attestation.hgs import AttestationPolicy, HostGuardianService
    from repro.attestation.tpm import HostMachine
    from repro.client.driver import connect
    from repro.crypto.rsa import RsaKeyPair
    from repro.enclave.runtime import Enclave, EnclaveBinary
    from repro.keys.providers import default_registry
    from repro.sqlengine.server import SqlServer
    from repro.tools.provisioning import provision_cek, provision_cmk

    binary = EnclaveBinary.build(RsaKeyPair.generate(1024))
    enclave = Enclave(binary)
    host = HostMachine()
    hgs = HostGuardianService()
    hgs.register_host(host.boot_and_measure())
    server = SqlServer(enclave=enclave, host_machine=host, hgs=hgs)
    registry = default_registry()
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))
    conn = connect(server, registry, attestation_policy=policy)
    cmk = provision_cmk(conn, vault, "DiffCMK", "https://vault.azure.net/keys/diff")
    provision_cek(conn, vault, cmk, "DiffCEK")
    _DIFF_STACK["conn"] = conn
    _DIFF_STACK["n"] = 0
    return conn


class TestDifferentialSql:
    """SELECT over an RND-encrypted column must agree with a pure-Python
    reference evaluation of the same data."""

    @given(
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=20, unique=True),
        lo=st.integers(-50, 50),
        hi=st.integers(-50, 50),
    )
    @settings(max_examples=10, deadline=None)
    def test_range_query_matches_reference(self, values, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        conn = _differential_connection()
        _DIFF_STACK["n"] += 1
        table = f"DIFF_{_DIFF_STACK['n']}"
        conn.execute_ddl(
            f"CREATE TABLE {table} (id int PRIMARY KEY, "
            "v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = DiffCEK, "
            "ENCRYPTION_TYPE = Randomized, "
            "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"
        )
        for i, v in enumerate(values):
            conn.execute(
                f"INSERT INTO {table} (id, v) VALUES (@i, @v)", {"i": i, "v": v}
            )
        result = conn.execute(
            f"SELECT id FROM {table} WHERE v >= @lo AND v <= @hi",
            {"lo": lo, "hi": hi},
        )
        expected = sorted(i for i, v in enumerate(values) if lo <= v <= hi)
        assert sorted(r[0] for r in result.rows) == expected

    @given(
        values=st.lists(st.integers(-20, 20), min_size=1, max_size=20),
        probe=st.integers(-20, 20),
    )
    @settings(max_examples=10, deadline=None)
    def test_equality_matches_reference(self, values, probe):
        conn = _differential_connection()
        _DIFF_STACK["n"] += 1
        table = f"DIFF_{_DIFF_STACK['n']}"
        conn.execute_ddl(
            f"CREATE TABLE {table} (id int PRIMARY KEY, "
            "v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = DiffCEK, "
            "ENCRYPTION_TYPE = Randomized, "
            "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"
        )
        for i, v in enumerate(values):
            conn.execute(
                f"INSERT INTO {table} (id, v) VALUES (@i, @v)", {"i": i, "v": v}
            )
        result = conn.execute(
            f"SELECT id FROM {table} WHERE v = @p", {"p": probe}
        )
        expected = sorted(i for i, v in enumerate(values) if v == probe)
        assert sorted(r[0] for r in result.rows) == expected

    _CELL = st.one_of(st.none(), st.integers(0, 3))
    _TERM = st.tuples(
        st.sampled_from(["a", "b", "c", "v"]),
        st.sampled_from(["=", "<", "<=", ">", ">=", "BETWEEN"]),
        _CELL,
        _CELL,
    )

    @given(
        rows=st.lists(st.tuples(_CELL, _CELL, _CELL, _CELL), min_size=1, max_size=12),
        terms=st.lists(_TERM, min_size=1, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_conjunctions_over_composite_keys_match_reference(self, rows, terms):
        """Random conjunctions over the keys of a plaintext composite index
        ``(a, b)`` and of ``(a, v)`` with ``v`` RND, and over the non-key
        ``c``, NULLs included: whatever the index decides and whatever it
        leaves to the residual, SELECT and UPDATE qualify the reference's
        rows."""
        conn = _differential_connection()
        _DIFF_STACK["n"] += 1
        table = f"DIFF_{_DIFF_STACK['n']}"
        conn.execute_ddl(
            f"CREATE TABLE {table} (id int PRIMARY KEY, a int, b int, c int, "
            "v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = DiffCEK, "
            "ENCRYPTION_TYPE = Randomized, "
            "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"
        )
        conn.execute_ddl(f"CREATE INDEX {table}_AB ON {table} (a, b)")
        conn.execute_ddl(f"CREATE INDEX {table}_AV ON {table} (a, v)", authorize_enclave=True)
        for i, (a, b, c, v) in enumerate(rows):
            conn.execute(
                f"INSERT INTO {table} (id, a, b, c, v) VALUES (@i, @a, @b, @c, @v)",
                {"i": i, "a": a, "b": b, "c": c, "v": v},
            )
        sql: list[str] = []
        params: dict[str, object] = {}
        for n, (column, op, x, y) in enumerate(terms):
            params[f"x{n}"] = x
            if op == "BETWEEN":
                params[f"y{n}"] = y
                sql.append(f"{column} BETWEEN @x{n} AND @y{n}")
            else:
                sql.append(f"{column} {op} @x{n}")
        where = " AND ".join(sql)

        def holds(row: dict, column: str, op: str, x, y) -> bool:
            cell = row[column]
            if cell is None or x is None or (op == "BETWEEN" and y is None):
                return False
            if op == "BETWEEN":
                return x <= cell <= y
            return {"=": cell == x, "<": cell < x, "<=": cell <= x,
                    ">": cell > x, ">=": cell >= x}[op]

        expected = sorted(
            i
            for i, (a, b, c, v) in enumerate(rows)
            if all(holds({"a": a, "b": b, "c": c, "v": v}, *term) for term in terms)
        )
        result = conn.execute(f"SELECT id FROM {table} WHERE {where}", params)
        assert sorted(r[0] for r in result.rows) == expected, (where, result.plan_info)
        updated = conn.execute(f"UPDATE {table} SET c = c WHERE {where}", params)
        assert updated.rowcount == len(expected), (where, result.plan_info)
