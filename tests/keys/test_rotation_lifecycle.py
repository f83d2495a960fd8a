"""Online key-lifecycle jobs: begin/step/finish semantics end to end.

Covers the non-property, non-fault half of the rotation contract:
metadata flips at begin, mixed-version reads resolve through the driver's
MAC probe (in both the fresh- and stale-describe-cache directions),
racing writers with stale key metadata are converged by the
sweep-until-clean loop, the CEK version bumps exactly once at end, and
the admin verbs behave identically over the wire.
"""

from __future__ import annotations

import pytest

from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.errors import BindError, SqlError
from repro.sqlengine.cells import Ciphertext
from repro.tools.rotation import (
    encrypt_column_online,
    resume_rotation,
    rotate_cek_online,
    rotation_query_text,
)

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"


def make_table(conn, cek: str = "RotOldCEK", rows: int = 40, name: str = "T") -> None:
    conn.execute_ddl(
        f"CREATE TABLE {name}(id int PRIMARY KEY, value int ENCRYPTED WITH "
        f"(COLUMN_ENCRYPTION_KEY = {cek}, ENCRYPTION_TYPE = Randomized, "
        f"ALGORITHM = '{ALGO}'), tag varchar(16))"
    )
    for i in range(rows):
        conn.execute(
            f"INSERT INTO {name} (id, value, tag) VALUES (@id, @v, @t)",
            {"id": i, "v": i * 10, "t": f"t{i}"},
        )


def cell_key_census(stack, table: str, column: str) -> dict[str, int]:
    """Count stored envelopes by the CEK whose MAC verifies them."""
    engine = stack.server.engine
    slot = engine.table(table).schema.column_index(column)
    ciphers = {name: CellCipher(mat) for name, mat in stack.materials.items()}
    census: dict[str, int] = {"<plaintext>": 0}
    for __, row in engine.scan(table):
        cell = row[slot]
        if cell is None:
            continue
        if not isinstance(cell, Ciphertext):
            census["<plaintext>"] += 1
            continue
        owners = [n for n, c in ciphers.items() if c.verify(cell.envelope)]
        assert len(owners) == 1, f"cell verifies under {owners!r}"
        census[owners[0]] = census.get(owners[0], 0) + 1
    return census


class TestRotationCompletes:
    def test_terminal_state_all_new_key_and_values_preserved(
        self, rotation_stack_factory
    ):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=40)
        rotate_cek_online(stack.conn, "T", "value", "RotNewCEK", batch_size=7)

        census = cell_key_census(stack, "T", "value")
        assert census.get("RotNewCEK") == 40
        assert census.get("RotOldCEK", 0) == 0

        enc = stack.server.catalog.table("T").column("value").column_type.encryption
        assert enc.cek_name == "RotNewCEK"
        assert stack.server.cek_versions() == {"RotNewCEK": 2}

        rows = stack.conn.execute("SELECT id, value FROM T").rows
        assert sorted(rows) == [(i, i * 10) for i in range(40)]
        assert all(not s.active for s in stack.server.rotation_states())

    def test_second_rotation_bumps_version_again(self, rotation_stack_factory):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=10)
        rotate_cek_online(stack.conn, "T", "value", "RotNewCEK")
        rotate_cek_online(stack.conn, "T", "value", "RotThirdCEK")
        versions = stack.server.cek_versions()
        assert versions == {"RotNewCEK": 2, "RotThirdCEK": 2}
        assert cell_key_census(stack, "T", "value").get("RotThirdCEK") == 10


class TestMixedVersionWindow:
    def test_fresh_describe_reads_old_key_rows(self, rotation_stack_factory):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=40)
        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=8, run=False
        )
        stack.server.rotate_step(rid, max_batches=2)
        census = cell_key_census(stack, "T", "value")
        assert census.get("RotOldCEK", 0) > 0 and census.get("RotNewCEK", 0) > 0

        # This connection describes afresh: column metadata says the NEW
        # CEK, yet most rows are still under the old one.
        rows = stack.conn.execute("SELECT id, value FROM T").rows
        assert sorted(rows) == [(i, i * 10) for i in range(40)]
        stack.server.rotate_run(rid)

    def test_stale_describe_cache_reads_new_key_rows(self, rotation_stack_factory):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=30)
        stale = stack.fresh_conn()
        stale.execute("SELECT id, value FROM T WHERE id = @id", {"id": 1})  # warm

        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=8, run=False
        )
        stack.server.rotate_step(rid, max_batches=2)
        # The stale client's cached describe still says the OLD CEK, but
        # the sweep has already converted some rows to the new one.
        rows = stale.execute("SELECT id, value FROM T").rows
        assert sorted(rows) == [(i, i * 10) for i in range(30)]
        stack.server.rotate_run(rid)

    def test_index_probe_pays_one_partner_open_per_old_key_entry_it_meets(self):
        """What the mixed-key window costs live traffic, as counts (the
        ``rotation`` experiment of ``python -m repro.harness`` times the same
        probe against an idle twin): with ``CUSTOMER_NC1`` held half-rotated,
        a probe that meets an old-key ``C_FIRST`` entry opens it once more
        through the partner, and one that meets only new-key entries opens
        nothing extra."""
        from repro.harness.experiments import NEW_CEK, PROBE, open_mixed_window
        from repro.workloads.tpcc import EncryptionMode, TpccConfig, build_system

        system = build_system(TpccConfig(1, 1, 10, 20, mode=EncryptionMode.RND))
        enclave, conn = system.enclave, system.connection
        customers = conn.execute(
            "SELECT C_ID, C_LAST, C_FIRST FROM CUSTOMER WHERE C_W_ID = 1 AND C_D_ID = 1"
        ).rows
        rid = open_mixed_window(system, rows=len(customers) // 2)
        new_cipher = enclave.sqlos.cipher_for(NEW_CEK)
        slot = system.server.catalog.table("CUSTOMER").column_index("C_FIRST")
        under_new = {
            row[0] for __, row in system.server.engine.scan("CUSTOMER")
            if new_cipher.verify(row[slot].envelope)
        }
        assert len(under_new) == len(customers) // 2

        keys_asked: list[str] = []          # every cipher the enclave reaches for
        cipher_for = enclave.sqlos.cipher_for
        enclave.sqlos.cipher_for = lambda name: keys_asked.append(name) or cipher_for(name)
        try:
            for c_id, last, first in customers:
                params = {"last": last, "first": first}
                conn.execute(PROBE, params)                     # plan, CEK install
                keys_asked.clear()
                opened = enclave.counters.cell_decrypts
                assert conn.execute(PROBE, params).rows == [(c_id,)]
                opened = enclave.counters.cell_decrypts - opened
                # Last names are distinct here, so C_FIRST (named NEW_CEK since
                # the metadata flip) is compared only against the probe's own
                # entry: two opens under NEW_CEK per such comparison.
                first_compares = keys_asked.count(NEW_CEK) // 2
                assert first_compares > 0
                extra = len(keys_asked) - opened
                assert extra == (0 if c_id in under_new else first_compares), c_id
            while system.server.rotate_step(rid)[0]:
                pass
        finally:
            system.shutdown()

    def test_write_through_stale_metadata_is_converged_by_the_sweep(
        self, rotation_stack_factory
    ):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=24)
        stale = stack.fresh_conn()
        stale.execute(
            "UPDATE T SET value = @v WHERE id = @id", {"v": 0, "id": 0}
        )  # warm the describe cache under the OLD CEK

        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=8, run=False
        )
        stack.server.rotate_step(rid, max_batches=2)
        # The racing writer's cached metadata encrypts under the old key —
        # behind the sweep cursor if id 0's page was already converted.
        stale.execute("UPDATE T SET value = @v WHERE id = @id", {"v": 777, "id": 0})
        stack.server.rotate_run(rid)

        census = cell_key_census(stack, "T", "value")
        assert census.get("RotNewCEK") == 24, census
        rows = stack.conn.execute("SELECT value FROM T WHERE id = @id", {"id": 0}).rows
        assert rows == [(777,)]

    def test_concurrent_insert_and_update_land_under_new_key(
        self, rotation_stack_factory
    ):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=20)
        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=6, run=False
        )
        stack.server.rotate_step(rid)
        # Fresh describes mid-rotation bind against the new CEK directly.
        stack.conn.execute(
            "INSERT INTO T (id, value, tag) VALUES (@id, @v, @t)",
            {"id": 100, "v": 1000, "t": "late"},
        )
        stack.conn.execute("UPDATE T SET value = @v WHERE id = @id", {"v": 55, "id": 5})
        stack.server.rotate_run(rid)
        census = cell_key_census(stack, "T", "value")
        assert census.get("RotNewCEK") == 21
        rows = dict(stack.conn.execute("SELECT id, value FROM T").rows)
        assert rows[100] == 1000 and rows[5] == 55


class TestInitialEncryptionOnline:
    def test_plaintext_column_encrypts_online(self, rotation_stack_factory):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=25)
        rid = encrypt_column_online(
            stack.conn,
            "T",
            "tag",
            "RotThirdCEK",
            scheme=EncryptionScheme.RANDOMIZED,
            batch_size=6,
            run=False,
        )
        stack.server.rotate_step(rid, max_batches=2)
        census = cell_key_census(stack, "T", "tag")
        assert census["<plaintext>"] > 0 and census.get("RotThirdCEK", 0) > 0
        # Mid-job reads surface the unswept plaintext transparently.
        rows = stack.conn.execute("SELECT id, tag FROM T").rows
        assert sorted(rows) == [(i, f"t{i}") for i in range(25)]

        stack.server.rotate_run(rid)
        census = cell_key_census(stack, "T", "tag")
        assert census["<plaintext>"] == 0 and census.get("RotThirdCEK") == 25
        rows = stack.conn.execute("SELECT id, tag FROM T").rows
        assert sorted(rows) == [(i, f"t{i}") for i in range(25)]

    def test_initial_encryption_requires_plaintext_column(
        self, rotation_stack_factory
    ):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=3)
        with pytest.raises(SqlError, match="already encrypted"):
            encrypt_column_online(
                stack.conn, "T", "value", "RotNewCEK",
                scheme=EncryptionScheme.RANDOMIZED,
            )


class TestRotationPreconditions:
    def test_rotating_to_the_same_cek_is_refused(self, rotation_stack_factory):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=3)
        with pytest.raises(SqlError, match="already under CEK"):
            rotate_cek_online(stack.conn, "T", "value", "RotOldCEK")

    def test_rotating_a_plaintext_column_is_refused(self, rotation_stack_factory):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=3)
        with pytest.raises((SqlError, ValueError)):
            rotate_cek_online(stack.conn, "T", "tag", "RotNewCEK")

    def test_overlapping_rotations_on_one_column_are_refused(
        self, rotation_stack_factory
    ):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=6)
        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=2, run=False
        )
        with pytest.raises(SqlError, match="already under rotation"):
            rotate_cek_online(stack.conn, "T", "value", "RotThirdCEK", run=False)
        stack.server.rotate_run(rid)

    def test_unknown_rotation_id_names_the_resume_protocol(
        self, rotation_stack_factory
    ):
        stack = rotation_stack_factory()
        with pytest.raises(BindError, match="rotate_resume"):
            stack.server.rotate_step("rot-99-none")

    def test_unauthorized_query_text_cannot_recrypt(self, rotation_stack_factory):
        """A compromised server starting a rotation with an unauthorized
        text gets nothing: the enclave refuses the batch."""
        from repro.errors import EnclaveError

        stack = rotation_stack_factory()
        make_table(stack.conn, rows=4)
        rid = stack.server.rotate_start(
            "T", "value", "RotNewCEK", "EVIL TEXT NO CLIENT SIGNED"
        )
        with pytest.raises(EnclaveError, match="no client authorized"):
            stack.server.rotate_run(rid)


class TestRotationOverTheWire:
    def test_wire_admin_verbs_drive_a_rotation(self, rotation_stack_factory):
        from repro.net.remote import RemoteServer
        from repro.net.wireserver import WireServer
        from repro.client.driver import connect

        stack = rotation_stack_factory()
        make_table(stack.conn, rows=18)
        with WireServer(stack.server) as wire:
            remote = RemoteServer(wire.host, wire.port)
            try:
                conn = connect(
                    remote, stack.registry, attestation_policy=stack.policy
                )
                rid = rotate_cek_online(
                    conn, "T", "value", "RotNewCEK", batch_size=5, run=False
                )
                states = remote.rotation_states()
                assert [s.rotation_id for s in states if s.active] == [rid]
                total = remote.rotate_run(rid)
                assert total == 18
                assert remote.cek_versions() == {"RotNewCEK": 2}
                rows = conn.execute("SELECT id, value FROM T").rows
                assert sorted(rows) == [(i, i * 10) for i in range(18)]
            finally:
                remote.close()
        assert cell_key_census(stack, "T", "value").get("RotNewCEK") == 18


class TestCrashResume:
    def test_recovery_reinstates_and_client_reauthorizes(
        self, rotation_stack_factory
    ):
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=30)
        rid = rotate_cek_online(
            stack.conn, "T", "value", "RotNewCEK", batch_size=6, run=False
        )
        stack.server.rotate_step(rid, max_batches=2)
        stack.server.crash()
        report = stack.server.recover()
        assert rid in report.resumed_rotations

        # The old enclave session died with the crash: stepping without a
        # fresh client authorization must be refused by the enclave.
        states = stack.server.rotation_states()
        assert [s.rotation_id for s in states if s.active] == [rid]

        conn = stack.fresh_conn()
        resume_rotation(conn, rid, "T", "value", "RotNewCEK", old_cek="RotOldCEK")
        assert cell_key_census(stack, "T", "value").get("RotNewCEK") == 30
        assert stack.server.cek_versions() == {"RotNewCEK": 2}
        rows = conn.execute("SELECT id, value FROM T").rows
        assert sorted(rows) == [(i, i * 10) for i in range(30)]

    def test_crash_after_end_record_still_bumps_version(
        self, rotation_stack_factory
    ):
        """The ROTATE_END record is the durable form of the version bump:
        recovery replays it even though the catalog mutation was lost."""
        stack = rotation_stack_factory()
        make_table(stack.conn, rows=8)
        rid = rotate_cek_online(stack.conn, "T", "value", "RotNewCEK", batch_size=4)
        stack.server.crash()
        report = stack.server.recover()
        assert stack.server.cek_versions() == {"RotNewCEK": 2}
        assert not any(s.active for s in stack.server.rotation_states())
        assert report.completed_rotations == [rid]  # END replayed, not resumed
        assert report.resumed_rotations == []

    def test_query_text_is_stable_across_resume(self):
        assert rotation_query_text("T", "value", "NewCEK") == rotation_query_text(
            "T", "value", "NewCEK"
        )
