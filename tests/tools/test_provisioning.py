"""Client-side tooling: provisioning, rotation, initial encryption."""

import pytest

from repro.client.driver import connect
from repro.crypto.aead import EncryptionScheme
from repro.errors import DriverError, EnclaveError, SecurityViolation, SqlError
from repro.tools import client_side_initial_encryption
from repro.tools.provisioning import provision_cek, provision_cmk, rotate_cmk
from tests.conftest import ALGO

ALTER_V = (
    "ALTER TABLE d ALTER COLUMN v varchar(20) ENCRYPTED WITH ("
    "COLUMN_ENCRYPTION_KEY = {cek}, ENCRYPTION_TYPE = Randomized, "
    f"ALGORITHM = '{ALGO}')"
)


@pytest.fixture()
def conn(server, registry, attestation_policy):
    return connect(server, registry, attestation_policy=attestation_policy)


@pytest.fixture()
def vault(registry):
    return registry.get("AZURE_KEY_VAULT_PROVIDER")


class TestProvisioning:
    def test_provision_cmk_populates_catalog(self, conn, vault, server):
        cmk = provision_cmk(conn, vault, "PCMK", "https://vault.azure.net/keys/p1")
        assert server.catalog.cmk("PCMK").key_path == cmk.key_path
        assert server.catalog.cmk("PCMK").allow_enclave_computations

    def test_provision_cek_material_stays_client_side(self, conn, vault, server):
        cmk = provision_cmk(conn, vault, "PCMK2", "https://vault.azure.net/keys/p2")
        material = provision_cek(conn, vault, cmk, "PCEK")
        stored = server.catalog.cek("PCEK")
        assert material not in stored.encrypted_values[0].encrypted_value
        assert conn.cek_cache.get("PCEK") == material

    def test_enclave_disabled_cmk(self, conn, vault, server):
        provision_cmk(
            conn, vault, "NoEnc", "https://vault.azure.net/keys/p3",
            allow_enclave_computations=False,
        )
        assert not server.catalog.cmk("NoEnc").allow_enclave_computations


class TestInPlaceDdl:
    @pytest.fixture()
    def loaded(self, conn, vault, server):
        cmk = provision_cmk(conn, vault, "ECMK", "https://vault.azure.net/keys/e1")
        provision_cek(conn, vault, cmk, "ECEK")
        conn.execute_ddl("CREATE TABLE d (k int PRIMARY KEY, v varchar(20))")
        for k in range(4):
            conn.execute("INSERT INTO d (k, v) VALUES (@k, @v)", {"k": k, "v": f"val-{k}"})
        return cmk

    def test_initial_encryption_in_place(self, conn, loaded, server, enclave):
        before = enclave.counters.cell_encrypts
        conn.execute_ddl(
            "ALTER TABLE d ALTER COLUMN v varchar(20) ENCRYPTED WITH ("
            f"COLUMN_ENCRYPTION_KEY = ECEK, ENCRYPTION_TYPE = Randomized, "
            f"ALGORITHM = '{ALGO}')",
            authorize_enclave=True,
        )
        assert enclave.counters.cell_encrypts - before == 4
        from repro.sqlengine.cells import Ciphertext

        for __, row in server.engine.scan("d"):
            assert isinstance(row[1], Ciphertext)
        # Transparent querying continues.
        r = conn.execute("SELECT k FROM d WHERE v = @v", {"v": "val-2"})
        assert r.rows == [(2,)]

    def test_unauthorized_initial_encryption_refused(self, conn, loaded):
        with pytest.raises(EnclaveError):
            conn.execute_ddl(
                "ALTER TABLE d ALTER COLUMN v varchar(20) ENCRYPTED WITH ("
                f"COLUMN_ENCRYPTION_KEY = ECEK, ENCRYPTION_TYPE = Randomized, "
                f"ALGORITHM = '{ALGO}')",
                authorize_enclave=False,
            )

    def test_decryption_ddl(self, conn, loaded, server):
        conn.execute_ddl(
            "ALTER TABLE d ALTER COLUMN v varchar(20) ENCRYPTED WITH ("
            f"COLUMN_ENCRYPTION_KEY = ECEK, ENCRYPTION_TYPE = Randomized, "
            f"ALGORITHM = '{ALGO}')",
            authorize_enclave=True,
        )
        conn.execute_ddl(
            "ALTER TABLE d ALTER COLUMN v varchar(20)", authorize_enclave=True
        )
        rows = {row[1] for __, row in server.engine.scan("d")}
        assert rows == {f"val-{k}" for k in range(4)}

    def test_cek_rotation_in_place(self, conn, loaded, vault, server, enclave):
        conn.execute_ddl(
            "ALTER TABLE d ALTER COLUMN v varchar(20) ENCRYPTED WITH ("
            f"COLUMN_ENCRYPTION_KEY = ECEK, ENCRYPTION_TYPE = Randomized, "
            f"ALGORITHM = '{ALGO}')",
            authorize_enclave=True,
        )
        cmk = server.catalog.cmk("ECMK")
        provision_cek(conn, vault, cmk, "ECEK2")
        conn.execute_ddl(ALTER_V.format(cek="ECEK2"), authorize_enclave=True)
        column = server.catalog.table("d").column("v")
        assert column.column_type.encryption.cek_name == "ECEK2"
        r = conn.execute("SELECT k FROM d WHERE v = @v", {"v": "val-1"})
        assert r.rows == [(1,)]


    def test_a_restated_type_that_differs_is_refused(self, conn, loaded, server):
        """ALTER COLUMN changes encryption only: a new type would leave rows
        the catalog no longer describes. Refused before anything changes."""
        with pytest.raises(SqlError, match="cannot change the type"):
            conn.execute_ddl(ALTER_V.format(cek="ECEK").replace("varchar(20)", "int"),
                             authorize_enclave=True)
        column = server.catalog.table("d").column("v")
        assert str(column.column_type) == "VARCHAR(20)"
        assert server.rotation_states() == []
        assert sorted(conn.execute("SELECT k, v FROM d").rows) == [
            (k, f"val-{k}") for k in range(4)]

    def test_an_unauthorized_alter_changes_nothing(self, conn, loaded, server):
        wal = server.engine.wal
        before = (len(wal.records(durable_only=False)), server.catalog.schema_version)
        with pytest.raises(EnclaveError, match="no client authorized"):
            conn.execute_ddl(ALTER_V.format(cek="ECEK"), authorize_enclave=False)
        assert (len(wal.records(durable_only=False)), server.catalog.schema_version) == before
        assert server.rotation_states() == []

    def test_restating_the_encryption_is_a_no_op(self, conn, loaded, server):
        for text in ("ALTER TABLE d ALTER COLUMN v varchar(20)", ALTER_V.format(cek="ECEK")):
            conn.execute_ddl(text, authorize_enclave=True)
            before = [row for __, row in server.engine.scan("d")]
            conn.execute_ddl(text, authorize_enclave=True)
            assert [row for __, row in server.engine.scan("d")] == before
        assert [state.kind for state in server.rotation_states()] == ["encrypt"]

    def test_a_same_cek_change_of_scheme_is_refused(self, conn, loaded, server):
        conn.execute_ddl(ALTER_V.format(cek="ECEK"), authorize_enclave=True)
        with pytest.raises(SqlError, match="already under CEK 'ECEK'"):
            conn.execute_ddl(ALTER_V.format(cek="ECEK").replace("Randomized", "Deterministic"),
                             authorize_enclave=True)
        assert server.catalog.table("d").column("v").column_type.encryption.cek_name == "ECEK"

    def test_a_conversion_that_changes_an_index_key_is_refused(
        self, conn, loaded, vault, server
    ):
        """Encrypt, decrypt and a change of scheme change what an index on
        the column compares: refused, naming the index. A same-scheme CEK
        rotation keeps its indexes."""
        conn.execute_ddl("CREATE INDEX ix_v ON d (v)")
        with pytest.raises(SqlError, match="ix_v"):
            conn.execute_ddl(ALTER_V.format(cek="ECEK"), authorize_enclave=True)
        conn.execute_ddl("DROP INDEX ix_v ON d")
        conn.execute_ddl(ALTER_V.format(cek="ECEK"), authorize_enclave=True)
        conn.execute_ddl("CREATE INDEX ix_v ON d (v)")
        provision_cek(conn, vault, server.catalog.cmk("ECMK"), "ECEK2")
        for text in (ALTER_V.format(cek="ECEK2").replace("Randomized", "Deterministic"),
                     "ALTER TABLE d ALTER COLUMN v varchar(20)"):
            with pytest.raises(SqlError, match="ix_v"):
                conn.execute_ddl(text, authorize_enclave=True)
        conn.execute_ddl(ALTER_V.format(cek="ECEK2"), authorize_enclave=True)
        assert conn.execute("SELECT k FROM d WHERE v = @v", {"v": "val-3"}).rows == [(3,)]
        assert server.audit() == []


class TestDdlEnclaveKeys:
    """The server's describe names the keys a DDL ships to the enclave."""

    @pytest.fixture()
    def packages(self, server, monkeypatch):
        """The CEK names of every package the enclave installed, in order."""
        installed = []
        install = server.enclave.install_package

        def spy(session_id, sealed):
            before = server.enclave.installed_ceks()
            install(session_id, sealed)
            installed.append(sorted(server.enclave.installed_ceks() - before))

        monkeypatch.setattr(server.enclave, "install_package", spy)
        return installed

    @pytest.fixture()
    def table(self, conn):
        conn.execute_ddl("CREATE TABLE d (k int PRIMARY KEY, v varchar(20))")
        conn.execute("INSERT INTO d (k, v) VALUES (@k, @v)", {"k": 1, "v": "val-1"})

    def test_authorized_alter_to_an_enclave_disabled_cek_ships_nothing(
        self, conn, vault, server, table, packages
    ):
        cmk = provision_cmk(
            conn, vault, "NoEncCMK", "https://vault.azure.net/keys/n1",
            allow_enclave_computations=False,
        )
        provision_cek(conn, vault, cmk, "NoEncCEK")
        with pytest.raises(SecurityViolation, match="does not allow enclave computations"):
            conn.execute_ddl(ALTER_V.format(cek="NoEncCEK"), authorize_enclave=True)
        assert packages == []
        assert "NoEncCEK" not in server.enclave.installed_ceks()
        assert server.catalog.table("d").column("v").column_type.encryption is None

    def test_a_cek_whose_name_is_a_prefix_is_not_shipped(
        self, conn, vault, server, table, packages
    ):
        cmk = provision_cmk(conn, vault, "PCMK", "https://vault.azure.net/keys/k1")
        provision_cek(conn, vault, cmk, "K")
        provision_cek(conn, vault, cmk, "K_PAYROLL")
        ddl = ALTER_V.format(cek="K_PAYROLL")
        described = [m.cek.name for m in server.describe_parameter_encryption(ddl).enclave_ceks]
        assert described == ["K_PAYROLL"]
        conn.execute_ddl(ddl, authorize_enclave=True)
        assert packages == [["K_PAYROLL"]]
        assert server.enclave.installed_ceks() == frozenset({"K_PAYROLL"})


class TestCmkRotation:
    def test_rotate_cmk_no_data_touch(self, conn, vault, server, enclave):
        old_cmk = provision_cmk(conn, vault, "R1", "https://vault.azure.net/keys/r1")
        provision_cek(conn, vault, old_cmk, "RCEK")
        new_cmk = provision_cmk(conn, vault, "R2", "https://vault.azure.net/keys/r2")
        decrypts = enclave.counters.cell_decrypts
        rotate_cmk(conn, vault, "RCEK", old_cmk=old_cmk, new_cmk=new_cmk)
        assert enclave.counters.cell_decrypts == decrypts  # zero data work
        assert server.catalog.cek("RCEK").cmk_names() == ["R2"]
        # CEK still unwraps (through the new CMK).
        conn.cek_cache.invalidate()
        metadata = server.fetch_cek_metadata("RCEK")
        assert conn._unwrap_cek(metadata)


class TestClientSideInitialEncryption:
    def test_aev1_roundtrip_path(self, conn, vault, server):
        cmk = provision_cmk(
            conn, vault, "V1CMK", "https://vault.azure.net/keys/v1",
            allow_enclave_computations=False,
        )
        provision_cek(conn, vault, cmk, "V1CEK")
        conn.execute_ddl("CREATE TABLE legacy (k int PRIMARY KEY, s varchar(10))")
        for k in range(6):
            conn.execute("INSERT INTO legacy (k, s) VALUES (@k, @s)", {"k": k, "s": f"s{k}"})
        count = client_side_initial_encryption(
            conn, "legacy", "k", "s", "V1CEK", EncryptionScheme.DETERMINISTIC
        )
        assert count == 6
        r = conn.execute("SELECT k FROM legacy WHERE s = @s", {"s": "s3"})
        assert r.rows == [(3,)]

    def test_already_encrypted_rejected(self, conn, vault, server):
        cmk = provision_cmk(
            conn, vault, "V1CMK2", "https://vault.azure.net/keys/v2",
            allow_enclave_computations=False,
        )
        provision_cek(conn, vault, cmk, "V1CEK2")
        conn.execute_ddl("CREATE TABLE legacy2 (k int PRIMARY KEY, s varchar(10))")
        client_side_initial_encryption(
            conn, "legacy2", "k", "s", "V1CEK2", EncryptionScheme.DETERMINISTIC
        )
        with pytest.raises(SqlError, match="already encrypted"):
            client_side_initial_encryption(
                conn, "legacy2", "k", "s", "V1CEK2", EncryptionScheme.DETERMINISTIC
            )

    @pytest.mark.parametrize(
        "rows, matched",
        [([(1, "a"), (1, "b"), (2, "c")], 2), ([(1, "a"), (None, "b")], 0)],
        ids=["duplicate-key", "null-key"],
    )
    def test_a_key_that_is_not_one_row_rolls_the_write_back_back(
        self, conn, vault, server, rows, matched
    ):
        """Each write-back UPDATE must change exactly one row: a duplicate key
        would overwrite its twins with one value, a NULL key would leave its
        cell plaintext. Either rolls back and leaves the job to adopt."""
        cmk = provision_cmk(
            conn, vault, "V1CMK3", "https://vault.azure.net/keys/v3",
            allow_enclave_computations=False,
        )
        provision_cek(conn, vault, cmk, "V1CEK3")
        conn.execute_ddl("CREATE TABLE loose (k int, s varchar(10))")
        for k, s in rows:
            conn.execute("INSERT INTO loose (k, s) VALUES (@k, @s)", {"k": k, "s": s})
        with pytest.raises(DriverError, match=f"matched {matched} rows, not 1"):
            client_side_initial_encryption(
                conn, "loose", "k", "s", "V1CEK3", EncryptionScheme.DETERMINISTIC
            )
        [state] = server.rotation_states()
        assert state.active and state.kind == "encrypt"
        assert sorted(conn.execute("SELECT k, s FROM loose").rows, key=str) == sorted(rows, key=str)
        assert server.audit() == []

        conn.execute("DELETE FROM loose WHERE k = @k", {"k": 1})
        conn.execute("DELETE FROM loose WHERE k IS NULL")
        left = [row for row in rows if row[0] not in (1, None)]
        assert client_side_initial_encryption(
            conn, "loose", "k", "s", "V1CEK3", EncryptionScheme.DETERMINISTIC
        ) == len(left)
        assert not any(s.active for s in server.rotation_states())
        assert conn.execute("SELECT k, s FROM loose").rows == left
