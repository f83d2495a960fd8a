"""The server facade: describe, plan cache, DDL, encrypted execution."""

import pytest

from repro.crypto.aead import EncryptionScheme
from repro.errors import EnclaveError, SqlError
from repro.sqlengine.server import SqlServer

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"


@pytest.fixture()
def keyed_server(server, enclave_cmk, enclave_cek, plain_cmk, plain_cek):
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    server.catalog.create_cmk(plain_cmk)
    server.catalog.create_cek(plain_cek)
    session = server.connect()
    session.execute(
        f"CREATE TABLE T(id int PRIMARY KEY, "
        f"value int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
        f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'), "
        f"tag varchar(10) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = PlainCEK, "
        f"ENCRYPTION_TYPE = Deterministic, ALGORITHM = '{ALGO}'))"
    )
    return server


class TestDescribeParameterEncryption:
    def test_output_shape_for_example41(self, keyed_server):
        # Example 4.1: select * from T where value = @v.
        result = keyed_server.describe_parameter_encryption(
            "SELECT * FROM T WHERE value = @v"
        )
        assert len(result.parameters) == 1
        param = result.parameters[0]
        assert param.name == "v"
        assert param.column_type.encryption.cek_name == "TestCEK"
        assert result.uses_enclave
        assert [m.cek.name for m in result.enclave_ceks] == ["TestCEK"]
        # CEK metadata carries the encrypted value and the CMK metadata.
        metadata = result.parameter_ceks["TestCEK"]
        assert metadata.cmks[0].name == "TestCMK"
        assert metadata.cek.encrypted_values[0].encrypted_value

    def test_det_parameter_no_enclave(self, keyed_server):
        result = keyed_server.describe_parameter_encryption(
            "SELECT * FROM T WHERE tag = @t"
        )
        assert not result.uses_enclave
        assert result.parameters[0].column_type.encryption.scheme is EncryptionScheme.DETERMINISTIC

    def test_plaintext_parameter(self, keyed_server):
        result = keyed_server.describe_parameter_encryption(
            "SELECT * FROM T WHERE id = @i"
        )
        assert result.parameters[0].column_type.encryption is None
        assert not result.uses_enclave

    def test_attestation_included_when_enclave_needed(self, keyed_server):
        from repro.crypto.dh import DiffieHellman

        dh = DiffieHellman()
        result = keyed_server.describe_parameter_encryption(
            "SELECT * FROM T WHERE value = @v", client_dh_public=dh.public_key
        )
        assert result.attestation is not None

    def test_no_attestation_without_dh(self, keyed_server):
        result = keyed_server.describe_parameter_encryption(
            "SELECT * FROM T WHERE value = @v"
        )
        assert result.attestation is None


class TestPlanCache:
    def test_repeat_queries_hit_cache(self, keyed_server):
        q = "SELECT * FROM T WHERE id = @i"
        keyed_server.describe_parameter_encryption(q)
        misses = keyed_server.stats.plan_cache_misses
        keyed_server.describe_parameter_encryption(q)
        keyed_server.describe_parameter_encryption(q)
        assert keyed_server.stats.plan_cache_misses == misses
        assert keyed_server.stats.plan_cache_hits >= 2

    def test_ddl_invalidates_cache(self, keyed_server):
        session = keyed_server.connect()
        q = "SELECT * FROM T WHERE id = @i"
        keyed_server.describe_parameter_encryption(q)
        session.execute("CREATE TABLE other (x int)")
        misses = keyed_server.stats.plan_cache_misses
        keyed_server.describe_parameter_encryption(q)
        assert keyed_server.stats.plan_cache_misses == misses + 1


class TestDdl:
    def test_create_drop_table(self, plain_server):
        session = plain_server.connect()
        session.execute("CREATE TABLE x (a int)")
        assert plain_server.catalog.has_table("x")
        session.execute("DROP TABLE x")
        assert not plain_server.catalog.has_table("x")

    def test_duplicate_table_rejected(self, plain_server):
        session = plain_server.connect()
        session.execute("CREATE TABLE x (a int)")
        with pytest.raises(SqlError):
            session.execute("CREATE TABLE x (a int)")

    def test_create_index_and_drop(self, plain_server):
        session = plain_server.connect()
        session.execute("CREATE TABLE x (a int, b int)")
        session.execute("CREATE INDEX ix ON x (a)")
        assert "ix" in plain_server.engine.table("x").indexes
        session.execute("DROP INDEX ix ON x")
        assert "ix" not in plain_server.engine.table("x").indexes

    def test_alter_column_requires_enclave(self, plain_server):
        session = plain_server.connect()
        session.execute("CREATE TABLE x (a int)")
        with pytest.raises(EnclaveError):
            session.execute("ALTER TABLE x ALTER COLUMN a int ENCRYPTED WITH ("
                            "COLUMN_ENCRYPTION_KEY = K, ENCRYPTION_TYPE = Randomized, "
                            f"ALGORITHM = '{ALGO}')")

    def test_online_alter_column_is_described_but_never_executed(self, plain_server):
        session = plain_server.connect()
        session.execute("CREATE TABLE x (a int)")
        online = "ALTER TABLE x ALTER COLUMN a ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = K) ONLINE"
        with pytest.raises(SqlError, match="rotate_start"):
            session.execute(online)
        assert plain_server.describe_parameter_encryption("CREATE TABLE y (a int)").enclave_ceks == []

    def test_cmk_cek_ddl_populate_catalog(self, plain_server):
        session = plain_server.connect()
        session.execute(
            "CREATE COLUMN MASTER KEY M WITH (KEY_STORE_PROVIDER_NAME = 'P', "
            "KEY_PATH = 'path')"
        )
        session.execute(
            "CREATE COLUMN ENCRYPTION KEY K WITH VALUES (COLUMN_MASTER_KEY = M, "
            "ALGORITHM = 'RSA_OAEP', ENCRYPTED_VALUE = 0x00, SIGNATURE = 0x00)"
        )
        assert plain_server.catalog.cmk("M").key_path == "path"
        assert plain_server.catalog.cek("K").cmk_names() == ["M"]
        # The DDL carried no enclave-computations signature: disabled.
        assert not plain_server.catalog.cek_enclave_enabled("K")


class TestCrashRecoveryThroughServer:
    def test_server_crash_recover(self, plain_server):
        session = plain_server.connect()
        session.execute("CREATE TABLE x (a int NOT NULL, PRIMARY KEY (a))")
        session.execute("INSERT INTO x (a) VALUES (1), (2)")
        plain_server.engine.checkpoint()
        plain_server.crash()
        plain_server.recover()
        r = plain_server.connect().execute("SELECT COUNT(*) FROM x", {})
        assert r.rows == [(2,)]
