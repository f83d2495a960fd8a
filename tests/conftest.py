"""Shared fixtures: key material, enclave stack, and server factories.

RSA key generation dominates setup cost, so key pairs and the provider
registry are session-scoped; anything mutable (server, enclave, catalog)
is rebuilt per test from the cached keys.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import pytest

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import Connection, connect
from repro.crypto.aead import CellCipher, generate_cek_material
from repro.crypto.rsa import RsaKeyPair
from repro.enclave.runtime import Enclave, EnclaveBinary
from repro.keys.cek import ColumnEncryptionKey
from repro.keys.cmk import ColumnMasterKey
from repro.keys.providers import KeyProviderRegistry, default_registry
from repro.security.adversary import StrongAdversary
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.server import SqlServer
from repro.sqlengine.values import deserialize_value

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"

VAULT_PATH_ENCLAVE = "https://vault.azure.net/keys/test-enclave-cmk"
VAULT_PATH_PLAIN = "https://vault.azure.net/keys/test-plain-cmk"


@pytest.fixture(scope="session")
def author_key() -> RsaKeyPair:
    return RsaKeyPair.generate(1024)


@pytest.fixture(scope="session")
def enclave_binary(author_key) -> EnclaveBinary:
    return EnclaveBinary.build(author_key)


@pytest.fixture(scope="session")
def host_machine() -> HostMachine:
    return HostMachine()


@pytest.fixture(scope="session")
def registry() -> KeyProviderRegistry:
    reg = default_registry()
    vault = reg.get("AZURE_KEY_VAULT_PROVIDER")
    vault.create_key(VAULT_PATH_ENCLAVE, bits=1024)
    vault.create_key(VAULT_PATH_PLAIN, bits=1024)
    return reg


@pytest.fixture(scope="session")
def enclave_cmk(registry) -> ColumnMasterKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    return ColumnMasterKey.create(
        "TestCMK", vault, VAULT_PATH_ENCLAVE, allow_enclave_computations=True
    )


@pytest.fixture(scope="session")
def plain_cmk(registry) -> ColumnMasterKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    return ColumnMasterKey.create(
        "PlainCMK", vault, VAULT_PATH_PLAIN, allow_enclave_computations=False
    )


@pytest.fixture(scope="session")
def cek_material() -> bytes:
    return generate_cek_material()


@pytest.fixture(scope="session")
def enclave_cek(registry, enclave_cmk, cek_material) -> ColumnEncryptionKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    cek, __ = ColumnEncryptionKey.create(
        "TestCEK", enclave_cmk, vault, key_material=cek_material
    )
    return cek


@pytest.fixture(scope="session")
def plain_cek(registry, plain_cmk, cek_material) -> ColumnEncryptionKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    cek, __ = ColumnEncryptionKey.create(
        "PlainCEK", plain_cmk, vault, key_material=cek_material
    )
    return cek


@pytest.fixture()
def enclave(enclave_binary) -> Enclave:
    return Enclave(enclave_binary)


@pytest.fixture()
def hgs(host_machine) -> HostGuardianService:
    service = HostGuardianService()
    service.register_host(host_machine.boot_and_measure())
    return service


@pytest.fixture()
def attestation_policy(enclave_binary) -> AttestationPolicy:
    return AttestationPolicy(trusted_author_ids=frozenset({enclave_binary.author_id}))


@pytest.fixture()
def server(enclave, host_machine, hgs) -> SqlServer:
    return SqlServer(
        enclave=enclave, host_machine=host_machine, hgs=hgs, lock_timeout_s=0.3
    )


@pytest.fixture()
def plain_server() -> SqlServer:
    return SqlServer(lock_timeout_s=0.3)


@pytest.fixture()
def threads_started(monkeypatch) -> list[str]:
    """Name of every thread started while the test runs (a thread census)."""
    started: list[str] = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.fixture()
def ae_connection(server, registry, attestation_policy, enclave_cmk, enclave_cek) -> Connection:
    """An AE connection to a server pre-populated with the test keys."""
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    return connect(server, registry, attestation_policy=attestation_policy)


@pytest.fixture()
def det_connection(server, registry, plain_cmk, plain_cek) -> Connection:
    """An AE connection with an enclave-disabled (DET-capable) CEK."""
    server.catalog.create_cmk(plain_cmk)
    server.catalog.create_cek(plain_cek)
    return connect(server, registry)


def make_encrypted_table(connection: Connection, name: str = "T", cek: str = "TestCEK",
                         scheme: str = "Randomized") -> None:
    connection.execute_ddl(
        f"CREATE TABLE {name}(id int PRIMARY KEY, "
        f"value int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = {cek}, "
        f"ENCRYPTION_TYPE = {scheme}, ALGORITHM = '{ALGO}'))"
    )


class ThreeWay:
    """A connection that runs every statement three ways and demands one answer.

    Each SELECT / INSERT / UPDATE / DELETE runs on ``main`` with its plan
    evicted (cold, rolled back), runs there again (warm, committed) and runs
    once on ``twin`` — an identically built stack, driven through the same
    history, whose plan cache is emptied before every statement. Rows,
    rowcount, plan_info, result columns, the ``COUNTS`` of QueryStats and the
    adversary's eval-path trace (ciphertexts decrypted: IVs differ) must be
    identical. The caller, and the adversary attached to ``main``, see the
    warm run only — so every other assertion of a suite built on this holds
    for executions of a cached plan, and this class extends it to cold ones.
    """

    COUNTS = (
        "rows_returned", "rows_scanned", "index_node_visits", "enclave_evals",
        "enclave_eval_batches", "enclave_batched_rows", "enclave_comparisons",
        "wal_records", "wal_bytes",
    )
    EVAL_PATH = ("eval", "eval_batch", "compare", "compare_batch")

    def __init__(self, main: Connection, twin: Connection,
                 main_adversary: StrongAdversary, twin_adversary: StrongAdversary):
        self.main, self.twin = (main, main_adversary), (twin, twin_adversary)
        self._ciphers: dict[str, CellCipher] = {}

    def __getattr__(self, name: str):
        return getattr(self.main[0], name)

    @property
    def servers(self) -> tuple[SqlServer, SqlServer]:
        return self.main[0].server, self.twin[0].server

    def execute_ddl(self, query_text: str, **options):
        self.twin[0].execute_ddl(query_text, **options)
        return self.main[0].execute_ddl(query_text, **options)

    def execute(self, query_text: str, params: dict | None = None):
        main_server, twin_server = self.servers
        twin_server._plan_cache.clear()
        __, always_cold = self._run(*self.twin, query_text, params, keep=True)
        main_server._plan_cache.pop(query_text, None)
        __, cold = self._run(*self.main, query_text, params, keep=False)
        result, warm = self._run(*self.main, query_text, params, keep=True)
        assert cold == warm, f"cold and warm differ on {query_text!r} {params!r}"
        assert always_cold == warm, f"twin and warm differ on {query_text!r} {params!r}"
        return result

    def _run(self, conn: Connection, adversary: StrongAdversary, query_text: str,
             params: dict | None, keep: bool):
        events = adversary.boundary_events
        mark = len(events)
        conn.begin()
        try:
            result = conn.execute(query_text, params)
        except BaseException:
            conn.rollback()
            raise
        if keep:
            conn.commit()
        else:
            conn.rollback()
        trace = self._decoded(events[mark:])
        if not keep:
            del events[mark:]
        counts = {name: getattr(result.stats, name) for name in self.COUNTS}
        if counts["wal_records"]:
            # A rolled-back insert leaves its leaf split behind, so the same
            # write descends one node deeper the second time.
            del counts["index_node_visits"]
        return result, (
            result.rows,
            result.rowcount,
            result.plan_info,
            [(column.name, column.column_type) for column in result.columns],
            counts,
            trace,
        )

    def _decoded(self, events: list) -> list[tuple]:
        def plain(value):
            if isinstance(value, Ciphertext):
                return ("ct", deserialize_value(self._decrypt(value.envelope)))
            if isinstance(value, (tuple, list)):
                return tuple(plain(item) for item in value)
            return value

        return [
            (event.ecall, plain(event.visible_inputs), event.visible_output)
            for event in events
            if event.ecall in self.EVAL_PATH
        ]

    def _decrypt(self, envelope: bytes) -> bytes:
        main = self.main[0]
        for cek in main.server.catalog.ceks():
            if cek.name not in self._ciphers:
                material = main.cek_cache.get(cek.name)
                if material is not None:
                    self._ciphers[cek.name] = CellCipher(material)
        for cipher in self._ciphers.values():
            if cipher.verify(envelope):
                return cipher.decrypt(envelope)
        raise AssertionError("boundary event holds a cell under no key the client has")


@pytest.fixture()
def encrypted_table(ae_connection) -> Connection:
    """Connection with table T(id, value RND-encrypted) and 10 rows."""
    make_encrypted_table(ae_connection)
    for i in range(10):
        ae_connection.execute(
            "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
        )
    return ae_connection


@dataclass
class RotationStack:
    """A full AE stack with several independently-keyed CEKs — the raw
    material of the online key-lifecycle suites. ``materials`` holds the
    plaintext key bytes so tests can probe which CEK a stored envelope is
    under without going through a driver."""

    server: SqlServer
    conn: Connection
    registry: KeyProviderRegistry
    policy: AttestationPolicy
    materials: dict[str, bytes] = field(default_factory=dict)

    def fresh_conn(self, **options) -> Connection:
        """A new client connection (own caches, own attestation session)."""
        return connect(
            self.server, self.registry, attestation_policy=self.policy, **options
        )


@pytest.fixture()
def rotation_stack_factory(registry, enclave_binary, host_machine, enclave_cmk):
    """Build an enclave-backed server with N distinct-material CEKs.

    Unlike the shared ``enclave_cek``/``plain_cek`` pair (which reuse one
    key material), every CEK here gets fresh material — a cell can only
    ever MAC-verify under exactly one of them, which is the core
    invariant the rotation suites check.
    """
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    policy = AttestationPolicy(
        trusted_author_ids=frozenset({enclave_binary.author_id})
    )

    def make(
        cek_names=("RotOldCEK", "RotNewCEK", "RotThirdCEK"),
        freshness: bool = False,
        lock_timeout_s: float = 0.3,
    ) -> RotationStack:
        hgs = HostGuardianService()
        hgs.register_host(host_machine.boot_and_measure())
        enclave = Enclave(enclave_binary)
        anchor = None
        if freshness:
            from repro.sqlengine.storage.freshness import (
                EnclaveAnchorBackend,
                FreshnessAnchor,
            )

            anchor = FreshnessAnchor(EnclaveAnchorBackend(enclave))
        server = SqlServer(
            enclave=enclave,
            host_machine=host_machine,
            hgs=hgs,
            lock_timeout_s=lock_timeout_s,
            freshness=anchor,
        )
        server.catalog.create_cmk(enclave_cmk)
        materials: dict[str, bytes] = {}
        for name in cek_names:
            material = generate_cek_material()
            cek, __ = ColumnEncryptionKey.create(
                name, enclave_cmk, vault, key_material=material
            )
            server.catalog.create_cek(cek)
            materials[name] = material
        stack = RotationStack(
            server=server,
            conn=connect(server, registry, attestation_policy=policy),
            registry=registry,
            policy=policy,
            materials=materials,
        )
        return stack

    return make
