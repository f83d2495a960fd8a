"""Paired stacks for the differential oracle suite.

Each pair is one Always Encrypted stack and one plaintext *oracle* server.
The oracle runs the same engine with no encryption anywhere: the AE
stack's decrypted answers must be indistinguishable from the oracle's —
encryption is supposed to be *transparent*, so any divergence (a row the
DET equality missed, an enclave range comparison that disagrees with
Python's, a LIKE that treats ciphertext bytes as text) is a bug by
construction.

Pairs are module-scoped: building the RND stack pays RSA + attestation
once, and hypothesis then drives hundreds of generated schemas/queries
against it using per-example table names (created and dropped per case).

The oracle suite's AE side is a :class:`tests.conftest.ThreeWay`: every
generated statement also runs cold, warm and on an always-cold twin stack,
so "a cached plan behaves exactly like a fresh one" is one more axis of the
same generated cases — for RND both at ``eval_batch_size=64``
(``rnd_pair``) and in paper mode (``rnd_paper_pair``: ``eval_batch_size=1``,
a describe per execute).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import pytest

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import Connection, connect
from repro.enclave.runtime import Enclave
from repro.security.adversary import StrongAdversary
from repro.sqlengine.server import SqlServer
from tests.conftest import ThreeWay

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"


@dataclass
class DifferentialPair:
    """An AE stack and its plaintext oracle, plus naming/counting state."""

    label: str                      # "DET" | "RND"
    cek_name: str
    scheme: str                     # "Deterministic" | "Randomized"
    ae: ThreeWay                    # main + always-cold twin AE stacks
    oracle: Connection
    cases: int = 0                  # generated cases executed (asserted >= 200)
    _table_seq: count = field(default_factory=count)

    @property
    def connections(self) -> tuple[Connection, Connection]:
        return (self.ae, self.oracle)

    def next_table_names(self) -> tuple[str, str]:
        """Fresh (T, U) table names, unique across hypothesis examples."""
        n = next(self._table_seq)
        return f"T{n}", f"U{n}"

    def encrypted_ddl(self, table: str) -> str:
        enc = (
            f"ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = {self.cek_name}, "
            f"ENCRYPTION_TYPE = {self.scheme}, ALGORITHM = '{ALGO}')"
        )
        return (
            f"CREATE TABLE {table}(id int PRIMARY KEY, "
            f"s varchar(10) {enc}, n int {enc}, pub int)"
        )

    def plain_ddl(self, table: str) -> str:
        return (
            f"CREATE TABLE {table}(id int PRIMARY KEY, "
            f"s varchar(10), n int, pub int)"
        )

    def create_tables(self, *tables: str) -> None:
        for table in tables:
            self.ae.execute_ddl(self.encrypted_ddl(table))
            self.oracle.execute_ddl(self.plain_ddl(table))

    def drop_tables(self, *tables: str) -> None:
        for table in tables:
            for conn in self.connections:
                try:
                    conn.execute_ddl(f"DROP TABLE {table}")
                except Exception:
                    pass  # creation may have failed mid-example


def _oracle_connection(registry) -> Connection:
    server = SqlServer(lock_timeout_s=1.0)
    return connect(server, registry, column_encryption=False)


def _three_way(build_server, registry, **connect_options) -> ThreeWay:
    """Two identically built AE stacks, each watched by its own adversary."""
    connections, adversaries = [], []
    for __ in range(2):
        server = build_server()
        adversary = StrongAdversary()
        adversary.attach(server)
        connections.append(connect(server, registry, **connect_options))
        adversaries.append(adversary)
    return ThreeWay(*connections, *adversaries)


@pytest.fixture(scope="module")
def det_pair(registry, plain_cmk, plain_cek) -> DifferentialPair:
    """DET stack (enclave-disabled CEK, no enclave) vs plaintext oracle."""

    def build_server() -> SqlServer:
        server = SqlServer(lock_timeout_s=1.0)
        server.catalog.create_cmk(plain_cmk)
        server.catalog.create_cek(plain_cek)
        return server

    return DifferentialPair(
        label="DET",
        cek_name=plain_cek.name,
        scheme="Deterministic",
        ae=_three_way(build_server, registry),
        oracle=_oracle_connection(registry),
    )


def _rnd_pair(registry, enclave_binary, enclave_cmk, enclave_cek, eval_batch_size: int):
    def build_server() -> SqlServer:
        host = HostMachine()
        hgs = HostGuardianService()
        hgs.register_host(host.boot_and_measure())
        server = SqlServer(
            enclave=Enclave(enclave_binary),
            host_machine=host,
            hgs=hgs,
            lock_timeout_s=1.0,
            eval_batch_size=eval_batch_size,
        )
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        return server

    policy = AttestationPolicy(
        trusted_author_ids=frozenset({enclave_binary.author_id})
    )
    pair = DifferentialPair(
        label="RND",
        cek_name=enclave_cek.name,
        scheme="Randomized",
        ae=_three_way(
            build_server,
            registry,
            attestation_policy=policy,
            # Paper mode is row-at-a-time *and* a describe per execute.
            cache_describe_results=eval_batch_size > 1,
        ),
        oracle=_oracle_connection(registry),
    )
    yield pair
    for server in pair.ae.servers:
        server.shutdown()


@pytest.fixture(scope="module")
def rnd_pair(registry, enclave_binary, enclave_cmk, enclave_cek):
    """RND stack (enclave-enabled CEK, attested enclave, 64-row enclave
    batches) vs plaintext oracle."""
    yield from _rnd_pair(registry, enclave_binary, enclave_cmk, enclave_cek, 64)


@pytest.fixture(scope="module")
def rnd_paper_pair(registry, enclave_binary, enclave_cmk, enclave_cek):
    """The same in paper mode: ``eval_batch_size=1``, describe per execute."""
    yield from _rnd_pair(registry, enclave_binary, enclave_cmk, enclave_cek, 1)
