"""The Benchcraft-like TPC-C driver: one system type for every deployment.

A :class:`TpccSystem` is a loaded TPC-C database plus the means to open
client streams against it. *Where* the engine runs is a shard count, not a
second code path: ``build_system`` hosts the one :class:`SqlServer` in
this process (zero shards — clients hold the server object), and the
builders in :mod:`repro.workloads.tpcc.sharded` host N of the same server
assembly behind wire servers and a router (clients hold a
:class:`RemoteServer` on the router). Both run the same
provision → table DDL → load → index DDL sequence and hand back the same
type; ``new_client``/``audit``/``shutdown`` work identically on either.
``run_multi_client`` drives the measured multi-client mix.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine, TpmNvAnchor
from repro.client.driver import Connection, connect
from repro.crypto.rsa import RsaKeyPair
from repro.enclave import CallMode, Enclave, EnclaveBinary
from repro.keys import KeyProviderRegistry, default_registry
from repro.net.remote import RemoteServer
from repro.sqlengine.server import SqlServer
from repro.sqlengine.storage.freshness import EnclaveAnchorBackend, FreshnessAnchor
from repro.tools.provisioning import provision_cek, provision_cmk
from repro.workloads.tpcc.config import (
    TRANSACTION_MIX,
    EncryptionMode,
    TpccConfig,
)
from repro.workloads.tpcc.generator import TpccLoader
from repro.workloads.tpcc.invariants import check_invariants
from repro.workloads.tpcc.schema import create_index_statements, create_table_statements
from repro.workloads.tpcc.transactions import TpccTransactions

CEK_NAME = "TpccCEK"
CMK_NAME = "TpccCMK"
CMK_PATH = "https://vault.azure.net/keys/tpcc-cmk"


def _quietly(fn: Callable[[], object]) -> None:
    """Teardown is best-effort: the peer may already be gone."""
    try:
        fn()
    except Exception:
        pass


@dataclass
class TpccSystem:
    """A loaded TPC-C system under one configuration, wherever it runs.

    ``server`` is what the driver connects to: the :class:`SqlServer`
    itself when in-process, a :class:`RemoteServer` on the router when
    sharded (``shard_addresses`` non-empty). ``connection`` is the
    set-up/loader connection on it. ``processes`` (fork) and
    ``hosted_stops`` (threads) are however the shards are hosted.
    """

    config: TpccConfig
    server: SqlServer | RemoteServer
    connection: Connection
    registry: KeyProviderRegistry
    #: driver mode of every :meth:`new_client` (False = paper mode).
    cache_describe_results: bool = False
    router_address: tuple[str, int] | None = None
    shard_addresses: list[tuple[str, int]] = field(default_factory=list)
    processes: list = field(default_factory=list)
    hosted_stops: list[Callable[[], None]] = field(default_factory=list)
    transactions: TpccTransactions = field(init=False)
    _clients: list[Connection] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.transactions = TpccTransactions(
            connection=self.connection, config=self.config,
            rng=random.Random(self.config.seed + 1),
        )

    @property
    def n_shards(self) -> int:
        return len(self.shard_addresses)

    @property
    def attestation_policy(self) -> AttestationPolicy | None:
        return self.connection.attestation_policy

    @property
    def enclave(self) -> Enclave | None:
        """The in-process engine's enclave; shard enclaves are out of reach."""
        return None if self.n_shards else self.server.enclave

    def new_client(
        self,
        seed: int,
        simulated_rtt_s: float = 0.0,
        home_warehouse: int | None = None,
    ) -> TpccTransactions:
        """An additional independent client stream (own connection).

        ``simulated_rtt_s`` is slept once per driver↔server round-trip,
        restoring the RTT-dominated regime of the paper's measurements
        (see :mod:`repro.harness.measured`). A sharded client is always
        pinned to a home warehouse (derived from ``seed`` if not given):
        its control plane, enclave session and statements land on that
        warehouse's shard, over its own sockets.
        """
        server = self.server
        if self.n_shards:
            if home_warehouse is None:
                home_warehouse = seed % self.config.warehouses + 1
            server = RemoteServer(*self.router_address, affinity=home_warehouse)
        connection = connect(
            server,
            self.registry,
            column_encryption=self.config.ae_connection,
            attestation_policy=self.attestation_policy,
            cache_describe_results=self.cache_describe_results,
            simulated_rtt_s=simulated_rtt_s,
        )
        self._clients.append(connection)
        return TpccTransactions(
            connection=connection,
            config=self.config,
            rng=random.Random(seed),
            home_warehouse=home_warehouse,
        )

    def audit(self) -> list[str]:
        """Every TPC-C invariant violation, on every shard (quiesce first)."""
        if self.n_shards:
            # The router fans AdminAudit out; each shard audits its slice.
            return self.server.audit()
        return check_invariants(self)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Close every connection and stop every thread and process."""
        for conn in (*self._clients, self.connection):
            _quietly(conn.close)
        # SqlServer: its worker threads. RemoteServer: AdminShutdown (router).
        _quietly(self.server.shutdown)
        for address in self.shard_addresses:
            _quietly(lambda: RemoteServer(*address).shutdown())
        for proc in self.processes:
            proc.join(timeout=timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout_s)
        for stop in self.hosted_stops:
            stop()


def build_server(
    config: TpccConfig,
    enclave_call_mode: CallMode = CallMode.QUEUED,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
) -> tuple[SqlServer, bytes | None]:
    """One engine: server (+ enclave/HGS under RND) + optional trust anchor.

    Returns ``(server, enclave_author_id)``; the author id feeds the
    client's attestation policy (the union over shards when sharded).

    ``freshness_anchor=True`` arms rollback detection: RND systems anchor
    in the enclave, enclave-less ones in the simulated TPM NV slot. Off
    by default so paper-mode calibration (Figures 8/9) is untouched.
    """
    enclave = None
    host = None
    hgs = None
    author_id = None
    if config.mode is EncryptionMode.RND:
        binary = EnclaveBinary.build(RsaKeyPair.generate(1024))
        enclave = Enclave(binary)
        host = HostMachine()
        hgs = HostGuardianService()
        hgs.register_host(host.boot_and_measure())
        author_id = binary.author_id

    freshness = None
    if freshness_anchor:
        backend = EnclaveAnchorBackend(enclave) if enclave is not None else TpmNvAnchor()
        freshness = FreshnessAnchor(backend)

    server = SqlServer(
        enclave=enclave,
        host_machine=host,
        hgs=hgs,
        enclave_threads=config.enclave_threads,
        enclave_call_mode=enclave_call_mode,
        lock_timeout_s=lock_timeout_s,
        eval_batch_size=config.eval_batch_size,
        freshness=freshness,
    )
    return server, author_id


def assemble_system(
    config: TpccConfig,
    server: SqlServer | RemoteServer,
    author_ids: list[bytes | None],
    cache_describe_results: bool = False,
    shard_addresses: Sequence[tuple[str, int]] = (),
    **hosting,
) -> TpccSystem:
    """Connect to ``server``, then provision keys, create, load and index.

    Through a router the DDL broadcasts — ``CREATE COLUMN ENCRYPTION KEY``
    embeds the ciphertext bytes, so every shard stores the *identical*
    CEK — and the loader's rows route by warehouse. The one step that
    differs per deployment is the RND index build: ``CUSTOMER_NC1`` covers
    randomized columns, so building it needs the client's CEK inside
    *each* shard's enclave, i.e. one attested connection per shard.
    """
    author_ids = frozenset(a for a in author_ids if a is not None)
    policy = AttestationPolicy(trusted_author_ids=author_ids) if author_ids else None
    registry = default_registry()
    connection = connect(
        server,
        registry,
        column_encryption=config.ae_connection,
        attestation_policy=policy,
        # The loader is not a measured client, and through a router each
        # describe is two socket hops for every loaded row: there it caches.
        cache_describe_results=cache_describe_results or bool(shard_addresses),
    )
    system = TpccSystem(
        config=config,
        server=server,
        connection=connection,
        registry=registry,
        cache_describe_results=cache_describe_results,
        shard_addresses=list(shard_addresses),
        **hosting,
    )

    if config.uses_encryption:
        provider = registry.get("AZURE_KEY_VAULT_PROVIDER")
        cmk = provision_cmk(
            connection,
            provider,
            CMK_NAME,
            CMK_PATH,
            allow_enclave_computations=config.mode is EncryptionMode.RND,
        )
        provision_cek(connection, provider, cmk, CEK_NAME)
    for ddl in create_table_statements(config, CEK_NAME):
        connection.execute_ddl(ddl)
    TpccLoader(connection=connection, config=config).load()

    index_statements = list(create_index_statements(config))
    if shard_addresses and config.mode is EncryptionMode.RND:
        for address in shard_addresses:
            shard_remote = RemoteServer(*address)
            shard_conn = connect(
                shard_remote, registry, column_encryption=True, attestation_policy=policy
            )
            try:
                for ddl in index_statements:
                    shard_conn.execute_ddl(ddl)
            finally:
                shard_conn.close()
                shard_remote.close()
    else:
        for ddl in index_statements:
            connection.execute_ddl(ddl)     # through a router: broadcast
    return system


def build_system(
    config: TpccConfig,
    enclave_call_mode: CallMode = CallMode.QUEUED,
    cache_describe_results: bool = False,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
) -> TpccSystem:
    """The in-process (zero-shard) deployment, loaded and ready.

    ``cache_describe_results`` defaults to False for benchmark fidelity:
    the paper's driver pays the sp_describe_parameter_encryption round-trip
    per execution (client-side caching is the improvement Section 5.4.1
    suggests but does not ship).
    """
    server, author_id = build_server(
        config,
        enclave_call_mode=enclave_call_mode,
        lock_timeout_s=lock_timeout_s,
        freshness_anchor=freshness_anchor,
    )
    return assemble_system(
        config,
        server,
        [author_id],
        cache_describe_results=cache_describe_results,
    )


@dataclass
class MultiClientResult:
    """Outcome of one measured multi-client run."""

    elapsed_s: float
    clients: list[TpccTransactions]

    @property
    def transactions(self) -> int:
        return sum(client.counts.total for client in self.clients)

    @property
    def throughput(self) -> float:
        if self.elapsed_s <= 0:
            return float("inf")
        return self.transactions / self.elapsed_s


def run_multi_client(
    system: TpccSystem,
    n_clients: int,
    transactions_per_client: int,
    mix=None,
    simulated_rtt_s: float = 0.0,
    seed: int = 1000,
) -> MultiClientResult:
    """Drive the mix from ``n_clients`` real client threads, measured.

    Every client opens its own driver connection (its own describe cache,
    CEK cache, and — under RND — attestation handshake), synchronizes on a
    barrier, and the wall clock covers only the barrier-to-join window.
    ``simulated_rtt_s`` puts each round-trip to sleep, which is what lets
    N Python threads overlap their waiting and produce real measured
    scaling despite the GIL. Client errors propagate to the caller.
    """
    mix = mix or TRANSACTION_MIX
    clients = [
        system.new_client(seed=seed + i, simulated_rtt_s=simulated_rtt_s)
        for i in range(n_clients)
    ]
    errors: list[Exception] = []
    barrier = threading.Barrier(n_clients + 1)

    def work(client: TpccTransactions) -> None:
        barrier.wait()
        try:
            client.run_mix(transactions_per_client, mix)
        except Exception as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(c,), name=f"tpcc-client-{i}")
        for i, c in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return MultiClientResult(elapsed_s=elapsed, clients=clients)
