"""Hosting N TPC-C shards behind the wire router.

The sharded deployment is the same :class:`TpccSystem` as
:func:`~repro.workloads.tpcc.driver.build_system`'s, built from the same
parts: each shard is one :func:`~repro.workloads.tpcc.driver.build_server`
engine (its own WAL, buffer pool, lock manager, enclave + HGS under RND,
and its own :class:`FreshnessAnchor` trust root) served by a
:class:`WireServer`, partitioned by warehouse. A
:class:`~repro.net.router.Router` fronts them all, so the unmodified AE
driver connects to one address and cannot tell the deployments apart.
This module only decides *where the shards run*:

* :func:`start_sharded_system` — real OS processes (``fork``), the
  configuration the sharded Figure 8 benchmark measures. Each shard
  process escapes the parent's GIL, which is the entire point.
* :func:`start_sharded_inprocess` — every shard and the router as threads
  in this process. Used by tests that need to reach into a shard's engine
  (fault arming, crash/recover torture) which a process boundary hides.

Set-up then runs :func:`~repro.workloads.tpcc.driver.assemble_system`
through the router. The attestation policy trusts the union of the
shards' enclave author ids, reported at shard start. Clients run in paper
mode (a describe round trip per execute) exactly as in-process ones do;
only the loader connection caches describe results, because it pays two
socket hops per round trip for every loaded row.

Every client from :meth:`TpccSystem.new_client` is pinned to a home
warehouse: its control plane, enclave session, and all its statements
land on ``shard_of(home)``, the deployment the paper's partitioned-OLTP
regime assumes. Cross-shard transactions (2PC) are exercised by the
dedicated torture tests, not the steady-state mix.
"""

from __future__ import annotations

import multiprocessing

from repro.client.driver import connect
from repro.keys import default_registry
from repro.net.remote import RemoteServer
from repro.net.router import CommitDecisionLog, Router
from repro.net.wireserver import WireServer
from repro.sqlengine.server import SqlServer
from repro.workloads.tpcc.config import TpccConfig
from repro.workloads.tpcc.driver import TpccSystem, assemble_system, build_server

__all__ = ["start_sharded_inprocess", "start_sharded_system"]


def _serve_shard(
    shard_idx: int, n_shards: int, config: TpccConfig, **server_options
) -> tuple[SqlServer, bytes | None, WireServer]:
    """Build one shard's engine and put it on a socket."""
    server, author_id = build_server(config, **server_options)

    def audit() -> list[str]:
        # A shard is a zero-shard system: every invariant is per-warehouse
        # (or per-row referential), so each check closes over data the
        # shard owns; the plaintext audit connection never touches an
        # encrypted column.
        registry = default_registry()
        conn = connect(server, registry, column_encryption=False)
        try:
            return TpccSystem(config, server, conn, registry).audit()
        finally:
            conn.close()

    wire = WireServer(
        server, name=f"shard{shard_idx}", shard_count=n_shards, audit_hook=audit
    ).start()
    return server, author_id, wire


def _shard_process_main(shard_idx, n_shards, config, server_options, pipe) -> None:
    """Entry point of one shard OS process: build, serve, wait for shutdown."""
    server, author_id, wire = _serve_shard(shard_idx, n_shards, config, **server_options)
    pipe.send((wire.port, author_id))
    pipe.close()
    wire.wait_stopped()     # AdminShutdown
    wire.stop()
    server.shutdown()


def _router_process_main(shard_addresses, decision_log_path, pipe) -> None:
    """Entry point of the router OS process (stateless but for the log)."""
    router = Router(
        shard_addresses,
        decision_log=CommitDecisionLog(decision_log_path),
    ).start()
    pipe.send(router.port)
    pipe.close()
    router.wait_stopped()
    router.stop()


def _assemble(config, router_address, shard_addresses, author_ids, **hosting) -> TpccSystem:
    return assemble_system(
        config,
        RemoteServer(*router_address, affinity=1),
        author_ids,
        router_address=router_address,
        shard_addresses=shard_addresses,
        **hosting,
    )


def start_sharded_system(
    config: TpccConfig,
    n_shards: int,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
    decision_log_path: str | None = None,
    start_timeout_s: float = 60.0,
) -> TpccSystem:
    """N shard OS processes + one router OS process, loaded and ready."""
    ctx = multiprocessing.get_context("fork")
    server_options = dict(
        lock_timeout_s=lock_timeout_s,
        freshness_anchor=freshness_anchor,
    )
    processes = []

    def spawn(name: str, target, *args):
        """Fork ``target(*args, pipe)``; returns the pipe it reports on."""
        parent_end, child_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=target, args=(*args, child_end), name=name, daemon=True)
        proc.start()
        child_end.close()
        processes.append(proc)
        return parent_end

    def report(pipe, who: str):
        if not pipe.poll(start_timeout_s):
            raise TimeoutError(f"{who} process did not report its port")
        return pipe.recv()

    pipes = [
        spawn(f"tpcc-shard-{idx}", _shard_process_main, idx, n_shards, config, server_options)
        for idx in range(n_shards)
    ]
    shard_addresses: list[tuple[str, int]] = []
    author_ids: list[bytes | None] = []
    for pipe in pipes:
        port, author_id = report(pipe, "shard")
        shard_addresses.append(("127.0.0.1", port))
        author_ids.append(author_id)
    router_pipe = spawn("tpcc-router", _router_process_main, shard_addresses, decision_log_path)
    router_address = ("127.0.0.1", report(router_pipe, "router"))
    return _assemble(
        config, router_address, shard_addresses, author_ids, processes=processes
    )


def start_sharded_inprocess(
    config: TpccConfig,
    n_shards: int,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
    decision_log_path: str | None = None,
) -> tuple[TpccSystem, list[SqlServer], Router]:
    """Same topology, all threads in this process (tests reach the engines)."""
    servers, author_ids, wires = zip(
        *(
            _serve_shard(
                shard_idx,
                n_shards,
                config,
                lock_timeout_s=lock_timeout_s,
                freshness_anchor=freshness_anchor,
            )
            for shard_idx in range(n_shards)
        )
    )
    shard_addresses = [(wire.host, wire.port) for wire in wires]
    router = Router(
        shard_addresses, decision_log=CommitDecisionLog(decision_log_path)
    ).start()
    system = _assemble(
        config,
        (router.host, router.port),
        shard_addresses,
        author_ids,
        hosted_stops=[
            router.stop,
            *(wire.stop for wire in wires),
            *(server.shutdown for server in servers),
        ],
    )
    return system, list(servers), router
