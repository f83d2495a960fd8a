"""Measured multi-client sweep: real threads, real locks, real enclave.

The modeled Figure 8 solves a queueing network over calibrated demands,
because pure Python under the GIL cannot natively exhibit 100-thread
concurrency. :func:`measure_curve` produces the *measured* companion: N
real client threads, each with its own driver connection in paper mode,
driving the standard TPC-C mix against one
:class:`~repro.workloads.tpcc.driver.TpccSystem`. The deployment is an
argument: ``n_shards=0`` hosts the engine in this process (each statement
on its client's thread, two-phase locking, shared plan cache, shared
enclave sessions); ``n_shards>0`` forks that many shard processes behind
the router process, the unmodified AE driver speaking the binary wire
protocol to one address.

To make measured scaling meaningful despite the GIL, each driver
round-trip sleeps ``MEASURED_RTT_S`` (an in-datacenter RTT), restoring
the regime the paper measures in: a single client is RTT-bound, so
additional clients overlap their network waits and throughput rises until
the (GIL-serialized) server CPU saturates. The experiments feed the same RTT
to the queueing model, so the modeled and measured curves are comparable.

The sharded sweep keeps the in-process run's mix, RTT and per-client
transaction budget, with one deliberate difference: **warehouses scale
with the peak client count** (16), TPC-C's own scaling rule (one home
warehouse per terminal). At the in-process run's 8 warehouses, 16
clients pair up two-per-warehouse and Payment's exclusive warehouse-row
lock serializes each pair — the wire lengthens every lock-hold window by
two hops, so the 8-warehouse sharded mix measures lock-convoy collapse,
not deployment scaling.

Every curve doubles as a concurrency-correctness gate: after the largest
client count the TPC-C invariants
(:mod:`repro.workloads.tpcc.invariants`) are audited at quiesce, on every
shard, so a lost update or an index torn by concurrency fails the
experiment rather than silently skewing the curve; then the system is
shut down, so no curve is measured beside a previous curve's idle threads.
"""

from __future__ import annotations

from repro.harness.result import row
from repro.workloads.tpcc.config import TRANSACTION_MIX, TpccConfig
from repro.workloads.tpcc.driver import build_system, run_multi_client
from repro.workloads.tpcc.sharded import start_sharded_system

#: Real-thread client counts. The paper sweeps 10–100 Benchcraft threads;
#: real Python threads are meaningful up to the teens, past which the GIL
#: serializes everything and adds only scheduling noise.
MEASURED_CLIENT_COUNTS = (1, 2, 4, 8, 16)

#: Simulated in-datacenter RTT per driver round-trip. Large against the
#: per-statement CPU cost at small scale, so the single-client stream is
#: network-bound exactly as in the paper's setup.
MEASURED_RTT_S = 0.002

#: A short lock timeout keeps deadlock victims cheap: under real
#: contention a victim rolls back and retries in ~this long instead of
#: stalling the whole curve for the default 5 s.
MEASURED_LOCK_TIMEOUT_S = 0.15


def default_sharded_scale() -> TpccConfig:
    """The sharded sweep's scale: one home warehouse per peak client."""
    return TpccConfig(max(MEASURED_CLIENT_COUNTS), 2, 15, 40)


def measure_curve(
    config: TpccConfig, n_shards: int, client_counts: tuple[int, ...], transactions_per_client: int
) -> tuple[list[dict], list[str]]:
    """Build → warm → sweep client counts → audit → tear down, once.

    Returns one result row per client count (txn/s; transactions and
    rollbacks as counts) and the invariant violations found at quiesce.
    """
    label = config.label + (f"/{n_shards}sh" if n_shards else "")
    if n_shards:
        system = start_sharded_system(config, n_shards, lock_timeout_s=MEASURED_LOCK_TIMEOUT_S)
    else:
        system = build_system(config, lock_timeout_s=MEASURED_LOCK_TIMEOUT_S)
    try:
        # Warm every engine's plan cache (and CEK cache, enclave sessions)
        # before timing: seeds 0..n-1 are homed on warehouses 1..n, which
        # round-robin onto shards 0..n-1.
        for seed in range(max(n_shards, 1)):
            system.new_client(seed=seed).run_mix(8, TRANSACTION_MIX)
        rows = []
        for n in client_counts:
            run = run_multi_client(system, n_clients=n, seed=5000 + n,
                                   transactions_per_client=transactions_per_client,
                                   simulated_rtt_s=MEASURED_RTT_S)
            rollbacks = sum(client.counts.rollbacks for client in run.clients)
            rows.append(row(label, run.throughput, x=n,
                            counts={"transactions": run.transactions, "rollbacks": rollbacks}))
        return rows, system.audit()
    finally:
        system.shutdown()
