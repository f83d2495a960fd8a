"""A8 — batched enclave calls: transitions and wall time per configuration.

Sweeps eval batch size × call mode × simulated transition cost for a
selective RND-predicate scan. The claim under test is the tentpole of the
batching change: with a non-zero boundary-transition cost, shipping 64
rows per ecall pays ≥5× fewer ``worker.boundary_transitions`` than
row-at-a-time evaluation — and measurably less wall time — in both
SYNCHRONOUS and QUEUED modes. Beside it, a count that cannot flake: the
one-comparison scan opens every cell once and the shared parameter once
per ecall (``cell_decrypts == rows + eval ecalls``; docs/PERF.md, "Open
once per ecall"), at every batch size.

Every configuration's measurements are appended to
``benchmarks/BENCH_enclave_batch.json`` by the session fixture in
``conftest.py``.
"""

import os
import time

import pytest

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import connect
from repro.crypto.rsa import RsaKeyPair
from repro.enclave.runtime import Enclave, EnclaveBinary
from repro.enclave.worker import CallMode
from repro.keys.providers import default_registry
from repro.obs.metrics import get_registry
from repro.sqlengine.server import SqlServer
from repro.tools.provisioning import provision_cek, provision_cmk

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"
ROWS = int(os.environ.get("REPRO_BENCH_BATCH_ROWS", "192"))
TRANSITION_COSTS_S = (0.0, 0.0002)
BATCH_SIZES = (1, 8, 64)
SELECTIVE_CUTOFF = ROWS - ROWS // 10  # ~10% of rows qualify


def build(mode: CallMode):
    author = RsaKeyPair.generate(1024)
    binary = EnclaveBinary.build(author)
    enclave = Enclave(binary)
    host = HostMachine()
    hgs = HostGuardianService()
    hgs.register_host(host.boot_and_measure())
    server = SqlServer(
        enclave=enclave, host_machine=host, hgs=hgs, enclave_call_mode=mode
    )
    registry = default_registry()
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))
    conn = connect(server, registry, attestation_policy=policy)
    cmk = provision_cmk(conn, vault, "CMK", "https://vault.azure.net/keys/eb-bench")
    provision_cek(conn, vault, cmk, "CEK")
    conn.execute_ddl(
        "CREATE TABLE L (k int PRIMARY KEY, "
        f"v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK, "
        f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'))"
    )
    for k in range(ROWS):
        conn.execute(
            "INSERT INTO L (k, v) VALUES (@k, @v)", {"k": k, "v": (k * 61) % ROWS}
        )
    return server, conn


def measure(server, conn, batch_size: int, transition_cost_s: float) -> dict:
    registry = get_registry()
    gateway = server.gateway
    gateway.transition_cost_s = transition_cost_s
    # Disable spinning so queued-mode transition counts are deterministic:
    # every queue item is a sleep→hot wakeup. This isolates the batching
    # amortization (one item per chunk) from the probabilistic spin
    # amortization the A1 bench already measures.
    gateway.spin_duration_s = 0.0
    server.executor.eval_batch_size = batch_size
    conn.execute("SELECT k FROM L WHERE v >= @x", {"x": SELECTIVE_CUTOFF})  # warm
    before = registry.value("worker.boundary_transitions")
    started = time.perf_counter()
    result = conn.execute("SELECT k FROM L WHERE v >= @x", {"x": SELECTIVE_CUTOFF})
    wall_s = time.perf_counter() - started
    transitions = registry.value("worker.boundary_transitions") - before
    assert len(result.rows) == ROWS - SELECTIVE_CUTOFF
    return {
        "mode": server.gateway.mode.value,
        "batch_size": batch_size,
        "transition_cost_s": transition_cost_s,
        "rows": ROWS,
        "rows_matched": len(result.rows),
        "boundary_transitions": transitions,
        "wall_time_s": round(wall_s, 6),
        "enclave_eval_batches": result.stats.enclave_eval_batches,
        "enclave_batched_rows": result.stats.enclave_batched_rows,
        # The statement is warm, so every ecall it makes is an eval ecall.
        "eval_ecalls": result.stats.ecalls,
        "cell_decrypts": result.stats.enclave_cell_decrypts,
    }


@pytest.mark.parametrize(
    "mode", [CallMode.SYNCHRONOUS, CallMode.QUEUED], ids=["sync", "queued"]
)
def test_batch_sweep(mode, enclave_batch_results):
    server, conn = build(mode)
    by_config = {}
    try:
        for cost in TRANSITION_COSTS_S:
            for batch in BATCH_SIZES:
                entry = measure(server, conn, batch, cost)
                by_config[(cost, batch)] = entry
                enclave_batch_results.append(entry)
    finally:
        server.gateway.shutdown()

    for entry in by_config.values():
        # One open per cell, one per parameter per ecall — not 2 × rows.
        assert entry["cell_decrypts"] == entry["rows"] + entry["eval_ecalls"], entry

    for cost in TRANSITION_COSTS_S:
        row = by_config[(cost, 1)]
        batched = by_config[(cost, 64)]
        # Correctness-independence of the sweep: same matches everywhere.
        assert row["rows_matched"] == batched["rows_matched"]
        assert row["boundary_transitions"] >= 5 * max(1, batched["boundary_transitions"])
        if cost > 0:
            # The acceptance criterion: ≥5× fewer transitions AND faster.
            assert batched["wall_time_s"] < row["wall_time_s"], (
                f"batch 64 not faster at cost {cost}: {batched} vs {row}"
            )
