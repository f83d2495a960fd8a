"""TPC-C under real concurrency: locking and shared state hold up."""

import pytest

from repro.workloads.tpcc import (
    EncryptionMode,
    TpccConfig,
    build_system,
    run_multi_client,
)

TINY = dict(warehouses=1, districts_per_warehouse=2, customers_per_district=10, items=15)


class TestConcurrentClients:
    def test_plaintext_concurrent_mix(self):
        system = build_system(TpccConfig(mode=EncryptionMode.PLAINTEXT, **TINY))
        result = run_multi_client(system, n_clients=4, transactions_per_client=8)
        clients = result.clients
        total = sum(c.counts.total for c in clients)
        assert total >= 4 * 8 - sum(c.counts.rollbacks for c in clients)
        assert result.elapsed_s > 0

    def test_encrypted_concurrent_mix_shares_enclave(self):
        system = build_system(TpccConfig(mode=EncryptionMode.RND, **TINY))
        clients = run_multi_client(system, n_clients=3, transactions_per_client=6).clients
        # Each client attested its own session; the single enclave served all.
        assert system.enclave.counters.sessions_started >= 3
        assert sum(c.counts.total for c in clients) > 0

    def test_database_consistent_after_concurrency(self):
        system = build_system(TpccConfig(mode=EncryptionMode.PLAINTEXT, **TINY))
        run_multi_client(system, n_clients=4, transactions_per_client=6)
        conn = system.connection
        # District order counters never exceed the number of orders + initial.
        for d_id in (1, 2):
            next_o = conn.execute(
                "SELECT D_NEXT_O_ID FROM DISTRICT WHERE D_W_ID = 1 AND D_ID = @d",
                {"d": d_id},
            ).rows[0][0]
            orders = conn.execute(
                "SELECT COUNT(*) FROM ORDERS WHERE O_W_ID = 1 AND O_D_ID = @d",
                {"d": d_id},
            ).rows[0][0]
            # Every committed NewOrder bumped the counter and inserted one
            # order; rollbacks bump neither permanently.
            assert next_o == orders + 1
