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
        assert system.server.enclave.counters.sessions_started >= 3
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


class _AfterPendingOrders:
    """Connection A, delegating, that runs ``interleave`` once right after
    its first ``SELECT NO_O_ID`` returns: the window between Delivery's
    unlocked read of the oldest new order and its DELETE of that order."""

    def __init__(self, connection, interleave):
        self._connection, self._interleave = connection, interleave

    def __getattr__(self, name):
        return getattr(self._connection, name)

    def execute(self, query_text, params=None):
        result = self._connection.execute(query_text, params)
        if query_text.startswith("SELECT NO_O_ID") and self._interleave is not None:
            interleave, self._interleave = self._interleave, None
            interleave()
        return result


class TestDeliveryCreditsOnce:
    def test_an_order_another_delivery_took_is_not_credited_again(self):
        """B delivers the warehouse (committed) between A's read of a
        district's oldest new order and A's DELETE of it. A's DELETE removes
        no row, so A skips the district's order: every delivered order
        credits its customer's C_DELIVERY_CNT and C_BALANCE exactly once."""
        system = build_system(TpccConfig(mode=EncryptionMode.PLAINTEXT, **TINY))
        conn = system.connection
        try:
            def snapshot():
                pending = set(conn.execute(
                    "SELECT NO_W_ID, NO_D_ID, NO_O_ID FROM NEW_ORDER").rows)
                customers = {
                    (w, d, c): (cnt, balance)
                    for w, d, c, cnt, balance in conn.execute(
                        "SELECT C_W_ID, C_D_ID, C_ID, C_DELIVERY_CNT, C_BALANCE "
                        "FROM CUSTOMER").rows
                }
                return pending, customers

            pending_before, customers_before = snapshot()
            a, b = system.new_client(seed=1), system.new_client(seed=2)
            a.connection = _AfterPendingOrders(a.connection, b.delivery)
            a.delivery()
            pending_after, customers_after = snapshot()

            delivered = pending_before - pending_after
            assert a.counts.delivery == b.counts.delivery == 1
            # B took each district's oldest order; A skipped the district it
            # lost the race in and took the next order of every other one.
            assert len(delivered) == 2 * TINY["districts_per_warehouse"] - 1
            credits = sum(
                customers_after[key][0] - customers_before[key][0] for key in customers_before
            )
            assert credits == len(delivered)
            owed = 0.0
            for w, d, o in delivered:
                owed += conn.execute(
                    "SELECT SUM(OL_AMOUNT) FROM ORDER_LINE "
                    "WHERE OL_W_ID = @w AND OL_D_ID = @d AND OL_O_ID = @o",
                    {"w": w, "d": d, "o": o},
                ).rows[0][0]
            paid = sum(
                customers_after[key][1] - customers_before[key][1] for key in customers_before
            )
            assert paid == pytest.approx(owed)
        finally:
            system.shutdown()
