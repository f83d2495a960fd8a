"""Mid-batch failures at the ``enclave.eval_batch`` fault site.

A batched eval is one ecall covering many rows; these tests pin the
failure-atomicity contract: a fault in the middle of a chunk fails the
whole statement, and no partial filter verdicts or partial DML effects
survive into later statements.
"""

import pytest

from repro.errors import TransientFault
from repro.faults import OnNth, RaiseTransient, get_fault_registry


class TestMidBatchFaults:
    def test_select_fails_whole_statement(self, encrypted_table):
        conn = encrypted_table
        get_fault_registry().arm(
            "enclave.eval_batch", OnNth(5), RaiseTransient("mid-batch")
        )
        with pytest.raises(TransientFault):
            conn.execute("SELECT id FROM T WHERE value > @v", {"v": 30})

    def test_no_partial_filter_results_after_failed_batch(self, encrypted_table):
        conn = encrypted_table
        get_fault_registry().arm(
            "enclave.eval_batch", OnNth(5), RaiseTransient("mid-batch")
        )
        with pytest.raises(TransientFault):
            conn.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
        # The one-shot fault is spent; the rerun must see the full, correct
        # result — nothing cached or leaked from the aborted chunk.
        result = conn.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
        assert sorted(row[0] for row in result.rows) == [4, 5, 6, 7, 8, 9]
        assert result.stats.enclave_batched_rows == 10

    def test_rerun_after_failed_batch_opens_what_a_fresh_server_opens(self, encrypted_table):
        conn = encrypted_table
        query, params = "SELECT id FROM T WHERE value > @v", {"v": 30}
        # Ten cells and one parameter: what this statement costs a server
        # that never saw a fault.
        fresh = conn.execute(query, params).stats.enclave_cell_decrypts
        assert fresh == 11
        counters = conn.server.enclave.counters
        before = counters.cell_decrypts
        get_fault_registry().arm(
            "enclave.eval_batch", OnNth(5), RaiseTransient("mid-batch")
        )
        with pytest.raises(TransientFault):
            conn.execute(query, params)
        # Rows 0-3 and the parameter were opened before row 4 faulted, and
        # are booked although the ecall raised ...
        assert counters.cell_decrypts - before == 5
        # ... and none of them is still open: the rerun pays in full.
        assert conn.execute(query, params).stats.enclave_cell_decrypts == fresh

    def test_update_mid_batch_leaves_no_partial_updates(self, encrypted_table):
        conn = encrypted_table
        get_fault_registry().arm(
            "enclave.eval_batch", OnNth(5), RaiseTransient("mid-batch")
        )
        with pytest.raises(TransientFault):
            conn.execute(
                "UPDATE T SET value = @new WHERE value > @v", {"new": 777, "v": -1}
            )
        # Qualification died mid-chunk: the autocommit transaction aborted
        # and no row may show the new value.
        check = conn.execute("SELECT id FROM T WHERE value = @n", {"n": 777})
        assert check.rows == []
        # And every original value survived.
        for i in (0, 5, 9):
            r = conn.execute("SELECT id FROM T WHERE value = @v", {"v": i * 10})
            assert [row[0] for row in r.rows] == [i]

    def test_fault_context_carries_batch_position(self, encrypted_table):
        conn = encrypted_table
        seen = {}

        class Probe:
            def trigger(self, site, ctx):
                seen.update(ctx)
                return None

        registry = get_fault_registry()
        from repro.faults import Always

        registry.arm("enclave.eval_batch", Always(), Probe())
        conn.execute("SELECT id FROM T WHERE value > @v", {"v": 30})
        assert seen["total"] == 10
        assert 0 <= seen["index"] < 10
