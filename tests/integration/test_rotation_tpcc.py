"""Acceptance: online key rotation under a live multi-client TPC-C run.

The tentpole scenario end to end — a background :class:`KeyRotationJob`
re-encrypts ``CUSTOMER.C_FIRST`` (selected and sorted client-side by the
payment-by-name path, never used in a server-side predicate) from
``TpccCEK`` to a freshly provisioned ``TpccCEK2`` while real client
threads drive the standard transaction mix. Afterwards:

* the TPC-C consistency conditions all hold (zero invariant violations);
* every stored ``C_FIRST`` envelope is under the new CEK, none under the
  old, none plaintext (zero differential violations at the cell level);
* customer names survived the rotation byte-for-byte;
* the CEK version bumped exactly once and no job is left active.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.crypto.aead import CellCipher
from repro.sqlengine.cells import Ciphertext
from repro.tools.provisioning import provision_cek
from repro.tools.rotation import rotate_cek_online
from repro.workloads.tpcc import EncryptionMode, TpccConfig, build_system, run_multi_client
from repro.workloads.tpcc.invariants import check_invariants

TINY = dict(warehouses=1, districts_per_warehouse=1, customers_per_district=10, items=20)

NEW_CEK = "TpccCEK2"
OLD_CEK = "TpccCEK"


def c_first_census(system) -> dict[str, int]:
    """Count stored C_FIRST envelopes by the CEK whose MAC verifies them."""
    engine = system.server.engine
    slot = engine.table("CUSTOMER").schema.column_index("C_FIRST")
    ciphers = {}
    for name in (OLD_CEK, NEW_CEK):
        metadata = system.server.fetch_cek_metadata(name)
        ciphers[name] = CellCipher(system.connection.unwrap_cek(metadata))
    counts = {"<plaintext>": 0, OLD_CEK: 0, NEW_CEK: 0}
    for __, row in engine.scan("CUSTOMER"):
        cell = row[slot]
        if not isinstance(cell, Ciphertext):
            counts["<plaintext>"] += 1
            continue
        owners = [n for n, c in ciphers.items() if c.verify(cell.envelope)]
        assert len(owners) == 1, f"cell verifies under {owners!r}"
        counts[owners[0]] += 1
    return counts


@pytest.fixture(scope="module")
def rnd_system():
    return build_system(
        TpccConfig(mode=EncryptionMode.RND, **TINY), lock_timeout_s=5.0
    )


class TestRotationUnderLiveTpcc:
    def test_online_rotation_with_concurrent_clients(self, rnd_system):
        system = rnd_system
        conn = system.connection
        provider = system.registry.get("AZURE_KEY_VAULT_PROVIDER")
        cmk = system.server.catalog.cmk("TpccCMK")
        provision_cek(conn, provider, cmk, NEW_CEK)

        names_before = sorted(
            conn.execute("SELECT C_ID, C_D_ID, C_W_ID, C_FIRST FROM CUSTOMER").rows
        )
        assert c_first_census(system)[OLD_CEK] == len(names_before)

        rid = rotate_cek_online(
            conn, "CUSTOMER", "C_FIRST", NEW_CEK, batch_size=4, run=False
        )

        result: dict[str, object] = {}

        def workload():
            clients = run_multi_client(
                system, n_clients=3, transactions_per_client=6
            ).clients
            result["total"] = sum(c.counts.total for c in clients)

        runner = threading.Thread(target=workload, name="tpcc-under-rotation")
        runner.start()
        # The background job shares the server with the live clients: one
        # batch at a time, yielding between batches like a real online
        # index/encryption operation.
        more = True
        while more:
            more, __ = system.server.rotate_step(rid)
            time.sleep(0.002)
        runner.join()

        assert result["total"] > 0  # clients made progress during the sweep

        # Zero invariant violations under the standard TPC-C checks.
        assert check_invariants(system) == []

        # Terminal key state: everything under the new CEK, exactly once.
        census = c_first_census(system)
        assert census[OLD_CEK] == 0
        assert census["<plaintext>"] == 0
        assert census[NEW_CEK] == len(names_before) == 10
        assert system.server.cek_versions() == {NEW_CEK: 2}
        assert not any(s.active for s in system.server.rotation_states())

        # The rotated names read back identically (payments never touch
        # C_FIRST, so the pre-rotation snapshot is still the truth).
        names_after = sorted(
            conn.execute("SELECT C_ID, C_D_ID, C_W_ID, C_FIRST FROM CUSTOMER").rows
        )
        assert names_after == names_before

    def test_payment_by_name_still_sorts_by_rotated_column(self, rnd_system):
        """The by-name lookup (C_LAST predicate, client-side C_FIRST sort)
        works identically after C_FIRST moved to the new CEK."""
        system = rnd_system
        txns = system.new_client(seed=77)
        for __ in range(10):
            txns.run_one("payment")
            txns.run_one("order_status")
        assert txns.counts.total == 20
