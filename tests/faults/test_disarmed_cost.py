"""A disarmed fault site makes no Python call.

Every fault site is one row of ``repro.faults.registry.FAULT_SITES``,
bound by its module at import; a hit tests the row's ``armed`` tuple and
calls nothing while it is empty. Counted with a ``sys.setprofile`` hook,
and ``threading.setprofile`` for the enclave gateway's, the wire server's
and the router's threads (installed before they start: Python 3.10 and
3.11 have no ``setprofile_all_threads``), a warm statement makes no call
into ``repro/faults/``:

* in process, an RND range SELECT whose filter runs as one
  ``enclave.eval_batch`` chunk of several rows, and an INSERT whose commit
  passes ``engine.commit``, ``wal.append`` and ``wal.flush``;
* over the wire, the warm round trip of ``tests/net/test_wire_budget.py``
  (a point SELECT through a router and one wire-server shard), and an
  INSERT there too.

Each deck is run once more with every site armed with ``Never()``, which
counts hits without firing, to show that it does pass those sites. When
each hit was a ``fault_point`` call instead, the same hook over warm
bench rounds (seed 20200614) counted 27.6 such calls per ``tpcc_pt``
transaction, 49.4 per ``tpcc_rnd``, 489.8 per ``tpcc_rnd_wire`` and 307.2
per ``rnd_scan`` op (153.6 of them per-row checkpoint lambdas).
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.faults
from repro.client.driver import connect
from repro.faults import Never, RaiseFatal, get_fault_registry
from repro.net.remote import RemoteServer
from repro.net.router import Router
from repro.net.wireserver import WireServer
from repro.sqlengine.server import SqlServer
from tests.conftest import make_encrypted_table

FAULTS_DIR = str(Path(repro.faults.__file__).parent) + os.sep

RANGE = "SELECT id FROM T WHERE value > @lo AND value < @hi"
INSERT = "INSERT INTO T (id, value) VALUES (@id, @v)"
SELECT = "SELECT ID, VAL FROM T WHERE ID = @id AND W = @w"
WIRE_INSERT = "INSERT INTO T (ID, W, VAL) VALUES (@id, @w, @v)"


class FaultCalls:
    """A profile hook: while ``on``, records each Python call into
    ``repro/faults/``, on whichever thread it runs."""

    def __init__(self):
        self.on = False
        self.calls: list[str] = []

    def __call__(self, frame, event, arg):
        if self.on and event == "call" and frame.f_code.co_filename.startswith(FAULTS_DIR):
            self.calls.append(f"{Path(frame.f_code.co_filename).name}:{frame.f_code.co_name}")

    @contextmanager
    def counting(self):
        self.on = True
        try:
            yield self.calls
        finally:
            self.on = False


@pytest.fixture()
def fault_calls():
    hook = FaultCalls()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield hook
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


@contextmanager
def every_site_counted():
    """Every site armed with ``Never()``: hits counted, nothing fired."""
    registry = get_fault_registry()
    armed = {site: registry.arm(site, Never(), RaiseFatal()) for site in registry.sites()}
    try:
        yield armed
    finally:
        for arming in armed.values():
            registry.disarm(arming)


def hits(armed) -> dict[str, int]:
    return {site: arming.hits for site, arming in armed.items() if arming.hits}


def test_warm_rnd_statement_in_process_calls_nothing_in_faults(
    fault_calls, enclave, host_machine, hgs, registry, attestation_policy,
    enclave_cmk, enclave_cek,
):
    server = SqlServer(enclave=enclave, host_machine=host_machine, hgs=hgs, lock_timeout_s=0.3)
    try:
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(server, registry, attestation_policy=attestation_policy)
        make_encrypted_table(conn)
        for i in range(8):
            conn.execute(INSERT, {"id": i, "v": i * 10})
        params = {"lo": 15, "hi": 55}
        conn.execute(RANGE, params)  # warm: plan, program handle, caches

        with every_site_counted() as armed:
            conn.execute(RANGE, params)
            conn.execute(INSERT, {"id": 100, "v": 1000})
        passed = hits(armed)
        assert passed["enclave.eval_batch"] >= 2
        assert {"engine.commit", "wal.append", "wal.flush"} <= set(passed)

        with fault_calls.counting() as calls:
            result = conn.execute(RANGE, params)
            conn.execute(INSERT, {"id": 101, "v": 1010})
        assert sorted(row[0] for row in result.rows) == [2, 3, 4, 5]
        assert result.stats.enclave_eval_batches == 1
        assert calls == []
    finally:
        server.gateway.shutdown()


def test_warm_wire_round_trip_calls_nothing_in_faults(fault_calls):
    shard = WireServer(SqlServer(), name="shard0").start()
    router = Router([(shard.host, shard.port)], name="R").start()
    client = RemoteServer(router.host, router.port, affinity=1)
    session = client.connect()
    try:
        session.execute("CREATE TABLE T (ID INT PRIMARY KEY, W INT, VAL VARCHAR(16))", {})
        session.execute(WIRE_INSERT, {"id": 1, "w": 1, "v": "a"})
        session.execute(SELECT, {"id": 1, "w": 1})  # warm: plan cache and memos

        with every_site_counted() as armed:
            session.execute(SELECT, {"id": 1, "w": 1})
            session.execute(WIRE_INSERT, {"id": 2, "w": 1, "v": "b"})
        passed = hits(armed)
        # client → router → shard → router → client: four frames a trip.
        assert passed["net.send_frame"] == 8 and "net.recv_frame" in passed
        assert {"engine.commit", "wal.append", "wal.flush"} <= set(passed)

        with fault_calls.counting() as calls:
            rows = session.execute(SELECT, {"id": 1, "w": 1}).rows
            session.execute(WIRE_INSERT, {"id": 3, "w": 1, "v": "c"})
        assert rows == [(1, "a")]
        assert calls == []
    finally:
        session.close()
        client.close()
        router.stop()
        shard.stop()
