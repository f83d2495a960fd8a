"""One TpccSystem, two deployments: in-process and two shards in threads.

The same build → clients → audit → shutdown contract must hold whether the
system's ``server`` is the :class:`SqlServer` itself or a
:class:`RemoteServer` on a router — sharded is a shard count, not a second
system type.
"""

import threading
import time

import pytest

from repro.workloads.tpcc import EncryptionMode, TpccConfig, TpccSystem, build_system
from repro.workloads.tpcc.config import TRANSACTION_MIX
from repro.workloads.tpcc.sharded import start_sharded_inprocess

TINY = dict(warehouses=2, districts_per_warehouse=2, customers_per_district=6, items=20)
WORKER_PREFIXES = ("enclave-worker-", "wire-", "router-")


def _build(shape: str, mode: EncryptionMode) -> TpccSystem:
    config = TpccConfig(mode=mode, **TINY)
    if shape == "in-process":
        return build_system(config)
    system, _servers, _router = start_sharded_inprocess(config, n_shards=2)
    return system


@pytest.fixture(params=["in-process", "2-shards"])
def shape(request):
    return request.param


@pytest.mark.parametrize(
    "mode", [EncryptionMode.PLAINTEXT, EncryptionMode.RND], ids=["PT", "RND"]
)
def test_build_clients_audit_shutdown(shape, mode):
    before = set(threading.enumerate())
    system = _build(shape, mode)
    try:
        assert isinstance(system, TpccSystem)
        assert system.n_shards == (0 if shape == "in-process" else 2)
        clients = [system.new_client(seed=s, home_warehouse=w) for s, w in ((3, 1), (8, 2))]
        for client in clients:
            client.run_mix(6, TRANSACTION_MIX)
        assert sum(c.counts.total for c in clients) >= 6
        assert system.audit() == []
    finally:
        system.shutdown()

    # Lifecycle: nothing the system started outlives shutdown().
    def leftovers():
        return [
            t.name
            for t in set(threading.enumerate()) - before
            if t.is_alive() and t.name.startswith(WORKER_PREFIXES)
        ]

    deadline = time.monotonic() + 5.0
    while leftovers() and time.monotonic() < deadline:
        time.sleep(0.02)    # connection threads exit on their own wakeup
    assert leftovers() == []


def test_in_process_plaintext_system_starts_no_thread(threads_started):
    """No enclave, no wire: every statement of build → run_mix → shutdown
    runs on the thread that called it, so the engine owns no thread."""
    system = build_system(TpccConfig(mode=EncryptionMode.PLAINTEXT, **TINY))
    try:
        system.new_client(seed=3).run_mix(6, TRANSACTION_MIX)
    finally:
        system.shutdown()
    assert threads_started == []


def test_every_client_runs_in_paper_mode(shape):
    """A describe round trip per execute, in both shapes: the sharded
    client must not silently get the driver's describe cache."""
    system = _build(shape, EncryptionMode.RND)
    try:
        client = system.new_client(seed=5)
        client.run_mix(4, TRANSACTION_MIX)
        stats = client.connection.stats
        assert stats.executes > 0
        assert stats.describe_roundtrips == stats.executes
    finally:
        system.shutdown()
