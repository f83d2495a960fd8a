"""Router behavior: partitioning, broadcast, and distributed commit.

Two in-process wire shards behind one :class:`Router`. Covers the
routing matrix (warehouse-keyed DML, DDL broadcast, replicated keyless
writes, affinity reads), lazy transaction enlistment, single-shard
commit fast path, cross-shard 2PC, and the coordinator's failure
behaviors: presumed abort when the decision never lands (an armed
"router.commit_decision" fault) and decision-log replay when it did.

The control plane is *relayed*: the router hands the request frame of
every verb its ``messages.VERBS`` row marks ``relayed`` to the affinity
shard and the reply frame back without decoding either. The last section pins what that must not change — typed
errors, what a wire observer sees, fault behaviour on the relayed leg,
and the pinning of one client's enclave session to one shard.
"""

from __future__ import annotations

import builtins
import threading

import pytest

from repro.attestation.hgs import HostGuardianService
from repro.client.driver import connect
from repro.enclave.runtime import Enclave
from repro.errors import RemoteError, TransactionError, TransientFault
from repro.faults.actions import DropMessageDirective, RaiseTransient
from repro.faults.schedules import Always, OnNth
from repro.net.opcodes import opcode_byte
from repro.net.remote import RemoteServer
from repro.net.router import CommitDecisionLog, Router, shard_of
from repro.net.wireserver import WireServer
from repro.sqlengine.server import SqlServer
from tests.conftest import make_encrypted_table

DDL = "CREATE TABLE T (ID INT PRIMARY KEY, W INT, VAL VARCHAR(32))"
INSERT = "INSERT INTO T (ID, W, VAL) VALUES (@id, @w, @v)"
UPDATE = "UPDATE T SET VAL = @v WHERE ID = @id AND W = @w"
SELECT_VAL = "SELECT VAL FROM T WHERE ID = @id AND W = @w"


@pytest.fixture()
def cluster(tmp_path):
    shards = [SqlServer(lock_timeout_s=0.5) for _ in range(2)]
    wires = [WireServer(s, name=f"shard{i}", shard_count=2).start() for i, s in enumerate(shards)]
    router = Router(
        [(w.host, w.port) for w in wires],
        name="R",
        decision_log=CommitDecisionLog(str(tmp_path / "decisions.log")),
    ).start()
    client = RemoteServer(router.host, router.port, affinity=1)
    yield shards, wires, router, client
    client.close()
    router.stop()
    for wire in wires:
        wire.stop()


def test_shard_of_partitioning():
    assert [shard_of(w, 2) for w in (1, 2, 3, 4)] == [0, 1, 0, 1]
    assert [shard_of(w, 4) for w in (1, 2, 3, 4, 5)] == [0, 1, 2, 3, 0]


def test_ddl_broadcast_and_keyed_routing(cluster):
    shards, _wires, _router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    rows0 = shards[0].connect().execute("SELECT ID FROM T", {}).rows
    rows1 = shards[1].connect().execute("SELECT ID FROM T", {}).rows
    assert [r[0] for r in rows0] == [1]
    assert [r[0] for r in rows1] == [2]


def test_keyless_write_broadcasts_keyless_read_uses_affinity(cluster):
    shards, _wires, _router, client = cluster
    session = client.connect()
    session.execute("CREATE TABLE ITEM (I_ID INT PRIMARY KEY, N VARCHAR(10))", {})
    session.execute("INSERT INTO ITEM (I_ID, N) VALUES (@id, @n)", {"id": 1, "n": "x"})
    for shard in shards:
        rows = shard.connect().execute("SELECT I_ID FROM ITEM", {}).rows
        assert [r[0] for r in rows] == [1]
    # Keyless read answered by exactly one shard (the affinity shard).
    assert len(session.execute("SELECT I_ID FROM ITEM", {}).rows) == 1


def test_single_shard_commit_skips_2pc(cluster):
    shards, _wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute("BEGIN TRANSACTION", {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute("COMMIT", {})
    assert router.decisions.gtids() == frozenset()      # no 2PC needed
    assert shards[0].indoubt_gtids() == []


def test_cross_shard_commit_runs_2pc(cluster):
    shards, _wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute("BEGIN TRANSACTION", {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    assert session.in_transaction
    session.execute("COMMIT", {})
    assert not session.in_transaction
    assert len(router.decisions.gtids()) == 1
    for shard, key, w in ((shards[0], 1, 1), (shards[1], 2, 2)):
        rows = shard.connect().execute(SELECT_VAL, {"id": key, "w": w}).rows
        assert len(rows) == 1
        assert shard.indoubt_gtids() == []


def test_cross_shard_rollback_reverts_both_branches(cluster):
    shards, _wires, _router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute("BEGIN TRANSACTION", {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    session.execute("ROLLBACK", {})
    for shard in shards:
        assert shard.connect().execute("SELECT ID FROM T", {}).rows == []


def test_transaction_verbs_require_open_transaction(cluster):
    _shards, _wires, _router, client = cluster
    session = client.connect()
    with pytest.raises(TransactionError):
        session.execute("COMMIT", {})
    with pytest.raises(TransactionError):
        session.execute("ROLLBACK", {})


def test_coordinator_fault_before_decision_presumed_abort(cluster, clean_fault_registry):
    """Fault at "router.commit_decision": both branches prepared, no
    decision recorded — the commit must fail and abort everywhere."""
    shards, _wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    clean_fault_registry.arm(
        "router.commit_decision", OnNth(1), RaiseTransient("coordinator died")
    )
    session.execute("BEGIN TRANSACTION", {})
    session.execute(UPDATE, {"id": 1, "w": 1, "v": "x"})
    session.execute(UPDATE, {"id": 2, "w": 2, "v": "y"})
    with pytest.raises(TransientFault):
        session.execute("COMMIT", {})
    assert not session.in_transaction
    assert router.decisions.gtids() == frozenset()
    for shard, key, w, original in ((shards[0], 1, 1, "a"), (shards[1], 2, 2, "b")):
        assert shard.indoubt_gtids() == []
        rows = shard.connect().execute(SELECT_VAL, {"id": key, "w": w}).rows
        assert rows[0][0] == original


def test_decision_log_survives_coordinator_restart(cluster, tmp_path):
    """In-doubt branches resolve by decision-log membership after the
    coordinator process is rebuilt from its durable log."""
    shards, wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})

    # Drive the branches by hand so the "crash" lands between the
    # decision record and the commit fan-out.
    d0 = RemoteServer(wires[0].host, wires[0].port)
    d1 = RemoteServer(wires[1].host, wires[1].port)
    b0, b1 = d0.connect(), d1.connect()
    b0.execute("BEGIN TRANSACTION", {})
    b1.execute("BEGIN TRANSACTION", {})
    b0.execute(UPDATE, {"id": 1, "w": 1, "v": "C1"})
    b1.execute(UPDATE, {"id": 2, "w": 2, "v": "C2"})
    committed_gtid, lost_gtid = "R:100", "R:101"
    b0.prepare_transaction(committed_gtid)
    b1.prepare_transaction(committed_gtid)
    router.decisions.record(committed_gtid)

    # A second transaction prepares on shard0 but never gets a decision.
    b0b = d0.connect()
    b0b.execute("BEGIN TRANSACTION", {})
    b0b.execute(INSERT, {"id": 3, "w": 1, "v": "z"})
    b0b.prepare_transaction(lost_gtid)

    # Both shards crash; recovery reinstates the in-doubt branches.
    for shard in shards:
        shard.crash()
    reports = [shard.recover() for shard in shards]
    assert reports[0].indoubt == [committed_gtid, lost_gtid]
    assert reports[1].indoubt == [committed_gtid]

    # A fresh coordinator (same log file) resolves by membership.
    restarted = Router(
        [(w.host, w.port) for w in wires],
        name="R2",
        decision_log=CommitDecisionLog(router.decisions.path),
    )
    try:
        outcomes = restarted.resolve_indoubt()
    finally:
        restarted.stop()
    assert outcomes == {committed_gtid: "commit", lost_gtid: "abort"}
    assert shards[0].connect().execute(SELECT_VAL, {"id": 1, "w": 1}).rows[0][0] == "C1"
    assert shards[1].connect().execute(SELECT_VAL, {"id": 2, "w": 2}).rows[0][0] == "C2"
    assert shards[0].connect().execute("SELECT ID FROM T WHERE W = @w", {"w": 1}).rows == [(1,)]
    d0.close()
    d1.close()


def test_audit_aggregates_all_shards(cluster):
    _shards, _wires, router, _client = cluster
    assert router.audit() == []     # empty DB: trivially consistent


# ------------------------------------------------- control-plane relay (raw)

ENCLAVE_QUERY = "SELECT id FROM T WHERE value > @v"


@pytest.fixture()
def relay_cluster(enclave_binary, host_machine, enclave_cmk, enclave_cek):
    """Two enclave-enabled shards behind a router, every endpoint tapped;
    the client's home warehouse (2) makes shard 1 its affinity shard."""
    taps: dict[str, list] = {"router": [], "shard0": [], "shard1": []}
    hooks: list = []  # called with (direction, opcode) on the router's serving thread

    def tap_into(name):
        def tap(direction, opcode, frame):
            taps[name].append((direction, opcode, frame))
            if name == "router":
                for hook in list(hooks):
                    hook(direction, opcode)
        return tap

    shards = []
    for _ in range(2):
        hgs = HostGuardianService()
        hgs.register_host(host_machine.boot_and_measure())
        shard = SqlServer(
            enclave=Enclave(enclave_binary), host_machine=host_machine, hgs=hgs, lock_timeout_s=0.5
        )
        shard.catalog.create_cmk(enclave_cmk)
        shard.catalog.create_cek(enclave_cek)
        shards.append(shard)
    wires = [
        WireServer(shard, name=f"shard{i}", shard_count=2, tap=tap_into(f"shard{i}")).start()
        for i, shard in enumerate(shards)
    ]
    router = Router([(w.host, w.port) for w in wires], name="R", tap=tap_into("router")).start()
    client = RemoteServer(router.host, router.port, affinity=2)
    yield shards, client, taps, hooks, wires
    client.close()
    router.stop()
    for wire, shard in zip(wires, shards):
        wire.stop()
        shard.shutdown()


def test_relayed_describe_error_is_the_in_process_error(relay_cluster):
    shards, client, _taps, _hooks, _wires = relay_cluster
    bad = "SELECT id FROM NO_SUCH_TABLE WHERE value > @v"
    with pytest.raises(Exception) as in_process:
        shards[1].describe_parameter_encryption(bad)
    with pytest.raises(type(in_process.value)) as relayed:
        client.describe_parameter_encryption(bad)
    assert type(relayed.value) is type(in_process.value) is not RemoteError
    assert str(relayed.value) == str(in_process.value)
    assert client.ping()  # a typed error leaves the connection open


def test_relay_pins_the_enclave_session_and_is_byte_transparent(
    relay_cluster, registry, attestation_policy
):
    """Attest, ForwardPackage and the enclave-predicate Execute all land on
    the affinity shard, and the frames the router moved for the control
    plane are exactly the frames the shard's own channel carried."""
    shards, client, taps, _hooks, _wires = relay_cluster
    conn = connect(client, registry, attestation_policy=attestation_policy)
    make_encrypted_table(conn)  # DDL: broadcast
    for i in range(4):  # keyless writes: broadcast, ciphertext only
        conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10})
    for frames in taps.values():
        frames.clear()
    rows = conn.execute(ENCLAVE_QUERY, {"v": 15}).rows  # keyless read: affinity shard
    assert sorted(row[0] for row in rows) == [2, 3]
    assert shards[1].enclave.installed_ceks() == frozenset({"TestCEK"})
    assert shards[0].enclave.installed_ceks() == frozenset()

    relayed = {opcode_byte(op) for op in ("describe", "describe_reply", "forward_package")}
    front = [entry for entry in taps["router"] if entry[1] in relayed]
    assert {opcode for _d, opcode, _f in front} == relayed
    assert front == [entry for entry in taps["shard1"] if entry[1] in relayed]
    assert not [entry for entry in taps["shard0"] if entry[1] in relayed]
    conn.close()


class DropOnceOnThisThread:
    """A fault action bound to the thread that arms it: its next frame drops."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.fired = False

    def trigger(self, site, ctx):
        if self.fired or threading.get_ident() != self.thread:
            return None
        self.fired = True
        return DropMessageDirective()


@pytest.mark.parametrize("site", ["net.send_frame", "net.recv_frame"])
def test_dropped_frame_on_the_relayed_leg(relay_cluster, clean_fault_registry, site):
    """The router's serving thread arms the drop the moment it has the
    client's describe in hand, so the next frame it sends (or awaits) is
    the relayed leg's. The stub heals its shard channel and the client
    gets a typed error on a connection that stays open — and the next
    describe goes through on the healed channel."""
    shards, client, _taps, hooks, _wires = relay_cluster
    shards[1].connect().execute("CREATE TABLE P (ID INT PRIMARY KEY, V INT)", {})
    query = "SELECT ID FROM P WHERE V = @v"
    assert client.describe_parameter_encryption(query).parameters

    def arm_once(direction, opcode):
        if (direction, opcode) == ("recv", opcode_byte("describe")):
            hooks.remove(arm_once)
            clean_fault_registry.arm(site, Always(), DropOnceOnThisThread())

    hooks.append(arm_once)
    control = client._control
    with pytest.raises(RemoteError) as excinfo:
        client.describe_parameter_encryption(query)
    assert excinfo.value.error_type == "ConnectionResetError"
    assert client.describe_parameter_encryption(query).parameters
    assert client._control is control  # the client's own connection never dropped


def test_shard_down_mid_relay_is_a_typed_error_on_an_open_connection(relay_cluster):
    _shards, client, _taps, _hooks, wires = relay_cluster
    assert client.fetch_cek_metadata("TestCEK").cek.name == "TestCEK"
    wires[1].stop()
    control = client._control
    with pytest.raises(RemoteError) as excinfo:
        client.fetch_cek_metadata("TestCEK")
    assert issubclass(getattr(builtins, excinfo.value.error_type, object), ConnectionError)
    assert client.ping()  # answered by the router, on the same connection
    assert client._control is control
