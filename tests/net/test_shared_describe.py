"""The shared describe result, over the wire.

In process, every describe of a planned text that carries no attestation
hands out its plan's own ``DescribeResult``. Over the wire the shard
encodes that result's reply once and the client decodes a payload it has
seen before once, so a wire client in paper mode shares one result per
plan too. These tests hold the wire to the in-process contract
(``tests/sqlengine/test_plan_cache.py``) on a one-shard deployment —
driver → :class:`RemoteServer` → :class:`Router` → :class:`WireServer`:

* nobody a shared result is handed to changes it, on either end;
* a reply whose bytes change reaches the driver as the new result — a
  DDL's describe is read per call, and a rotation moves what it names;
* a describe that attests is never answered from either memo.
"""

from __future__ import annotations

import pytest

from repro.crypto.dh import DiffieHellman
from repro.net import messages as msg
from repro.net.encoding import decode_value, encode_value
from repro.net.frames import encode_frame
from repro.net.opcodes import opcode_byte
from repro.net.remote import RemoteServer
from repro.net.router import Router
from repro.net.wireserver import WireServer
from repro.sqlengine.server import DescribeResult
from repro.tools.rotation import rotate_cek_online, rotation_query_text
from repro.workloads.tpcc import TRANSACTION_MIX, EncryptionMode, TpccConfig
from repro.workloads.tpcc.sharded import start_sharded_inprocess
from tests.conftest import ALGO, make_encrypted_table


@pytest.fixture()
def routed(rotation_stack_factory):
    """``(stack, remote)``: a rotation stack's server as the one shard behind a router."""
    stack = rotation_stack_factory()
    with WireServer(stack.server, name="shard0") as shard:
        with Router([(shard.host, shard.port)], name="R") as router:
            remote = RemoteServer(router.host, router.port, affinity=1)
            try:
                yield stack, remote
            finally:
                remote.close()
                stack.server.shutdown()


def _rebuilt(plan) -> DescribeResult:
    return DescribeResult(
        list(plan.parameters), dict(plan.parameter_ceks), list(plan.enclave_ceks)
    )


def test_every_shared_describe_is_still_what_its_bytes_say():
    """After a mixed paper-mode ``tpcc_rnd`` deck over the wire, every
    reply the client decoded once and handed out again still equals a
    fresh decode of its bytes, every frame the shard encoded once still is
    its result's encoding, and every plan's result is what its plan built.
    A driver that sorted a shared ``parameters`` list fails here."""
    config = TpccConfig(mode=EncryptionMode.RND, warehouses=1, districts_per_warehouse=2,
                        customers_per_district=12, items=20)
    system, servers, _router = start_sharded_inprocess(config, n_shards=1)
    try:
        client = system.new_client(seed=5, home_warehouse=1)
        for kind, __ in TRANSACTION_MIX:
            client.run_one(kind)
        client.run_mix(40, TRANSACTION_MIX)
        (server,) = servers
        shared = [
            result for result, __ in msg._described_frames.values()
            if any(result is plan.describe for plan in server._plan_cache.values())
        ]
        assert any(result.encrypted_parameters for result in shared)
        assert any(result.enclave_ceks for result in shared)
        for result, frame in list(msg._described_frames.values()):
            reply = encode_value(msg.DescribeReply(result))
            assert encode_frame(opcode_byte("describe_reply"), reply) == frame
        replies = list(msg._described_replies.items())
        assert any(reply.result.encrypted_parameters for __, reply in replies)
        for payload, reply in replies:
            assert reply.result.attestation is None
            assert decode_value(payload) == reply
        for text, plan in server._plan_cache.items():
            if plan.describe is not None:
                assert plan.describe == _rebuilt(plan), text
    finally:
        system.shutdown()


def test_a_mid_rotation_alter_column_describe_names_both_keys(routed):
    """A DDL's describe is read per call: a rotation's progress changes the
    reply's bytes, and the changed bytes reach the client as a new result;
    unchanged bytes come back as the result already decoded."""
    stack, remote = routed
    conn, server = stack.conn, stack.server
    make_encrypted_table(conn, "R", cek="RotOldCEK")
    for i in range(6):
        conn.execute("INSERT INTO R (id, value) VALUES (@i, @v)", {"i": i, "v": i * 10})
    to_third = (
        "ALTER TABLE R ALTER COLUMN value int ENCRYPTED WITH ("
        f"COLUMN_ENCRYPTION_KEY = RotThirdCEK, ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}')"
    )

    def named(ddl: str) -> list[str]:
        return [m.cek.name for m in remote.describe_parameter_encryption(ddl).enclave_ceks]

    online = rotation_query_text("R", "value", "RotNewCEK")
    assert named(online) == ["RotOldCEK", "RotNewCEK"]
    before = remote.describe_parameter_encryption(to_third)
    assert [m.cek.name for m in before.enclave_ceks] == ["RotOldCEK", "RotThirdCEK"]
    assert remote.describe_parameter_encryption(to_third) is before
    rotation_id = rotate_cek_online(conn, "R", "value", "RotNewCEK", batch_size=2, run=False)
    more, __ = server.rotate_step(rotation_id)
    assert more
    assert named(online) == ["RotOldCEK", "RotNewCEK"]
    assert named(to_third) == ["RotOldCEK", "RotNewCEK", "RotThirdCEK"]
    server.rotate_run(rotation_id)
    assert named(to_third) == ["RotNewCEK", "RotThirdCEK"]
    assert [m.cek.name for m in before.enclave_ceks] == ["RotOldCEK", "RotThirdCEK"]


def test_an_attested_describe_is_never_answered_from_a_memo(routed):
    stack, remote = routed
    make_encrypted_table(stack.conn, cek="RotOldCEK")
    by_value = "SELECT id FROM T WHERE value = @v"
    shared = remote.describe_parameter_encryption(by_value)
    assert shared.enclave_ceks and shared.attestation is None
    assert remote.describe_parameter_encryption(by_value) is shared

    attested = [
        remote.describe_parameter_encryption(by_value, DiffieHellman().public_key)
        for _ in range(2)
    ]

    assert all(result.attestation is not None for result in attested)
    assert attested[0] is not attested[1]
    assert attested[0].attestation != attested[1].attestation
    assert all(reply.result.attestation is None for reply in msg._described_replies.values())
    assert all(result.attestation is None for result, __ in msg._described_frames.values())
    assert remote.describe_parameter_encryption(by_value) is shared
