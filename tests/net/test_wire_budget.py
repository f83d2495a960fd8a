"""What a warm wire round trip costs, pinned as counts.

One in-process :class:`Router` over one :class:`WireServer`, the
deployment ``tpcc_rnd_wire`` measures with its shard count cut to one.
After a warm-up round trip, a statement or a describe must:

* call ``try_decode`` exactly once per frame received — a channel with
  an empty buffer blocks on its socket instead of polling the decoder;
* encode two values: the client's ``Execute`` and the shard's
  ``ExecuteReply`` — the router forwards the client's own frame;
* code its plan's shared ``DescribeResult`` neither way: the shard's
  describe reply is encoded once per result, and the client's decoded once
  per payload;
* decode its ``DescribeReply`` without constructing a ``SqlType`` (the
  parameter descriptions are memoized immutable metadata);
* encode its ``ExecuteReply`` on the shard without encoding any field of
  its ``ResultColumn``s (the plan cache hands the same objects back).

That the same round trip makes no call into ``repro.faults`` while no
fault is armed is ``tests/faults/test_disarmed_cost.py``'s to show.
"""

from __future__ import annotations

import pytest

from repro.net import encoding, messages, transport
from repro.net.opcodes import WIRE_IDS
from repro.net.remote import RemoteServer
from repro.net.router import Router
from repro.net.wireserver import WireServer
from repro.sqlengine.server import DescribeResult, SqlServer
from repro.sqlengine.types import ColumnType, SqlType

SELECT = "SELECT ID, VAL FROM T WHERE ID = @id AND W = @w"


@pytest.fixture()
def session():
    shard = WireServer(SqlServer(), name="shard0").start()
    router = Router([(shard.host, shard.port)], name="R").start()
    client = RemoteServer(router.host, router.port, affinity=1)
    session = client.connect()
    session.execute("CREATE TABLE T (ID INT PRIMARY KEY, W INT, VAL VARCHAR(16))", {})
    session.execute("INSERT INTO T (ID, W, VAL) VALUES (@id, @w, @v)", {"id": 1, "w": 1, "v": "a"})
    session.execute(SELECT, {"id": 1, "w": 1})  # warm: plan cache and memos
    yield client, session
    session.close()
    client.close()
    router.stop()
    shard.stop()


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` (``owner[name]`` in a dict) with a
    pass-through that records its calls; returns the record."""
    calls = []
    table = isinstance(owner, dict)
    original = owner[name] if table else getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    (monkeypatch.setitem if table else monkeypatch.setattr)(owner, name, counted)
    return calls


def test_warm_execute_decodes_each_frame_once(session, monkeypatch):
    _client, session = session
    decodes = counting(monkeypatch, transport, "try_decode")
    sends = counting(monkeypatch, transport.FrameChannel, "send_frame")
    for _ in range(3):
        assert session.execute(SELECT, {"id": 1, "w": 1}).rows == [(1, "a")]
    # client → router → shard → router → client: four frames a trip.
    assert len(sends) == 12
    assert len(decodes) == len(sends)


def test_warm_describe_reply_decode_builds_no_sql_type(session, monkeypatch):
    client, _session = session
    client.describe_parameter_encryption(SELECT)
    built = counting(monkeypatch, SqlType, "__post_init__")
    described = client.describe_parameter_encryption(SELECT)
    assert built == []
    assert sorted((p.name, str(p.column_type)) for p in described.parameters) == [
        ("id", "INT"), ("w", "INT"),
    ]


def test_warm_execute_reply_encodes_no_result_column_field(session, monkeypatch):
    _client, session = session
    field_encodes = [
        counting(monkeypatch, encoding._ENCODERS, cls) for cls in (ColumnType, SqlType)
    ]
    assert session.execute(SELECT, {"id": 1, "w": 1}).columns[1].name == "VAL"
    assert field_encodes == [[], []]


def test_warm_execute_encodes_two_values(session, monkeypatch):
    _client, session = session
    encodes = counting(monkeypatch, messages, "encode_value")
    assert session.execute(SELECT, {"id": 1, "w": 1}).rows == [(1, "a")]
    assert [type(args[0]).__name__ for args in encodes] == ["Execute", "ExecuteReply"]


def test_warm_describe_codes_its_result_neither_way(session, monkeypatch):
    client, _session = session
    first = client.describe_parameter_encryption(SELECT)
    encodes = counting(monkeypatch, encoding._ENCODERS, DescribeResult)
    # The compiled decoders look tags up in this very list: patch it in place.
    decoders, tag = encoding._DECODERS, WIRE_IDS["DescribeResult"]
    decode, decodes = decoders[tag], []
    decoders[tag] = lambda *args: decodes.append(args) or decode(*args)
    try:
        described = client.describe_parameter_encryption(SELECT)
    finally:
        decoders[tag] = decode
    assert (encodes, decodes) == ([], [])
    assert described is first
