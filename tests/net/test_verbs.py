"""The verb table: one declaration per server verb, read by every side.

:data:`repro.net.messages.VERBS` names, for each request one server
method answers, that method, its reply type and the reply field carrying
the result. ``RemoteServer`` builds its stub methods from it and the wire
server answers from it, so these checks hold the table to the three
things it stands for: ``SqlServer``'s signatures, the stub's class body
and the reply catalogue.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, fields

import pytest

from repro.errors import WireError
from repro.net import messages as msg
from repro.net.remote import RemoteServer
from repro.net.router import Router
from repro.net.wireserver import WireServer
from repro.sqlengine.server import SqlServer

ROWS = list(msg.VERBS.items())
ROW_IDS = [request_type.__name__ for request_type, _row in ROWS]

#: Request fields past the method's parameters. A row that has some is
#: answered by hand in ``WireServer._dispatch``, never by ``answer``.
REQUEST_ONLY = {msg.AdminRotateStart: ("resume_id",)}


def _field_default(f):
    return inspect.Parameter.empty if f.default is MISSING else f.default


@pytest.mark.parametrize("request_type,row", ROWS, ids=ROW_IDS)
def test_request_fields_are_the_server_methods_parameters(request_type, row):
    method, _reply_type, _reply_field = row
    params = list(inspect.signature(getattr(SqlServer, method)).parameters.values())[1:]
    request_fields = fields(request_type)
    extra = tuple(f.name for f in request_fields[len(params):])
    assert extra == REQUEST_ONLY.get(request_type, ())
    assert [(f.name, _field_default(f)) for f in request_fields[: len(params)]] == [
        (p.name, p.default) for p in params
    ]


@pytest.mark.parametrize("request_type,row", ROWS, ids=ROW_IDS)
def test_stub_method_is_a_named_plain_function(request_type, row):
    method = row[0]
    stub = inspect.getattr_static(RemoteServer, method)
    assert inspect.isfunction(stub)
    assert stub.__name__ == method


@pytest.mark.parametrize("request_type,row", ROWS, ids=ROW_IDS)
def test_reply_fields_exist_on_the_reply(request_type, row):
    _method, reply_type, reply_field = row
    names = {f.name for f in fields(reply_type)}
    if reply_field is None:
        assert reply_type is msg.Ok
    else:
        wanted = reply_field if isinstance(reply_field, tuple) else (reply_field,)
        assert set(wanted) <= names


class _Recorder:
    """A server whose every method records its call and returns ``result``."""

    def __init__(self, result):
        self.result = result
        self.calls: list = []

    def __getattr__(self, name):
        def method(*args):
            self.calls.append((name, args))
            return self.result

        return method


def _result_for(reply_field):
    if isinstance(reply_field, tuple):
        return (False, 7)
    return None if reply_field is None else "result"


@pytest.mark.parametrize("request_type,row", ROWS, ids=ROW_IDS)
def test_stub_call_round_trips_through_answer(request_type, row):
    """stub(args) → request → ``answer`` → reply → the method's result."""
    method, _reply_type, reply_field = row
    server = _Recorder(_result_for(reply_field))
    stub = object.__new__(RemoteServer)
    stub._request = lambda request: msg.answer(server, request)
    args = tuple(f"arg{i}" for i in range(len(fields(request_type))))
    assert getattr(stub, method)(*args) == server.result
    assert server.calls == [(method, args)]


@pytest.mark.parametrize(
    "message", [msg.Ping(), msg.SessionClose(session_id=1), msg.Execute(1, "")],
    ids=lambda m: type(m).__name__,
)
def test_a_request_without_a_row_is_a_wire_error(message):
    with pytest.raises(WireError):
        msg.answer(_Recorder(None), message)


def test_a_shard_verb_sent_to_the_router_ends_the_connection():
    """``TxnCommitPrepared`` is the router's to send, not to answer: the
    router drops the connection instead of replying, and the stub's next
    call runs on a fresh one."""
    with WireServer(SqlServer(), name="shard0") as shard:
        with Router([(shard.host, shard.port)], name="R") as router:
            client = RemoteServer(router.host, router.port)
            try:
                with pytest.raises(ConnectionResetError):
                    client.commit_prepared("R:1")
                assert client.ping()
            finally:
                client.close()
