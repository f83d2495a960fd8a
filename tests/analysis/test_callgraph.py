"""Call graph construction and the conservative resolution ladder."""

from __future__ import annotations

import pytest

from repro.analysis.callgraph import get_callgraph
from repro.analysis.config import default_config
from repro.analysis.model import ProjectModel


@pytest.fixture(scope="module")
def graph():
    config = default_config()
    model = ProjectModel.build(config.root, config.packages)
    return get_callgraph(model, config)


def test_every_project_function_is_registered(graph):
    assert "repro.sqlengine.engine:StorageEngine.prepare" in graph.functions
    assert "repro.net.messages:error_reply_for" in graph.functions
    entry = graph.functions["repro.net.messages:error_reply_for"]
    assert entry.params[0] == "exc"


def test_self_method_edges_resolve(graph):
    # FrameServer._serve_connection calls self._handshake
    caller = graph.functions["repro.net.frameserver:FrameServer._serve_connection"]
    assert "repro.net.frameserver:FrameServer._handshake" in caller.callees


def test_import_binding_edges_resolve(graph):
    # remote.py does ``from repro.net.transport import connect_channel``
    caller = graph.functions["repro.net.remote:RemoteServer._open_channel"]
    assert "repro.net.transport:connect_channel" in caller.callees


def test_receiver_alias_edges_resolve(graph):
    # ``self.wal.append`` resolves through the lock-order alias table
    caller = graph.functions["repro.sqlengine.engine:StorageEngine.prepare"]
    assert "repro.sqlengine.storage.wal:WriteAheadLog.append" in caller.callees


def test_callers_are_the_reverse_of_callees(graph):
    callee = graph.functions["repro.net.frameserver:FrameServer._handshake"]
    assert "repro.net.frameserver:FrameServer._serve_connection" in callee.callers


def test_builtin_colliding_names_do_not_fallback(graph):
    # Unqualified ``get``/``append``/``items`` must never resolve through
    # the unique-name fallback: they collide with container methods.
    for entry in graph.functions.values():
        for callee_fid in entry.callees:
            assert ":" in callee_fid


def test_class_constructions_are_indexed(graph):
    assert "repro.net.messages:ErrorReply" in graph.classes
