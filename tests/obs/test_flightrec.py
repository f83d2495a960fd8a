"""Flight recorder unit tests: the closed kind registry, the bounded
ring with drop accounting, the enabled/registry kill switches, trace
context attachment, the span sink, and the JSONL / Chrome exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs.flightrec import (
    DEFAULT_CAPACITY,
    EVENT_KINDS,
    EVENT_NAME_RE,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    Event,
    FlightRecorder,
    FlightRecorderError,
    get_recorder,
)
from repro.obs.flightrec.export import (
    SchemaError,
    read_chrome_trace,
    read_jsonl,
    to_chrome_trace,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flightrec.report import build_report, format_report
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import STATEMENT, TraceContext, Tracer


def make_recorder(capacity: int = 16) -> tuple[FlightRecorder, Tracer, MetricsRegistry]:
    registry = MetricsRegistry()
    tracer = Tracer(registry=registry)
    return FlightRecorder(capacity=capacity, registry=registry, tracer=tracer), tracer, registry


# -- the closed kind registry ------------------------------------------------

def test_every_declared_kind_matches_the_naming_convention():
    for kind in EVENT_KINDS:
        assert EVENT_NAME_RE.match(kind), kind


def test_undeclared_kind_raises():
    recorder, __, __ = make_recorder()
    with pytest.raises(FlightRecorderError, match="not declared"):
        recorder.record("stmt.bgein")  # typo'd kind must fail loudly


def test_declared_kinds_record():
    recorder, __, __ = make_recorder()
    recorder.record("wal.flush", flushed_lsn=7)
    (event,) = recorder.events()
    assert event.kind == "wal.flush"
    assert event.attrs == {"flushed_lsn": 7}
    assert event.seq == 1
    assert event.trace_id is None


# -- bounding and drop accounting -------------------------------------------

def test_ring_bounds_memory_and_counts_evictions():
    recorder, __, registry = make_recorder(capacity=4)
    for i in range(10):
        recorder.record("enclave.ecall", name=f"call{i}")
    events = recorder.events()
    assert len(events) == 4
    assert recorder.dropped == 6
    # The oldest events were evicted; the newest four survive in order.
    assert [e.attrs["name"] for e in events] == ["call6", "call7", "call8", "call9"]
    assert [e.seq for e in events] == [7, 8, 9, 10]
    assert registry.counter("flightrec.events_recorded").value == 10
    assert registry.counter("flightrec.events_dropped").value == 6


def test_capacity_must_be_positive():
    with pytest.raises(FlightRecorderError):
        FlightRecorder(capacity=0, registry=MetricsRegistry())


def test_clear_resets_ring_and_drop_count():
    recorder, __, __ = make_recorder(capacity=2)
    for __ in range(5):
        recorder.record("wal.flush", flushed_lsn=1)
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.dropped == 0
    assert recorder.events() == []


# -- kill switches -----------------------------------------------------------

def test_recorder_disabled_records_nothing():
    recorder, __, __ = make_recorder()
    recorder.enabled = False
    recorder.record("wal.flush", flushed_lsn=1)
    assert not recorder.recording
    assert recorder.events() == []


def test_registry_kill_switch_disables_recording():
    recorder, __, registry = make_recorder()
    registry.enabled = False
    recorder.record("wal.flush", flushed_lsn=1)
    assert not recorder.recording
    assert recorder.events() == []
    registry.enabled = True
    recorder.record("wal.flush", flushed_lsn=1)
    assert len(recorder.events()) == 1


def test_disabled_recorder_skips_kind_validation():
    """The kill switch must short-circuit *before* any per-call work —
    that is what makes the disabled path near-free."""
    recorder, __, __ = make_recorder()
    recorder.enabled = False
    recorder.record("not.a.registered.kind")  # no raise: early-out wins


# -- trace context attachment ------------------------------------------------

def test_events_carry_the_active_trace_context():
    recorder, tracer, __ = make_recorder()
    context = TraceContext(trace_id=9, statement_id=9, session_id=3)
    with tracer.trace(context):
        recorder.record("enclave.ecall", name="tm_eval")
    recorder.record("enclave.ecall", name="outside")
    inside, outside = recorder.events()
    assert inside.statement_id == 9
    assert inside.session_id == 3
    assert inside.trace_id == 9
    assert outside.statement_id is None


def test_span_sink_turns_closing_spans_into_events():
    recorder, tracer, __ = make_recorder()
    recorder.install()
    with tracer.span("exec.statement", kind=STATEMENT):
        pass
    recorder.uninstall()
    with tracer.span("after.uninstall"):
        pass
    (event,) = recorder.events()
    assert event.kind == "span.end"
    assert event.attrs["name"] == "exec.statement"
    assert event.attrs["span_kind"] == STATEMENT
    assert event.attrs["duration_s"] >= 0.0


def test_global_recorder_is_installed_and_bounded():
    recorder = get_recorder()
    assert recorder.capacity == DEFAULT_CAPACITY
    assert recorder is get_recorder()


# -- Event serialization -----------------------------------------------------

def test_event_dict_round_trip_preserves_identity():
    event = Event(seq=4, ts_s=1.25, kind="lock.wait", thread="worker-1",
                  trace_id=2, statement_id=2, session_id=1,
                  attrs={"resource": "T/row/3", "duration_s": 0.5})
    assert Event.from_dict(event.as_dict()) == event


def test_event_dict_omits_absent_trace_fields():
    event = Event(seq=1, ts_s=0.0, kind="wal.flush", thread="MainThread")
    payload = event.as_dict()
    assert "trace_id" not in payload
    assert "attrs" not in payload


# -- JSONL export ------------------------------------------------------------

def test_jsonl_round_trip(tmp_path):
    recorder, tracer, __ = make_recorder()
    with tracer.trace(TraceContext(trace_id=1, statement_id=1, session_id=1)):
        recorder.record("wal.flush", flushed_lsn=3)
        recorder.record("stmt.end", elapsed_s=0.01, rows=1, ok=True, query="SELECT 1")
    path = tmp_path / "rec.jsonl"
    assert write_jsonl(recorder, path) == 2
    header, events = read_jsonl(path)
    assert header["schema"] == SCHEMA_NAME
    assert header["version"] == SCHEMA_VERSION
    assert header["dropped"] == 0
    assert events == recorder.events()
    assert validate_jsonl(path) == 2


def test_jsonl_validation_rejects_undeclared_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
              "events": 1, "dropped": 0}
    bogus = {"seq": 1, "ts_s": 0.0, "kind": "made.up_kind", "thread": "t"}
    path.write_text(json.dumps(header) + "\n" + json.dumps(bogus) + "\n")
    with pytest.raises(SchemaError, match="undeclared event kind"):
        validate_jsonl(path)


def test_jsonl_validation_rejects_a_statement_without_its_elapsed_time(tmp_path):
    """The exporters draw a statement from its one event, back from its
    stamp by ``elapsed_s``: a ``stmt.end`` without one is malformed."""
    path = tmp_path / "bad.jsonl"
    header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
              "events": 1, "dropped": 0}
    end = {"seq": 1, "ts_s": 0.0, "kind": "stmt.end", "thread": "t",
           "attrs": {"ok": True, "rows": 0}}
    path.write_text(json.dumps(header) + "\n" + json.dumps(end) + "\n")
    with pytest.raises(SchemaError, match="elapsed_s"):
        validate_jsonl(path)


def test_jsonl_validation_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION + 1,
              "events": 0, "dropped": 0}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(SchemaError, match="schema version"):
        read_jsonl(path)


def test_jsonl_validation_rejects_event_count_mismatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
              "events": 5, "dropped": 0}
    event = {"seq": 1, "ts_s": 0.0, "kind": "wal.flush", "thread": "t"}
    path.write_text(json.dumps(header) + "\n" + json.dumps(event) + "\n")
    with pytest.raises(SchemaError, match="declares 5 events"):
        read_jsonl(path)


# -- Chrome trace export -----------------------------------------------------

def test_chrome_trace_structure_and_round_trip(tmp_path):
    recorder, tracer, __ = make_recorder()
    with tracer.trace(TraceContext(trace_id=7, statement_id=7, session_id=2)):
        recorder.record("wal.flush", flushed_lsn=3)
        recorder.record("span.end", name="exec.statement",
                        span_kind=STATEMENT, duration_s=0.002)
        recorder.record("stmt.end", elapsed_s=0.005, ok=True, rows=1, query="SELECT 1")
    payload = to_chrome_trace(recorder)
    phases = [entry["ph"] for entry in payload["traceEvents"]]
    assert "M" in phases          # process/thread metadata
    assert "i" in phases          # instant: the WAL flush
    slices = {e["cat"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
    assert set(slices) == {"span.end", "stmt.end"}
    assert slices["span.end"]["args"]["statement_id"] == 7
    assert slices["span.end"]["dur"] == pytest.approx(2000.0)  # microseconds
    # The statement is one slice, drawn back from its one event.
    statement = slices["stmt.end"]
    end_us = recorder.events()[-1].ts_s * 1e6
    assert statement["dur"] == pytest.approx(5000.0)
    assert statement["ts"] + statement["dur"] == pytest.approx(end_us)
    assert statement["args"]["statement_id"] == 7
    path = tmp_path / "trace.json"
    count = write_chrome_trace(recorder, path)
    assert count == len(payload["traceEvents"])
    assert len(read_chrome_trace(path)) == count


# -- the report builder ------------------------------------------------------

def _synthetic_events() -> list[Event]:
    return [
        Event(seq=1, ts_s=0.05, kind="wal.flush", thread="w1",
              trace_id=1, statement_id=1, session_id=1,
              attrs={"flushed_lsn": 9}),
        Event(seq=2, ts_s=0.1, kind="leak.rnd_comparison", thread="w1",
              trace_id=1, statement_id=1, session_id=1,
              attrs={"column": "T.C_LAST", "count": 4}),
        Event(seq=3, ts_s=0.2, kind="latch.wait", thread="w1",
              trace_id=1, statement_id=1, session_id=1,
              attrs={"latch": "repro.sqlengine.storage.wal.WriteAheadLog._lock",
                     "level": 12, "duration_s": 0.05}),
        Event(seq=4, ts_s=0.3, kind="enclave.transition", thread="w1",
              trace_id=1, statement_id=1, session_id=1,
              attrs={"rows": 8, "duration_s": 0.001}),
        Event(seq=5, ts_s=0.5, kind="stmt.end", thread="w1",
              trace_id=1, statement_id=1, session_id=1,
              attrs={"elapsed_s": 0.5, "rows": 2, "query": "SELECT a"}),
    ]


def test_build_report_aggregates_all_dimensions():
    report = build_report(_synthetic_events())
    assert report["events"] == 5
    assert report["statements"] == 1
    assert report["leakage_per_column"]["T.C_LAST"]["rnd_comparison"] == 4
    latch = report["latch_contention"][
        "repro.sqlengine.storage.wal.WriteAheadLog._lock"]
    assert latch["waits"] == 1
    assert latch["level"] == 12
    assert report["transition_costs"][8]["calls"] == 1
    (slowest,) = report["slowest_statements"]
    assert slowest["statement_id"] == 1
    assert [e["kind"] for e in slowest["timeline"]][-1] == "stmt.end"
    assert slowest["start_s"] == pytest.approx(0.0)     # stmt.end's ts_s − elapsed_s


def test_format_report_prints_contention_and_leakage():
    text = format_report(build_report(_synthetic_events()))
    assert "FLIGHT RECORDER REPORT" in text
    assert "T.C_LAST" in text
    assert "rnd_comparison=4" in text
    assert "WriteAheadLog._lock" in text
    # Timeline offsets run from the statement's start, not its first event.
    assert "+  50.000ms wal.flush" in text
    assert "+ 500.000ms stmt.end" in text


# -- every statement, failed ones too, gets its stmt.end ---------------------

def _fail_parse(session, other):
    session.execute("SELEC id FROM F")


def _fail_bind(session, other):
    session.execute("SELECT nope FROM F")


def _fail_unique(session, other):
    session.execute("INSERT INTO F (id, v) VALUES (@id, @v)", {"id": 1, "v": 0})


def _fail_injected_fault(session, other):
    from repro.faults import Always, RaiseFatal, get_fault_registry

    armed = get_fault_registry().arm("engine.index_insert", Always(), RaiseFatal())
    try:
        session.execute("INSERT INTO F (id, v) VALUES (@id, @v)", {"id": 2, "v": 0})
    finally:
        get_fault_registry().disarm(armed)


def _fail_lock_timeout(session, other):
    other.execute("BEGIN")
    other.execute("UPDATE F SET v = @v WHERE id = @id", {"v": 5, "id": 1})
    try:
        session.execute("UPDATE F SET v = @v WHERE id = @id", {"v": 6, "id": 1})
    finally:
        other.execute("ROLLBACK")


@pytest.mark.parametrize(
    "fail, error, leading_up",
    [
        (_fail_parse, "ParseError", None),
        (_fail_bind, "BindError", None),
        (_fail_unique, "ConstraintError", None),
        (_fail_injected_fault, "FatalFault", "fault.injected"),
        (_fail_lock_timeout, "LockTimeoutError", "lock.timeout"),
    ],
    ids=["parse", "bind", "unique", "fault", "lock_timeout"],
)
def test_failed_statement_still_ends(fail, error, leading_up):
    """A statement that fails — before planning, in the executor, on a
    lock — leaves exactly one ``stmt.end`` under its statement id, saying
    what failed, and the events buffered before the failure reach the ring
    with it (``flightrec report`` must not silently omit exactly the
    statements that went wrong)."""
    from repro.sqlengine.server import SqlServer

    server = SqlServer(lock_timeout_s=0.05)
    session, other = server.connect(), server.connect()
    session.execute("CREATE TABLE F(id int PRIMARY KEY, v int)")
    session.execute("INSERT INTO F (id, v) VALUES (@id, @v)", {"id": 1, "v": 0})
    recorder = get_recorder()
    recorder.clear()
    try:
        with pytest.raises(Exception) as raised:
            fail(session, other)
        assert type(raised.value).__name__ == error
        events = [e for e in recorder.events()
                  if e.session_id == session.session_id]
    finally:
        recorder.clear()
    (end,) = [e for e in events if e.kind == "stmt.end"]
    assert end.statement_id is not None
    assert {e.statement_id for e in events} == {end.statement_id}
    assert end.attrs["ok"] is False
    assert end.attrs["error"] == error
    assert end.attrs["elapsed_s"] >= 0.0 and "rows" not in end.attrs
    if leading_up is not None:
        (cause,) = [e for e in events if e.kind == leading_up]
        assert cause.statement_id == end.statement_id
        assert end.ts_s - end.attrs["elapsed_s"] <= cause.ts_s <= end.ts_s
        assert cause.seq < end.seq
    # The report's slowest-statement table lists it, as failed.
    report = build_report(events)
    (entry,) = report["slowest_statements"]
    assert entry["error"] == error
    assert f"FAILED {error}" in format_report(report)
