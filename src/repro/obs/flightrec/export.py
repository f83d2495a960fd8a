"""Persistent flight-recorder export: schema-versioned JSONL and Chrome
trace-event JSON (loadable in Perfetto / ``chrome://tracing``).

JSONL layout — one header line, then one event per line::

    {"schema": "repro-flightrec", "version": 2, "events": N, "dropped": D}
    {"seq": 1, "ts_s": ..., "kind": "stmt.end", "thread": "...", ...}

The Chrome export turns every event with a ``duration_s`` attribute
(closed spans, lock/latch waits, measured transitions) or, ``stmt.end``,
an ``elapsed_s`` into a complete ``"X"`` slice ending at the event, and
everything else into an instant ``"i"`` marker. Slices
are grouped by thread (tid): a statement runs start-to-finish on its
session's thread and ecall spans close on that same thread, so Perfetto's
time-nesting parents every ecall and wait slice under its statement span.
Statement and session ids travel in ``args`` on every slice.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.flightrec import (
    EVENT_KINDS,
    EVENT_NAME_RE,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    Event,
    FlightRecorder,
    FlightRecorderError,
)


class SchemaError(FlightRecorderError):
    """A JSONL file that does not conform to the flight-recorder schema."""


def _coerce_events(source) -> tuple[list[Event], int]:
    if isinstance(source, FlightRecorder):
        return source.events(), source.dropped
    return list(source), 0


# -- JSONL ------------------------------------------------------------------

def write_jsonl(source, path: str | Path) -> int:
    """Write the recording to ``path``; returns the event count."""
    events, dropped = _coerce_events(source)
    path = Path(path)
    header = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "events": len(events),
        "dropped": dropped,
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in events:
            fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
    return len(events)


def read_jsonl(path: str | Path) -> tuple[dict, list[Event]]:
    """Load and *validate* a JSONL recording; raises :class:`SchemaError`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise SchemaError(f"{path}: empty file (missing schema header)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:1: unparseable header: {exc}") from exc
    _validate_header(header, path)
    events: list[Event] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: unparseable event: {exc}") from exc
        _validate_event(payload, path, lineno)
        events.append(Event.from_dict(payload))
    if header["events"] != len(events):
        raise SchemaError(
            f"{path}: header declares {header['events']} events, file has {len(events)}"
        )
    return header, events


def _validate_header(header: dict, path: Path) -> None:
    if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
        raise SchemaError(f"{path}: not a {SCHEMA_NAME} file")
    if header.get("version") != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema version {header.get('version')!r} != {SCHEMA_VERSION}"
        )
    for key in ("events", "dropped"):
        if not isinstance(header.get(key), int):
            raise SchemaError(f"{path}: header field {key!r} missing or non-integer")


def _validate_event(payload: dict, path: Path, lineno: int) -> None:
    for key, types in (("seq", int), ("ts_s", (int, float)), ("kind", str),
                       ("thread", str)):
        if not isinstance(payload.get(key), types):
            raise SchemaError(f"{path}:{lineno}: event field {key!r} missing/mistyped")
    kind = payload["kind"]
    if not EVENT_NAME_RE.match(kind):
        raise SchemaError(f"{path}:{lineno}: malformed event kind {kind!r}")
    if kind not in EVENT_KINDS:
        raise SchemaError(f"{path}:{lineno}: undeclared event kind {kind!r}")
    attrs = payload.get("attrs", {})
    if not isinstance(attrs, dict):
        raise SchemaError(f"{path}:{lineno}: attrs must be an object")
    if kind == "stmt.end" and not isinstance(attrs.get("elapsed_s"), (int, float)):
        raise SchemaError(f"{path}:{lineno}: stmt.end without a numeric elapsed_s")


def validate_jsonl(path: str | Path) -> int:
    """Validate a file against the schema; returns its event count."""
    __, events = read_jsonl(path)
    return len(events)


# -- Chrome trace-event format ---------------------------------------------

_PID = 1


def to_chrome_trace(source) -> dict:
    """Build a Chrome trace-event object (``{"traceEvents": [...]}``)."""
    events, __ = _coerce_events(source)
    trace: list[dict] = []
    tids: dict[str, int] = {}

    def tid_of(thread: str) -> int:
        if thread not in tids:
            tids[thread] = len(tids) + 1
            trace.append({
                "ph": "M", "pid": _PID, "tid": tids[thread],
                "name": "thread_name", "args": {"name": thread},
            })
        return tids[thread]

    trace.append({
        "ph": "M", "pid": _PID, "tid": 0,
        "name": "process_name", "args": {"name": "repro-sql-server"},
    })
    for event in events:
        tid = tid_of(event.thread)
        args: dict = dict(event.attrs)
        if event.statement_id is not None:
            args["statement_id"] = event.statement_id
            args["session_id"] = event.session_id
        duration_s = event.attrs.get("duration_s", event.attrs.get("elapsed_s"))
        ts_us = event.ts_s * 1e6
        name = event.attrs.get("name", event.kind)
        if isinstance(duration_s, (int, float)):
            # ts_s stamps the *end* of a timed region (the recording
            # moment); the slice starts duration earlier.
            trace.append({
                "ph": "X", "pid": _PID, "tid": tid,
                "ts": ts_us - duration_s * 1e6, "dur": duration_s * 1e6,
                "name": name, "cat": event.kind, "args": args,
            })
        else:
            trace.append({
                "ph": "i", "pid": _PID, "tid": tid, "ts": ts_us, "s": "t",
                "name": name, "cat": event.kind, "args": args,
            })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(source, path: str | Path) -> int:
    """Write the Chrome-format trace; returns the traceEvents count."""
    payload = to_chrome_trace(source)
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return len(payload["traceEvents"])


def read_chrome_trace(path: str | Path) -> list[dict]:
    """Round-trip loader: parse a Chrome trace file back to its events.

    Validates the structural invariants the exporter guarantees — a
    traceEvents list, known phase codes, numeric timestamps, and
    non-negative durations on complete events.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise SchemaError(f"{path}: not a Chrome trace-event file")
    for i, entry in enumerate(payload["traceEvents"]):
        if entry.get("ph") not in ("X", "i", "M"):
            raise SchemaError(f"{path}: traceEvents[{i}] has unknown phase")
        if entry["ph"] != "M":
            if not isinstance(entry.get("ts"), (int, float)):
                raise SchemaError(f"{path}: traceEvents[{i}] missing ts")
        if entry["ph"] == "X" and entry.get("dur", 0) < 0:
            raise SchemaError(f"{path}: traceEvents[{i}] negative duration")
    return payload["traceEvents"]
