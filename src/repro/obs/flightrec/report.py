"""Summarize a flight recording: the ``flightrec report`` CLI backend.

Four sections, each answering one of the questions the paper's analysis
asks of a run:

* **leakage per column** — how many adversary-observable events each
  encrypted column produced (DET equality reveals, RND comparison
  verdicts, index traversal touches);
* **contention per latch** — cumulative/max wait per latch and per
  declared hierarchy level;
* **transition-cost distribution** — measured ecall wall time bucketed by
  batch size (the batch executor's cost-model input);
* **slowest statements** — the top statement timelines, each statement's
  events in order, offset from its start (``stmt.end``'s ``ts_s − elapsed_s``).
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.flightrec import Event

_LEAK_KINDS = {
    "leak.det_equality": "det_equality",
    "leak.rnd_comparison": "rnd_comparison",
    "leak.index_touch": "index_touch",
}


def build_report(events: list[Event], top_statements: int = 5) -> dict:
    leakage: dict[str, dict[str, int]] = defaultdict(
        lambda: {"det_equality": 0, "rnd_comparison": 0, "index_touch": 0}
    )
    latches: dict[str, dict] = {}
    lock_waits = {"waits": 0, "timeouts": 0, "total_s": 0.0, "max_s": 0.0}
    transitions: dict[int, dict] = {}
    statements: dict[int, dict] = {}
    by_statement: dict[int, list[Event]] = defaultdict(list)

    for event in events:
        if event.statement_id is not None:
            by_statement[event.statement_id].append(event)
        if event.kind in _LEAK_KINDS:
            column = str(event.attrs.get("column", "<unlabelled>"))
            leakage[column][_LEAK_KINDS[event.kind]] += int(
                event.attrs.get("count", 1)
            )
        elif event.kind == "latch.wait":
            key = str(event.attrs.get("latch", "<unknown>"))
            entry = latches.setdefault(
                key,
                {"level": event.attrs.get("level"), "waits": 0,
                 "total_s": 0.0, "max_s": 0.0},
            )
            wait = float(event.attrs.get("duration_s", 0.0))
            entry["waits"] += 1
            entry["total_s"] += wait
            entry["max_s"] = max(entry["max_s"], wait)
        elif event.kind in ("lock.wait", "lock.timeout"):
            wait = float(event.attrs.get("duration_s", 0.0))
            lock_waits["waits"] += 1
            if event.kind == "lock.timeout":
                lock_waits["timeouts"] += 1
            lock_waits["total_s"] += wait
            lock_waits["max_s"] = max(lock_waits["max_s"], wait)
        elif event.kind == "enclave.transition":
            rows = int(event.attrs.get("rows", 1))
            bucket = transitions.setdefault(
                _bucket(rows), {"calls": 0, "total_s": 0.0, "max_s": 0.0}
            )
            wall = float(event.attrs.get("duration_s", 0.0))
            bucket["calls"] += 1
            bucket["total_s"] += wall
            bucket["max_s"] = max(bucket["max_s"], wall)
        elif event.kind == "stmt.end":
            assert event.statement_id is not None
            elapsed_s = float(event.attrs.get("elapsed_s", 0.0))
            statements[event.statement_id] = {
                "statement_id": event.statement_id,
                "session_id": event.session_id,
                "start_s": event.ts_s - elapsed_s,
                "elapsed_s": elapsed_s,
                "query": event.attrs.get("query", ""),
                "rows": event.attrs.get("rows", 0),
                "error": event.attrs.get("error"),    # exception type, failed statements
            }

    slowest = sorted(
        statements.values(), key=lambda s: s["elapsed_s"], reverse=True
    )[:top_statements]
    for entry in slowest:
        entry["timeline"] = [
            {"kind": ev.kind, "ts_s": ev.ts_s, "thread": ev.thread,
             "attrs": ev.attrs}
            for ev in sorted(
                by_statement[entry["statement_id"]], key=lambda e: (e.ts_s, e.seq)
            )
        ]
    return {
        "events": len(events),
        "statements": len(statements),
        "leakage_per_column": {k: dict(v) for k, v in sorted(leakage.items())},
        "latch_contention": dict(sorted(latches.items())),
        "lock_waits": lock_waits,
        "transition_costs": dict(sorted(transitions.items())),
        "slowest_statements": slowest,
    }


def _bucket(rows: int) -> int:
    """Power-of-two batch-size bucket (1, 2, 4, ... capped at 512)."""
    bucket = 1
    while bucket < rows and bucket < 512:
        bucket *= 2
    return bucket


def format_report(report: dict) -> str:
    lines = [
        "FLIGHT RECORDER REPORT",
        f"  events: {report['events']}   statements: {report['statements']}",
        "",
        "leakage per column (adversary-observable events):",
    ]
    if report["leakage_per_column"]:
        for column, counts in report["leakage_per_column"].items():
            lines.append(
                f"  {column:<32} det_equality={counts['det_equality']:<8} "
                f"rnd_comparison={counts['rnd_comparison']:<8} "
                f"index_touch={counts['index_touch']}"
            )
    else:
        lines.append("  (none observed)")
    lines += ["", "latch contention (per latch, declared-order level):"]
    if report["latch_contention"]:
        for latch, entry in report["latch_contention"].items():
            level = entry["level"] if entry["level"] is not None else "?"
            lines.append(
                f"  L{level:<3} {latch:<56} waits={entry['waits']:<6} "
                f"total={entry['total_s'] * 1000:.3f}ms "
                f"max={entry['max_s'] * 1000:.3f}ms"
            )
    else:
        lines.append("  (no contended latch acquisitions)")
    locks = report["lock_waits"]
    lines.append(
        f"  txn locks: waits={locks['waits']} timeouts={locks['timeouts']} "
        f"total={locks['total_s'] * 1000:.3f}ms max={locks['max_s'] * 1000:.3f}ms"
    )
    lines += ["", "transition-cost distribution (ecall wall time by batch size):"]
    if report["transition_costs"]:
        for bucket, entry in report["transition_costs"].items():
            mean_us = entry["total_s"] / entry["calls"] * 1e6
            lines.append(
                f"  rows<={bucket:<4} calls={entry['calls']:<7} "
                f"mean={mean_us:.1f}us max={entry['max_s'] * 1e6:.1f}us"
            )
    else:
        lines.append("  (no measured transitions)")
    lines += ["", "slowest statements:"]
    if report["slowest_statements"]:
        for entry in report["slowest_statements"]:
            query = str(entry["query"])[:60]
            outcome = f"FAILED {entry['error']}" if entry.get("error") else f"rows={entry['rows']}"
            lines.append(
                f"  #{entry['statement_id']} (session {entry['session_id']}) "
                f"{entry['elapsed_s'] * 1000:.3f}ms {outcome}  {query}"
            )
            for item in entry["timeline"][:20]:
                offset_ms = (item["ts_s"] - entry["start_s"]) * 1000
                detail = item["attrs"].get("name") or item["attrs"].get(
                    "latch") or item["attrs"].get("resource") or ""
                lines.append(
                    f"    +{offset_ms:8.3f}ms {item['kind']:<20} "
                    f"[{item['thread']}] {detail}"
                )
            if len(entry["timeline"]) > 20:
                lines.append(
                    f"    ... {len(entry['timeline']) - 20} more events"
                )
    else:
        lines.append("  (no statements recorded)")
    return "\n".join(lines)
