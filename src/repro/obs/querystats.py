"""Per-statement execution statistics.

The engine attaches a :class:`QueryStats` to every statement result: the
registry deltas accumulated while the statement ran, plus (when tracing is
on) the statement's span tree. This is the repro's ``SET STATISTICS``
equivalent — and the measurement substrate the paper's claims are checked
against: ecalls per query (Section 4.6), pages touched per index seek over
ciphertext (Section 3.1.2), and driver cache effectiveness (Section 4.1).

The server opens a :class:`~repro.obs.metrics.StatementRecord` on the
executing thread for the duration of the statement: every counter
increment made by that thread (and by the enclave-gateway worker acting on
its behalf, which adopts the record) lands in the record, and
:meth:`QueryStats.from_record` is one pass over it once the statement has
settled. Concurrent statements therefore read back exactly their own
counts instead of folding into each other's deltas — the fix the threaded
regression test in ``tests/obs/test_querystats_concurrent.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import StatementRecord
from repro.obs.tracing import ECALL, Span

# Counter names diffed into QueryStats. Keys are QueryStats field names.
_SERVER_DELTA_FIELDS: dict[str, str] = {
    "ecalls": "enclave.ecalls",
    "enclave_evals": "enclave.evals",
    "enclave_eval_batches": "enclave.eval_batches",
    "enclave_batched_rows": "enclave.batched_rows",
    "enclave_comparisons": "enclave.comparisons",
    "enclave_cell_decrypts": "enclave.cell_decrypts",
    "boundary_transitions": "worker.boundary_transitions",
    "rows_scanned": "executor.rows_scanned",
    "index_node_visits": "index.nodes_visited",
    "page_hits": "bufferpool.page_hits",
    "page_misses": "bufferpool.page_misses",
    "pages_evicted": "bufferpool.pages_evicted",
    "wal_records": "wal.records_appended",
    "wal_bytes": "wal.bytes_written",
    "lock_waits": "locks.waits",
    "latch_waits": "latch.waits",
    "latch_wait_seconds": "latch.wait_seconds",
    "plan_cache_hits": "server.plan_cache_hits",
    "faults_injected": "faults.injected",
}

#: Per-level latch counters (``latch.l07_wait_seconds``) are dynamic —
#: one pair per contended hierarchy level — so they are harvested from
#: the record by prefix instead of a fixed field map.
_LATCH_LEVEL_PREFIX = "latch.l"

_DRIVER_DELTA_FIELDS: dict[str, str] = {
    "cek_cache_hits": "driver.cek_cache_hits",
    "cek_cache_misses": "driver.cek_cache_misses",
    "describe_roundtrips": "driver.describe_roundtrips",
    "retries": "driver.retries",
}

# Counter name -> QueryStats field: how one pass over a record fills stats.
_SERVER_FIELD_OF = {name: attr for attr, name in _SERVER_DELTA_FIELDS.items()}
_DRIVER_FIELD_OF = {name: attr for attr, name in _DRIVER_DELTA_FIELDS.items()}


@dataclass
class QueryStats:
    """What one statement cost, in the units the paper argues in."""

    query_text: str = ""
    plan_info: str = ""
    elapsed_s: float = 0.0
    rows_returned: int = 0

    # Trace identity (filled by the server; 0 = not assigned).
    statement_id: int = 0
    session_id: int = 0

    # Server-side registry deltas.
    ecalls: int = 0
    enclave_evals: int = 0
    enclave_eval_batches: int = 0
    enclave_batched_rows: int = 0
    enclave_comparisons: int = 0
    enclave_cell_decrypts: int = 0
    boundary_transitions: int = 0
    rows_scanned: int = 0
    index_node_visits: int = 0
    page_hits: int = 0
    page_misses: int = 0
    pages_evicted: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    lock_waits: int = 0
    latch_waits: int = 0
    latch_wait_seconds: float = 0.0
    plan_cache_hits: int = 0
    faults_injected: int = 0

    #: Per-hierarchy-level latch waits this statement caused:
    #: ``{"latch.l07_waits": 2, "latch.l07_wait_seconds": 0.003, ...}``.
    latch_level_waits: dict[str, int | float] = field(default_factory=dict)

    # Driver-side registry deltas (filled by the client driver).
    cek_cache_hits: int = 0
    cek_cache_misses: int = 0
    describe_roundtrips: int = 0
    retries: int = 0

    # The statement's span tree when tracing was enabled.
    root_span: Span | None = None

    @property
    def pages_read(self) -> int:
        """Pages touched through the buffer pool (hits + misses)."""
        return self.page_hits + self.page_misses

    @property
    def ecall_spans(self) -> int:
        """Boundary-crossing spans in the trace (0 when tracing is off)."""
        if self.root_span is None:
            return 0
        return self.root_span.count(ECALL)

    @classmethod
    def from_record(cls, record: StatementRecord, **facts) -> "QueryStats":
        """The stats of the statement ``record`` counted: ``facts`` (text,
        plan, elapsed time, rows, span tree) plus one pass over its counts."""
        counts = record.counts
        for counter, amount in counts.items():
            if counter.name in _SERVER_FIELD_OF:
                facts[_SERVER_FIELD_OF[counter.name]] = amount
        stats = cls(**facts)
        if stats.latch_waits:
            stats.latch_level_waits = {
                counter.name: amount
                for counter, amount in counts.items()
                if counter.name.startswith(_LATCH_LEVEL_PREFIX)
            }
        return stats

    def add_driver_counts(self, record: StatementRecord) -> None:
        """The driver-side half, from the record around ``execute()`` — the
        parent of the server's, so it includes it and settles last."""
        for counter, amount in record.counts.items():
            if counter.name in _DRIVER_FIELD_OF:
                setattr(self, _DRIVER_FIELD_OF[counter.name], amount)

    def latch_levels(self):
        """``(counter name, waits, seconds)`` per contended hierarchy level."""
        levels = self.latch_level_waits
        for name in sorted(levels):
            if name.endswith("_waits") and levels[name]:
                yield name, levels[name], levels.get(
                    name.replace("_waits", "_wait_seconds"), 0.0
                )

    def as_dict(self) -> dict:
        out = {
            "query_text": self.query_text,
            "plan_info": self.plan_info,
            "elapsed_s": self.elapsed_s,
            "rows_returned": self.rows_returned,
            "pages_read": self.pages_read,
        }
        for attr in (*_SERVER_DELTA_FIELDS, *_DRIVER_DELTA_FIELDS):
            out[attr] = getattr(self, attr)
        return out


def format_explain_stats(stats: QueryStats) -> str:
    """The ``EXPLAIN STATS`` pretty-printer: one statement's cost profile."""
    rows = [
        ("query", stats.query_text or "<unknown>"),
        ("plan", stats.plan_info or "<n/a>"),
        ("elapsed_ms", f"{stats.elapsed_s * 1000:.3f}"),
        ("rows_returned", stats.rows_returned),
        ("rows_scanned", stats.rows_scanned),
        ("pages_read", stats.pages_read),
        ("  page_hits", stats.page_hits),
        ("  page_misses", stats.page_misses),
        ("pages_evicted", stats.pages_evicted),
        ("index_node_visits", stats.index_node_visits),
        ("wal_records", stats.wal_records),
        ("wal_bytes", stats.wal_bytes),
        ("ecalls", stats.ecalls),
        ("  enclave_evals", stats.enclave_evals),
        ("  enclave_eval_batches", stats.enclave_eval_batches),
        ("  enclave_batched_rows", stats.enclave_batched_rows),
        ("  enclave_comparisons", stats.enclave_comparisons),
        ("  enclave_cell_decrypts", stats.enclave_cell_decrypts),
        ("boundary_transitions", stats.boundary_transitions),
        ("lock_waits", stats.lock_waits),
        ("latch_waits", stats.latch_waits),
        ("latch_wait_ms", f"{stats.latch_wait_seconds * 1000:.3f}"),
        ("plan_cache_hits", stats.plan_cache_hits),
        ("faults_injected", stats.faults_injected),
        ("cek_cache_hits", stats.cek_cache_hits),
        ("cek_cache_misses", stats.cek_cache_misses),
        ("describe_roundtrips", stats.describe_roundtrips),
        ("retries", stats.retries),
    ]
    for name, waits, seconds in stats.latch_levels():
        rows.append((f"  {name}", f"{waits} ({seconds * 1000:.3f}ms)"))
    width = max(len(str(label)) for label, __ in rows)
    lines = ["EXPLAIN STATS"]
    lines += [f"  {str(label).ljust(width)}  {value}" for label, value in rows]
    if stats.root_span is not None:
        lines.append("  span tree:")
        for line in stats.root_span.format_tree().splitlines():
            lines.append("    " + line)
    return "\n".join(lines)


def format_explain_analyze(stats: QueryStats) -> str:
    """The ``EXPLAIN ANALYZE`` timeline view: the statement's span tree as
    a waterfall (offset from statement start, duration, self-evident
    nesting) plus its contention profile — where this statement waited.
    """
    lines = [
        "EXPLAIN ANALYZE",
        f"  statement #{stats.statement_id} (session {stats.session_id})  "
        f"{stats.elapsed_s * 1000:.3f}ms  rows={stats.rows_returned}",
        f"  query: {stats.query_text or '<unknown>'}",
    ]
    root = stats.root_span
    if root is not None:
        lines.append("  timeline:")

        def walk(span, depth: int) -> None:
            offset_ms = (span.start_s - root.start_s) * 1000
            attrs = ""
            if span.attrs:
                attrs = "  " + " ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(
                f"    +{offset_ms:9.3f}ms {'  ' * depth}{span.name} "
                f"({span.kind}) {span.duration_s * 1000:.3f}ms{attrs}"
            )
            for child in span.children:
                walk(child, depth + 1)
            if span.dropped_children:
                lines.append(
                    f"    {'  ' * (depth + 1)}... {span.dropped_children} "
                    "more spans (capped)"
                )

        walk(root, 0)
    else:
        lines.append("  timeline: <tracing disabled>")
    lines.append("  waits:")
    lines.append(
        f"    lock_waits={stats.lock_waits}  latch_waits={stats.latch_waits}  "
        f"latch_wait_ms={stats.latch_wait_seconds * 1000:.3f}"
    )
    for name, waits, seconds in stats.latch_levels():
        lines.append(f"    {name}={waits} ({seconds * 1000:.3f}ms)")
    lines.append(
        f"  enclave: ecalls={stats.ecalls} "
        f"transitions={stats.boundary_transitions} "
        f"batched_rows={stats.enclave_batched_rows}"
    )
    return "\n".join(lines)
