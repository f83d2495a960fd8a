"""Zero-dependency telemetry: metrics registry, span tracer, QueryStats,
and the flight recorder.

Pillars (see ``docs/OBSERVABILITY.md``):

* :class:`MetricsRegistry` — process-global named counters, gauges, and
  fixed-bucket histograms with JSON and Prometheus-text exposition;
* :class:`Tracer` — context-manager spans forming per-query trees, built
  only when asked for, with a dedicated ``enclave.ecall`` span kind for
  boundary transitions and cross-thread propagation via
  :meth:`Tracer.capture`/:meth:`Tracer.adopt`;
* :class:`QueryStats` — the per-statement cost facade the engine attaches
  to every result, plus the ``EXPLAIN STATS`` / ``EXPLAIN ANALYZE``
  pretty-printers;
* :mod:`repro.obs.flightrec` — the bounded structured event log every
  instrumentation point feeds, with JSONL and Chrome-trace export;
* :mod:`repro.obs.latchprof` — latch-contention profiling against the
  declared lock hierarchy;
* :mod:`repro.obs.leakage` — per-column accounting of adversary-observable
  events.
"""

from repro.obs.flightrec import (
    EVENT_KINDS,
    FlightRecorder,
    FlightRecorderError,
    get_recorder,
    record_event,
)
from repro.obs.latchprof import LatchProfiler, TimedLatch, get_latch_profiler
from repro.obs.leakage import LeakageAccountant, get_leakage_accountant, record_leak
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricKind,
    MetricsRegistry,
    StatementRecord,
    StatsView,
    get_registry,
    snapshot_from_json,
    snapshot_from_prometheus_text,
    validate_metric_name,
)
from repro.obs.querystats import (
    QueryStats,
    format_explain_analyze,
    format_explain_stats,
)
from repro.obs.tracing import (
    ECALL,
    OPERATOR,
    STATEMENT,
    Span,
    TraceContext,
    TraceOrphanError,
    Tracer,
    get_tracer,
)
from repro.obs.transition_cost import TransitionCostModel, get_transition_cost_model

__all__ = [
    "Counter",
    "ECALL",
    "EVENT_KINDS",
    "FlightRecorder",
    "FlightRecorderError",
    "Gauge",
    "Histogram",
    "LatchProfiler",
    "LeakageAccountant",
    "MetricError",
    "MetricKind",
    "MetricsRegistry",
    "OPERATOR",
    "QueryStats",
    "STATEMENT",
    "Span",
    "StatementRecord",
    "StatsView",
    "TimedLatch",
    "TraceContext",
    "TraceOrphanError",
    "Tracer",
    "TransitionCostModel",
    "format_explain_analyze",
    "format_explain_stats",
    "get_latch_profiler",
    "get_leakage_accountant",
    "get_recorder",
    "get_registry",
    "get_tracer",
    "get_transition_cost_model",
    "record_event",
    "record_leak",
    "snapshot_from_json",
    "snapshot_from_prometheus_text",
    "validate_metric_name",
]
