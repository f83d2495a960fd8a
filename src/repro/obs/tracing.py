"""Query-scoped span traces.

A span is one timed region of work (a statement, an operator, an enclave
crossing) with attributes and optional captured metric deltas. Spans nest
through a thread-local stack, so instrumented code never threads a context
object around:

    with tracer.span("exec.index_seek", table="T") as span:
        ...

The dedicated :data:`ECALL` span kind makes enclave boundary transitions
first-class in every query's trace — the quantity Section 4.6 of the
paper optimizes and the one every perf PR here must report.

Timing is on request: the process-global tracer is off, and a span site
builds a :class:`Span` only when its tracer is enabled (a recording) or
the thread already has an open span (``EXPLAIN STATS`` / ``EXPLAIN
ANALYZE`` open one with :meth:`Tracer.root` around their statement).
Otherwise the site gets one shared do-nothing object.

Spans with no enclosing parent are returned to the caller but retained
nowhere, so tracing a hot loop without an active statement trace cannot
leak memory. Child lists are capped (:data:`MAX_CHILDREN_PER_SPAN`); the
overflow is *counted*, never silently dropped.

Cross-thread propagation: the open-span stack and the trace identity
live in the executing thread's statement record
(:class:`~repro.obs.metrics.StatementRecord`). The one place a
statement's work leaves its thread is the QUEUED enclave gateway, whose
submitting code calls :meth:`Tracer.capture` and whose worker wraps the
work in :meth:`Tracer.adopt`, so counts, spans and flight-recorder events
emitted on the worker land in the submitting statement's record instead
of silently rooting a fresh trace. With ``tracer.strict`` set (tests), an
adopted thread opening a span with no record raises
:class:`TraceOrphanError` — the loud failure mode for broken propagation.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs.metrics import MetricsRegistry, StatementRecord, get_registry

# Span kinds. Plain strings so instrumentation can invent operator kinds
# freely; ECALL is special-cased by QueryStats and the pretty-printer.
INTERNAL = "internal"
STATEMENT = "statement"
OPERATOR = "operator"
ECALL = "enclave.ecall"

MAX_CHILDREN_PER_SPAN = 512


class TraceOrphanError(RuntimeError):
    """A worker-thread span had no adopted trace context (strict mode)."""


class TraceContext(NamedTuple):
    """Identity of the statement a trace belongs to.

    ``trace_id`` currently equals ``statement_id`` (one trace per
    statement); they are separate fields so multi-statement traces can
    exist later without a schema change.
    """

    trace_id: int
    statement_id: int
    session_id: int = 0


@dataclass
class Span:
    """One timed region; ``metrics`` holds captured registry deltas."""

    name: str
    kind: str = INTERNAL
    attrs: dict = field(default_factory=dict)
    start_s: float = 0.0
    end_s: float | None = None
    children: list["Span"] = field(default_factory=list)
    dropped_children: int = 0
    metrics: dict[str, int | float] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def add_child(self, child: "Span") -> None:
        # No lock: a span's children come from the one thread that holds
        # its statement's record at the moment (owner or adopting worker).
        if len(self.children) >= MAX_CHILDREN_PER_SPAN:
            self.dropped_children += 1
            return
        self.children.append(child)

    def count(self, kind: str | None = None) -> int:
        """Spans in this subtree (excluding self), optionally by kind."""
        total = 0
        for child in self.children:
            if kind is None or child.kind == kind:
                total += 1
            total += child.count(kind)
        return total

    def format_tree(self, indent: int = 0) -> str:
        pad = "  " * indent
        attrs = ""
        if self.attrs:
            attrs = " " + " ".join(f"{k}={v}" for k, v in self.attrs.items())
        deltas = ""
        if self.metrics:
            deltas = " [" + " ".join(f"{k}={v}" for k, v in sorted(self.metrics.items())) + "]"
        line = f"{pad}{self.name} ({self.kind}) {self.duration_s * 1000:.3f}ms{attrs}{deltas}"
        lines = [line]
        for child in self.children:
            lines.append(child.format_tree(indent + 1))
        if self.dropped_children:
            lines.append(f"{pad}  ... {self.dropped_children} more spans (capped)")
        return "\n".join(lines)


class _SpanContext:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span", "_capture", "_baseline", "_parent")

    def __init__(self, tracer: "Tracer", span: Span, capture: tuple[str, ...]):
        self._tracer = tracer
        self._span = span
        self._capture = capture
        self._baseline: dict[str, int | float] = {}
        self._parent: Span | None = None

    def __enter__(self) -> Span:
        registry = self._tracer.registry
        for name in self._capture:
            self._baseline[name] = registry.value(name)
        self._span.start_s = time.perf_counter()
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        span = self._span
        span.end_s = time.perf_counter()
        registry = self._tracer.registry
        for name, base in self._baseline.items():
            span.metrics[name] = registry.value(name) - base
        stack = self._tracer._stack()
        # Pop this span plus anything still stacked above it: a generator
        # suspended at a yield inside a span never runs its __exit__ when
        # an exception unwinds past it in the *consumer*, so an ancestor
        # exiting must sweep those abandoned descendants or the
        # thread-local stack leaks for the life of the thread.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i:]
                break
        if self._parent is not None:
            self._parent.add_child(span)
        tracer = self._tracer
        if tracer._sinks:
            context = tracer.current_trace()
            for sink in tuple(tracer._sinks):
                sink(span, context)


class _NullSpanContext:
    """Returned when tracing is disabled: one shared, do-nothing object."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = Span(name="disabled", kind=INTERNAL)
_NULL_CONTEXT = _NullSpanContext()


class Tracer:
    """Produces nested spans. The process-global one (:func:`get_tracer`)
    is off until a recording arms it; one built by hand is on."""

    def __init__(self, registry: MetricsRegistry | None = None, enabled: bool = True):
        self.enabled = enabled
        #: Fail loudly when an adopted worker thread opens a span with no
        #: statement record (tests flip this on).
        self.strict = False
        self.registry = registry or get_registry()
        #: Span sinks: callables ``(span, trace_context)`` invoked when a
        #: span closes — how the flight recorder sees spans without the
        #: tracer importing it (that would be a cycle).
        self._sinks: list = []

    def _stack(self) -> list[Span]:
        thread = self.registry.thread
        record = thread.record
        return thread.spans if record is None else record.spans

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- trace-context propagation ----------------------------------------

    def current_trace(self) -> TraceContext | None:
        """The trace context active on the calling thread, if any."""
        record = self.registry.thread.record
        return None if record is None else record.trace

    @contextlib.contextmanager
    def trace(self, context: TraceContext):
        """Run the body as one statement record carrying ``context``."""
        record = self.registry.open_record(context)
        try:
            yield context
        finally:
            self.registry.settle(record)

    def capture(self) -> StatementRecord | None:
        """The calling thread's open record, for hand-off to a worker."""
        return self.registry.thread.record

    @contextlib.contextmanager
    def adopt(self, record: StatementRecord | None):
        """Run the body on a *different* thread as part of ``record``:
        counts, events and spans land in it, spans nesting under the
        owner's open span. Safe because the owner blocks on the work's
        completion — leave the body before waking it."""
        thread = self.registry.thread
        previous = thread.record, thread.adopted
        thread.record, thread.adopted = record, True
        try:
            yield
        finally:
            thread.record, thread.adopted = previous

    # -- span sinks --------------------------------------------------------

    def add_span_sink(self, sink) -> None:
        """``sink(span, trace_context)`` is called at every span close."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def remove_span_sink(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def span(
        self,
        name: str,
        kind: str = INTERNAL,
        capture: tuple[str, ...] = (),
        **attrs,
    ) -> _SpanContext | _NullSpanContext:
        """Open a span — if someone asked: the tracer is enabled or the
        thread already has an open span. ``capture`` names registry
        metrics whose deltas are recorded on the span at exit."""
        thread = self.registry.thread
        record = thread.record
        if not (self.enabled or (thread.spans if record is None else record.spans)):
            return _NULL_CONTEXT
        if self.strict and thread.adopted and record is None:
            raise TraceOrphanError(
                f"span {name!r} opened on an adopted worker thread with no "
                "statement record — the submitting side failed to hand "
                "its record over"
            )
        return _SpanContext(self, Span(name=name, kind=kind, attrs=attrs), capture)

    def root(self, name: str, kind: str = INTERNAL, **attrs) -> _SpanContext:
        """Open a span whether or not the tracer is enabled: how one
        caller asks for the span tree of the work it is about to do."""
        return _SpanContext(self, Span(name=name, kind=kind, attrs=attrs), ())

    def ecall_span(self, name: str, **attrs) -> _SpanContext | _NullSpanContext:
        """A span for one enclave boundary crossing."""
        return self.span(name, kind=ECALL, **attrs)


_global_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _global_tracer
