"""The process-global metrics registry.

Every component of the reproduction reports into one registry so a single
snapshot captures the quantities the paper argues about: enclave boundary
crossings (Section 4.6), buffer-pool behaviour under ciphertext rows,
driver cache effectiveness (Section 4.1), and lock waits around deferred
transactions (Section 4.5).

Design rules:

* **Naming** follows ``component.noun_verb`` — lowercase dot-separated
  segments of ``[a-z][a-z0-9_]*``, at least two segments, where the first
  segment names the reporting component (``enclave``, ``bufferpool``, ...)
  and the last describes what is counted (``pages_read``, ``wait_seconds``).
  ``python -m repro.analysis.dynamic_metrics`` lints this.
* **Registration is get-or-create** per (name, kind); re-registering the
  same name with a *different* kind raises — that is always a bug.
* **Thread safety**: concurrent increments never lose counts. Outside a
  statement every mutation takes the registry's lock. Inside one, counter
  increments go lock-free into the executing thread's
  :class:`StatementRecord` and reach the counters in one locked pass when
  the statement settles — so a counter read is exact for finished
  statements and for the reading thread's own open statement; another
  thread's open statement appears when it ends.
* **Cheap when disabled**: ``registry.enabled = False`` turns every
  ``inc``/``set``/``observe`` into a single attribute check and return.
* **Exposition**: ``to_json()`` and ``to_prometheus_text()`` both
  round-trip through the matching parsers with identical values.

Per-instance stats objects (a gateway's ``WorkerStats``, a pool's
``hits``) are *views* over the global counters: they record a baseline at
construction and report ``counter - baseline``, so many instances can
share one process-global metric while keeping per-instance semantics.
"""

from __future__ import annotations

import enum
import json
import re
import threading
from bisect import bisect_left

METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

# Default histogram buckets for durations in seconds (upper bounds; a
# +inf bucket is implicit). Matches the Prometheus convention: a value v
# lands in the first bucket with v <= upper_bound.
DEFAULT_TIME_BUCKETS_S = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0
)


class MetricKind(enum.Enum):
    COUNTER = "counter"
    GAUGE = "gauge"
    HISTOGRAM = "histogram"


class MetricError(ValueError):
    """Bad metric name, kind conflict, or malformed exposition text."""


def validate_metric_name(name: str) -> None:
    if not METRIC_NAME_RE.match(name):
        raise MetricError(
            f"metric name {name!r} violates the component.noun_verb "
            "convention (lowercase dot-separated [a-z][a-z0-9_]* segments, "
            "at least two)"
        )


class StatementRecord:
    """What one statement did, written lock-free by the thread running it.

    Opened by :meth:`MetricsRegistry.open_record` and ended — once, on
    every exit path — by :meth:`MetricsRegistry.settle`, which folds it
    into ``parent`` (a nested scope on the same thread: a statement run from
    inside another, as a fault action reading through a second session) or, for
    the outermost record, into the shared counters, flight-recorder ring
    and leakage ledger, one lock each. The QUEUED enclave gateway hands the
    blocked submitter's record to its worker and gets it back with the
    verdicts, so exactly one thread writes a record at any moment.
    """

    __slots__ = ("trace", "parent", "counts", "deferred", "spans")

    def __init__(self, trace, parent: "StatementRecord | None", spans: list):
        #: Identity stamped on the statement's events (a ``TraceContext``).
        self.trace = trace
        self.parent = parent
        #: Counter -> amount incremented under this record.
        self.counts: dict[Counter, int | float] = {}
        #: Sink (flight recorder, leakage accountant) -> items buffered for
        #: its ``_settle``, in emission order.
        self.deferred: dict[object, list] = {}
        #: The open-span stack of the thread that opened the outermost
        #: record; an adopting worker pushes onto the same list.
        self.spans = spans


class _ThreadState(threading.local):
    """Per-thread: the innermost open record, whether a gateway worker
    adopted it, the thread's own open-span stack, and its name as events
    print it (read once: ``current_thread().name`` is three calls)."""

    def __init__(self):
        self.record: StatementRecord | None = None
        self.adopted = False
        self.spans: list = []
        self.name = threading.current_thread().name


class Counter:
    """A monotonically increasing value (ints stay ints, floats allowed)."""

    __slots__ = ("name", "help", "_value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry", help: str = ""):
        self.name = name
        self.help = help
        self._value: int | float = 0
        self._registry = registry

    def inc(self, amount: int | float = 1) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        record = registry.thread.record
        if record is None:
            with registry._lock:
                self._value += amount
        elif self in record.counts:
            record.counts[self] += amount
        else:
            record.counts[self] = amount

    @property
    def value(self) -> int | float:
        """Settled statements plus the calling thread's own open ones."""
        value = self._value
        record = self._registry.thread.record
        while record is not None:
            value += record.counts.get(self, 0)
            record = record.parent
        return value

    def _reset(self) -> None:
        with self._registry._lock:
            self._value = 0


class Gauge:
    """A value that can go up and down (queue depth, cached pages)."""

    __slots__ = ("name", "help", "_value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry", help: str = ""):
        self.name = name
        self.help = help
        self._value: int | float = 0
        self._registry = registry

    def set(self, value: int | float) -> None:
        # One attribute store: atomic without the lock inc() needs.
        if self._registry.enabled:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        if not self._registry.enabled:
            return
        with self._registry._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        with self._registry._lock:
            self._value = 0


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative exposition).

    ``buckets`` are finite ascending upper bounds; an implicit +inf bucket
    catches the tail. ``observe(v)`` places v in the first bucket with
    ``v <= bound`` — bucket edges are inclusive, which the unit tests pin.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_registry")

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS_S,
        help: str = "",
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(f"histogram {name!r} needs ascending, non-empty buckets")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +inf
        self._sum: float = 0.0
        self._count: int = 0
        self._registry = registry

    def observe(self, value: int | float) -> None:
        if not self._registry.enabled:
            return
        idx = bisect_left(self.buckets, value)
        with self._registry._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        """Cumulative bucket counts keyed by upper bound (prom semantics)."""
        with self._registry._lock:
            cumulative: dict[str, int] = {}
            running = 0
            for bound, count in zip(self.buckets, self._counts):
                running += count
                cumulative[repr(bound)] = running
            cumulative["+Inf"] = running + self._counts[-1]
            return {"count": self._count, "sum": self._sum, "buckets": cumulative}

    def _reset(self) -> None:
        with self._registry._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named metrics with get-or-create registration and exposition."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[str, Metric] = {}
        self._kinds: dict[str, MetricKind] = {}
        self._lock = threading.Lock()
        #: The calling thread's telemetry state; ``thread.record`` is the
        #: statement record it is writing into (None outside a statement).
        self.thread = _ThreadState()

    # -- statement records --------------------------------------------------

    def open_record(self, trace=None) -> StatementRecord:
        """Start a statement record on the calling thread, nested under
        the one already open there (whose trace identity it inherits
        unless given its own). Pair with :meth:`settle` in a ``finally``."""
        thread = self.thread
        parent = thread.record
        if parent is None:
            record = StatementRecord(trace, None, thread.spans)
        else:
            record = StatementRecord(
                parent.trace if trace is None else trace, parent, parent.spans
            )
        thread.record = record
        return record

    def settle(self, record: StatementRecord) -> None:
        """End ``record``: into its parent, so the outer scope includes the
        inner, or — outermost — into the counters and each sink, one lock
        each. ``record.counts`` stays readable afterwards."""
        thread = self.thread
        if thread.record is record:
            thread.record = record.parent
        parent = record.parent
        if parent is not None:
            counts = parent.counts
            for counter, amount in record.counts.items():
                if counter in counts:
                    counts[counter] += amount
                else:
                    counts[counter] = amount
            for sink, items in record.deferred.items():
                if sink in parent.deferred:
                    parent.deferred[sink] += items
                else:
                    parent.deferred[sink] = items
            return
        if record.counts:
            with self._lock:
                for counter, amount in record.counts.items():
                    counter._value += amount
        for sink, items in record.deferred.items():
            sink._settle(items)

    # -- registration -------------------------------------------------------

    def _register(self, name: str, kind: MetricKind, factory) -> Metric:
        validate_metric_name(name)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if self._kinds[name] is not kind:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{self._kinds[name].value}, cannot re-register as {kind.value}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            self._kinds[name] = kind
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, MetricKind.COUNTER, lambda: Counter(name, self, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, MetricKind.GAUGE, lambda: Gauge(name, self, help))

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS_S,
        help: str = "",
    ) -> Histogram:
        return self._register(
            name, MetricKind.HISTOGRAM, lambda: Histogram(name, self, buckets, help)
        )

    # -- introspection ------------------------------------------------------

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def kind_of(self, name: str) -> MetricKind:
        return self._kinds[name]

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def value(self, name: str) -> int | float:
        """Scalar value of a counter/gauge (0 if never registered)."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise MetricError(f"{name!r} is a histogram; use snapshot()")
        return metric.value

    # -- snapshot / reset ---------------------------------------------------

    def snapshot(self) -> dict:
        """All metric values: scalars for counters/gauges, dicts for
        histograms ({count, sum, buckets})."""
        with self._lock:
            items = list(self._metrics.items())
        out: dict[str, object] = {}
        for name, metric in items:
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out

    def reset(self) -> None:
        """Zero every metric (benchmark isolation). Per-instance stats
        views clamp at zero so a reset never produces negative readings."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()

    # -- exposition: JSON ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "metrics": {
                    name: {"kind": self._kinds[name].value, "value": value}
                    for name, value in self.snapshot().items()
                }
            },
            sort_keys=True,
        )

    # -- exposition: Prometheus text ---------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus text format. Dots are illegal in prom names, so the
        sanitized name carries the real one in a ``metric`` label —
        lossless, which is what makes the round-trip test exact."""
        lines: list[str] = []
        snap = self.snapshot()
        for name in sorted(snap):
            kind = self._kinds[name]
            prom = name.replace(".", "_")
            lines.append(f"# TYPE {prom} {kind.value}")
            value = snap[name]
            if kind is MetricKind.HISTOGRAM:
                assert isinstance(value, dict)
                for bound, count in value["buckets"].items():
                    lines.append(
                        f'{prom}_bucket{{metric="{name}",le="{bound}"}} {count}'
                    )
                lines.append(f'{prom}_sum{{metric="{name}"}} {_fmt(value["sum"])}')
                lines.append(f'{prom}_count{{metric="{name}"}} {value["count"]}')
            else:
                lines.append(f'{prom}{{metric="{name}"}} {_fmt(value)}')
        return "\n".join(lines) + "\n"


def _fmt(value: int | float) -> str:
    # repr() round-trips python floats exactly; ints print as ints.
    return repr(value)


def _parse_num(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:
        return float(text)


def snapshot_from_json(text: str) -> dict:
    """Parse ``to_json()`` output back into a ``snapshot()``-shaped dict."""
    payload = json.loads(text)
    return {name: entry["value"] for name, entry in payload["metrics"].items()}


_PROM_LINE_RE = re.compile(
    r'^(?P<prom>[A-Za-z_][A-Za-z0-9_]*)\{metric="(?P<name>[^"]+)"(?:,le="(?P<le>[^"]+)")?\} '
    r"(?P<value>\S+)$"
)


def snapshot_from_prometheus_text(text: str) -> dict:
    """Parse ``to_prometheus_text()`` output back into a snapshot dict."""
    out: dict[str, object] = {}
    histograms: dict[str, dict] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _PROM_LINE_RE.match(line)
        if match is None:
            raise MetricError(f"unparseable prometheus line: {line!r}")
        prom = match.group("prom")
        name = match.group("name")
        value = _parse_num(match.group("value"))
        sanitized = name.replace(".", "_")
        if prom == sanitized + "_bucket":
            histograms.setdefault(name, {"buckets": {}})["buckets"][match.group("le")] = value
        elif prom == sanitized + "_sum":
            histograms.setdefault(name, {"buckets": {}})["sum"] = value
        elif prom == sanitized + "_count":
            histograms.setdefault(name, {"buckets": {}})["count"] = value
        else:
            out[name] = value
    out.update(histograms)
    return out


# --------------------------------------------------------------------------
# The process-global registry and per-instance views over it.

_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every component reports into."""
    return _global_registry


class StatsView:
    """Per-instance view over global counters, offset by a creation-time
    baseline — many instances share one global metric, each still reads
    "my counts since I was created".

    Subclasses declare ``FIELDS`` mapping attribute name → metric name;
    reads come through ``__getattr__``, writes go through :meth:`inc`.
    ``max(0, ...)`` keeps readings sane if the registry was reset under us.
    """

    FIELDS: dict[str, str] = {}

    def __init__(self, registry: MetricsRegistry | None = None):
        registry = registry or get_registry()
        self._counters = {
            attr: registry.counter(metric_name)
            for attr, metric_name in self.FIELDS.items()
        }
        self._baseline = {attr: c.value for attr, c in self._counters.items()}

    def __getattr__(self, attr: str):
        counters = self.__dict__.get("_counters", {})
        if attr in counters:
            value = counters[attr].value - self.__dict__["_baseline"][attr]
            return max(0, value) if not isinstance(value, float) else max(0.0, value)
        raise AttributeError(attr)

    def inc(self, attr: str, amount: int | float = 1) -> None:
        self._counters[attr].inc(amount)

    def handle(self, attr: str) -> Counter:
        """The shared counter behind ``attr``, for a per-statement path to
        hold and ``inc()`` without the lookup."""
        return self._counters[attr]

    def snapshot(self) -> dict[str, int | float]:
        return {attr: getattr(self, attr) for attr in self.FIELDS}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)}" for k in self.FIELDS)
        return f"{type(self).__name__}({fields})"
