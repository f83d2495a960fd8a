"""The enclave worker-queue optimization (Section 4.6).

Calling the enclave synchronously pays a security-boundary transition on
every expression evaluation — and expression evaluation is the inner loop
of query processing. The paper's optimization: pin enclave worker threads
that consume work from a queue, spinning for a fixed duration after each
item before exiting the enclave and sleeping. Under heavy enclave use the
workers stay hot and the transition cost is amortized away; under light
use they sleep and release resources.

The simulation is faithful in mechanism: real worker threads, a real queue,
real spin-then-sleep. The boundary-transition cost itself (a hypervisor
context switch on VBS) has no native analog in-process, so it is charged
explicitly as a configurable busy-wait — the knob the A1 ablation bench
sweeps.
"""

from __future__ import annotations

import enum
import functools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.enclave.runtime import Enclave
from repro.errors import EnclaveError
from repro.obs.flightrec import record_event
from repro.obs.metrics import StatementRecord, StatsView, get_registry
from repro.obs.tracing import get_tracer


class CallMode(enum.Enum):
    SYNCHRONOUS = "sync"     # every call pays the boundary transition
    QUEUED = "queued"        # worker threads amortize transitions


class WorkerStats(StatsView):
    """Per-gateway view over the global ``worker.*`` counters.

    calls / boundary_transitions (times the transition cost was paid) /
    worker_wakeups (queue workers transitioning sleep→hot) / spin_hits
    (work picked up while spinning, no cost).
    """

    FIELDS = {
        "calls": "worker.calls",
        "boundary_transitions": "worker.boundary_transitions",
        "worker_wakeups": "worker.wakeups",
        "spin_hits": "worker.spin_hits",
    }


def _busy_wait(duration_s: float) -> None:
    if duration_s <= 0:
        return
    deadline = time.perf_counter() + duration_s
    while time.perf_counter() < deadline:
        pass


#: Bucket edges for the ``worker.batch_size`` histogram: powers of two up
#: to well past the default executor chunk size (64).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass
class _WorkItem:
    #: ``Enclave.eval`` or ``Enclave.eval_batch`` bound to its arguments: a
    #: chunk of ``n_rows`` rows is one queue slot and one transition.
    call: Callable[[], list]
    n_rows: int
    #: The blocked submitter's statement record (None outside a statement).
    #: The worker adopts it, so enclave counters, ecall events and spans
    #: land in the right statement lock-free, and lets go of it before
    #: ``done`` wakes the submitter: it comes back with the verdicts.
    record: StatementRecord | None
    done: threading.Event = field(default_factory=threading.Event)
    result: list | None = None
    error: Exception | None = None
    #: Wall time of ``call`` on the worker, for the submitter to report.
    wall_s: float = 0.0


class EnclaveCallGateway:
    """Routes host expression-eval calls to the enclave.

    In SYNCHRONOUS mode each call charges ``transition_cost_s``. In QUEUED
    mode, ``n_threads`` workers consume a shared queue; after finishing an
    item a worker spins for ``spin_duration_s`` polling for more work, and
    only a sleeping worker's wakeup charges the transition cost.

    Implements the :class:`~repro.sqlengine.expression.vm.EnclaveConnector`
    protocol, so a host StackMachine can use it directly for TM_EVAL.
    """

    def __init__(
        self,
        enclave: Enclave,
        mode: CallMode = CallMode.QUEUED,
        n_threads: int = 4,
        transition_cost_s: float = 0.0,
        spin_duration_s: float = 0.0002,
    ):
        if n_threads < 1:
            raise EnclaveError("enclave worker pool needs at least one thread")
        self.enclave = enclave
        self.mode = mode
        self.n_threads = n_threads
        self.transition_cost_s = transition_cost_s
        self.spin_duration_s = spin_duration_s
        self.stats = WorkerStats()
        self._tracer = get_tracer()
        self._queue_depth = get_registry().gauge(
            "worker.queue_depth", help="items waiting in the enclave work queue"
        )
        self._batch_size = get_registry().histogram(
            "worker.batch_size",
            buckets=_BATCH_SIZE_BUCKETS,
            help="rows shipped per enclave eval submission (1 = row-at-a-time)",
        )
        self._queue: queue.Queue[_WorkItem | None] = queue.Queue()
        self._shutdown = False
        self._submit_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        # The gateway half of the sanctioned-surface registry: everything
        # declared callable by hosts must exist here, or the declaration
        # has drifted from the code.
        from repro.enclave import ECALL_SURFACE

        for entry in ECALL_SURFACE.gateway:
            if not hasattr(self, entry):
                raise EnclaveError(
                    f"ECALL_SURFACE declares gateway entry {entry!r} but "
                    "EnclaveCallGateway does not provide it"
                )
        if mode is CallMode.QUEUED:
            for i in range(n_threads):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"enclave-worker-{i}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    # -- EnclaveConnector protocol --------------------------------------------

    def register_program(self, program_bytes: bytes) -> int:
        return self.enclave.register_program(program_bytes)

    def eval(self, handle: int, inputs: list) -> list:
        return self._submit(
            "enclave.eval", functools.partial(self.enclave.eval, handle, inputs), 1
        )

    def eval_batch(self, handle: int, rows: list[list]) -> list[list]:
        """Evaluate ``handle`` over many rows through one boundary crossing.

        The whole chunk travels as a single work item, so both modes charge
        the transition cost once per chunk instead of once per row — the
        Section 4.6 amortization made explicit rather than probabilistic.
        """
        if not rows:
            return []
        return self._submit(
            "enclave.eval_batch",
            functools.partial(self.enclave.eval_batch, handle, rows),
            len(rows),
            rows=len(rows),
        )

    def _submit(
        self, span_name: str, call: Callable[[], list], n_rows: int, **span_attrs: int
    ) -> list:
        """Run one ecall covering ``n_rows`` rows on the far side of the boundary."""
        self.stats.inc("calls")
        self._batch_size.observe(n_rows)
        if self.mode is CallMode.SYNCHRONOUS:
            self.stats.inc("boundary_transitions")
            with self._tracer.ecall_span(span_name, mode="sync", **span_attrs):
                started = time.perf_counter()
                _busy_wait(self.transition_cost_s)
                result = call()
                record_event(
                    "enclave.transition", rows=n_rows,
                    duration_s=time.perf_counter() - started,
                )
                return result
        item = _WorkItem(call, n_rows, self._tracer.capture())
        # The span covers submit→completion as seen by the host thread: the
        # full cost of routing one evaluation through the enclave boundary.
        with self._tracer.ecall_span(span_name, mode="queued", **span_attrs):
            # Atomic with shutdown()'s flag flip: an item enqueued after the
            # workers were told to stop would never complete.
            with self._submit_lock:
                if self._shutdown:
                    raise EnclaveError("enclave call gateway is shut down")
                self._queue.put(item)
            self._queue_depth.set(self._queue.qsize())
            item.done.wait()
        if item.error is not None:
            raise item.error
        assert item.result is not None
        record_event("enclave.transition", rows=n_rows, duration_s=item.wall_s)
        return item.result

    # -- worker threads ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._shutdown:
            # Sleeping state: block on the queue. Picking up work from here
            # is a wakeup and pays the enclave-entry transition.
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if item is None:
                return
            self._process(item, wakeup=True)
            # Hot state: spin polling for more work before exiting. The
            # sleep(0) is the PAUSE of this spin loop — it yields the GIL
            # so submitters can actually enqueue while we poll.
            deadline = time.perf_counter() + self.spin_duration_s
            while not self._shutdown and time.perf_counter() < deadline:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    time.sleep(0)
                    continue
                if item is None:
                    return
                self._process(item, wakeup=False)
                deadline = time.perf_counter() + self.spin_duration_s

    def _process(self, item: _WorkItem, wakeup: bool) -> None:
        """Run one item as part of its submitter's statement. A sleeping
        worker's wakeup pays the enclave-entry transition; a spin hit does
        not."""
        try:
            with self._tracer.adopt(item.record):
                if wakeup:
                    self.stats.inc("worker_wakeups")
                    self.stats.inc("boundary_transitions")
                    _busy_wait(self.transition_cost_s)
                else:
                    self.stats.inc("spin_hits")
                self._queue_depth.set(self._queue.qsize())
                started = time.perf_counter()
                try:
                    item.result = item.call()
                    item.wall_s = time.perf_counter() - started
                except Exception as exc:  # propagate to the submitting host thread
                    item.error = exc
        finally:
            # Only now: the record is the submitter's again.
            item.done.set()

    def shutdown(self) -> None:
        with self._submit_lock:
            self._shutdown = True
            for __ in self._threads:
                self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=1.0)
        # Workers stop at the flag, not at an empty queue: fail what they
        # left behind so no submitter waits forever.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                item.error = EnclaveError("enclave call gateway shut down before the call ran")
                item.done.set()

    def __enter__(self) -> "EnclaveCallGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
