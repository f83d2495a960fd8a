"""Span tracing from outside the program, for the traced round only.

A static table names the public callable that stands for each layer.
:func:`install` replaces each one with a wrapper that records an
in-memory span ``(name, metric, start_ns, end_ns, thread, op)`` while an
op is in flight, and is a plain pass-through otherwise (set-up, warm-up
and the correctness checks are not traced).

With one closed-loop client every span of an op — on the scheduler
worker, an enclave worker, the router or a shard thread — lies inside
the client's call in time, so parentage is by containment:
:func:`self_times` gives each span its duration minus the part of it
that its children cover, and the layer self times add up to the op
latency. Anything that breaks the containment assumption (two threads
doing traced work at once, a span straddling its parent's end) is
counted twice and shows up in ``trace.sum_check_frac``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

#: (metric the span's self time accrues to, module, public callable, how).
#: ``how`` is ``span`` (the default behaviour), or one of:
#:   ``submit``  the scheduler: also spans the submitted closure, which
#:               runs ``ServerSession._run_statement`` on the worker;
#:   ``frames``  count frames and bytes only — the tail of ``sendall``
#:               races the peer's wake-up, so its end is not a boundary;
#:   ``result``  span only calls that return a value — ``try_decode``
#:               polls an empty buffer after every reply, concurrently
#:               with the client's next step.
#: ``crypto`` resolves to the client or the enclave row by ancestry.
WRAP_TABLE: list[tuple[str, str, str, str]] = [
    ("client.self_ms_per_op", "repro.client.driver", "Connection.execute", "span"),
    ("client.self_ms_per_op", "repro.client.driver", "Connection.begin", "span"),
    ("client.self_ms_per_op", "repro.client.driver", "Connection.commit", "span"),
    ("client.self_ms_per_op", "repro.client.driver", "Connection.rollback", "span"),
    ("crypto", "repro.crypto.aead", "CellCipher.__init__", "span"),
    ("crypto", "repro.crypto.aead", "CellCipher.encrypt", "span"),
    ("crypto", "repro.crypto.aead", "CellCipher.decrypt", "span"),
    ("crypto", "repro.crypto.aead", "CellCipher.verify", "span"),
    ("net.codec_ms_per_op", "repro.net.encoding", "encode_value", "span"),
    ("net.codec_ms_per_op", "repro.net.encoding", "decode_value", "span"),
    ("net.codec_ms_per_op", "repro.net.frames", "encode_frame", "span"),
    ("net.codec_ms_per_op", "repro.net.frames", "try_decode", "result"),
    ("net.frames_per_op", "repro.net.transport", "FrameChannel.send_frame", "frames"),
    ("net.hop_wait_ms_per_op", "repro.net.remote", "RemoteSession.execute", "span"),
    ("net.hop_wait_ms_per_op", "repro.net.remote", "RemoteSession.execute_raw", "span"),
    ("net.hop_wait_ms_per_op", "repro.net.remote",
     "RemoteServer.describe_parameter_encryption", "span"),
    ("net.hop_wait_ms_per_op", "repro.net.remote",
     "RemoteServer.forward_enclave_package", "span"),
    ("net.router_self_ms_per_op", "repro.net.router", "RouterSession.execute", "span"),
    ("net.router_self_ms_per_op", "repro.net.router", "RouterSession.execute_fast", "span"),
    ("scheduler.handoff_ms_per_op", "repro.sqlengine.scheduler",
     "StatementScheduler.submit", "submit"),
    ("server.describe_ms_per_op", "repro.sqlengine.server",
     "SqlServer.describe_parameter_encryption", "span"),
    ("server.parse_ms_per_op", "repro.sqlengine.sqlparser.parser", "parse", "span"),
    ("server.self_ms_per_op", "repro.sqlengine.server", "ServerSession.execute", "span"),
    ("exec.self_ms_per_op", "repro.sqlengine.exec.executor", "Executor.execute", "span"),
    ("index.self_ms_per_op", "repro.sqlengine.index.btree", "BPlusTree.search_eq", "span"),
    ("index.self_ms_per_op", "repro.sqlengine.index.btree", "BPlusTree.range_scan", "span"),
    ("index.self_ms_per_op", "repro.sqlengine.index.btree", "BPlusTree.insert", "span"),
    ("index.self_ms_per_op", "repro.sqlengine.index.btree", "BPlusTree.delete", "span"),
    ("storage.wal_ms_per_op", "repro.sqlengine.storage.wal", "WriteAheadLog.append", "span"),
    ("storage.wal_ms_per_op", "repro.sqlengine.storage.wal", "WriteAheadLog.flush", "span"),
    ("txn.lock_self_ms_per_op", "repro.sqlengine.txn.locks", "LockManager.acquire", "span"),
    ("txn.lock_self_ms_per_op", "repro.sqlengine.txn.locks", "LockManager.release_all", "span"),
    ("enclave.gateway_wait_ms_per_op", "repro.enclave.worker",
     "EnclaveCallGateway.eval", "span"),
    ("enclave.gateway_wait_ms_per_op", "repro.enclave.worker",
     "EnclaveCallGateway.eval_batch", "span"),
    ("enclave.self_ms_per_op", "repro.enclave.runtime", "Enclave.eval", "span"),
    ("enclave.self_ms_per_op", "repro.enclave.runtime", "Enclave.eval_batch", "span"),
    ("enclave.self_ms_per_op", "repro.enclave.runtime", "Enclave.compare", "span"),
    ("enclave.self_ms_per_op", "repro.enclave.runtime", "Enclave.compare_batch", "span"),
]

#: The op's own span: time in the workload outside any driver call.
ROOT_METRIC = "workloads.self_ms_per_op"
#: The closure ``StatementScheduler.submit`` hands to its worker.
TASK_NAME, TASK_METRIC = "ServerSession.execute[worker]", "server.self_ms_per_op"

#: Every row of the per-layer table that :func:`self_times` can fill.
SELF_TIME_METRICS = sorted(
    ({m for m, *_ in WRAP_TABLE} - {"crypto", "net.frames_per_op"})
    | {"crypto.client_ms_per_op", "crypto.enclave_ms_per_op", ROOT_METRIC}
)


def resolve(module: str, qualname: str):
    """``(owner, attribute, callable)`` for one table entry; raises if gone."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    target = inspect.getattr_static(owner, attr)
    if not inspect.isfunction(target):
        raise TypeError(f"{module}.{qualname} is not a plain function: {target!r}")
    return owner, attr, target


class Tracer:
    """Holds the spans of one traced round."""

    def __init__(self) -> None:
        self.op = -1                       # index of the op in flight, -1 outside one
        self.spans: list[tuple[str, str, int, int, int, int]] = []
        self.frames = 0
        self.frame_bytes = 0

    def _record(self, name: str, metric: str, start: int, op: int) -> None:
        self.spans.append((name, metric, start, perf_counter_ns(), threading.get_ident(), op))

    # -- wrappers ---------------------------------------------------------------

    def spanned(self, fn, name: str, metric: str, keep_none: bool = True):
        if inspect.isgeneratorfunction(fn):
            return self._spanned_generator(fn, name, metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op < 0:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if keep_none or result is not None:
                    self._record(name, metric, start, op)

        return wrapper

    def _spanned_generator(self, fn, name: str, metric: str):
        """One span per resumption: time between yields is the consumer's."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    op = self.op
                    start = perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if op >= 0:
                            self._record(name, metric, start, op)
                    yield item
            finally:
                inner.close()

        return wrapper

    def _submit(self, fn, name: str, metric: str):
        spanned_submit = self.spanned(fn, name, metric)

        @functools.wraps(fn)
        def wrapper(scheduler, task):
            op = self.op
            if op < 0:
                return fn(scheduler, task)

            def traced_task():
                start = perf_counter_ns()
                try:
                    return task()
                finally:
                    self._record(TASK_NAME, TASK_METRIC, start, op)

            return spanned_submit(scheduler, traced_task)

        return wrapper

    def _frames(self, fn):
        @functools.wraps(fn)
        def wrapper(channel, frame):
            if self.op >= 0:
                self.frames += 1
                self.frame_bytes += len(frame)
            return fn(channel, frame)

        return wrapper

    def wrap(self, fn, name: str, metric: str, how: str):
        if how == "submit":
            return self._submit(fn, name, metric)
        if how == "frames":
            return self._frames(fn)
        return self.spanned(fn, name, metric, keep_none=how != "result")


def install() -> Tracer:
    """Wrap every table entry; call before the system under test is built."""
    tracer = Tracer()
    for metric, module, qualname, how in WRAP_TABLE:
        owner, attr, fn = resolve(module, qualname)
        wrapper = tracer.wrap(fn, qualname, metric, how)
        setattr(owner, attr, wrapper)
        if inspect.ismodule(owner):
            # ``from module import fn`` elsewhere bound the original.
            for other in list(sys.modules.values()):
                if other is not None and getattr(other, "__name__", "").startswith("repro"):
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)
    return tracer


def self_times(spans, roots, speed) -> tuple[dict[str, float], float]:
    """Self time in ns per metric, and the summed duration of the ops.

    ``roots[i]`` is the ``(start_ns, end_ns)`` of op ``i`` and
    ``speed[i]`` the host-speed factor its times are scaled by. A span's
    parent is the deepest span that contains its start; its self time is
    its duration minus the part of it its children cover.
    """
    by_op: dict[int, list] = defaultdict(list)
    for span in spans:
        by_op[span[5]].append(span)
    totals: dict[str, float] = defaultdict(float)
    root_total = 0.0

    def close(entry, factor: float) -> None:
        metric, start, end, covered, _until, _in_enclave = entry
        totals[metric] += ((end - start) - covered) * factor

    for op, (root_start, root_end) in enumerate(roots):
        factor = speed[op]
        root_total += (root_end - root_start) * factor
        # entry: [metric, start, end, covered_ns, covered_until, in_enclave]
        stack = [[ROOT_METRIC, root_start, root_end, 0, root_start, False]]
        for _name, metric, start, end, _thread, _op in sorted(
            by_op.get(op, ()), key=lambda s: (s[2], -s[3])
        ):
            if start < root_start or start >= root_end:
                continue  # not caused by this op's call
            while stack[-1][2] <= start:
                close(stack.pop(), factor)
            parent = stack[-1]
            visible_end = min(end, parent[2])
            parent[3] += max(0, visible_end - max(start, parent[4]))
            parent[4] = max(parent[4], visible_end)
            in_enclave = parent[5] or metric.startswith("enclave.self")
            if metric == "crypto":
                metric = "crypto.enclave_ms_per_op" if parent[5] else "crypto.client_ms_per_op"
            stack.append([metric, start, end, 0, start, in_enclave])
        while stack:
            close(stack.pop(), factor)
    return dict(totals), root_total


def write_jsonl(path, spans, roots, kinds) -> None:
    """Dump the round's spans, one JSON object per line, roots first."""
    names = {t.ident: t.name for t in threading.enumerate()}
    with open(path, "w", encoding="utf-8") as out:
        for op, ((start, end), kind) in enumerate(zip(roots, kinds)):
            out.write(json.dumps({
                "name": f"op:{kind}", "metric": ROOT_METRIC, "start_ns": start,
                "end_ns": end, "thread": "client", "op": op,
            }) + "\n")
        for name, metric, start, end, thread, op in spans:
            out.write(json.dumps({
                "name": name, "metric": metric, "start_ns": start, "end_ns": end,
                "thread": names.get(thread, str(thread)), "op": op,
            }) + "\n")
