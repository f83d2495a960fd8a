"""One round of one workload, in this process.

A round pins itself to one CPU, builds the system (timed as set-up),
warms it, runs the seed-determined op sequence with a latency sample and
a calibration sample per op, and then — outside the timed window —
checks correctness. The parent (``bench.__main__``) runs every round in
a fresh subprocess and takes medians over rounds, so nothing here
survives into the next one.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import sys
import time
import traceback

from bench import OUT_DIR, calib, trace
from bench.workloads import SPECS
from repro.crypto.rsa import RsaKeyPair
from repro.obs import get_registry


def pin_to_one_cpu() -> None:
    """Run every thread of this round on one CPU.

    The GIL lets one thread run at a time anyway, and on this 2-vCPU VM a
    hand-off that crosses CPUs costs more than the work handed off: the
    wire workload took 2.0-3.2 s unpinned and 0.8-1.05 s pinned for the
    same 50 transactions. One client on one CPU is the load shape.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@contextlib.contextmanager
def keygen_timer():
    """Accumulates time inside ``RsaKeyPair.generate`` into ``timer[0]``.

    It draws primes from ``secrets``, so its duration varies severalfold
    from run to run for the same code; set-up time is reported net of it.
    """
    original = RsaKeyPair.__dict__["generate"]
    timer = [0.0]

    def generate(cls, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original.__func__(cls, *args, **kwargs)
        finally:
            timer[0] += time.perf_counter() - start

    RsaKeyPair.generate = classmethod(generate)
    try:
        yield timer
    finally:
        RsaKeyPair.generate = original


def _counters() -> dict[str, float]:
    """The registry flattened to numbers (a histogram gives sum and count)."""
    flat: dict[str, float] = {}
    for name, value in get_registry().snapshot().items():
        if isinstance(value, dict):
            flat[name + ".sum"] = value["sum"]
            flat[name + ".count"] = value["count"]
        else:
            flat[name] = value
    return flat


def run_round(workload_name: str, seed: int, ops: int, traced: bool) -> dict:
    """Run one round and return its raw measurements (see module doc)."""
    pin_to_one_cpu()
    tracer = trace.install() if traced else None
    workload = SPECS[workload_name].make()

    with keygen_timer() as keygen:
        kernel_before = min(calib.kernel() for _ in range(3))
        start = time.perf_counter()
        workload.build(seed)
        setup_s = time.perf_counter() - start - keygen[0]
        kernel_after = min(calib.kernel() for _ in range(3))

    for kind, payload in workload.plan(seed, workload.warmup_ops, "warmup"):
        workload.run(kind, payload)

    plan = workload.plan(seed, ops, "measure")
    results: list = []
    roots: list[tuple[int, int]] = []
    cpu_ns: list[int] = []
    failures: list[str] = []
    workload.retries = 0
    before = _counters()
    kernel_ns = [calib.kernel()]
    for index, (kind, payload) in enumerate(plan):
        if tracer is not None:
            tracer.op = index
        cpu_start = time.process_time_ns()
        op_start = time.perf_counter_ns()
        try:
            results.append(workload.run(kind, payload))
        except Exception:
            results.append(None)
            failures.append(f"op {index} ({kind}): {traceback.format_exc(limit=3)}")
        roots.append((op_start, time.perf_counter_ns()))
        cpu_ns.append(time.process_time_ns() - cpu_start)
        if tracer is not None:
            tracer.op = -1
        kernel_ns.append(calib.kernel())
    after = _counters()

    failed_ops = len(failures)
    try:
        violations = workload.check(plan, results)
    except Exception:
        violations = [f"check raised: {traceback.format_exc(limit=3)}"]
    if violations:
        failed_ops = len(plan)  # a wrong end state taints every op of the round
    workload.close()
    for message in (failures + violations)[:10]:
        print(f"[{workload_name}] FAILED: {message}", file=sys.stderr)

    speed = calib.speed_factors(kernel_ns)
    out = {
        "workload": workload_name,
        "seed": seed,
        "ops": len(plan),
        "failed": failed_ops,
        "retries": workload.retries,
        "calib_ms": statistics.median(kernel_ns) / 1e6,
        "speed": statistics.fmean(speed),
        "setup_s": setup_s * calib.speed_factors([kernel_before, kernel_after])[0],
        "rsa_keygen_s": keygen[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kinds": [kind for kind, _ in plan],
        "raw_latencies_ms": [(end - start) / 1e6 for start, end in roots],
        # Everything below is in reference milliseconds (see bench.calib).
        "latencies_ms": [(end - start) * f / 1e6 for (start, end), f in zip(roots, speed)],
        "cpu_ms": [ns * f / 1e6 for ns, f in zip(cpu_ns, speed)],
        "counters": {k: after[k] - before.get(k, 0) for k in after},
    }
    if tracer is not None:
        self_ns, root_ns = trace.self_times(tracer.spans, roots, speed)
        OUT_DIR.mkdir(exist_ok=True)
        trace.write_jsonl(
            OUT_DIR / f"trace-{workload_name}.jsonl", tracer.spans, roots, out["kinds"]
        )
        out["trace"] = {
            "self_ns": self_ns,
            "root_ns": root_ns,
            "spans": len(tracer.spans),
            "frames": tracer.frames,
            "frame_bytes": tracer.frame_bytes,
            "cipher_inits": sum(1 for s in tracer.spans if s[0] == "CellCipher.__init__"),
        }
    return out
