"""OBS — what the whole telemetry subsystem costs a transaction.

Counters, per-statement ``QueryStats``, the flight recorder and the
leakage ledger sit on every path in the stack. This benchmark *reports*
their combined cost: ``get_registry().enabled = False`` (the global kill
switch: every ``inc`` / ``record_event`` / ``record_leak`` returns at an
attribute check) against the default, on a TPC-C slice. The slice is the
read-only ``order_status`` transaction — its 60% by-last-name path routes
the RND-encrypted ``C_LAST`` predicate through the enclave index, so every
run crosses the instrumented boundary paths. Timings are *paired*: the
transaction RNG is reseeded identically for both arms of a pair, so
on/off time byte-identical work, and the pair order alternates so neither
arm systematically benefits from running second. The reported fraction is
the median over pairs of ``on / off - 1`` (the slice is bimodal — by id or
by last name — and a pair always takes the same path); medians and
quartiles of both arms persist with it to
``benchmarks/BENCH_obs_overhead.json``.

The fraction is a wall-clock ratio of ~1–2 ms samples and moves by a
point or more from run to run on a shared host (the recorder-only gate
this file used to hold read 2.6–8.7% over 17 runs), so it is not
asserted. What *is* asserted repeats exactly: the events a transaction
records are a function of its seed, and a disabled ``record_event``
collapses to an attribute check. The pass/fail gate on telemetry cost is
the lock/clock budget in ``tests/obs/test_telemetry_budget.py`` (tier-1).
"""

import gc
import json
import pathlib
import statistics
import time

from repro.enclave import CallMode
from repro.obs.flightrec import get_recorder, record_event
from repro.obs.metrics import get_registry
from repro.workloads.tpcc.config import EncryptionMode, TpccConfig
from repro.workloads.tpcc.driver import build_system

OUT_PATH = pathlib.Path(__file__).parent / "BENCH_obs_overhead.json"

PAIRS = 200         # (telemetry-on, telemetry-off) runs of identical work
REPLAYED = 25       # pairs whose event counts are re-derived from the seed
DISABLED_CALLS = 100_000
SEED_BASE = 10_000  # per-pair RNG seed: pair i reseeds both arms with it


def _quartiles(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"q1_s": round(q1, 7), "median_s": round(median, 7), "q3_s": round(q3, 7)}


def test_whole_subsystem_overhead_is_reported():
    config = TpccConfig(
        warehouses=1,
        districts_per_warehouse=1,
        customers_per_district=10,
        items=20,
        mode=EncryptionMode.RND,
        enclave_threads=2,
    )
    system = build_system(config, enclave_call_mode=CallMode.SYNCHRONOUS)
    registry = get_registry()
    recorder = get_recorder()
    txns = system.transactions
    for i in range(10):  # warm plans, caches, and the attestation session
        txns.rng.seed(i)
        txns.order_status()

    def events_of(seed: int) -> int:
        """Events one telemetry-on run of ``seed`` leaves in the ring."""
        recorder.clear()
        txns.rng.seed(seed)
        txns.order_status()
        return len(recorder)

    on_times: list[float] = []
    off_times: list[float] = []
    events_per_pair: list[int] = []
    # Standard micro-benchmark hygiene: collect once, then pause the
    # cyclic GC for the timed region so collection pauses (which land on
    # whichever arm happens to be running) don't skew the medians.
    gc.collect()
    gc.disable()
    try:
        for i in range(PAIRS):
            arms = ("on", "off") if i % 2 else ("off", "on")
            for arm in arms:
                txns.rng.seed(SEED_BASE + i)
                registry.enabled = arm == "on"
                recorder.clear()
                started = time.perf_counter()
                txns.order_status()
                elapsed = time.perf_counter() - started
                if arm == "on":
                    on_times.append(elapsed)
                    events_per_pair.append(len(recorder))
                else:
                    off_times.append(elapsed)
                    assert len(recorder) == 0, "the kill switch must silence the recorder"
    finally:
        gc.enable()
        registry.enabled = True
    # What repeats exactly: a transaction's events are a function of its seed.
    assert min(events_per_pair) > 0, "telemetry-on runs must actually record"
    replayed = [events_of(SEED_BASE + i) for i in range(REPLAYED)]
    assert replayed == events_per_pair[:REPLAYED]

    overhead = statistics.median(on / off - 1.0 for on, off in zip(on_times, off_times))

    # -- the kill switch: registry off must make record_event near-free ----
    started = time.perf_counter()
    for __ in range(DISABLED_CALLS):
        record_event("stmt.begin", query="disabled-cost-probe")
    enabled_call_s = (time.perf_counter() - started) / DISABLED_CALLS
    registry.enabled = False
    try:
        started = time.perf_counter()
        for __ in range(DISABLED_CALLS):
            record_event("stmt.begin", query="disabled-cost-probe")
        disabled_call_s = (time.perf_counter() - started) / DISABLED_CALLS
    finally:
        registry.enabled = True
    recorder.clear()

    summary = {
        "pairs": PAIRS,
        "events_per_txn": round(sum(events_per_pair) / PAIRS, 2),
        "telemetry_on": _quartiles(on_times),
        "telemetry_off": _quartiles(off_times),
        "overhead_frac": round(overhead, 6),
        "enabled_record_call_s": round(enabled_call_s, 9),
        "disabled_record_call_s": round(disabled_call_s, 9),
    }
    OUT_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print("\n  obs_overhead: " + json.dumps(summary, sort_keys=True))

    # Near-zero when the registry kill switch is thrown: well under a
    # microsecond per call, and far below the enabled path's cost.
    assert disabled_call_s < 2e-6, (
        f"disabled record_event costs {disabled_call_s * 1e6:.2f}us/call"
    )
    assert disabled_call_s < enabled_call_s, (
        "disabling the registry must make record_event cheaper than "
        "recording"
    )
