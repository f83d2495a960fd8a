"""From raw round measurements to the named metrics of ``BENCHMARK.json``.

``BENCHMARK.json`` is the single list of metric names, units, directions
and bounds; this module computes a value for every name in it and
refuses to emit a result that misses one.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import statistics

from bench import ROOT, trace

#: Counts whose value depends on thread timing (a worker found spinning
#: or asleep, time spent queued). Every other count or ratio taken from
#: ``get_registry()`` deltas must repeat exactly for the same seed.
TIMING_DEPENDENT = frozenset({
    "scheduler.dispatch_wait_ms_per_op",
    "txn.lock_wait_ms_per_op",
    "enclave.cpu_ms_per_op",
    "enclave.spin_hit_ratio",
    "enclave.transitions_per_op",
    "enclave.rows_per_transition",
})

#: ``failed_frac`` is an end-to-end metric of ``result.json`` with bound 0
#: (any increase is a regression). It is not in ``BENCHMARK.json``, whose
#: metrics may never read 0; there it is the ``failed``/``attempted`` pair.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}


@functools.cache
def manifest() -> dict:
    """``BENCHMARK.json``, read once; treat the result as read-only."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with ``fraction`` at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    """0 when nothing was attempted (no cache lookups on a plain connection)."""
    return numerator / denominator if denominator else 0.0


def end_to_end(r: dict) -> dict[str, float]:
    """One round's end-to-end values; times are reference ms (bench.calib)."""
    return {
        "ops_per_s": r["ops"] * 1000.0 / sum(r["latencies_ms"]),
        "p50_ms": percentile(r["latencies_ms"], 0.50),
        "p95_ms": percentile(r["latencies_ms"], 0.95),
        "cpu_ms_per_op": sum(r["cpu_ms"]) / r["ops"],
        "setup_s": r["setup_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "failed_frac": r["failed"] / r["ops"],
    }


def layer_counts(r: dict) -> dict[str, float]:
    """One round's per-layer values that need no trace."""
    c = {name: 0 for name in _COUNTERS_READ} | r["counters"]
    ops = r["ops"]
    to_ref_ms = 1000.0 * r["speed"]     # registry seconds -> reference ms
    lookups = c["driver.cek_cache_hits"] + c["driver.cek_cache_misses"]
    statements = c["scheduler.statements_inline"] + c["scheduler.statements_dispatched"]
    plans = c["server.plan_cache_hits"] + c["server.plan_cache_misses"]
    pages = c["bufferpool.page_hits"] + c["bufferpool.page_misses"]
    client_cells = c["driver.params_encrypted"] + c["driver.results_decrypted"]
    out = {
        "client.statements_per_op": c["driver.executes"] / ops,
        "client.describe_roundtrips_per_op": c["driver.describe_roundtrips"] / ops,
        "client.roundtrips_per_op": (
            c["driver.describe_roundtrips"] + c["driver.execute_roundtrips"]
            + c["driver.package_roundtrips"]
        ) / ops,
        "client.cells_encrypted_per_op": c["driver.params_encrypted"] / ops,
        "client.cells_decrypted_per_op": c["driver.results_decrypted"] / ops,
        "client.cek_cache_hit_ratio": _ratio(c["driver.cek_cache_hits"], lookups),
        "crypto.cell_ops_per_op": (
            client_cells + c["enclave.cell_decrypts"] + c["enclave.cell_encrypts"]
        ) / ops,
        "crypto.rsa_keygen_s": r["rsa_keygen_s"],
        "scheduler.dispatch_wait_ms_per_op":
            c["scheduler.dispatch_wait_seconds.sum"] * to_ref_ms / ops,
        "scheduler.inline_ratio": _ratio(c["scheduler.statements_inline"], statements),
        "server.plan_cache_hit_ratio": _ratio(c["server.plan_cache_hits"], plans),
        "exec.rows_scanned_per_row_returned":
            _ratio(c["executor.rows_scanned"], c["executor.rows_returned"]),
        "exec.index_seeks_per_op":
            (c["executor.index_seeks"] + c["executor.index_range_scans"]) / ops,
        "exec.table_scans_per_op": c["executor.table_scans"] / ops,
        "index.nodes_visited_per_op": c["index.nodes_visited"] / ops,
        "storage.page_reads_per_op": pages / ops,
        "storage.page_miss_ratio": _ratio(c["bufferpool.page_misses"], pages),
        "storage.wal_bytes_per_op": c["wal.bytes_written"] / ops,
        "storage.wal_flushes_per_op": c["wal.flushes"] / ops,
        "txn.locks_acquired_per_op": c["locks.acquired"] / ops,
        "txn.lock_wait_ms_per_op": c["locks.wait_seconds.sum"] * to_ref_ms / ops,
        "txn.retries_per_op": r["retries"] / ops,
        "enclave.ecalls_per_op": c["enclave.ecalls"] / ops,
        "enclave.transitions_per_op": c["worker.boundary_transitions"] / ops,
        "enclave.rows_per_transition":
            _ratio(c["enclave.evals"], c["worker.boundary_transitions"]),
        "enclave.comparisons_per_op": c["enclave.comparisons"] / ops,
        "enclave.cell_decrypts_per_op": c["enclave.cell_decrypts"] / ops,
        "enclave.spin_hit_ratio": _ratio(c["worker.spin_hits"], c["worker.calls"]),
        "enclave.cpu_ms_per_op": c["enclave.cpu_seconds"] * to_ref_ms / ops,
        "workloads.p99_ms": percentile(r["latencies_ms"], 0.99),
        "host.calib_ms": r["calib_ms"],
        "host.raw_ops_per_s": r["ops"] * 1000.0 / sum(r["raw_latencies_ms"]),
        "host.nproc": float(os.cpu_count() or 1),
    }
    for metric in manifest()["per_layer"]:
        # One median per op kind of any workload; a kind this workload does
        # not run reads 0, so every run emits every name of BENCHMARK.json.
        match = re.fullmatch(r"workloads\.(\w+)_p50_ms", metric["name"])
        if match:
            samples = [ms for k, ms in zip(r["kinds"], r["latencies_ms"]) if k == match[1]]
            out[metric["name"]] = percentile(samples, 0.50) if samples else 0.0
    return out


_COUNTERS_READ = (
    "driver.cek_cache_hits", "driver.cek_cache_misses", "driver.executes",
    "driver.describe_roundtrips", "driver.execute_roundtrips", "driver.package_roundtrips",
    "driver.params_encrypted", "driver.results_decrypted",
    "scheduler.statements_inline", "scheduler.statements_dispatched",
    "scheduler.dispatch_wait_seconds.sum",
    "server.plan_cache_hits", "server.plan_cache_misses",
    "executor.rows_scanned", "executor.rows_returned", "executor.index_seeks",
    "executor.index_range_scans", "executor.table_scans", "index.nodes_visited",
    "bufferpool.page_hits", "bufferpool.page_misses", "wal.bytes_written", "wal.flushes",
    "locks.acquired", "locks.wait_seconds.sum",
    "enclave.ecalls", "enclave.evals", "enclave.comparisons", "enclave.cell_decrypts",
    "enclave.cell_encrypts", "enclave.cpu_seconds",
    "worker.boundary_transitions", "worker.spin_hits", "worker.calls",
)


def layer_trace(traced: dict, untraced_ops_per_s: float) -> dict[str, float]:
    """The per-layer values only the traced round can give."""
    t = traced["trace"]
    ops = traced["ops"]
    out = {name: t["self_ns"].get(name, 0) / 1e6 / ops for name in trace.SELF_TIME_METRICS}
    out["crypto.cipher_inits_per_op"] = t["cipher_inits"] / ops
    out["net.frames_per_op"] = t["frames"] / ops
    out["net.bytes_per_op"] = t["frame_bytes"] / ops
    out["trace.overhead_frac"] = 1.0 - end_to_end(traced)["ops_per_s"] / untraced_ops_per_s
    out["trace.sum_check_frac"] = abs(sum(t["self_ns"].values()) - t["root_ns"]) / t["root_ns"]
    return out


def kind_of(name: str) -> str:
    """``count`` (repeats exactly), ``timing_count``, ``self_time`` or ``other``."""
    if name in TIMING_DEPENDENT:
        return "timing_count"
    if name in trace.SELF_TIME_METRICS:
        return "self_time"
    layer = name.split(".")[0]
    if layer in ("trace", "host", "workloads") or name == "crypto.rsa_keygen_s":
        return "other"
    return "count"


def summarize(spec: list[dict], per_round: list[dict[str, float]]) -> dict[str, dict]:
    """Median over rounds of every metric in ``spec``, with the round values."""
    out = {}
    for metric in spec:
        name = metric["name"]
        values = [values_of_round[name] for values_of_round in per_round]
        out[name] = {
            "value": statistics.median(values),
            "unit": metric["unit"],
            "rounds": values,
        }
    return out
