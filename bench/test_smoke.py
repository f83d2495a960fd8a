"""Smoke test of the benchmark harness itself (not part of tier-1).

``python -m pytest bench -q``: one ``--smoke`` run (one short round and
one traced round per workload) must emit every metric ``BENCHMARK.json``
names, finite, for every workload; the predicted zeros must hold; and
every entry of the wrap table must still resolve — so a rename in
``src/`` fails here instead of silently dropping a layer row.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from bench import ROOT, metrics, trace

PREDICTED_ZEROS = {
    "tpcc_pt": [
        "enclave.ecalls_per_op", "client.describe_roundtrips_per_op",
        "crypto.cell_ops_per_op", "crypto.cipher_inits_per_op", "net.frames_per_op",
        "crypto.client_ms_per_op", "crypto.enclave_ms_per_op", "enclave.self_ms_per_op",
    ],
    "tpcc_rnd": ["net.frames_per_op", "net.bytes_per_op", "net.codec_ms_per_op"],
    "tpcc_rnd_wire": [],
    "rnd_scan": ["net.frames_per_op", "storage.wal_bytes_per_op", "txn.retries_per_op"],
}


@pytest.mark.parametrize("metric,module,qualname,how", trace.WRAP_TABLE)
def test_wrap_table_entry_resolves(metric, module, qualname, how):
    _owner, _attr, fn = trace.resolve(module, qualname)
    assert callable(fn)
    assert how in ("span", "submit", "frames", "result")


def test_wrap_table_rows_are_metrics_of_the_manifest():
    names = {m["name"] for m in metrics.manifest()["per_layer"]}
    assert set(trace.SELF_TIME_METRICS) <= names


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8")), done.stdout


def test_every_metric_present_and_finite(smoke_result):
    result, stdout = smoke_result
    spec = metrics.manifest()
    assert result["schema_version"] == 1
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for workload, summary in result["workloads"].items():
        assert summary["correct"] and summary["failed"] == 0, workload
        for table in ("end_to_end", "per_layer"):
            for metric in spec[table]:
                row = summary[table][metric["name"]]
                assert math.isfinite(row["value"]), (workload, metric["name"])
                assert row["unit"] == metric["unit"]
                assert metric["name"] in stdout
        assert summary["end_to_end"]["failed_frac"]["value"] == 0
        for metric in spec["end_to_end"]:
            assert summary["end_to_end"][metric["name"]]["value"] > 0, metric["name"]


def test_predicted_zeros_and_sum_check(smoke_result):
    result, _stdout = smoke_result
    for workload, names in PREDICTED_ZEROS.items():
        layer = result["workloads"][workload]["per_layer"]
        for name in names:
            assert layer[name]["value"] == 0, (workload, name)
        assert layer["trace.sum_check_frac"]["value"] < 0.01, workload
    wire = result["workloads"]["tpcc_rnd_wire"]["per_layer"]
    assert wire["net.frames_per_op"]["value"] > 0
    assert wire["client.describe_roundtrips_per_op"]["value"] > 0
    assert result["workloads"]["rnd_scan"]["per_layer"]["enclave.ecalls_per_op"]["value"] > 0
