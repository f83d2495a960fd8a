"""Seconds-scale smoke of the one measured Figure 8 sweep.

Both entry points feed :func:`repro.harness.measured.measure_curve`; the
deployment is ``n_shards`` (0 = in-process, 1 = one forked shard behind
the forked router). Asserts what ``benchmarks/bench_figure8.py`` and
``benchmarks/bench_figure8_sharded.py`` read from the result and its JSON.
"""

import json

from repro.harness.experiments import TpccScale
from repro.harness.measured import (
    Figure8MeasuredResult,
    MeasuredCurve,
    run_figure8_measured,
    run_figure8_sharded,
)

TINY = TpccScale(warehouses=2, districts_per_warehouse=2, customers_per_district=6, items=20)
SWEEP = dict(scale=TINY, client_counts=(1, 2), transactions_per_client=2)


def _check(result: Figure8MeasuredResult, path, expected: set[tuple[str, int]]):
    assert {(c.label, c.n_shards) for c in result.curves} == expected
    for curve in result.curves:
        assert type(curve) is MeasuredCurve
        assert all(t > 0 for t in curve.throughput), curve.name
        assert all(n > 0 for n in curve.transactions), curve.name
        assert curve.invariant_violations == [], curve.name
        assert bool(curve.modeled) == (curve.n_shards == 0), curve.name
    persisted = json.loads(path.read_text())
    assert persisted["figure"] == result.figure
    assert persisted["host"]["effective_cpus"] == result.host["effective_cpus"]
    assert persisted["scaling_gate_applicable"] == result.scaling_gate_applicable
    assert {(c["label"], c["n_shards"]) for c in persisted["curves"]} == expected
    for curve in persisted["curves"]:
        assert len(curve["throughput_txn_s"]) == len(curve["clients"])
        assert curve["invariant_violations"] == []


def test_measured_sweep_in_process(tmp_path):
    path = tmp_path / "measured.json"
    result = run_figure8_measured(output_path=path, **SWEEP)
    assert result.figure == "8-measured"
    _check(
        result, path, {("SQL-PT", 0), ("SQL-PT-AEConn", 0), ("SQL-AE-RND-4", 0)}
    )
    pt = result.curve("SQL-PT")
    assert pt.clients == [1, 2] and pt.at(2) == pt.throughput[1]
    assert max(result.normalized()["SQL-PT"]) == 1.0


def test_measured_sweep_sharded(tmp_path):
    path = tmp_path / "sharded.json"
    result = run_figure8_sharded(
        output_path=path,
        shard_counts=(1,),
        ae_shard_counts=(1,),
        ae_client_counts=(1, 2),
        **SWEEP,
    )
    assert result.figure == "8-sharded"
    _check(result, path, {("SQL-PT", 1), ("SQL-AE-RND-4", 1), ("SQL-PT", 0)})
    # The same-host reference is the in-process curve at the peak count.
    assert result.curve("SQL-PT").clients == [2]
    assert result.wire_tax(1, 2) == (
        result.curve("SQL-PT", 1).at(2) / result.curve("SQL-PT").at(2)
    )
