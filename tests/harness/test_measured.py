"""Seconds-scale smoke of the one measured sweep, in both deployments.

Both experiments feed :func:`repro.harness.measured.measure_curve`; the
deployment is ``n_shards`` (0 = in-process, 1 = one forked shard behind
the forked router).
"""

from repro.harness.result import failed_claims, validate


def _check(result: dict, labels: list[str]) -> dict[str, dict[int, dict]]:
    validate(result)
    assert failed_claims(result) == []          # the quiesce invariant audit
    curves: dict[str, dict[int, dict]] = {}
    for row in result["rows"]:
        curves.setdefault(row["label"], {})[row["x"]] = row
    assert list(curves) == labels
    for label, points in curves.items():
        assert all(point["value"] > 0 for point in points.values()), label
        if not label.endswith("(model)"):
            assert all(p["counts"]["transactions"] > 0 for p in points.values()), label
    return curves


def test_measured_sweep_in_process(smoke):
    result = smoke("figure8-measured")
    curves = _check(result, [
        "SQL-PT", "SQL-PT (model)", "SQL-PT-AEConn", "SQL-PT-AEConn (model)",
        "SQL-AE-RND-4", "SQL-AE-RND-4 (model)",
    ])
    assert all(list(points) == [1, 2] for points in curves.values())
    assert result["host"]["effective_cpus"] >= 1
    assert result["params"]["rtt_s"] == 0.002


def test_measured_sweep_sharded(smoke):
    curves = _check(smoke("figure8-sharded"), ["SQL-PT/1sh", "SQL-AE-RND-4/1sh", "SQL-PT"])
    assert list(curves["SQL-PT/1sh"]) == [1, 2]
    # The same-host reference is the in-process curve at the peak count.
    assert list(curves["SQL-PT"]) == [2]
