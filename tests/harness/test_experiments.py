"""Every experiment at smoke scale, in the one schema, asserted on counts."""

import json
from dataclasses import replace

import pytest

from repro.harness.__main__ import main
from repro.harness.experiments import EXPERIMENTS, Calibration, Demands, _step_claims
from repro.harness.result import failed_claims, validate
from repro.workloads.tpcc import EncryptionMode

PT, AECONN, DET, RND = EncryptionMode


def test_the_ten_experiments():
    assert list(EXPERIMENTS) == [
        "figure8", "figure9", "figure8-measured", "figure8-sharded", "eval-batch",
        "anchor", "rotation", "telemetry", "initial-encryption", "order-by",
    ]


# figure8-sharded forks: tests/harness/test_measured.py runs it.
@pytest.mark.parametrize("name", [n for n in EXPERIMENTS if n != "figure8-sharded"])
def test_experiment_at_smoke_scale(smoke, name):
    result = validate(json.loads(json.dumps(smoke(name))))     # survives its own JSON
    assert result["experiment"] == name and result["params"]["scale"] == "smoke"
    assert failed_claims(result) == []
    bases = {c["basis"] for c in result["claims"]}
    assert "count" in bases or "model" in bases, "nothing asserted"


class TestCalibration:
    def test_calibration_measures_demands(self, smoke_run):
        pt = smoke_run.calibration.demands[PT]
        assert pt.wall_s > 0 and pt.wall_ms[0] <= pt.wall_ms[1] <= pt.wall_ms[2]
        assert pt.enclave_s == 0.0
        assert pt.counts["round trips"] > pt.counts["statements"] > 1

    def test_rnd_calibration_includes_enclave_time(self, smoke_run):
        rnd = smoke_run.calibration.demands[RND]
        assert 0 < rnd.enclave_s < rnd.wall_s
        assert rnd.counts["ecalls"] > 0

    def test_demands_split_host_and_enclave(self):
        d = Demands("X", wall_s=0.010, enclave_s=0.002, counts={"round trips": 30}).service()
        assert d.host_cpu_s == pytest.approx(0.008)
        assert d.enclave_cpu_s == pytest.approx(0.002)
        assert d.roundtrips == 30

    def test_step_claims_judge_raw_totals_not_the_rounded_display(self, smoke_run):
        # 100 statements over 12 transactions display as 8.3333 + 8.3333, not 16.6667.
        cal = smoke_run.calibration
        skewed = {mode: replace(d, counts={k: v + 1e-4 * len(k) for k, v in d.counts.items()})
                  for mode, d in cal.demands.items()}
        claims = _step_claims(Calibration(cal.sample, skewed))
        assert [c["verdict"] for c in claims] == ["✓", "✓", "✓"]

    def test_one_calibration_serves_both_figures(self, monkeypatch):
        import repro.harness.experiments as experiments

        built = []
        build_system = experiments.build_system
        monkeypatch.setattr(
            experiments, "build_system",
            lambda config, **kw: built.append(config.label) or build_system(config, **kw),
        )
        run = experiments.Run(smoke=True)
        experiments.figure8(run), experiments.figure9(run)
        assert built == ["SQL-PT", "SQL-PT-AEConn", "SQL-AE-DET", "SQL-AE-RND-4"]


class TestFigure9Smoke:
    def test_orderings_hold_at_tiny_scale(self, smoke):
        result = smoke("figure9")
        bars = {r["label"]: r for r in result["rows"]}
        assert list(bars) == [
            "SQL-PT", "SQL-PT-AEConn", "SQL-AE-DET", "SQL-AE-RND-1", "SQL-AE-RND-4",
        ]
        assert bars["SQL-PT"]["value"] == 1.0
        # One set of measured demands solved at 1 and at 4 enclave threads:
        # the model alone orders these two, and they share one row of counts.
        assert bars["SQL-AE-RND-1"]["value"] < bars["SQL-AE-RND-4"]["value"]
        assert bars["SQL-AE-RND-1"]["counts"] == bars["SQL-AE-RND-4"]["counts"]
        # What separates the other configurations is asserted on the counted
        # demands (the three step claims, ✓ by test_experiment_at_smoke_scale),
        # never on two timings.
        assert [c["basis"] for c in result["claims"]] == [
            "count", "count", "count", "paired", "paired", "paired", "model",
        ]


class TestCommandLine:
    def test_run_writes_one_file_and_report_renders_it(self, tmp_path, capsys):
        assert main(["run", "anchor", "--smoke", "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["anchor.json"]
        capsys.readouterr()
        assert main(["report", "--out", str(tmp_path)]) == 0
        block = capsys.readouterr().out
        assert block.startswith("<!-- harness:anchor -->\n| arm |")
        assert block.rstrip().endswith("<!-- /harness:anchor -->")

    def test_a_failed_count_claim_is_the_only_nonzero_exit(self, tmp_path, monkeypatch, smoke):
        import repro.harness.__main__ as cli

        broken = json.loads(json.dumps(smoke("anchor")))
        broken["claims"][0]["verdict"] = "✗"                     # a count claim
        monkeypatch.setattr(cli, "EXPERIMENTS", {"anchor": lambda run: broken})
        assert main(["run", "all", "--smoke", "--out", str(tmp_path)]) == 1
        broken["claims"][0]["verdict"] = "✓"
        broken["claims"][-1]["verdict"] = "✗"                    # a paired claim
        assert main(["run", "all", "--smoke", "--out", str(tmp_path)]) == 0
