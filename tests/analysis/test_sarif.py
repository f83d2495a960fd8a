"""SARIF 2.1.0 export: structure, suppression semantics, and round-trip
agreement with the engine's own report."""

from __future__ import annotations

import json

import pytest

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import AnalysisEngine
from repro.analysis.sarif import SARIF_VERSION, to_sarif, write_sarif


@pytest.fixture(scope="module")
def flow_bad_run(fixtures_dir):
    from repro.analysis.rules import ALL_RULES

    config = AnalysisConfig(
        root=fixtures_dir / "flow_bad",
        packages=("fpkg",),
        taint_packages=("fpkg",),
    )
    engine = AnalysisEngine(config, rules=ALL_RULES)
    return engine.run(), ALL_RULES


def test_sarif_structure(flow_bad_run):
    report, rules = flow_bad_run
    log = to_sarif(report, rules)
    assert log["version"] == SARIF_VERSION
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.analysis"
    assert [r["id"] for r in driver["rules"]] == [r.name for r in rules]
    assert all(r["shortDescription"]["text"] for r in driver["rules"])


def test_new_findings_are_error_level(flow_bad_run):
    report, rules = flow_bad_run
    assert report.new  # the fixture is deliberately dirty
    results = to_sarif(report, rules)["runs"][0]["results"]
    errors = [r for r in results if r["level"] == "error"]
    assert len(errors) == len(report.new)
    assert all("suppressions" not in r for r in errors)


def test_round_trip_agrees_with_report(flow_bad_run, tmp_path):
    report, rules = flow_bad_run
    out = tmp_path / "out.sarif"
    write_sarif(out, report, rules)
    log = json.loads(out.read_text(encoding="utf-8"))
    results = log["runs"][0]["results"]

    sarif_fps = {r["partialFingerprints"]["reproAnalysis/v1"] for r in results}
    report_fps = {f.fingerprint for f in report.new + report.suppressed}
    assert sarif_fps == report_fps

    by_fp = {r["partialFingerprints"]["reproAnalysis/v1"]: r for r in results}
    for finding in report.new:
        result = by_fp[finding.fingerprint]
        assert result["ruleId"] == finding.rule
        assert result["message"]["text"] == finding.message
        location = result["locations"][0]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == finding.path
        assert physical["region"]["startLine"] >= 1
        assert (
            location["logicalLocations"][0]["fullyQualifiedName"]
            == finding.symbol
        )


def test_baselined_findings_carry_suppressions(tmp_path, capsys, parse_once):
    # real tree via the CLI: the two baselined taint findings must appear
    # as suppressed notes, not errors
    from repro.analysis.cli import main

    out = tmp_path / "real.sarif"
    assert main(["--strict", "--sarif", str(out)]) == 0
    log = json.loads(out.read_text(encoding="utf-8"))
    results = log["runs"][0]["results"]
    suppressed = [r for r in results if r.get("suppressions")]
    assert suppressed and suppressed == results  # strict-clean: all baselined
    for result in suppressed:
        assert result["level"] == "note"
        assert result["suppressions"][0]["kind"] == "external"
