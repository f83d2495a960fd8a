"""Plaintext-taint rule: every sink kind fires on the violating fixture;
sanctioned egress (re-encryption, comparison verdicts) stays quiet."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig


def config(root) -> AnalysisConfig:
    return AnalysisConfig(root=root, packages=("tpkg",), taint_packages=("tpkg",))


@pytest.fixture(scope="module")
def rule():
    from repro.analysis.rules.plaintext_taint import PlaintextTaintRule

    return PlaintextTaintRule()


def test_violating_fixture_flags_every_sink(rule, run_rule, fixtures_dir):
    findings = run_rule(rule, config(fixtures_dir / "taint_bad"))
    by_symbol = {f.symbol: f.key for f in findings}
    assert by_symbol["leak_return"] == "return-plaintext"
    assert by_symbol["leak_log"] == "log-sink:print"
    assert by_symbol["leak_metric"] == "metric-sink:inc"
    # propagator chain: decrypt -> deserialize_value -> f-string -> logger
    assert by_symbol["leak_fstring"] == "log-sink:info"
    # a batch open is a source like a single one
    assert by_symbol["leak_batch"] == "log-sink:info"
    assert all(f.rule == "plaintext-taint" for f in findings)


def test_clean_fixture_has_no_findings(rule, run_rule, fixtures_dir):
    assert run_rule(rule, config(fixtures_dir / "taint_good")) == []


def test_rule_only_covers_taint_packages(rule, run_rule, fixtures_dir):
    cfg = AnalysisConfig(
        root=fixtures_dir / "taint_bad", packages=("tpkg",), taint_packages=()
    )
    assert run_rule(rule, cfg) == []
