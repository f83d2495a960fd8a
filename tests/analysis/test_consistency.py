"""Fault-site rule: every fault-site check fires on the violating
fixture, and the clean fixture stays quiet."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig


def config(root) -> AnalysisConfig:
    return AnalysisConfig(root=root, packages=("spkg",), tests_root=root / "toy_tests")


@pytest.fixture(scope="module")
def rule():
    from repro.analysis.rules.consistency import FaultSiteRule

    return FaultSiteRule()


def test_violating_fixture_flags_every_check(rule, run_rule, fixtures_dir):
    findings = run_rule(rule, config(fixtures_dir / "sites_bad"))
    keys = {f.key for f in findings}
    assert "dynamic-site:register_fault_site" in keys
    assert "unregistered-site:disk.unregistered" in keys
    assert "untested-site:disk.never_tested" in keys
    assert all(f.rule == "fault-site" for f in findings)


def test_clean_fixture_has_no_findings(rule, run_rule, fixtures_dir):
    assert run_rule(rule, config(fixtures_dir / "sites_good")) == []


def test_missing_tests_root_disables_coverage_check(rule, run_rule, fixtures_dir):
    cfg = AnalysisConfig(root=fixtures_dir / "sites_bad", packages=("spkg",))
    keys = {f.key for f in run_rule(rule, cfg)}
    assert not any(k.startswith("untested-site:") for k in keys)
    assert "unregistered-site:disk.unregistered" in keys  # static checks remain
