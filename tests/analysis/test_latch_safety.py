"""Latch exception-safety rule: every bare acquire is released on all
paths (with-statement or immediate try/finally), every release lives in
a finally block."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig


def config(root, **kwargs) -> AnalysisConfig:
    return AnalysisConfig(root=root, packages=("kpkg",), **kwargs)


@pytest.fixture(scope="module")
def rule():
    from repro.analysis.rules.latch_safety import LatchSafetyRule

    return LatchSafetyRule()


def test_violating_fixture_flags_every_leak_shape(rule, run_rule, fixtures_dir):
    findings = run_rule(rule, config(fixtures_dir / "latch_bad"))
    by_symbol = {}
    for f in findings:
        by_symbol.setdefault(f.symbol, set()).add(f.key)
    # release present but not exception-safe: both ends flagged
    assert by_symbol["Store.unreleased_on_raise"] == {
        "bare-acquire:self.page_lock",
        "release-outside-finally:self.page_lock",
    }
    # a raising statement between acquire and try leaks the latch
    assert by_symbol["Store.gap_before_try"] == {"bare-acquire:self.page_lock"}
    assert by_symbol["Store.conditional_release"] == {
        "bare-acquire:self.state_lock",
        "release-outside-finally:self.state_lock",
    }
    assert all(f.rule == "latch-safety" for f in findings)


def test_clean_fixture_has_no_findings(rule, run_rule, fixtures_dir):
    assert run_rule(rule, config(fixtures_dir / "latch_good")) == []


def test_exempt_modules_are_skipped(rule, run_rule, fixtures_dir):
    cfg = config(fixtures_dir / "latch_bad", latch_exempt=("kpkg.store",))
    assert run_rule(rule, cfg) == []


def test_real_tree_is_clean(real_report):
    assert [f for f in real_report.new if f.rule == "latch-safety"] == []
