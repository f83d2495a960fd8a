"""Profiling and the CI perf budget: one parse, shared flow structures,
per-phase timings, --profile output, --budget-seconds ratchet."""

from __future__ import annotations

import pytest

from repro.analysis.cli import main
from repro.analysis.config import default_config
from repro.analysis.rules import ALL_RULES

#: generous CI ceiling — the full battery runs in ~1s; the budget exists
#: to catch an accidental quadratic blow-up, not to race the scheduler.
CI_BUDGET_SECONDS = 60.0


def test_timings_cover_every_phase(real_report):
    assert list(real_report.timings)[:2] == ["model", "taint-flow"]
    assert list(real_report.timings)[2:] == [rule.name for rule in ALL_RULES]
    assert all(seconds >= 0.0 for seconds in real_report.timings.values())
    assert real_report.total_seconds == pytest.approx(sum(real_report.timings.values()))


def test_full_battery_fits_the_ci_budget(real_report):
    assert real_report.total_seconds < CI_BUDGET_SECONDS


def test_shared_model_and_flow_are_memoized(real_report):
    # the engine parses each file once: a second run against the same
    # prebuilt model must not rebuild call graph or taint summaries
    config = default_config()
    model = real_report.model

    from repro.analysis.callgraph import get_callgraph
    from repro.analysis.taintflow import get_taintflow

    graph_a = get_callgraph(model, config)
    flow_a = get_taintflow(model, config)
    assert get_callgraph(model, config) is graph_a
    assert get_taintflow(model, config) is flow_a


def test_profile_flag_prints_phase_breakdown(capsys, parse_once):
    assert main(["--strict", "--profile"]) == 0
    out = capsys.readouterr().out
    for phase in ("model", "taint-flow", "total"):
        assert f"profile {phase:16s}" in out
    for rule in ALL_RULES:
        assert f"profile {rule.name:16s}" in out


def test_budget_flag_fails_when_exceeded(capsys, parse_once):
    assert main(["--strict", "--budget-seconds", "0.000001"]) == 1
    err = capsys.readouterr().err
    assert "exceeds" in err


def test_budget_flag_passes_within_budget(parse_once):
    assert main(["--strict", "--budget-seconds", str(CI_BUDGET_SECONDS)]) == 0
