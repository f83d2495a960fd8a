"""Interprocedural taint: flows through helper returns, helper sinks,
dataclass construction and container packing — all invisible to the old
per-function engine.

The ``flow_bad`` package is the acceptance fixture from the issue: a
decrypt routed through a helper into a frame send must be flagged by the
summary-based engine.
"""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig, TaintConfig
from repro.analysis.model import ProjectModel
from repro.analysis.taintflow import get_taintflow


def keys_of(findings) -> set:
    return {f.key for f in findings}


def config(root, **taint_kwargs) -> AnalysisConfig:
    return AnalysisConfig(
        root=root,
        packages=("fpkg",),
        taint_packages=("fpkg",),
        taint=TaintConfig(**taint_kwargs),
    )


@pytest.fixture(scope="module")
def taint_rule():
    from repro.analysis.rules.plaintext_taint import PlaintextTaintRule

    return PlaintextTaintRule()


@pytest.fixture(scope="module")
def egress_rule():
    from repro.analysis.rules.wire_egress import WireEgressRule

    return WireEgressRule()


class TestSummaries:
    def test_helper_return_summary(self, fixtures_dir):
        cfg = config(fixtures_dir / "flow_bad")
        model = ProjectModel.build(cfg.root, cfg.packages)
        flow = get_taintflow(model, cfg)
        unwrap = flow.summaries["fpkg.helpers:unwrap"]
        assert unwrap.returns_source

    def test_helper_sink_summary(self, fixtures_dir):
        cfg = config(fixtures_dir / "flow_bad")
        model = ProjectModel.build(cfg.root, cfg.packages)
        flow = get_taintflow(model, cfg)
        # emit(channel, payload): payload flows to a wire sink; relay
        # inherits it transitively through the fixpoint.
        emit_params = {p for p, _, _ in flow.summaries["fpkg.helpers:emit"].param_sinks}
        relay_params = {p for p, _, _ in flow.summaries["fpkg.helpers:relay"].param_sinks}
        assert 1 in emit_params
        assert 1 in relay_params

    def test_sanitizer_kills_summary(self, fixtures_dir):
        cfg = config(fixtures_dir / "flow_good")
        model = ProjectModel.build(cfg.root, cfg.packages)
        flow = get_taintflow(model, cfg)
        # re-encryption launders: the helper contributes no signature at
        # all (only non-trivial summaries are stored)
        sealed = flow.summaries.get("fpkg.helpers:unwrap_sealed")
        assert sealed is None or not sealed.returns_source


class TestPlaintextTaintInterprocedural:
    def test_flags_flows_through_helpers(self, taint_rule, run_rule, fixtures_dir):
        findings = run_rule(taint_rule, config(fixtures_dir / "flow_bad"))
        by_symbol = {f.symbol: f.key for f in findings}
        # decrypt hidden behind helpers.unwrap, logged by the caller
        assert by_symbol["leak_via_helper_return"] == "log-sink:info"
        # container packing: rows.append(decrypt(...)) then return rows
        assert by_symbol["leak_via_container"] == "return-plaintext"
        # the helper itself returns plaintext across a boundary
        assert by_symbol["unwrap"] == "return-plaintext"

    def test_clean_fixture_is_quiet(self, taint_rule, run_rule, fixtures_dir):
        assert run_rule(taint_rule, config(fixtures_dir / "flow_good")) == []


class TestOldEngineComparison:
    """The acceptance test: the flow the per-function engine missed."""

    def test_new_engine_catches_decrypt_helper_framesend(
        self, egress_rule, run_rule, fixtures_dir
    ):
        findings = run_rule(egress_rule, config(fixtures_dir / "flow_bad"))
        keys = keys_of(findings)
        assert "wire-sink-via:relay" in keys  # decrypt -> relay -> emit -> send_frame
