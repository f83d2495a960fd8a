"""Protocol-typestate rule: 2PC write-ahead ordering and coordinator
durability — on fixtures and on the real tree."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig, ProtocolConfig


def config(root) -> AnalysisConfig:
    return AnalysisConfig(
        root=root,
        packages=("ppkg",),
        protocol=ProtocolConfig(engine_modules=("ppkg.engine",)),
    )


@pytest.fixture(scope="module")
def rule():
    from repro.analysis.rules.protocol_typestate import ProtocolTypestateRule

    return ProtocolTypestateRule()


@pytest.fixture(scope="module")
def bad_findings(rule, run_rule, fixtures_dir):
    return run_rule(rule, config(fixtures_dir / "proto_bad"))


class TestTwoPhaseCommitOrdering:
    def test_prepare_without_wal_append(self, bad_findings):
        hits = [f for f in bad_findings if f.key == "state-before-log:PREPARED"]
        assert [f.symbol for f in hits] == ["Engine.prepare"]

    def test_commit_state_before_commit_record(self, bad_findings):
        hits = [f for f in bad_findings if f.key == "state-before-log:COMMITTED"]
        assert [f.symbol for f in hits] == ["Engine.commit_prepared"]

    def test_abort_without_any_record(self, bad_findings):
        hits = [f for f in bad_findings if f.key == "state-without-log:ABORTED"]
        assert [f.symbol for f in hits] == ["Engine.abort_silent"]

    def test_recovery_functions_are_exempt(self, bad_findings):
        assert not any(f.symbol == "Engine.recover" for f in bad_findings)

    def test_coordinator_commit_before_durable_decision(self, bad_findings):
        hits = [f for f in bad_findings if f.key == "commit-before-decision"]
        assert [f.symbol for f in hits] == ["Coordinator.two_phase_commit"]


def test_clean_fixture_has_no_findings(rule, run_rule, fixtures_dir):
    assert run_rule(rule, config(fixtures_dir / "proto_good")) == []


def test_bad_fixture_has_no_extra_findings(bad_findings):
    expected = {
        "state-before-log:PREPARED", "state-before-log:COMMITTED",
        "state-without-log:ABORTED",
        "commit-before-decision",
    }
    assert {f.key for f in bad_findings} == expected


class TestRealTree:
    """The repository's own 2PC honours the contract, and its errors cross
    the wire intact."""

    def test_real_tree_is_clean(self, real_report):
        assert [f for f in real_report.new if f.rule == "protocol-typestate"] == []

    def test_fault_site_survives_the_wire(self):
        # the genuine bug this family surfaced: cls(message) used to stuff
        # the whole message text into FaultInjected.site
        from repro.errors import TransientFault
        from repro.net.messages import error_reply_for, reconstruct_error

        original = TransientFault("net.send_frame")
        rebuilt = reconstruct_error(error_reply_for(original))
        assert type(rebuilt) is TransientFault
        assert rebuilt.site == "net.send_frame"
        assert str(rebuilt) == str(original)

    def test_custom_fault_message_keeps_text_marks_site_remote(self):
        from repro.errors import FatalFault
        from repro.net.messages import error_reply_for, reconstruct_error

        original = FatalFault("disk.write", "device vanished")
        rebuilt = reconstruct_error(error_reply_for(original))
        assert type(rebuilt) is FatalFault
        assert str(rebuilt) == "device vanished"
        assert rebuilt.site == "<remote>"

    def test_registry_is_append_only_and_current(self):
        from repro.net.messages import NONRECONSTRUCTIBLE_ERRORS

        assert NONRECONSTRUCTIBLE_ERRORS == ("RemoteError",)
