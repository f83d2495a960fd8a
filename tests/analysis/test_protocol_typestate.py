"""Protocol-typestate rule: opcode coverage, dispatch totality, 2PC
write-ahead ordering, coordinator durability, and total error
marshalling — on fixtures and on the real tree."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig, ProtocolConfig

GOOD_OPCODES = (
    "ping", "pong", "open", "open_reply", "close",
    "exec", "exec_reply", "audit", "audit_reply", "error",
    "relayed",  # routed only by a forwarding tuple its handler module reads
)
BAD_OPCODES = (
    "ping", "pong", "open", "open_reply", "close",
    "exec", "exec_reply", "orphaned", "dup",
    "ghost",  # registered but has no message dataclass
)


def config(root, opcode_names) -> AnalysisConfig:
    return AnalysisConfig(
        root=root,
        packages=("ppkg",),
        opcode_names=opcode_names,
        protocol=ProtocolConfig(
            handler_modules=("ppkg.handlers",),
            messages_module="ppkg.messages",
            errors_module="ppkg.errors",
            error_base="ProtoError",
            engine_modules=("ppkg.engine",),
        ),
    )


@pytest.fixture(scope="module")
def rule():
    from repro.analysis.rules.protocol_typestate import ProtocolTypestateRule

    return ProtocolTypestateRule()


@pytest.fixture(scope="module")
def bad_findings(rule, run_rule, fixtures_dir):
    return run_rule(rule, config(fixtures_dir / "proto_bad", BAD_OPCODES))


class TestOpcodeCoverage:
    def test_duplicate_opcode_claim(self, bad_findings):
        keys = {f.key for f in bad_findings}
        assert "duplicate-message:dup" in keys

    def test_registered_opcode_without_message(self, bad_findings):
        keys = {f.key for f in bad_findings}
        assert "opcode-without-message:ghost" in keys

    def test_unrouted_message_classes(self, bad_findings):
        unrouted = {f.symbol for f in bad_findings if f.key.startswith("unrouted")}
        assert unrouted == {"Orphaned", "DupA", "DupB"}

    def test_duplicate_dispatch_arm_is_dead_code(self, bad_findings):
        assert any(f.key == "duplicate-handler:Ping" for f in bad_findings)

    def test_dispatcher_must_end_in_raise(self, bad_findings):
        falls = [f for f in bad_findings if f.key == "handler-falls-through"]
        assert [f.symbol for f in falls] == ["Server.dispatch"]

    def test_handler_module_must_marshal_errors(self, bad_findings):
        assert any(f.key == "missing-error-path" for f in bad_findings)


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

    def test_coordinator_without_abort_path(self, bad_findings):
        keys = {f.key for f in bad_findings}
        assert "prepare-without-abort-path" in keys


class TestErrorMarshalling:
    def test_two_required_args_degrade(self, bad_findings):
        keys = {f.key for f in bad_findings}
        assert "unmarshallable-error:BadArity" in keys

    def test_single_nonmessage_arg_distorts(self, bad_findings):
        # SiteError(site, message=None): cls(message) silently stuffs the
        # whole message into the site field — distortion, flagged
        keys = {f.key for f in bad_findings}
        assert "unmarshallable-error:SiteError" in keys

    def test_stale_registry_entries_rot(self, bad_findings):
        keys = {f.key for f in bad_findings}
        assert "stale-unmarshallable:GoneError" in keys


def test_clean_fixture_has_no_findings(rule, run_rule, fixtures_dir):
    findings = run_rule(rule, config(fixtures_dir / "proto_good", GOOD_OPCODES))
    assert findings == []


def test_bad_fixture_has_no_extra_findings(bad_findings):
    expected = {
        "duplicate-message:dup", "opcode-without-message:ghost",
        "unrouted-opcode:orphaned", "unrouted-opcode:dup",
        "duplicate-handler:Ping", "handler-falls-through",
        "missing-error-path",
        "state-before-log:PREPARED", "state-before-log:COMMITTED",
        "state-without-log:ABORTED",
        "commit-before-decision", "prepare-without-abort-path",
        "unmarshallable-error:BadArity", "unmarshallable-error:SiteError",
        "stale-unmarshallable:GoneError",
    }
    assert {f.key for f in bad_findings} == expected


class TestRealTree:
    """The repository's own wire protocol satisfies every contract."""

    @pytest.fixture(scope="class")
    def real_findings(self, rule, run_rule):
        from repro.analysis.config import default_config

        return run_rule(rule, default_config())

    def test_real_tree_is_clean(self, real_findings):
        assert real_findings == []

    def test_every_registry_opcode_has_a_message(self):
        import repro.net.messages as messages
        from repro.net.opcodes import OPCODES

        by_op = {
            cls.OP
            for cls in vars(messages).values()
            if isinstance(cls, type) and hasattr(cls, "OP")
        }
        assert set(OPCODES) == by_op

    def test_every_error_subclass_is_reconstructible_or_registered(self):
        import repro.errors as errors_mod
        from repro.errors import RemoteError, ReproError
        from repro.net.messages import (
            NONRECONSTRUCTIBLE_ERRORS,
            error_reply_for,
            reconstruct_error,
        )

        for name in dir(errors_mod):
            cls = getattr(errors_mod, name)
            if not (isinstance(cls, type) and issubclass(cls, ReproError)):
                continue
            if cls is ReproError or name in NONRECONSTRUCTIBLE_ERRORS:
                continue
            try:
                exc = cls("probe message")
            except TypeError:
                pytest.fail(f"{name} is unregistered yet not message-constructible")
            rebuilt = reconstruct_error(error_reply_for(exc))
            assert type(rebuilt) is cls, name
            assert not isinstance(rebuilt, RemoteError)

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
