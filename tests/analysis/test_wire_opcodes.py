"""Wire-opcode rule, id-table half: every shape the codec may carry has
exactly one id in ``WIRE_IDS`` — on fixtures and on the real tree."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.config import AnalysisConfig, default_config
from repro.analysis.rules.wire_opcodes import WireOpcodeRule, registration_targets


def config(root) -> AnalysisConfig:
    return AnalysisConfig(
        root=root, packages=("wpkg",), opcode_packages=("wpkg",), opcode_names=("ping", "pong")
    )


@pytest.fixture(scope="module")
def bad_findings(run_rule, fixtures_dir):
    return run_rule(WireOpcodeRule(), config(fixtures_dir / "wire_bad"))


def test_registration_without_an_id_is_a_finding_however_it_registers(bad_findings):
    missing = {f.symbol for f in bad_findings if f.key.startswith("missing-wire-id:")}
    assert missing == {"Loose", "Looped", "Decorated", "<expression>"}


def test_ids_are_unique_and_names_listed_once(bad_findings):
    keys = {f.key for f in bad_findings}
    assert "duplicate-wire-id:0x11" in keys
    assert "duplicate-wire-id-name:Point" in keys


def test_table_entries_must_be_literals(bad_findings):
    assert "dynamic-wire-id" in {f.key for f in bad_findings}


def test_bad_fixture_has_no_extra_findings(bad_findings):
    assert sorted(f.key for f in bad_findings) == sorted([
        "duplicate-wire-id-name:Point", "duplicate-wire-id:0x11", "dynamic-wire-id",
        "missing-wire-id:Decorated", "missing-wire-id:Loose", "missing-wire-id:Looped",
        "missing-wire-id:None",
    ])


def test_clean_fixture_has_no_findings(run_rule, fixtures_dir):
    assert run_rule(WireOpcodeRule(), config(fixtures_dir / "wire_good")) == []


def test_real_tree_registers_exactly_the_tabled_names():
    """What the analyzer reads off ``messages.py`` is what the codec
    registered at import — loop, direct and ``@_message`` targets alike."""
    import repro.net.messages as messages
    from repro.net.opcodes import WIRE_IDS

    tree = ast.parse(open(messages.__file__, encoding="utf-8").read())
    names = [name for name, _lineno in registration_targets(tree)]
    assert sorted(names) == sorted(WIRE_IDS)
    assert set(messages.MESSAGE_TYPES.values()) <= {getattr(messages, name) for name in names}


def test_real_tree_is_clean(run_rule):
    assert run_rule(WireOpcodeRule(), default_config()) == []
