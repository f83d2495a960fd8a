"""The analyzer against this repository's real source tree, and the
runtime side of the shared ecall-surface registry."""

from __future__ import annotations

import pytest

from repro.enclave import ECALL_SURFACE, Enclave, EnclaveCallGateway
from repro.enclave.runtime import EnclaveError


def test_strict_run_is_clean(capsys, parse_once):
    from repro.analysis.cli import main

    assert main(["--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
    # per-rule summary names every family
    for family in (
        "trust-boundary", "plaintext-taint", "wire-egress", "lock-order",
        "latch-safety", "fault-site", "protocol-typestate",
    ):
        assert f"{family}=0" in out


def test_list_rules(capsys):
    from repro.analysis.cli import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for family in (
        "trust-boundary", "plaintext-taint", "wire-egress", "lock-order",
        "latch-safety", "fault-site", "protocol-typestate",
    ):
        assert family in out


def test_declared_ecalls_and_observables_exist(enclave):
    for entry in ECALL_SURFACE.ecalls | ECALL_SURFACE.observable:
        assert hasattr(enclave, entry), f"ECALL_SURFACE declares missing {entry!r}"


def test_declared_gateway_surface_exists(enclave):
    gateway = EnclaveCallGateway(enclave, n_threads=1)
    try:
        for entry in ECALL_SURFACE.gateway:
            assert hasattr(gateway, entry), f"gateway surface declares missing {entry!r}"
    finally:
        gateway.shutdown()


def test_declared_importables_exist():
    import repro.enclave as facade

    for name in ECALL_SURFACE.importable:
        assert hasattr(facade, name), f"importable {name!r} missing from facade"


def test_observe_rejects_undeclared_crossing(enclave):
    with pytest.raises(EnclaveError, match="not a declared ecall"):
        enclave._observe("peek_at_keys", (), None)


def test_observe_accepts_declared_crossing(enclave):
    seen = []
    enclave.add_boundary_observer(lambda name, ins, out: seen.append(name))
    enclave._observe("eval", (), None)
    assert seen == ["eval"]
