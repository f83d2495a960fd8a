"""Trust-boundary rule: positive (violating fixture) and negative
(clean fixture) coverage against a miniature ecall surface."""

from __future__ import annotations

import pytest

from repro.analysis.config import AnalysisConfig
from repro.enclave import EcallSurface

SURFACE = EcallSurface(
    ecalls=frozenset({"eval", "compare"}),
    observable=frozenset({"measure"}),
    gateway=frozenset({"eval_batch"}),
    importable=frozenset({"Enclave", "CallMode"}),
)


def config(root) -> AnalysisConfig:
    return AnalysisConfig(
        root=root,
        packages=("hostpkg",),
        host_packages=("hostpkg",),
        enclave_package="encl",
        surface=SURFACE,
    )


@pytest.fixture(scope="module")
def rule():
    from repro.analysis.rules.trust_boundary import TrustBoundaryRule

    return TrustBoundaryRule()


def test_violating_fixture_flags_every_reach(rule, run_rule, fixtures_dir):
    findings = run_rule(rule, config(fixtures_dir / "boundary_bad"))
    keys = {f.key for f in findings}
    assert "import:encl.runtime.Enclave" in keys          # submodule import
    assert "import:encl.seal_secret" in keys              # non-importable facade name
    assert "private:enclave._cek_store" in keys           # private state reach
    assert "off-surface:enclave.sqlos" in keys            # undeclared enclave attr
    assert "off-surface:gateway.drain" in keys            # undeclared gateway attr
    assert all(f.rule == "trust-boundary" for f in findings)
    assert all(f.path == "hostpkg/engine.py" for f in findings)


def test_clean_fixture_has_no_findings(rule, run_rule, fixtures_dir):
    assert run_rule(rule, config(fixtures_dir / "boundary_good")) == []


def test_enclave_package_itself_is_exempt(rule, run_rule, fixtures_dir):
    # Same violating tree, but declared as the enclave package rather
    # than a host package: internal access is its prerogative.
    cfg = AnalysisConfig(
        root=fixtures_dir / "boundary_bad",
        packages=("hostpkg",),
        host_packages=(),
        enclave_package="hostpkg",
        surface=SURFACE,
    )
    assert run_rule(rule, cfg) == []


def test_server_clients_reach_only_the_stubs_public_names(rule, run_rule, tmp_path):
    """The stub's methods, class attributes and ``__init__`` attributes are
    the allowlist, read from the tree; anything else on ``server`` is a reach."""
    (tmp_path / "repro" / "net").mkdir(parents=True)
    (tmp_path / "repro" / "net" / "remote.py").write_text(
        "class RemoteServer:\n"
        "    OPCODES = ()\n"
        "    def __init__(self):\n"
        "        self.hgs = None\n"
        "        self._lock = None\n"
        "    def audit(self):\n"
        "        return []\n"
    )
    (tmp_path / "repro" / "tools").mkdir()
    (tmp_path / "repro" / "tools" / "tool.py").write_text(
        "def tool(conn, server):\n"
        "    server.audit(), server.hgs, server.OPCODES, server.__class__\n"
        "    return conn.server.engine, server._lock\n"
    )
    cfg = AnalysisConfig(root=tmp_path, packages=("repro",))
    assert {f.key for f in run_rule(rule, cfg)} == {
        "off-surface:server.engine", "off-surface:server._lock"}
