"""The mutation table: every check the analyzer keeps is proved by a
realistic edit of the real ``src/repro`` tree.

Each row is one edit (one or more hunks, each replacing text that occurs
exactly once in its file) to a temporary copy of the tree. Applied, the
row must make ``--strict`` exit 1 with a finding from its rule carrying
each of its keys — so deleting the check a row names fails that row.
``also`` records what else caught the same edit when the row was
written (an import, a named test, or nothing); ``docs/ANALYSIS.md``
prints the table, next to the checks that were deleted because something
else caught every edit they caught.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass

import pytest

from repro.analysis.cli import main
from repro.analysis.config import repo_root


@dataclass(frozen=True)
class Edit:
    rule: str
    keys: tuple[str, ...]       # finding-key prefixes the edit must produce
    path: str                   # under src/
    hunks: tuple[tuple[str, str], ...]
    also: str                   # what else catches it


#: A fault site the edit registers. Spelled in parts: the coverage check
#: counts a quoted name anywhere under tests/ as tested, this file included.
_NEW_SITE = ".".join(("wal", "truncate"))

_CONVERT_DECRYPT = """            return deserialize_value(
                enclave.decrypt_for_ddl(query_text, old_enc.cek_name, cell)
            )
"""

EDITS = (
    # -- trust-boundary: the host reaches the enclave only through the surface
    Edit(
        "trust-boundary", ("import:repro.enclave.channel",), "repro/sqlengine/server.py",
        (("from repro.enclave import CallMode, Enclave, EnclaveCallGateway, SealedPackage\n",
          "from repro.enclave import CallMode, Enclave, EnclaveCallGateway\n"
          "from repro.enclave.channel import SealedPackage\n"),),
        "nothing",
    ),
    Edit(
        "trust-boundary", ("private:enclave._session",), "repro/sqlengine/server.py",
        (("        self.enclave.install_package(enclave_session_id, sealed)\n",
          "        self.enclave._session(enclave_session_id)  # fail fast on a dead session\n"
          "        self.enclave.install_package(enclave_session_id, sealed)\n"),),
        "nothing",
    ),
    Edit(
        "trust-boundary", ("off-surface:enclave.sqlos",), "repro/sqlengine/server.py",
        (("        self.enclave.install_package(enclave_session_id, sealed)\n"
          "        self.engine.resolve_deferred_transactions()\n",
          "        known = self.enclave.sqlos.installed_keys()\n"
          "        self.enclave.install_package(enclave_session_id, sealed)\n"
          "        if self.enclave.sqlos.installed_keys() != known:\n"
          "            self.engine.resolve_deferred_transactions()\n"),),
        "nothing",
    ),
    # -- plaintext-taint: decrypted cells stay inside the DDL conversion
    Edit(
        "plaintext-taint", ("log-sink:print",), "repro/sqlengine/server.py",
        ((_CONVERT_DECRYPT,
          "            value = deserialize_value(\n"
          "                enclave.decrypt_for_ddl(query_text, old_enc.cek_name, cell)\n"
          "            )\n"
          "            print(f\"decrypting {old_enc.cek_name}: {value!r}\")\n"
          "            return value\n"),),
        "nothing",
    ),
    Edit(
        "plaintext-taint", ("return-plaintext",), "repro/sqlengine/server.py",
        ((_CONVERT_DECRYPT,
          "            return self._decrypt_cell(query_text, old_enc, cell)\n"),
         ("    def _convert_cell(self, query_text, cell, old_enc, new_enc):\n",
          "    def _decrypt_cell(self, query_text, old_enc, cell):\n"
          "        enclave = self.server.enclave\n"
          "        return deserialize_value(\n"
          "            enclave.decrypt_for_ddl(query_text, old_enc.cek_name, cell)\n"
          "        )\n"
          "\n"
          "    def _convert_cell(self, query_text, cell, old_enc, new_enc):\n")),
        "nothing",
    ),
    # -- wire-egress: plaintext never reaches the codec
    Edit(
        "wire-egress", ("wire-sink:encode_value",), "repro/sqlengine/server.py",
        ((_CONVERT_DECRYPT,
          "            from repro.net.encoding import encode_value\n"
          "\n"
          "            value = deserialize_value(\n"
          "                enclave.decrypt_for_ddl(query_text, old_enc.cek_name, cell)\n"
          "            )\n"
          "            if len(encode_value(value)) > 8000:\n"
          "                raise SqlError(\"decrypted cell exceeds the row limit\")\n"
          "            return value\n"),),
        "nothing",
    ),
    # -- lock-order: nesting follows DEFAULT_LOCK_ORDER
    Edit(
        "lock-order", ("inversion:repro.enclave.sqlos.SqlOs.state_lock->",),
        "repro/enclave/runtime.py",
        (("        with self.sqlos.state_lock:\n"
          "            # Nonce check under the state lock: replay and install are atomic.\n",
          "        with self.sqlos.state_lock:\n"
          "            session = self._session(session_id)  # closed meanwhile?\n"
          "            # Nonce check under the state lock: replay and install are atomic.\n"),),
        "nothing",
    ),
    Edit(
        "lock-order", ("undeclared:repro.enclave.worker.EnclaveCallGateway._submit_lock",),
        "repro/enclave/worker.py",
        (("        return self.enclave.register_program(program_bytes)\n",
          "        with self._submit_lock:\n"
          "            if self._shutdown:\n"
          "                raise EnclaveError(\"enclave call gateway is shut down\")\n"
          "            return self.enclave.register_program(program_bytes)\n"),),
        "nothing",
    ),
    Edit(
        "lock-order", ("cycle:repro.sqlengine.server.SqlServer._plan_lock->",),
        "repro/sqlengine/server.py",
        (("        with self._rotation_lock:\n"
          "            rotation_id = (\n",
          "        with self._rotation_lock:\n"
          "            with self._plan_lock:\n"
          "                self._plan_cache.clear()\n"
          "            rotation_id = (\n"),
         ("        with self._plan_lock:\n"
          "            self._plan_cache[query_text] = cached\n",
          "        with self._plan_lock:\n"
          "            with self._rotation_lock:\n"
          "                if self._rotation_jobs:\n"
          "                    return cached\n"
          "            self._plan_cache[query_text] = cached\n")),
        "nothing",
    ),
    # -- latch-safety: every explicit acquire is released on every path
    Edit(
        "latch-safety", ("bare-acquire:self._latch", "release-outside-finally:self._latch"),
        "repro/sqlengine/storage/bufferpool.py",
        (("        with self._latch:\n"
          "            page = Page(self._next_page_id)\n"
          "            self._next_page_id += 1\n"
          "            self._put(page)\n"
          "            return page\n",
          "        self._latch.acquire()\n"
          "        page = Page(self._next_page_id)\n"
          "        self._next_page_id += 1\n"
          "        self._put(page)\n"
          "        self._latch.release()\n"
          "        return page\n"),),
        "nothing",
    ),
    # -- fault-site: fault sites are registered, literal and tested
    Edit(
        "fault-site", ("unregistered-site:engine.prepared",), "repro/sqlengine/engine.py",
        (('fault_point("engine.prepare", txn_id', 'fault_point("engine.prepared", txn_id'),),
        "nothing",
    ),
    Edit(
        "fault-site", ("untested-site:wal.truncate",), "repro/sqlengine/storage/wal.py",
        (('register_fault_site("wal.append", "one log record appended")\n',
          'register_fault_site("wal.append", "one log record appended")\n'
          f'register_fault_site("{_NEW_SITE}", "log prefix dropped after a checkpoint")\n'),),
        "nothing",
    ),
    Edit(
        "fault-site", ("dynamic-site:fault_point",), "repro/sqlengine/storage/wal.py",
        (('        fault_point("wal.append", txn_id=txn_id, op=op)\n',
          '        fault_point(f"wal.{op.name.lower()}", txn_id=txn_id, op=op)\n'),),
        "nothing",
    ),
    # -- protocol-typestate: 2PC writes its log record before its state
    Edit(
        "protocol-typestate", ("state-before-log:PREPARED",), "repro/sqlengine/engine.py",
        (("        self.wal.append(txn.txn_id, LogOp.PREPARE, table=gtid)\n"
          "        self.wal.flush()\n"
          "        self.txns.finish(txn, TxnState.PREPARED)\n",
          "        self.txns.finish(txn, TxnState.PREPARED)\n"
          "        self.wal.append(txn.txn_id, LogOp.PREPARE, table=gtid)\n"
          "        self.wal.flush()\n"),),
        "nothing",
    ),
    Edit(
        "protocol-typestate", ("state-before-log:COMMITTED",), "repro/sqlengine/engine.py",
        (("        self.wal.append(txn.txn_id, LogOp.COMMIT, table=gtid)\n"
          "        self.wal.flush()\n"
          "        txn.state = TxnState.COMMITTED\n",
          "        txn.state = TxnState.COMMITTED\n"
          "        self.wal.append(txn.txn_id, LogOp.COMMIT, table=gtid)\n"
          "        self.wal.flush()\n"),),
        "nothing",
    ),
    Edit(
        "protocol-typestate", ("state-without-log:ABORTED",), "repro/sqlengine/engine.py",
        (("            txn.state = TxnState.ABORTED\n"
          "            self.wal.append(txn.txn_id, LogOp.ABORT)\n"
          "            self.locks.release_all(txn_id)\n",
          "            txn.state = TxnState.ABORTED\n"
          "            self.locks.release_all(txn_id)\n"),),
        "nothing",
    ),
    Edit(
        "protocol-typestate", ("commit-before-decision",), "repro/net/router.py",
        (("        self.decisions.record(gtid)\n"
          "        for shard_idx in sorted(branches):\n"
          "            try:\n"
          "                self.shards[shard_idx].commit_prepared(gtid)\n"
          "            except Exception:\n"
          "                pass  # decision is durable; resolve_indoubt finishes the job\n",
          "        for shard_idx in sorted(branches):\n"
          "            try:\n"
          "                self.shards[shard_idx].commit_prepared(gtid)\n"
          "            except Exception:\n"
          "                pass  # decision is durable; resolve_indoubt finishes the job\n"
          "        self.decisions.record(gtid)\n"),),
        "nothing",
    ),
)


@pytest.fixture(scope="module")
def tree_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated") / "src"
    root.mkdir()
    shutil.copytree(repo_root() / "src" / "repro", root / "repro")
    return root


def strict_keys(root, tmp_path) -> tuple[int, dict]:
    """``--strict`` exit status over ``root``, and rule → finding keys."""
    sarif = tmp_path / "out.sarif"
    status = main(["--root", str(root), "--strict", "--sarif", str(sarif)])
    keys: dict = {}
    for result in json.loads(sarif.read_text())["runs"][0]["results"]:
        if "suppressions" not in result:
            rule, _path, _symbol, key = result["partialFingerprints"]["reproAnalysis/v1"].split("|", 3)
            keys.setdefault(rule, []).append(key)
    return status, keys


def check_rows(rule, tree_copy, tmp_path) -> None:
    rows = [edit for edit in EDITS if edit.rule == rule]
    assert rows
    for edit in rows:
        target = tree_copy / edit.path
        original = target.read_text()
        text = original
        for old, new in edit.hunks:
            assert text.count(old) == 1, f"{edit.path}: hunk no longer matches:\n{old}"
            text = text.replace(old, new)
        target.write_text(text)
        try:
            status, keys = strict_keys(tree_copy, tmp_path)
        finally:
            target.write_text(original)
        assert status == 1, edit
        for prefix in edit.keys:
            assert any(k.startswith(prefix) for k in keys.get(rule, ())), (prefix, keys)


def test_unmodified_copy_is_clean(tree_copy, tmp_path, parse_once):
    assert strict_keys(tree_copy, tmp_path) == (0, {})


def test_boundary_violation_fires(tree_copy, tmp_path, parse_once):
    check_rows("trust-boundary", tree_copy, tmp_path)


def test_taint_violation_fires(tree_copy, tmp_path, parse_once):
    check_rows("plaintext-taint", tree_copy, tmp_path)


def test_wire_egress_violation_fires(tree_copy, tmp_path, parse_once):
    check_rows("wire-egress", tree_copy, tmp_path)


def test_lock_order_violation_fires(tree_copy, tmp_path, parse_once):
    check_rows("lock-order", tree_copy, tmp_path)


def test_latch_safety_violation_fires(tree_copy, tmp_path, parse_once):
    check_rows("latch-safety", tree_copy, tmp_path)


def test_site_violation_fires(tree_copy, tmp_path, parse_once):
    check_rows("fault-site", tree_copy, tmp_path)


def test_protocol_typestate_violation_fires(tree_copy, tmp_path, parse_once):
    check_rows("protocol-typestate", tree_copy, tmp_path)


def test_every_rule_has_a_row():
    from repro.analysis.rules import ALL_RULES

    assert {rule.name for rule in ALL_RULES} == {edit.rule for edit in EDITS}
