"""Rule family 8: protocol typestate — 2PC writes ahead.

The one wire-protocol contract no import, assertion or test sees: the
crash-torture matrices pass with a state flipped before its log record,
because a crash has to land in the one-statement window between the two
to show it (see the mutation matrix in ``docs/ANALYSIS.md``). The rest
of the protocol's totality is held at runtime: ``repro.net.messages``
refuses at import an opcode without a message class (or a class whose
opcode is unregistered), and the wire tests rebuild every error class.

**2PC log/state ordering.** In the engine modules, a transaction-state
*transition* (``txn.state = TxnState.PREPARED`` or
``…finish(txn, TxnState.PREPARED)``) must be preceded, in the same
function, by the matching WAL append (``LogOp.PREPARE``) — the
write-ahead contract phase one of 2PC rests on; same for ``COMMITTED``
/ ``LogOp.COMMIT``. ``ABORTED`` only requires a ``LogOp.ABORT`` append
*somewhere* in the function (either order): presumed abort makes a lost
abort record harmless, but an abort with no record at all would resurrect
the transaction's effects at recovery. Functions named in
``recovery_functions`` are exempt — recovery *replays* records, it does
not write them before flipping state.

**Coordinator durability.** Any function calling both
``prepare_transaction`` and ``commit_prepared`` must make the decision
durable (``decisions.record``) before the first ``commit_prepared``
fan-out — the router's tests pass with the two swapped, since only a
crash between them shows it.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding


class ProtocolTypestateRule:
    name = "protocol-typestate"

    def run(self, model, config) -> list:
        findings: list[Finding] = []
        self._check_2pc_ordering(findings, model, config.protocol)
        self._check_coordinators(findings, model, config)
        return findings

    # ----------------------------------------------------- 2PC ordering

    #: transition → WAL op whose append must precede it (None = same
    #: function, either order).
    _ORDERED = {"PREPARED": "PREPARE", "COMMITTED": "COMMIT"}
    _UNORDERED = {"ABORTED": "ABORT"}

    @staticmethod
    def _logop_appends(func: ast.AST) -> dict:
        """WAL-op name → earliest lineno of a call carrying ``LogOp.<op>``."""
        out: dict = {}
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "LogOp"
                ):
                    lineno = out.get(arg.attr)
                    if lineno is None or node.lineno < lineno:
                        out[arg.attr] = node.lineno
        return out

    @staticmethod
    def _state_transitions(func: ast.AST):
        """Yield (state name, lineno) for genuine transitions: assignments
        to a ``.state`` attribute and ``finish(…, TxnState.X)`` calls —
        comparisons (state *tests*) are not transitions."""
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                if (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and node.targets[0].attr == "state"
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "TxnState"
                ):
                    yield node.value.attr, node.lineno
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if isinstance(func_expr, ast.Attribute) and func_expr.attr == "finish":
                    for arg in node.args:
                        if (
                            isinstance(arg, ast.Attribute)
                            and isinstance(arg.value, ast.Name)
                            and arg.value.id == "TxnState"
                        ):
                            yield arg.attr, node.lineno

    def _check_2pc_ordering(self, findings, model, proto) -> None:
        for modname in proto.engine_modules:
            info = model.modules.get(modname)
            if info is None:
                continue
            path = model.relpath(info)
            for qualname, func in info.functions.items():
                if qualname.split(".")[-1] in proto.recovery_functions:
                    continue
                appends = self._logop_appends(func)
                for state, lineno in self._state_transitions(func):
                    if state in self._ORDERED:
                        logop = self._ORDERED[state]
                        at = appends.get(logop)
                        if at is None or at > lineno:
                            findings.append(Finding(
                                rule=self.name, path=path, line=lineno,
                                symbol=qualname,
                                key=f"state-before-log:{state}",
                                message=(
                                    f"TxnState.{state} is set before (or "
                                    f"without) the LogOp.{logop} WAL append "
                                    "in the same function — the write-ahead "
                                    "contract of 2PC is broken"
                                ),
                            ))
                    elif state in self._UNORDERED:
                        if self._UNORDERED[state] not in appends:
                            findings.append(Finding(
                                rule=self.name, path=path, line=lineno,
                                symbol=qualname,
                                key=f"state-without-log:{state}",
                                message=(
                                    f"TxnState.{state} is set with no "
                                    f"LogOp.{self._UNORDERED[state]} append "
                                    "anywhere in the function — recovery "
                                    "would resurrect the transaction"
                                ),
                            ))

    def _check_coordinators(self, findings, model, config) -> None:
        for modname, info in model.modules.items():
            if not model.in_packages(modname, config.packages):
                continue
            if model.in_packages(modname, config.exempt_packages):
                continue
            path = model.relpath(info)
            by_scope: dict = {}
            for record in info.calls:
                by_scope.setdefault(record.scope, []).append(record)
            for scope, records in by_scope.items():
                prepares = [r for r in records if r.parts[-1] == "prepare_transaction"]
                commits = [r for r in records if r.parts[-1] == "commit_prepared"]
                if not prepares or not commits:
                    continue
                decisions = [
                    r for r in records
                    if r.parts[-1] == "record" and "decisions" in r.parts
                ]
                first_commit = min(r.lineno for r in commits)
                if not decisions or min(r.lineno for r in decisions) > first_commit:
                    findings.append(Finding(
                        rule=self.name, path=path, line=first_commit,
                        symbol=scope, key="commit-before-decision",
                        message=(
                            "coordinator fans out commit_prepared before the "
                            "decision is durable (decisions.record) — a crash "
                            "here half-commits under presumed abort"
                        ),
                    ))
