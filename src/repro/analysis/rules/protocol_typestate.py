"""Rule family 8: protocol typestate — the wire protocol is total.

Three session/transaction-protocol contracts that hold statically, so a
refactor cannot silently leave the wire protocol partial:

**Opcode coverage.** Every opcode in the registry
(:data:`repro.net.opcodes.OPCODES`) maps to exactly one message
dataclass (``OP`` class attribute in the messages module), and every
message class is *reachable* server-side: either a handler module
``isinstance``-checks it (requests), lists it in a forwarding tuple it
reads (``Router._FORWARDED``, from which the raw-relayed opcode set is
derived — those frames are never decoded, so no ``isinstance`` sees
them), or constructs it (replies; ``error_reply_for`` counts as
constructing ``ErrorReply``). Dispatch-style functions (≥ ``_DISPATCH_MIN``
``if isinstance(msg, Cls):`` arms) must be *total*: end in ``raise``
(the unknown-message catch-all) and check each message class at most
once — a duplicate arm is dead code shadowing a handler. The serving
loop (the first handler module, through which every dispatcher answers)
must contain an error-marshalling path (``error_reply_for`` /
``ErrorReply``): a server that cannot say "error" hangs its client.

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
not write them before flipping state. Coordinator shape: any function
calling both ``prepare_transaction`` and ``commit_prepared`` must make
the decision durable (``decisions.record``) before the first
``commit_prepared`` fan-out, and must have an abort path
(``abort_prepared`` or a ``ROLLBACK``).

**Error marshalling is total.** ``reconstruct_error`` rebuilds a typed
exception with ``cls(message)``; a :class:`~repro.errors.ReproError`
subclass whose constructor requires ≥ 2 arguments silently degrades to
``RemoteError`` on the client. Such classes must be listed in the
append-only ``NONRECONSTRUCTIBLE_ERRORS`` tuple in the messages module
(``unmarshallable-error`` otherwise), and entries there must still be
real non-reconstructible subclasses (``stale-unmarshallable``) so the
acknowledged-degradation list cannot rot.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

#: minimum exact ``if isinstance(x, Cls):`` arms for a function to be
#: treated as a dispatch function (totality + duplicate-arm checks).
_DISPATCH_MIN = 5


def _class_names(node: ast.expr, tuple_attrs: dict) -> list:
    """Message-class candidate names referenced by an isinstance 2nd arg."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        # ``msg.Execute`` → Execute; ``self._FORWARDED`` → the tuple's classes
        if node.attr in tuple_attrs:
            return list(tuple_attrs[node.attr])
        return [node.attr]
    if isinstance(node, ast.Tuple):
        names: list = []
        for elt in node.elts:
            names.extend(_class_names(elt, tuple_attrs))
        return names
    return []


def _isinstance_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            yield node


class ProtocolTypestateRule:
    name = "protocol-typestate"

    def run(self, model, config) -> list:
        findings: list[Finding] = []
        proto = getattr(config, "protocol", None)
        if proto is None:
            return findings
        if proto.messages_module:
            self._check_opcode_coverage(findings, model, config, proto)
        if proto.errors_module:
            self._check_error_marshalling(findings, model, proto)
        if proto.engine_modules:
            self._check_2pc_ordering(findings, model, proto)
        self._check_coordinators(findings, model, config)
        return findings

    # ----------------------------------------------------- opcode coverage

    def _message_classes(self, info) -> dict:
        """class name → (opcode, lineno) for ``OP = "…"`` class attributes."""
        out: dict = {}
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "OP"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    out[node.name] = (stmt.value.value, node.lineno)
        return out

    def _class_tuple_attrs(self, tree: ast.AST, class_names: set) -> dict:
        """name → class-name tuple for ``_FORWARDED = (msg.A, B, …)`` attrs."""
        out: dict = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)):
                continue
            names = []
            for elt in node.value.elts:
                if isinstance(elt, ast.Attribute):
                    names.append(elt.attr)
                elif isinstance(elt, ast.Name):
                    names.append(elt.id)
            if names and all(n in class_names for n in names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = tuple(names)
        return out

    def _check_opcode_coverage(self, findings, model, config, proto) -> None:
        messages = model.modules.get(proto.messages_module)
        if messages is None:
            return
        msg_path = model.relpath(messages)
        by_class = self._message_classes(messages)     # class → (op, lineno)
        by_op: dict = {}
        for cls_name, (op, lineno) in by_class.items():
            if op in by_op:
                findings.append(Finding(
                    rule=self.name, path=msg_path, line=lineno, symbol=cls_name,
                    key=f"duplicate-message:{op}",
                    message=(
                        f"opcode {op!r} is claimed by both "
                        f"{by_op[op]!r} and {cls_name!r}"
                    ),
                ))
            else:
                by_op[op] = cls_name

        for op in config.opcode_names:
            if op not in by_op:
                findings.append(Finding(
                    rule=self.name, path=msg_path, line=1, symbol="OPCODES",
                    key=f"opcode-without-message:{op}",
                    message=(
                        f"registry opcode {op!r} has no message dataclass "
                        "(OP attribute) in the messages module"
                    ),
                ))

        class_names = set(by_class)
        handled: set = set()      # isinstance-checked (request handlers)
        constructed: set = set()  # built server-side (replies)
        for handler_mod in proto.handler_modules:
            info = model.modules.get(handler_mod)
            if info is None:
                continue
            tuple_attrs = self._class_tuple_attrs(info.tree, class_names)
            for node in ast.walk(info.tree):
                # a forwarding tuple that something reads routes its classes
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    handled.update(tuple_attrs.get(name, ()))
            for call in _isinstance_calls(info.tree):
                for cls_name in _class_names(call.args[1], tuple_attrs):
                    if cls_name in class_names:
                        handled.add(cls_name)
            has_error_path = False
            for record in info.calls:
                final = record.parts[-1]
                if final in class_names:
                    constructed.add(final)
                if final in ("error_reply_for", "ErrorReply"):
                    has_error_path = True
                    constructed.add("ErrorReply")
            # Only the serving loop (first handler module) catches what
            # the dispatchers raise, so only it owes the error path.
            if handler_mod == proto.handler_modules[0] and not has_error_path:
                findings.append(Finding(
                    rule=self.name, path=model.relpath(info), line=1,
                    symbol="<module>", key="missing-error-path",
                    message=(
                        "serving-loop module never marshals an error "
                        "(no error_reply_for / ErrorReply construction)"
                    ),
                ))
            self._check_dispatch_shape(findings, model, info, class_names,
                                       tuple_attrs)

        for cls_name, (op, lineno) in sorted(by_class.items()):
            if cls_name not in handled and cls_name not in constructed:
                findings.append(Finding(
                    rule=self.name, path=msg_path, line=lineno,
                    symbol=cls_name, key=f"unrouted-opcode:{op}",
                    message=(
                        f"message {cls_name!r} (opcode {op!r}) is neither "
                        "dispatched nor constructed by any handler module — "
                        "a client sending it gets a hung connection"
                    ),
                ))

    def _check_dispatch_shape(self, findings, model, info, class_names,
                              tuple_attrs) -> None:
        path = model.relpath(info)
        for qualname, func in info.functions.items():
            arms: list = []   # (class name, lineno) per exact isinstance arm
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.If)
                    and isinstance(node.test, ast.Call)
                    and isinstance(node.test.func, ast.Name)
                    and node.test.func.id == "isinstance"
                    and len(node.test.args) == 2
                ):
                    continue
                for cls_name in _class_names(node.test.args[1], tuple_attrs):
                    if cls_name in class_names:
                        arms.append((cls_name, node.lineno))
            if len(arms) < _DISPATCH_MIN:
                continue
            seen: dict = {}
            for cls_name, lineno in arms:
                if cls_name in seen:
                    findings.append(Finding(
                        rule=self.name, path=path, line=lineno,
                        symbol=qualname, key=f"duplicate-handler:{cls_name}",
                        message=(
                            f"{cls_name!r} is dispatched twice in "
                            f"{qualname} — the second arm is dead code"
                        ),
                    ))
                else:
                    seen[cls_name] = lineno
            if not isinstance(func.body[-1], ast.Raise):
                findings.append(Finding(
                    rule=self.name, path=path, line=func.body[-1].lineno,
                    symbol=qualname, key="handler-falls-through",
                    message=(
                        f"dispatch function {qualname} does not end in a "
                        "raise — an unhandled message falls through and the "
                        "client never gets a reply"
                    ),
                ))

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
            # A dispatch function routes *independent* messages (the shard
            # side handles TxnPrepare and TxnCommitPrepared as separate
            # frames); only a single-flow function mixing prepare and
            # commit is a coordinator.
            dispatchers = {
                qualname
                for qualname, func in info.functions.items()
                if sum(
                    1 for node in ast.walk(func)
                    if isinstance(node, ast.If)
                    and isinstance(node.test, ast.Call)
                    and isinstance(node.test.func, ast.Name)
                    and node.test.func.id == "isinstance"
                ) >= _DISPATCH_MIN
            }
            by_scope: dict = {}
            for record in info.calls:
                by_scope.setdefault(record.scope, []).append(record)
            for scope, records in by_scope.items():
                if scope in dispatchers:
                    continue
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
                aborts = [r for r in records if r.parts[-1] == "abort_prepared"]
                rollbacks = [
                    r for r in records
                    if any(s and s.upper().startswith("ROLLBACK")
                           for s in r.str_args)
                ]
                if not aborts and not rollbacks:
                    findings.append(Finding(
                        rule=self.name, path=path,
                        line=min(r.lineno for r in prepares),
                        symbol=scope, key="prepare-without-abort-path",
                        message=(
                            "coordinator prepares branches but has no abort "
                            "path (abort_prepared / ROLLBACK) — a failed "
                            "prepare leaves participants in-doubt forever"
                        ),
                    ))

    # ----------------------------------------------- error marshalling

    def _check_error_marshalling(self, findings, model, proto) -> None:
        errors = model.modules.get(proto.errors_module)
        if errors is None:
            return
        err_path = model.relpath(errors)
        classes: dict = {}   # name → ast.ClassDef (module top level)
        for node in errors.tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node

        # subclass closure of the error base
        subclasses: dict = {}   # name → ClassDef, excludes the base itself
        frontier = {proto.error_base}
        changed = True
        while changed:
            changed = False
            for name, node in classes.items():
                if name in subclasses or name in frontier:
                    continue
                for base in node.bases:
                    base_name = base.id if isinstance(base, ast.Name) else None
                    if base_name in frontier or base_name in subclasses:
                        subclasses[name] = node
                        changed = True
                        break

        def reconstructible(name: str) -> bool:
            """Whether ``reconstruct_error`` rebuilds this class *faithfully*:
            a ``from_wire`` classmethod anywhere on the (same-module) chain,
            or an ``__init__`` whose single required parameter is the
            message — a single required param with any other name (e.g. a
            fault site) would silently absorb the message string. No
            ``__init__`` anywhere → Exception's ``*args`` → fine."""
            seen: set = set()
            while name in classes and name not in seen:
                seen.add(name)
                node = classes[name]
                init = None
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        if stmt.name == "from_wire":
                            return True
                        if stmt.name == "__init__":
                            init = stmt
                if init is not None:
                    a = init.args
                    required = max(len(a.args) - len(a.defaults) - 1, 0)
                    required += sum(1 for d in a.kw_defaults if d is None)
                    if required == 0:
                        return True
                    if required > 1:
                        return False
                    return len(a.args) > 1 and a.args[1].arg == "message"
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                name = bases[0] if bases else ""
            return True

        registry = self._nonreconstructible_registry(model, proto)
        for name in sorted(subclasses):
            if not reconstructible(name) and name not in registry:
                findings.append(Finding(
                    rule=self.name, path=err_path,
                    line=subclasses[name].lineno, symbol=name,
                    key=f"unmarshallable-error:{name}",
                    message=(
                        f"{name} cannot be rebuilt faithfully from a bare "
                        "message string, so reconstruct_error degrades or "
                        "distorts it — give it a message-only constructor "
                        "or a from_wire classmethod, or acknowledge the "
                        "degradation in NONRECONSTRUCTIBLE_ERRORS"
                    ),
                ))
        for name in sorted(registry):
            if name not in subclasses or reconstructible(name):
                findings.append(Finding(
                    rule=self.name, path=err_path, line=1, symbol=name,
                    key=f"stale-unmarshallable:{name}",
                    message=(
                        f"NONRECONSTRUCTIBLE_ERRORS lists {name!r}, which is "
                        "no longer an unreconstructible error subclass — "
                        "remove the stale entry"
                    ),
                ))

    @staticmethod
    def _nonreconstructible_registry(model, proto) -> tuple:
        info = model.modules.get(proto.messages_module)
        if info is None:
            return ()
        for node in info.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            else:
                continue
            if (
                isinstance(target, ast.Name)
                and target.id == "NONRECONSTRUCTIBLE_ERRORS"
                and isinstance(node.value, ast.Tuple)
            ):
                return tuple(
                    elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
        return ()
