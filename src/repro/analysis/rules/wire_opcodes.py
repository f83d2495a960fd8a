"""Rule family 5: wire-opcode registry consistency.

Opcodes are the wire protocol's stringly-typed contract: a message class
declares ``OP = "execute"`` and the codec resolves it through the opcode
registry (:data:`repro.net.opcodes.OPCODES`). A typo'd or unregistered
opcode literal fails only at runtime — on the first encode of that
message type — and a *dynamic* opcode name cannot be audited against the
append-only registry at all. Checks, over the configured wire packages:

* every ``OP = "…"`` class attribute names a registered opcode;
* every ``opcode_byte("…")`` literal names a registered opcode;
* ``OP`` assignments and ``opcode_byte`` calls with non-literal names
  are findings (the registry is append-only and auditable; the names
  referencing it must be too).

The registry module itself is exempt — it *defines* the names.

The same module holds the second table a payload depends on: ``WIRE_IDS``
gives every struct and enum the codec may carry its one-byte tag. Ids
cannot come from registration order (shards are separate processes), so
the table is explicit and append-only, and it is checked the same way:

* every ``register_struct`` / ``register_enum`` target — named directly,
  through a ``for cls in (A, B, …)`` loop, or by a registering class
  decorator — has an id in the table (``missing-wire-id``);
* the table's names and ids are literals, each name appears once and no
  two names share an id (a dict literal would silently keep the last).
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.model import CALL_MARK

_OPCODE_FNS = ("opcode_byte",)
_REGISTER_FNS = ("register_struct", "register_enum")
_WIRE_ID_TABLE = "WIRE_IDS"


def _final_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _register_calls(tree: ast.AST):
    """``(call, first argument)`` of every register_struct/register_enum call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _final_name(node.func) in _REGISTER_FNS and node.args:
            yield node, node.args[0]


def registration_targets(tree: ast.AST) -> list:
    """``(class name, lineno)`` per shape one module registers with the codec;
    the name is ``None`` for a target the analyzer cannot name (an expression).
    """
    loops: dict = {}         # loop variable → [(name it ranges over, lineno)]
    decorators: set = set()  # functions that register their own parameter
    in_decorator: set = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, (ast.Tuple, ast.List))
        ):
            loops[node.target.id] = [(_final_name(e), e.lineno) for e in node.iter.elts]
        elif isinstance(node, ast.FunctionDef):
            params = {arg.arg for arg in node.args.args}
            for call, target in _register_calls(node):
                if isinstance(target, ast.Name) and target.id in params:
                    decorators.add(node.name)
                    in_decorator.add(id(call))
    targets = [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(_final_name(d) in decorators for d in node.decorator_list)
    ]
    for call, target in _register_calls(tree):
        if id(call) not in in_decorator:
            name = _final_name(target)
            targets.extend(loops.get(name) or [(name, call.lineno)])
    return targets


class WireOpcodeRule:
    name = "wire-opcode"

    def run(self, model, config) -> list:
        findings: list[Finding] = []
        if not config.opcode_names or not config.opcode_packages:
            return findings
        registry = set(config.opcode_names)
        wire_ids = None        # name → id, once the registry module is seen
        registrations: list = []  # (path, class name or None, lineno)
        for modname, info in model.modules.items():
            if not model.in_packages(modname, config.opcode_packages):
                continue
            path = model.relpath(info)
            if modname.rsplit(".", 1)[-1] == "opcodes":
                wire_ids = self._wire_id_table(findings, path, info.tree)
                continue  # the registry itself
            registrations += [(path, *target) for target in registration_targets(info.tree)]

            for call in info.calls:
                parts = tuple(p for p in call.parts if p != CALL_MARK)
                if not parts or parts[-1] not in _OPCODE_FNS:
                    continue
                literal = call.str_args[0] if call.str_args else None
                if literal is None:
                    # Dynamic names are fine when forwarding a class's own
                    # OP attribute (``opcode_byte(cls.OP)``): the OP
                    # literals themselves are checked below.
                    continue
                if literal not in registry:
                    findings.append(Finding(
                        rule=self.name, path=path, line=call.lineno,
                        symbol=call.scope,
                        key=f"unregistered-opcode:{literal}",
                        message=(
                            f"opcode_byte({literal!r}) names an opcode "
                            "missing from the registry in repro.net.opcodes"
                        ),
                    ))

            for node in ast.walk(info.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for stmt in node.body:
                    if not (
                        isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.targets[0].id == "OP"
                    ):
                        continue
                    value = stmt.value
                    if not (
                        isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                    ):
                        findings.append(Finding(
                            rule=self.name, path=path, line=stmt.lineno,
                            symbol=node.name,
                            key=f"dynamic-opcode:{node.name}",
                            message=(
                                f"{node.name}.OP is not a string literal; "
                                "wire opcodes must be auditable against "
                                "the registry"
                            ),
                        ))
                        continue
                    if value.value not in registry:
                        findings.append(Finding(
                            rule=self.name, path=path, line=stmt.lineno,
                            symbol=node.name,
                            key=f"unregistered-opcode:{value.value}",
                            message=(
                                f"{node.name}.OP = {value.value!r} names an "
                                "opcode missing from the registry in "
                                "repro.net.opcodes"
                            ),
                        ))
        for path, name, lineno in registrations:
            if wire_ids is not None and name not in wire_ids:
                findings.append(Finding(
                    rule=self.name, path=path, line=lineno, symbol=name or "<expression>",
                    key=f"missing-wire-id:{name}",
                    message=(
                        f"{name or 'an unnamed shape'} is registered with the wire codec "
                        f"but has no id in {_WIRE_ID_TABLE} (repro.net.opcodes)"
                    ),
                ))
        return findings

    def _wire_id_table(self, findings: list, path: str, tree: ast.AST) -> dict | None:
        """name → id from the ``WIRE_IDS`` dict literal (None: no such table)."""
        for node in tree.body:
            target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
            if target is not None and _final_name(target) == _WIRE_ID_TABLE:
                break
        else:
            return None
        table: dict = {}
        if not isinstance(node.value, ast.Dict):
            findings.append(Finding(
                rule=self.name, path=path, line=node.lineno, symbol=_WIRE_ID_TABLE,
                key="dynamic-wire-id",
                message=f"{_WIRE_ID_TABLE} is not a dict literal; wire ids must be auditable",
            ))
            return table
        owners: dict = {}
        for key, value in zip(node.value.keys, node.value.values):
            name = key.value if isinstance(key, ast.Constant) else None
            wire_id = value.value if isinstance(value, ast.Constant) else None
            if not isinstance(name, str) or not isinstance(wire_id, int):
                problem = ("dynamic-wire-id", "has an entry that is not a literal name and id")
            elif name in table:
                problem = (f"duplicate-wire-id-name:{name}", f"lists {name!r} twice")
            elif wire_id in owners:
                problem = (
                    f"duplicate-wire-id:0x{wire_id:02X}",
                    f"gives 0x{wire_id:02X} to both {owners[wire_id]!r} and {name!r}",
                )
            else:
                table[name], owners[wire_id] = wire_id, name
                continue
            findings.append(Finding(
                rule=self.name, path=path, line=value.lineno, symbol=_WIRE_ID_TABLE,
                key=problem[0], message=f"{_WIRE_ID_TABLE} {problem[1]}",
            ))
        return table
