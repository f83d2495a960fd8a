"""The project model: one AST pass per module, shared by every rule.

Rules should not re-walk raw trees for the common questions — who imports
what, which attributes are touched on which receivers, which calls carry
which string literals, where locks are taken and what runs while they are
held. The model answers those once per module; rules consume the indexed
records (the raw ``ast`` tree stays available for anything exotic).

Everything here is purely syntactic. Receivers are recorded as dotted
part-tuples (``obj.enclave.sqlos`` → ``("obj", "enclave", "sqlos")``, with
``"()"`` marking an intervening call), which is what the conservative
receiver-name heuristics in the rules key off.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: Marker inserted into a part-tuple where a call intervenes:
#: ``registry.counter("x").inc()`` → ``("registry", "counter", "()", "inc")``.
CALL_MARK = "()"


def flatten_parts(node: ast.AST) -> tuple[str, ...]:
    """Dotted parts of an attribute/call chain; ``("?",)`` base if opaque."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return flatten_parts(node.value) + (node.attr,)
    if isinstance(node, ast.Call):
        return flatten_parts(node.func) + (CALL_MARK,)
    return ("?",)


@dataclass(frozen=True)
class ImportRecord:
    module: str           # absolute module imported from / imported
    name: str | None      # None for ``import x``; bound name for ``from x import name``
    asname: str | None
    lineno: int
    type_checking: bool   # inside an ``if TYPE_CHECKING:`` block


@dataclass(frozen=True)
class AttrAccess:
    receiver: tuple[str, ...]   # parts of the expression the attr hangs off
    attr: str
    lineno: int
    scope: str                  # enclosing qualname or "<module>"
    is_store: bool


@dataclass(frozen=True)
class CallRecord:
    parts: tuple[str, ...]            # callee chain, e.g. ("self", "wal", "append")
    str_args: tuple[str | None, ...]  # literal positional string args (None if not a literal)
    lineno: int
    scope: str


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with <lock>:`` region."""

    parts: tuple[str, ...]            # full with-expression parts
    lineno: int
    scope: str
    held: tuple[tuple[str, ...], ...]  # lock part-tuples already held (outer withs)


@dataclass(frozen=True)
class HeldCall:
    """A call made while at least one lock is held."""

    parts: tuple[str, ...]
    lineno: int
    scope: str
    held: tuple[tuple[str, ...], ...]


@dataclass
class ModuleInfo:
    name: str                      # dotted module name relative to the root
    path: Path
    tree: ast.Module
    imports: list = field(default_factory=list)
    attr_accesses: list = field(default_factory=list)
    calls: list = field(default_factory=list)
    lock_acquisitions: list = field(default_factory=list)
    held_calls: list = field(default_factory=list)
    classes: set = field(default_factory=set)       # top-level and nested class names
    #: qualname ("f", "Cls.meth", "Cls.meth.inner") -> ast.FunctionDef;
    #: the call graph and taint summaries hang off these nodes.
    functions: dict = field(default_factory=dict)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


#: ``with`` expressions whose final attribute looks like a lock object.
LOCK_ATTR_HINTS = ("_lock", "_cond", "state_lock", "lock", "cond", "mutex")


def looks_like_lock(parts: tuple[str, ...]) -> bool:
    return bool(parts) and parts[-1].endswith(LOCK_ATTR_HINTS)


class _ModuleVisitor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo):
        self.info = info
        self._scope: list[str] = []
        self._type_checking_depth = 0
        self._lock_stack: list[tuple[str, ...]] = []

    # -- scope bookkeeping -------------------------------------------------

    @property
    def scope(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def _visit_scoped(self, node, name: str) -> None:
        self._scope.append(name)
        outer_locks = self._lock_stack
        self._lock_stack = []  # lock nesting does not cross function bounds
        self.generic_visit(node)
        self._lock_stack = outer_locks
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        qualname = node.name if not self._scope else f"{self.scope}.{node.name}"
        self.info.functions.setdefault(qualname, node)
        self._visit_scoped(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.info.classes.add(node.name)
        self._visit_scoped(node, node.name)

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._type_checking_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_checking_depth -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports.append(ImportRecord(
                module=alias.name, name=None, asname=alias.asname,
                lineno=node.lineno,
                type_checking=self._type_checking_depth > 0,
            ))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:  # resolve relative imports against this module
            base = self.info.name.split(".")
            base = base[: len(base) - node.level]
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            self.info.imports.append(ImportRecord(
                module=module, name=alias.name, asname=alias.asname,
                lineno=node.lineno,
                type_checking=self._type_checking_depth > 0,
            ))

    # -- attributes and calls -----------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.info.attr_accesses.append(AttrAccess(
            receiver=flatten_parts(node.value),
            attr=node.attr,
            lineno=node.lineno,
            scope=self.scope,
            is_store=isinstance(node.ctx, (ast.Store, ast.Del)),
        ))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        str_args = tuple(
            arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            else None
            for arg in node.args
        )
        record = CallRecord(
            parts=flatten_parts(node.func),
            str_args=str_args,
            lineno=node.lineno,
            scope=self.scope,
        )
        self.info.calls.append(record)
        if self._lock_stack:
            self.info.held_calls.append(HeldCall(
                parts=record.parts,
                lineno=node.lineno,
                scope=self.scope,
                held=tuple(self._lock_stack),
            ))
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        acquired: list[tuple[str, ...]] = []
        for item in node.items:
            expr = item.context_expr
            # ``with lock:`` or ``with obj.lock_attr:`` (not a call result)
            if isinstance(expr, (ast.Name, ast.Attribute)):
                parts = flatten_parts(expr)
                if looks_like_lock(parts):
                    self.info.lock_acquisitions.append(LockAcquisition(
                        parts=parts,
                        lineno=expr.lineno,
                        scope=self.scope,
                        held=tuple(self._lock_stack),
                    ))
                    acquired.append(parts)
            self.visit(expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self._lock_stack.extend(acquired)
        for child in node.body:
            self.visit(child)
        del self._lock_stack[len(self._lock_stack) - len(acquired):]

    visit_AsyncWith = visit_With


def parse_module(modname: str, path: Path, source: str) -> ModuleInfo:
    """One module's records: the single AST pass every rule shares."""
    info = ModuleInfo(name=modname, path=path, tree=ast.parse(source, filename=str(path)))
    _ModuleVisitor(info).visit(info.tree)
    return info


class ProjectModel:
    """Parsed view of every module under one or more package roots."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.modules: dict[str, ModuleInfo] = {}
        #: derived-structure memos (call graph, taint flow) keyed by name;
        #: a model instance is built per engine run, so entries never go
        #: stale across configs.
        self.caches: dict = {}

    @classmethod
    def build(cls, root: Path, packages: tuple[str, ...] | None = None) -> "ProjectModel":
        """Parse ``root/<pkg>/**/*.py`` for each package (all dirs if None)."""
        model = cls(root)
        root = model.root
        if packages is None:
            paths = sorted(root.rglob("*.py"))
        else:
            paths = []
            for pkg in packages:
                base = root / Path(*pkg.split("."))
                if base.is_dir():
                    paths.extend(sorted(base.rglob("*.py")))
                elif base.with_suffix(".py").is_file():
                    paths.append(base.with_suffix(".py"))
        for path in paths:
            rel = path.relative_to(root)
            parts = list(rel.parts)
            parts[-1] = parts[-1][:-3]  # strip .py
            if parts[-1] == "__init__":
                parts.pop()
            modname = ".".join(parts) if parts else rel.stem
            model.modules[modname] = parse_module(
                modname, path, path.read_text(encoding="utf-8")
            )
        return model

    def relpath(self, info: ModuleInfo) -> str:
        return info.path.relative_to(self.root).as_posix()

    def in_packages(self, modname: str, prefixes: tuple[str, ...]) -> bool:
        return any(modname == p or modname.startswith(p + ".") for p in prefixes)
