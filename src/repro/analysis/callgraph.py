"""The project call graph: who calls whom, resolved through imports.

Built once per :class:`~repro.analysis.model.ProjectModel` (memoized in
``model.caches``) and shared by every rule family that reasons across
function boundaries — the interprocedural taint engine, and anything
else that needs "which function does this call land in".

Resolution is deliberately conservative and purely syntactic. A call is
resolved to at most **one** project function or class; anything
ambiguous resolves to ``None`` and the caller treats it as opaque
(taint rules launder through opaque calls, exactly like the old
intra-procedural engine did for every call). The resolution ladder for
a call with parts ``(p0, …, pn)``:

* ``f()`` — a module-level function ``f`` in the same module; else an
  import binding (``from x import f``) pointing at a project function
  or class; else, unless ``f`` is a Python builtin, the *unique-name
  fallback* (exactly one definition of ``f`` anywhere in the model, name
  not on the builtin-collision denylist).
* ``self.m()`` / ``cls.m()`` — method ``m`` of the enclosing class.
* ``alias.m()`` — ``alias`` resolved through the configured
  receiver-alias table (``self._wal.flush()`` →
  ``WriteAheadLog.flush``); the same table the lock-order rule uses.
* ``mod.f()`` / ``pkg.mod.f()`` — ``mod`` resolved through import
  bindings to a project module, then ``f`` looked up there.
* anything else (chained calls, opaque receivers) — unresolved.

Classes resolve too: a call landing on a project class is a
*construction* (taint treats it as container packing — any tainted
argument taints the instance).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.analysis.model import CALL_MARK, ProjectModel

__all__ = ["CallGraph", "FunctionEntry", "ClassEntry", "get_callgraph"]

#: method names excluded from unique-name fallback resolution: they
#: collide with builtin container/threading methods, so a lone project
#: definition of e.g. ``append`` must not capture every ``list.append``.
FALLBACK_DENYLIST = frozenset({
    "acquire", "add", "append", "clear", "close", "copy", "count",
    "discard", "extend", "format", "get", "index", "insert", "items",
    "join", "keys", "notify", "notify_all", "pop", "popitem", "put",
    "release", "remove", "run", "send", "set", "setdefault", "sort",
    "split", "start", "stop", "update", "values", "wait", "write",
})

#: Python's builtin names: a bare call of one the module does not bind
#: never resolves by unique-name fallback (``next(it)`` is not a project
#: method that happens to be called ``next``).
_BUILTINS = frozenset(dir(builtins))


@dataclass
class FunctionEntry:
    """One project function/method the graph can resolve calls to."""

    fid: str                      # "module:qualname"
    module: str
    qualname: str                 # "f" or "Cls.meth" (or nested)
    node: object                  # ast.FunctionDef / AsyncFunctionDef
    class_name: str | None
    path: str
    #: parameter names in call-site order (``self``/``cls`` dropped),
    #: keyword-only names included at the tail.
    params: tuple = ()
    callers: set = field(default_factory=set)   # fids calling this one
    callees: set = field(default_factory=set)   # fids this one calls


@dataclass(frozen=True)
class ClassEntry:
    cid: str                      # "module:ClassName"
    module: str
    name: str


def _param_names(node) -> tuple:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def _owning_class(scope: str, info) -> str | None:
    for part in scope.split("."):
        if part in info.classes:
            return part
    return None


class CallGraph:
    """Call resolution over one :class:`ProjectModel`."""

    def __init__(self, model: ProjectModel, config):
        self.model = model
        self.config = config
        self.functions: dict[str, FunctionEntry] = {}
        self.classes: dict[str, ClassEntry] = {}
        # module -> local binding name -> ("func", fid) | ("class", cid)
        #                                | ("module", modname)
        self._bindings: dict[str, dict] = {}
        # method/function final name -> fid, only when the definition is
        # unique project-wide (None marks "seen more than once")
        self._unique: dict[str, str | None] = {}
        self._receiver_aliases = dict(config.lock_order.receiver_aliases)
        self._build()

    # ------------------------------------------------------------------ build

    def _build(self) -> None:
        model = self.model
        for modname, info in model.modules.items():
            path = model.relpath(info)
            for class_name in info.classes:
                cid = f"{modname}:{class_name}"
                self.classes[cid] = ClassEntry(cid=cid, module=modname, name=class_name)
            for qualname, node in info.functions.items():
                fid = f"{modname}:{qualname}"
                parts = qualname.split(".")
                class_name = parts[0] if parts[0] in info.classes and len(parts) > 1 else None
                entry = FunctionEntry(
                    fid=fid, module=modname, qualname=qualname, node=node,
                    class_name=class_name, path=path, params=_param_names(node),
                )
                self.functions[fid] = entry
                final = parts[-1]
                if final in self._unique:
                    self._unique[final] = None  # ambiguous
                else:
                    self._unique[final] = fid

        for modname, info in model.modules.items():
            self._bindings[modname] = self._module_bindings(modname, info)

        # call edges (callers/callees), one linear walk per function body
        for fid, entry in self.functions.items():
            info = model.modules[entry.module]
            scope = entry.qualname
            for node in ast.walk(entry.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = self.resolve_call(entry.module, scope, node.func)
                if isinstance(resolved, FunctionEntry):
                    entry.callees.add(resolved.fid)
                    resolved.callers.add(fid)

    def _module_bindings(self, modname: str, info) -> dict:
        bindings: dict[str, tuple] = {}
        for imp in info.imports:
            if imp.type_checking:
                continue
            bound = imp.asname or (imp.name if imp.name else imp.module.split(".")[0])
            if imp.name is None:
                # ``import x.y`` binds "x" (or asname binds the full path)
                target = imp.module if imp.asname else imp.module.split(".")[0]
                if self._is_module(target):
                    bindings[bound] = ("module", target)
                continue
            # ``from m import name``: a submodule, function, or class of m
            sub = f"{imp.module}.{imp.name}"
            if self._is_module(sub):
                bindings[bound] = ("module", sub)
            elif imp.module in self.model.modules:
                target_info = self.model.modules[imp.module]
                if imp.name in target_info.functions:
                    bindings[bound] = ("func", f"{imp.module}:{imp.name}")
                elif imp.name in target_info.classes:
                    bindings[bound] = ("class", f"{imp.module}:{imp.name}")
        return bindings

    def _is_module(self, name: str) -> bool:
        return name in self.model.modules

    # ---------------------------------------------------------------- resolve

    def lookup(self, modname: str, name: str):
        """Resolve a bare name in a module to a function/class entry."""
        info = self.model.modules.get(modname)
        if info is None:
            return None
        if name in info.functions and "." not in name:
            return self.functions.get(f"{modname}:{name}")
        if name in info.classes:
            return self.classes.get(f"{modname}:{name}")
        binding = self._bindings.get(modname, {}).get(name)
        if binding is not None:
            kind, target = binding
            if kind == "func":
                return self.functions.get(target)
            if kind == "class":
                return self.classes.get(target)
        return None

    def method(self, modname: str, class_name: str, method_name: str):
        """Resolve ``Class.method`` in a module (no inheritance walk)."""
        return self.functions.get(f"{modname}:{class_name}.{method_name}")

    def resolve_call(self, modname: str, scope: str, func_expr):
        """Resolve a call expression to a FunctionEntry, ClassEntry or None.

        ``func_expr`` may be an ``ast.expr`` (the ``Call.func``) or an
        already-flattened part tuple.
        """
        if isinstance(func_expr, tuple):
            parts = func_expr
        else:
            from repro.analysis.model import flatten_parts

            parts = flatten_parts(func_expr)
        if not parts or CALL_MARK in parts or "?" in parts:
            return None
        info = self.model.modules.get(modname)
        if info is None:
            return None

        if len(parts) == 1:
            resolved = self.lookup(modname, parts[0])
            if resolved is not None or parts[0] in _BUILTINS:
                return resolved
            return self._unique_fallback(parts[0])

        receiver, final = parts[:-1], parts[-1]

        # self.m() / cls.m() → the enclosing class's method
        if receiver in (("self",), ("cls",)):
            class_name = _owning_class(scope, info)
            if class_name is not None:
                entry = self.method(modname, class_name, final)
                if entry is not None:
                    return entry
            return self._unique_fallback(final)

        # receiver-alias table: self._wal.flush() → WriteAheadLog.flush
        alias = self._receiver_aliases.get(receiver[-1])
        if alias is not None:
            alias_mod, _, alias_cls = alias.rpartition(".")
            entry = self.method(alias_mod, alias_cls, final)
            if entry is not None:
                return entry
            return None  # aliased but method unknown: opaque, not fallback

        # module-qualified calls: mod.f(), pkg.mod.f(), Alias.Class(...)
        binding = self._bindings.get(modname, {}).get(receiver[0])
        if binding is not None and binding[0] == "module":
            target_mod = binding[1]
            rest = receiver[1:]
            while rest and self._is_module(f"{target_mod}.{rest[0]}"):
                target_mod = f"{target_mod}.{rest[0]}"
                rest = rest[1:]
            if not rest:
                target_info = self.model.modules.get(target_mod)
                if target_info is not None:
                    if final in target_info.functions:
                        return self.functions.get(f"{target_mod}:{final}")
                    if final in target_info.classes:
                        return self.classes.get(f"{target_mod}:{final}")
            elif len(rest) == 1:
                # mod.Class.method or mod.Class(...) nested one level
                entry = self.method(target_mod, rest[0], final)
                if entry is not None:
                    return entry
            return None

        # ClassName.method() on a locally known class
        if len(receiver) == 1:
            local = self.lookup(modname, receiver[0])
            if isinstance(local, ClassEntry):
                return self.method(local.module, local.name, final)

        return self._unique_fallback(final)

    def _unique_fallback(self, name: str):
        if name in FALLBACK_DENYLIST:
            return None
        fid = self._unique.get(name)
        return self.functions.get(fid) if fid else None


def get_callgraph(model: ProjectModel, config) -> CallGraph:
    """The memoized call graph for this model (built on first use)."""
    graph = model.caches.get("callgraph")
    if graph is None:
        graph = CallGraph(model, config)
        model.caches["callgraph"] = graph
    return graph
