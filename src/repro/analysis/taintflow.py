"""Interprocedural plaintext-taint dataflow, shared by the taint rules.

The old engine (PR 4) tracked decrypt results inside one function at a
time: a helper that merely *returns* ``crypto.decrypt(cell)`` hid the
flow from every caller. This module upgrades the analysis to
whole-program information flow à la "Information Flows in Encrypted
Databases":

* every project function gets a **taint signature** — does it return a
  source-tainted value, which parameters propagate to its return value,
  which parameters reach a sink inside it;
* signatures are computed to a **fixpoint** over the call graph
  (:mod:`repro.analysis.callgraph`): when a function's signature grows,
  its callers are re-analyzed, bounded per function so recursion and
  adversarial chains terminate;
* the per-function pass simultaneously records **events** — concrete
  source-tainted values reaching a sink or a ``return`` — which the
  rule families (``plaintext-taint``, ``wire-egress``) turn into
  findings. One flow pass feeds every taint rule; nothing re-walks.

Origins are sets: ``"S"`` marks "derived from a decrypt source", an
integer marks "derived from parameter *i*". A value reaching a sink
with ``"S"`` is a finding *here*; with ``{i}`` it becomes part of the
signature and surfaces at call sites that pass tainted arguments
(``…-sink-via:<callee>`` keys).

Laundering is unchanged from PR 4: passing a value through an
*unresolved* call cleanses it, declared sanitizers (``encrypt_cell`` …)
cleanse even when resolved, comparison verdicts are conceded leakage,
and whole packages (``repro.crypto``) are summary-opaque — the crypto
layer is the sanctioned boundary, its internals must not propagate
plaintext signatures outward. Project *classes* are the opposite:
construction packs arguments into the instance (dataclass field
assignment), so a tainted constructor argument taints the object.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import ClassEntry, FunctionEntry, get_callgraph
from repro.analysis.model import ProjectModel, flatten_parts

__all__ = ["Event", "TaintFlow", "TaintSummary", "get_taintflow"]

SOURCE = "S"

_EMPTY: frozenset = frozenset()
_SRC: frozenset = frozenset((SOURCE,))


@dataclass(frozen=True)
class TaintSummary:
    """One function's taint signature."""

    returns_source: bool = False
    #: parameter indices whose taint reaches the return value
    param_returns: frozenset = _EMPTY
    #: (param index, sink kind, sink name) triples reached inside
    param_sinks: frozenset = _EMPTY


_CLEAN = TaintSummary()


@dataclass(frozen=True)
class Event:
    """A source-tainted value reaching an egress, reported by rules."""

    etype: str      # "sink" | "sink-via" | "return"
    kind: str       # "log" | "metric" | "trace" | "wire" | "error-reply" | ""
    name: str       # sink callee name, or via-callee name
    lineno: int
    module: str
    scope: str
    path: str


class _FunctionPass:
    """One origins-tracking walk over a single function body."""

    def __init__(self, flow: "TaintFlow", entry: FunctionEntry):
        self.flow = flow
        self.entry = entry
        self.cfg = flow.taint_cfg
        self.origins: dict[str, frozenset] = {
            name: frozenset((index,)) for index, name in enumerate(entry.params)
        }
        self.events: list[Event] = []
        self.returns_source = False
        self.param_returns: set = set()
        self.param_sinks: set = set()

    # ----------------------------------------------------------- expressions

    def expr_origins(self, node) -> frozenset:
        if node is None or isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.origins.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            dotted = ".".join(flatten_parts(node))
            return self.origins.get(dotted, _EMPTY) | self.expr_origins(node.value)
        if isinstance(node, ast.Call):
            return self.call_origins(node)
        if isinstance(node, ast.BinOp):
            return self.expr_origins(node.left) | self.expr_origins(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.expr_origins(node.operand)
        if isinstance(node, ast.BoolOp):
            out = _EMPTY
            for value in node.values:
                out |= self.expr_origins(value)
            return out
        if isinstance(node, ast.IfExp):
            self.expr_origins(node.test)
            return self.expr_origins(node.body) | self.expr_origins(node.orelse)
        if isinstance(node, ast.JoinedStr):
            out = _EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self.expr_origins(value.value)
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = _EMPTY
            for element in node.elts:
                out |= self.expr_origins(element)
            return out
        if isinstance(node, ast.Dict):
            out = _EMPTY
            for value in node.values:
                if value is not None:
                    out |= self.expr_origins(value)
            return out
        if isinstance(node, ast.Subscript):
            return self.expr_origins(node.value)
        if isinstance(node, ast.Starred):
            return self.expr_origins(node.value)
        if isinstance(node, ast.Compare):
            # verdicts (orderings, equality) are sanctioned leakage
            self.expr_origins(node.left)
            for comparator in node.comparators:
                self.expr_origins(comparator)
            return _EMPTY
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:   # bound like a for loop's target
                origins = self.expr_origins(generator.iter)
                if origins:
                    self.taint_target(generator.target, origins)
            return self.expr_origins(node.value if isinstance(node, ast.DictComp) else node.elt)
        if isinstance(node, ast.Await):
            return self.expr_origins(node.value)
        return _EMPTY

    def call_origins(self, call: ast.Call) -> frozenset:
        parts = flatten_parts(call.func)
        final = parts[-1] if parts else ""
        arg_origins = [self.expr_origins(a) for a in call.args]
        kw_origins = [(kw.arg, self.expr_origins(kw.value)) for kw in call.keywords]
        all_origins = _EMPTY
        for origin in arg_origins:
            all_origins |= origin
        for _name, origin in kw_origins:
            all_origins |= origin

        # -- direct sinks -------------------------------------------------
        kind = self.flow.sink_kinds.get(final)
        if kind is not None and all_origins:
            self.record_leak("sink", kind, final, call.lineno, all_origins)

        # -- container packing: x.append(tainted) taints x ----------------
        if final in self.cfg_packing and len(parts) > 1 and all_origins:
            receiver = ".".join(parts[:-1])
            self.origins[receiver] = self.origins.get(receiver, _EMPTY) | all_origins

        # -- result origins -----------------------------------------------
        if final in self.cfg.sources:
            return _SRC
        if final in self.flow.sanitizers:
            return _EMPTY
        if final in self.cfg.propagators:
            return all_origins

        resolved = self.flow.resolve(self.entry, call.func, parts)
        if isinstance(resolved, ClassEntry):
            # construction packs arguments into the instance
            return all_origins
        if isinstance(resolved, FunctionEntry):
            summary = self.flow.summaries.get(resolved.fid, _CLEAN)
            # map call-site arguments onto callee parameter indices
            per_param: dict[int, frozenset] = {}
            for index, origin in enumerate(arg_origins):
                per_param[index] = origin
            for name, origin in kw_origins:
                if name in resolved.params:
                    per_param[resolved.params.index(name)] = origin
            for index, sink_kind, sink_name in summary.param_sinks:
                origin = per_param.get(index, _EMPTY)
                if origin:
                    self.record_leak(
                        "sink-via", sink_kind, parts[-1], call.lineno, origin
                    )
            out = _SRC if summary.returns_source else _EMPTY
            for index in summary.param_returns:
                out |= per_param.get(index, _EMPTY)
            return out

        return _EMPTY  # unresolved calls launder

    @property
    def cfg_packing(self):
        return self.flow.packing_methods

    def record_leak(self, etype: str, kind: str, name: str, lineno: int,
                    origins: frozenset) -> None:
        if SOURCE in origins:
            self.events.append(Event(
                etype=etype, kind=kind, name=name, lineno=lineno,
                module=self.entry.module, scope=self.entry.qualname,
                path=self.entry.path,
            ))
        for origin in origins:
            if origin != SOURCE:
                self.param_sinks.add((origin, kind, name))

    # ------------------------------------------------------------ statements

    def taint_target(self, target, origins: frozenset) -> None:
        if isinstance(target, ast.Name):
            self.origins[target.id] = self.origins.get(target.id, _EMPTY) | origins
        elif isinstance(target, ast.Attribute):
            dotted = ".".join(flatten_parts(target))
            self.origins[dotted] = self.origins.get(dotted, _EMPTY) | origins
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.taint_target(element, origins)
        elif isinstance(target, ast.Starred):
            self.taint_target(target.value, origins)

    def run(self, body: list) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are analyzed as their own entries
        if isinstance(stmt, ast.Assign):
            origins = self.expr_origins(stmt.value)
            if origins:
                for target in stmt.targets:
                    self.taint_target(target, origins)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                origins = self.expr_origins(stmt.value)
                if origins:
                    self.taint_target(stmt.target, origins)
        elif isinstance(stmt, ast.Return):
            origins = self.expr_origins(stmt.value)
            if SOURCE in origins:
                self.returns_source = True
                self.events.append(Event(
                    etype="return", kind="", name="", lineno=stmt.lineno,
                    module=self.entry.module, scope=self.entry.qualname,
                    path=self.entry.path,
                ))
            for origin in origins:
                if origin != SOURCE:
                    self.param_returns.add(origin)
        elif isinstance(stmt, ast.Expr):
            self.expr_origins(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            origins = self.expr_origins(stmt.iter)
            if origins:
                self.taint_target(stmt.target, origins)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.expr_origins(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.expr_origins(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                origins = self.expr_origins(item.context_expr)
                if origins and item.optional_vars is not None:
                    self.taint_target(item.optional_vars, origins)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.expr_origins(stmt.exc)

    def summary(self) -> TaintSummary:
        return TaintSummary(
            returns_source=self.returns_source,
            param_returns=frozenset(self.param_returns),
            param_sinks=frozenset(self.param_sinks),
        )


class TaintFlow:
    """Fixpoint taint signatures + leak events over one project model."""

    #: per-function re-analysis bound: depth of summary propagation chains
    #: the fixpoint will follow (recursion and pathological graphs stop here)
    MAX_VISITS = 8

    def __init__(self, model: ProjectModel, config):
        self.model = model
        self.config = config
        self.taint_cfg = config.taint
        self.graph = get_callgraph(model, config)
        self.sink_kinds: dict[str, str] = {}
        for name in config.taint.log_sinks:
            self.sink_kinds[name] = "log"
        for name in config.taint.metric_sinks:
            self.sink_kinds[name] = "metric"
        for name in config.taint.trace_sinks:
            self.sink_kinds[name] = "trace"
        for name in getattr(config.taint, "wire_sinks", ()):
            self.sink_kinds[name] = "wire"
        for name in getattr(config.taint, "error_reply_names", ()):
            self.sink_kinds[name] = "error-reply"
        self.sanitizers = frozenset(getattr(config.taint, "sanitizers", ()))
        self.packing_methods = frozenset(getattr(config.taint, "packing_methods", ()))
        self._opaque = tuple(getattr(config.taint, "opaque_packages", ()))
        self._boundary = frozenset(getattr(config.taint, "boundary_functions", ()))
        self.summaries: dict[str, TaintSummary] = {}
        self.events: dict[str, list] = {}
        self._analyze()

    # ---------------------------------------------------------------- engine

    def _entries(self) -> list:
        return [
            entry
            for entry in self.graph.functions.values()
            if self.model.in_packages(entry.module, self.config.packages)
            and not self.model.in_packages(entry.module, self._opaque)
        ]

    def resolve(self, entry: FunctionEntry, func_expr, parts):
        return self.graph.resolve_call(entry.module, entry.qualname, parts)

    def _analyze(self) -> None:
        entries = self._entries()
        by_fid = {entry.fid: entry for entry in entries}
        visits: dict[str, int] = {}
        pending = list(entries)
        queued = set(by_fid)
        while pending:
            entry = pending.pop(0)
            queued.discard(entry.fid)
            if visits.get(entry.fid, 0) >= self.MAX_VISITS:
                continue
            visits[entry.fid] = visits.get(entry.fid, 0) + 1
            function_pass = _FunctionPass(self, entry)
            function_pass.run(entry.node.body)
            self.events[entry.fid] = function_pass.events
            new = function_pass.summary()
            if entry.fid in self._boundary:
                # sanctioned plaintext boundary: the runtime gate (not the
                # type system) keeps this flow inside the trusted context,
                # so its signature must not propagate to callers. The
                # function's own findings still report (and get baselined).
                new = TaintSummary(
                    returns_source=False,
                    param_returns=new.param_returns,
                    param_sinks=new.param_sinks,
                )
            if new != self.summaries.get(entry.fid, _CLEAN):
                self.summaries[entry.fid] = new
                for caller in self.graph.functions[entry.fid].callers:
                    if caller in by_fid and caller not in queued:
                        pending.append(by_fid[caller])
                        queued.add(caller)

    # ----------------------------------------------------------------- reads

    def module_events(self, modname: str) -> list:
        """All events from functions defined in ``modname``."""
        out = []
        for fid, events in self.events.items():
            if fid.split(":", 1)[0] == modname:
                out.extend(events)
        return out


def get_taintflow(model: ProjectModel, config) -> TaintFlow:
    """The memoized flow analysis for this model (built on first use)."""
    flow = model.caches.get("taintflow")
    if flow is None:
        flow = TaintFlow(model, config)
        model.caches["taintflow"] = flow
    return flow
