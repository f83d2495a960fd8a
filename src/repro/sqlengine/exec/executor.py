"""Query execution: binding, the iterator pipeline, and DML.

The executor evaluates predicates through expression services: each scalar
predicate compiles to a stack program (Section 4.4); comparisons over
enclave-required encrypted operands run behind ``TM_EVAL`` through the
enclave gateway, everything else runs on the host VM. Encrypted cells are
only ever *moved* here — never interpreted — except through the enclave.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.crypto.aead import EncryptionScheme
from repro.errors import BindError, ExecutionError, SqlError, TypeDeductionError
from repro.obs.metrics import get_registry
from repro.obs.querystats import QueryStats
from repro.obs.tracing import OPERATOR, get_tracer
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.catalog import IndexSchema, TableSchema
from repro.sqlengine.engine import StorageEngine, TableObject
from repro.sqlengine.exec.planner import AccessPath, choose_access_path, extract_sargs
from repro.sqlengine.expression.compiler import CompiledExpression, compile_expression
from repro.sqlengine.expression.tree import (
    AndExpr,
    ArithExpr,
    ArithOp,
    ColumnRefExpr,
    CompareExpr,
    CompareOp,
    Expr,
    IsNullExpr,
    LikeExpr,
    LiteralExpr,
    NotExpr,
    OrExpr,
    ParameterExpr,
)
from repro.sqlengine.expression.vm import EnclaveConnector, StackMachine
from repro.sqlengine.index.comparators import MAX_KEY, MIN_KEY
from repro.sqlengine.scope import Scope
from repro.sqlengine.sqlparser import ast
from repro.sqlengine.storage.heap import RowId
from repro.sqlengine.typededuce import DeductionResult, deduce
from repro.sqlengine.types import ColumnType, SqlType
from repro.sqlengine.txn.transaction import Transaction
from repro.sqlengine.values import SqlScalar, compare_values


#: Chunk size for predicates that never leave the host (see Executor._chunk_size).
_HOST_CHUNK_ROWS = 64


@dataclass(frozen=True)
class ResultColumn:
    """Name + full type of one result column (driver needs the encryption
    metadata to decrypt)."""

    name: str
    column_type: ColumnType


@dataclass
class QueryResult:
    columns: list[ResultColumn] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    plan_info: str = ""
    # Per-statement telemetry, attached by the server session (None for
    # DDL/transaction-control statements and when telemetry is disabled).
    stats: "QueryStats | None" = None


def _literal_type(value: object) -> ColumnType:
    if isinstance(value, bool):
        return ColumnType(SqlType("BIT"))
    if isinstance(value, int):
        return ColumnType(SqlType("INT"))
    if isinstance(value, float):
        return ColumnType(SqlType("FLOAT"))
    if isinstance(value, (bytes, bytearray)):
        return ColumnType(SqlType("VARBINARY"))
    return ColumnType(SqlType("VARCHAR"))


class Executor:
    """Executes parsed statements against a storage engine."""

    def __init__(
        self,
        engine: StorageEngine,
        enclave_gateway: EnclaveConnector | None = None,
        allow_enclave_order_by: bool = False,
        eval_batch_size: int = 64,
    ):
        self.engine = engine
        self.gateway = enclave_gateway
        # Future-work extension (paper conclusion): sort encrypted columns
        # through enclave comparisons. Off by default, as in AEv2.
        self.allow_enclave_order_by = allow_enclave_order_by
        # Rows per enclave round-trip for enclave-requiring predicates; at 1
        # (or less) every chunk is one row: the paper's row-at-a-time mode.
        self.eval_batch_size = eval_batch_size
        self._vm = StackMachine(enclave=enclave_gateway)
        # Expression-compilation cache. Keyed by the (frozen, hashable)
        # expression tree itself — identity-based keys are unsafe because
        # CPython recycles object addresses across statements.
        self._program_cache: dict[Expr, CompiledExpression] = {}
        registry = get_registry()
        self._tracer = get_tracer()
        self._rows_scanned = registry.counter("executor.rows_scanned")
        self._rows_returned = registry.counter("executor.rows_returned")
        self._table_scans = registry.counter("executor.table_scans")
        self._index_seeks = registry.counter("executor.index_seeks")
        self._index_range_scans = registry.counter("executor.index_range_scans")

    # ------------------------------------------------------------- entry point

    def execute(
        self,
        stmt: ast.Statement,
        params: dict[str, object] | None = None,
        txn: Transaction | None = None,
        deduction: DeductionResult | None = None,
    ) -> QueryResult:
        params = params or {}
        handlers = (
            (ast.SelectStmt, "exec.select", lambda: self._select(stmt, params, deduction)),
            (ast.InsertStmt, "exec.insert", lambda: self._insert(stmt, params, txn, deduction)),
            (ast.UpdateStmt, "exec.update", lambda: self._update(stmt, params, txn, deduction)),
            (ast.DeleteStmt, "exec.delete", lambda: self._delete(stmt, params, txn, deduction)),
        )
        for stmt_type, span_name, handler in handlers:
            if isinstance(stmt, stmt_type):
                with self._tracer.span(span_name, kind=OPERATOR):
                    result = handler()
                self._rows_returned.inc(result.rowcount)
                return result
        raise ExecutionError(f"executor cannot run {type(stmt).__name__}")

    # ------------------------------------------------------------ scope/binding

    def _scope_for(self, stmt: ast.Statement) -> Scope:
        scope = Scope(self.engine.catalog)
        if isinstance(stmt, ast.SelectStmt):
            if stmt.table is not None:
                scope.add_table(stmt.table)
            for join in stmt.joins:
                scope.add_table(join.table)
        elif isinstance(stmt, (ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)):
            scope.add_table(ast.TableRef(name=stmt.table))
        return scope

    def _param_slots(self, stmt: ast.Statement, scope: Scope) -> dict[str, int]:
        names = ast.statement_params(stmt)
        return {name.lower(): scope.width + i for i, name in enumerate(names)}

    def _param_values(
        self, stmt: ast.Statement, params: dict[str, object]
    ) -> list[object]:
        values: list[object] = []
        lowered = {k.lower(): v for k, v in params.items()}
        for name in ast.statement_params(stmt):
            key = name.lower()
            if key not in lowered:
                raise ExecutionError(f"missing value for parameter @{name}")
            values.append(lowered[key])
        return values

    def _to_expr(
        self,
        node: ast.AstExpr,
        scope: Scope,
        deduction: DeductionResult,
        param_slots: dict[str, int],
    ) -> Expr:
        if isinstance(node, ast.ColumnName):
            resolved = scope.resolve(node)
            return ColumnRefExpr(
                name=resolved.column.name,
                slot=resolved.slot,
                column_type=resolved.column.column_type,
            )
        if isinstance(node, ast.Param):
            name = node.name.lower()
            column_type = deduction.param_types.get(name, ColumnType(SqlType("VARCHAR")))
            return ParameterExpr(name=name, slot=param_slots[name], column_type=column_type)
        if isinstance(node, ast.Literal):
            return LiteralExpr(value=node.value, column_type=_literal_type(node.value))
        if isinstance(node, ast.BinaryOp):
            op = node.op.upper()
            if op == "AND":
                return AndExpr(
                    self._to_expr(node.left, scope, deduction, param_slots),
                    self._to_expr(node.right, scope, deduction, param_slots),
                )
            if op == "OR":
                return OrExpr(
                    self._to_expr(node.left, scope, deduction, param_slots),
                    self._to_expr(node.right, scope, deduction, param_slots),
                )
            if op in ("=", "<>", "<", "<=", ">", ">="):
                return CompareExpr(
                    op=CompareOp(op),
                    left=self._to_expr(node.left, scope, deduction, param_slots),
                    right=self._to_expr(node.right, scope, deduction, param_slots),
                )
            if op in ("+", "-", "*", "/"):
                return ArithExpr(
                    op=ArithOp(op),
                    left=self._to_expr(node.left, scope, deduction, param_slots),
                    right=self._to_expr(node.right, scope, deduction, param_slots),
                )
            raise ExecutionError(f"unsupported operator {node.op!r}")
        if isinstance(node, ast.UnaryOp):
            if node.op == "NOT":
                return NotExpr(self._to_expr(node.operand, scope, deduction, param_slots))
            if node.op == "-":
                return ArithExpr(
                    op=ArithOp.SUB,
                    left=LiteralExpr(0, ColumnType(SqlType("INT"))),
                    right=self._to_expr(node.operand, scope, deduction, param_slots),
                )
            raise ExecutionError(f"unsupported unary operator {node.op!r}")
        if isinstance(node, ast.LikeOp):
            like = LikeExpr(
                value=self._to_expr(node.value, scope, deduction, param_slots),
                pattern=self._to_expr(node.pattern, scope, deduction, param_slots),
            )
            return NotExpr(like) if node.negated else like
        if isinstance(node, ast.BetweenOp):
            value_low = self._to_expr(node.value, scope, deduction, param_slots)
            value_high = self._to_expr(node.value, scope, deduction, param_slots)
            return AndExpr(
                CompareExpr(CompareOp.GE, value_low, self._to_expr(node.low, scope, deduction, param_slots)),
                CompareExpr(CompareOp.LE, value_high, self._to_expr(node.high, scope, deduction, param_slots)),
            )
        if isinstance(node, ast.InOp):
            value = self._to_expr(node.value, scope, deduction, param_slots)
            expr: Expr | None = None
            for option in node.options:
                eq = CompareExpr(
                    CompareOp.EQ, value, self._to_expr(option, scope, deduction, param_slots)
                )
                expr = eq if expr is None else OrExpr(expr, eq)
            assert expr is not None
            return NotExpr(expr) if node.negated else expr
        if isinstance(node, ast.IsNullOp):
            return IsNullExpr(
                operand=self._to_expr(node.value, scope, deduction, param_slots),
                negated=node.negated,
            )
        raise ExecutionError(f"cannot bind expression node {type(node).__name__}")

    def _compile(self, expr: Expr) -> CompiledExpression:
        cached = self._program_cache.get(expr)
        if cached is None:
            cached = compile_expression(expr)
            self._program_cache[expr] = cached
        return cached

    # ------------------------------------------------------------------- SELECT

    def _select(
        self,
        stmt: ast.SelectStmt,
        params: dict[str, object],
        deduction: DeductionResult | None,
    ) -> QueryResult:
        if stmt.table is None:
            # SELECT of pure expressions (no FROM).
            scope = Scope(self.engine.catalog)
            deduction = deduction or deduce(stmt, scope)
            param_slots = self._param_slots(stmt, scope)
            values = self._param_values(stmt, params)
            row: list[object] = []
            columns: list[ResultColumn] = []
            for i, item in enumerate(stmt.items):
                if item.expr is None:
                    raise BindError("SELECT * requires a FROM clause")
                expr = self._to_expr(item.expr, scope, deduction, param_slots)
                compiled = self._compile(expr)
                row.append(self._vm.eval(compiled.host_program, list(values))[0])
                columns.append(
                    ResultColumn(item.alias or f"col{i+1}", ColumnType(SqlType("VARCHAR")))
                )
            return QueryResult(columns=columns, rows=[tuple(row)], rowcount=1)

        scope = self._scope_for(stmt)
        deduction = deduction or deduce(stmt, scope)
        param_slots = self._param_slots(stmt, scope)
        param_values = self._param_values(stmt, params)

        main_binding = stmt.table.binding_name
        table = self.engine.table(stmt.table.name)
        sargs = extract_sargs(stmt.where, scope, main_binding)
        path = choose_access_path(table, sargs)

        rows = (
            row for __, row in self._access(table, path, param_slots, param_values, scope)
        )

        plan_parts = [path.describe()]

        # Joins (hash join on hashable equality keys, else nested loop).
        width_so_far = table.schema.arity
        for join in stmt.joins:
            join_table = self.engine.table(join.table.name)
            rows, strategy = self._join(
                rows,
                width_so_far,
                join,
                join_table,
                scope,
                deduction,
                param_slots,
                param_values,
            )
            width_so_far += join_table.schema.arity
            plan_parts.append(strategy)

        # Residual filter: the full WHERE (re-checks sargs; harmless).
        if stmt.where is not None:
            predicate = self._to_expr(stmt.where, scope, deduction, param_slots)
            compiled = self._compile(predicate)
            if compiled.uses_enclave and self.gateway is None:
                raise ExecutionError(
                    "query requires enclave computations but no enclave gateway is attached"
                )
            rows = self._qualify(rows, compiled, param_values)
            if compiled.uses_enclave and self._chunk_size(compiled) > 1:
                plan_parts.append(f"BatchedFilter(batch={self.eval_batch_size})")

        aggregated = stmt.group_by or any(
            isinstance(i.expr, ast.Aggregate) for i in stmt.items if i.expr is not None
        )
        hidden = 0
        if aggregated:
            result = self._aggregate(stmt, rows, scope, deduction, param_slots, param_values)
        else:
            # Sorting may reference columns that are not projected (SQL
            # allows ORDER BY over any table column); carry them as hidden
            # trailing columns and strip them after the sort.
            hidden_exprs = [
                item.expr
                for item in stmt.order_by
                if isinstance(item.expr, ast.ColumnName)
            ]
            result = self._project(
                stmt, rows, scope, deduction, param_slots, param_values,
                hidden_exprs=hidden_exprs,
            )
            hidden = len(hidden_exprs)

        if stmt.distinct:
            if hidden:
                result.rows = [row[:-hidden] for row in result.rows]
                result.columns = result.columns[:-hidden]
                hidden = 0
            result.rows = self._distinct(result)
        if stmt.order_by:
            result.rows = self._order(stmt, result, scope, hidden=hidden)
        if hidden:
            result.rows = [row[:-hidden] for row in result.rows]
            result.columns = result.columns[:-hidden]
        if stmt.limit is not None:
            result.rows = result.rows[: stmt.limit]
        result.rowcount = len(result.rows)
        result.plan_info = " -> ".join(plan_parts)
        return result

    # -- chunked predicate evaluation -------------------------------------------

    def _chunk_size(self, compiled: CompiledExpression) -> int:
        """Rows per VM call for ``compiled``.

        A program that crosses the enclave boundary ships eval_batch_size
        rows per ``TM_EVAL``; at 1 that is the paper's row-at-a-time mode
        (see :meth:`StackMachine._tm_eval`). A host-only program crosses
        nothing, so its chunk size is not a knob: chunks only spread the
        interpreter's per-call overhead over more rows.
        """
        if compiled.uses_enclave and self.gateway is not None:
            return max(1, self.eval_batch_size)
        return _HOST_CHUNK_ROWS

    def _qualify(
        self,
        candidates: Iterable,
        compiled: CompiledExpression,
        param_values: list[object],
        row_of: Callable[[object], tuple] = lambda candidate: candidate,
    ) -> Iterator:
        """Yield the candidates whose row satisfies ``compiled``.

        The one place predicates meet rows: the residual WHERE, nested-loop
        join conditions and DML qualification all evaluate here, a chunk
        (see :meth:`_chunk_size`) per VM call.
        """
        size = self._chunk_size(compiled)
        candidates = iter(candidates)
        while chunk := list(itertools.islice(candidates, size)):
            verdicts = self._vm.eval_predicate_batch(
                compiled.host_program,
                [list(row_of(candidate)) + param_values for candidate in chunk],
            )
            for candidate, verdict in zip(chunk, verdicts):
                if verdict is True:
                    yield candidate

    # -- access paths ------------------------------------------------------------

    def _access(
        self,
        table: TableObject,
        path: AccessPath,
        param_slots: dict[str, int],
        param_values: list[object],
        scope: Scope,
    ) -> Iterator[tuple[RowId, tuple]]:
        """Yield ``(rid, row)`` along ``path``: heap scan, seek or range scan."""
        if path.kind == "scan" or path.index is None:
            self._table_scans.inc()
            with self._tracer.span(
                "exec.table_scan", kind=OPERATOR, table=table.schema.name
            ):
                scanned = 0
                try:
                    for entry in table.heap.scan():
                        scanned += 1
                        yield entry
                finally:
                    self._rows_scanned.inc(scanned)
            return

        def operand_value(operand: ast.AstExpr) -> object:
            if isinstance(operand, ast.Literal):
                return operand.value
            assert isinstance(operand, ast.Param)
            return param_values[param_slots[operand.name.lower()] - scope.width]

        prefix = tuple(operand_value(op) for op in path.eq_operands)
        tree = path.index.tree
        if path.kind == "seek" and len(prefix) == len(path.index.key_slots):
            self._index_seeks.inc()
            with self._tracer.span(
                "exec.index_seek",
                kind=OPERATOR,
                table=table.schema.name,
                index=path.index.schema.name,
            ):
                rids = tree.search_eq(prefix)
        else:
            low: object = prefix
            high: object = prefix + (MAX_KEY,)
            low_inclusive = True
            if path.low is not None:
                low = prefix + (operand_value(path.low[0]),)
                if not path.low[1]:
                    low = low + (MAX_KEY,)
            if path.high is not None:
                high = prefix + (operand_value(path.high[0]),)
                if path.high[1]:
                    high = high + (MAX_KEY,)
            self._index_range_scans.inc()
            with self._tracer.span(
                "exec.index_range_scan",
                kind=OPERATOR,
                table=table.schema.name,
                index=path.index.schema.name,
            ):
                rids = [rid for __, rid in tree.range_scan(low, high, low_inclusive, True)]
        fetched = [
            (rid, row)
            for rid in rids
            if (row := table.heap.read_or_none(rid)) is not None
        ]
        self._rows_scanned.inc(len(fetched))
        yield from fetched

    # -- joins ----------------------------------------------------------------------

    def _join(
        self,
        left_rows: Iterator[tuple],
        left_width: int,
        join: ast.Join,
        join_table: TableObject,
        scope: Scope,
        deduction: DeductionResult,
        param_slots: dict[str, int],
        param_values: list[object],
    ) -> tuple[Iterator[tuple], str]:
        pad = join_table.schema.arity
        equality = self._hash_join_keys(join.condition, scope, left_width, pad)
        if equality is not None:
            left_slot, right_slot, hashable = equality
            if hashable:
                build: dict[object, list[tuple]] = {}
                for __, row in join_table.heap.scan():
                    key = row[right_slot - left_width]
                    if key is None:
                        continue
                    build.setdefault(_hash_key(key), []).append(row)

                def hash_generator() -> Iterator[tuple]:
                    for left in left_rows:
                        key = left[left_slot]
                        if key is None:
                            continue
                        for right in build.get(_hash_key(key), []):
                            yield left + right

                return hash_generator(), "HashJoin"

        # Nested loop with the join condition evaluated per pair (this is
        # the path for RND-encrypted join keys: per-pair enclave equality).
        condition = self._to_expr(join.condition, scope, deduction, param_slots)
        compiled = self._compile(condition)
        inner_rows = [row for __, row in join_table.heap.scan()]

        # Slots between the joined prefix and the parameters belong to tables
        # joined later; they are NULL while this condition is evaluated.
        padded_params = [None] * (scope.width - left_width - pad) + param_values
        chunk_size = self._chunk_size(compiled)

        def nl_generator() -> Iterator[tuple]:
            # Chunks never span left rows: one enclave round-trip per
            # chunk_size inner rows of each left row.
            for left in left_rows:
                yield from self._qualify(
                    (left + right for right in inner_rows), compiled, padded_params
                )

        if compiled.uses_enclave and chunk_size > 1:
            return nl_generator(), f"NestedLoopJoin(batch={chunk_size})"
        return nl_generator(), "NestedLoopJoin"

    def _hash_join_keys(
        self, condition: ast.AstExpr, scope: Scope, left_width: int, pad: int
    ) -> tuple[int, int, bool] | None:
        """If the condition is a simple equality usable for hashing, return
        (left_slot, right_slot, hashable)."""
        if not (isinstance(condition, ast.BinaryOp) and condition.op == "="):
            return None
        if not (
            isinstance(condition.left, ast.ColumnName)
            and isinstance(condition.right, ast.ColumnName)
        ):
            return None
        a = scope.resolve(condition.left)
        b = scope.resolve(condition.right)
        if a.slot < left_width <= b.slot:
            left_col, right_col = a, b
        elif b.slot < left_width <= a.slot:
            left_col, right_col = b, a
        else:
            return None
        enc_left = left_col.column.column_type.encryption
        enc_right = right_col.column.column_type.encryption
        hashable = True
        for enc in (enc_left, enc_right):
            if enc is not None and enc.scheme is EncryptionScheme.RANDOMIZED:
                hashable = False  # RND equality needs per-pair enclave checks
        if (enc_left is None) != (enc_right is None):
            raise TypeDeductionError(
                "cannot join an encrypted column with a plaintext column"
            )
        if enc_left is not None and enc_right is not None and enc_left.cek_name != enc_right.cek_name:
            raise TypeDeductionError("join columns are encrypted with different CEKs")
        return left_col.slot, right_col.slot, hashable

    # -- aggregation -------------------------------------------------------------------

    def _aggregate(
        self,
        stmt: ast.SelectStmt,
        rows: Iterator[tuple],
        scope: Scope,
        deduction: DeductionResult,
        param_slots: dict[str, int],
        param_values: list[object],
    ) -> QueryResult:
        group_exprs = [self._to_expr(g, scope, deduction, param_slots) for g in stmt.group_by]
        for g, bound in zip(stmt.group_by, group_exprs):
            if isinstance(bound, ColumnRefExpr):
                enc = bound.column_type.encryption
                if enc is not None and enc.scheme is EncryptionScheme.RANDOMIZED:
                    raise ExecutionError(
                        "GROUP BY on a randomized encrypted column is not supported"
                    )
        group_programs = [self._compile(g) for g in group_exprs]

        aggs: list[tuple[str, CompiledExpression | None]] = []
        columns: list[ResultColumn] = []
        item_kinds: list[tuple[str, int]] = []  # ("group", idx) | ("agg", idx)
        for item in stmt.items:
            if item.expr is None:
                raise BindError("SELECT * cannot be combined with aggregation")
            if isinstance(item.expr, ast.Aggregate):
                agg = item.expr
                compiled = None
                if agg.argument is not None:
                    compiled = self._compile(
                        self._to_expr(agg.argument, scope, deduction, param_slots)
                    )
                aggs.append((agg.func, compiled))
                item_kinds.append(("agg", len(aggs) - 1))
                columns.append(
                    ResultColumn(item.alias or agg.func.lower(), ColumnType(SqlType("INT" if agg.func == "COUNT" else "FLOAT")))
                )
            else:
                bound = self._to_expr(item.expr, scope, deduction, param_slots)
                matched = None
                for gi, g in enumerate(group_exprs):
                    if g == bound:
                        matched = gi
                        break
                if matched is None:
                    raise BindError(
                        "non-aggregate SELECT item must appear in GROUP BY"
                    )
                item_kinds.append(("group", matched))
                column_type = (
                    bound.column_type
                    if isinstance(bound, (ColumnRefExpr, ParameterExpr, LiteralExpr))
                    else ColumnType(SqlType("VARCHAR"))
                )
                default_name = (
                    item.expr.name
                    if isinstance(item.expr, ast.ColumnName)
                    else f"col{stmt.items.index(item) + 1}"
                )
                columns.append(ResultColumn(item.alias or default_name, column_type))

        groups: dict[tuple, list[list[object]]] = {}
        key_values: dict[tuple, tuple] = {}
        for row in rows:
            inputs = list(row) + param_values
            key_raw = tuple(self._vm.eval(p.host_program, inputs)[0] for p in group_programs)
            key = tuple(_hash_key(k) for k in key_raw)
            state = groups.get(key)
            if state is None:
                state = [[] for __ in aggs]
                groups[key] = state
                key_values[key] = key_raw
            for i, (func, compiled) in enumerate(aggs):
                if compiled is None:  # COUNT(*)
                    state[i].append(1)
                else:
                    value = self._vm.eval(compiled.host_program, inputs)[0]
                    if value is not None:
                        state[i].append(value)

        if not stmt.group_by and not groups:
            groups[()] = [[] for __ in aggs]
            key_values[()] = ()

        out_rows: list[tuple] = []
        for key, state in groups.items():
            raw = key_values[key]
            row_out: list[object] = []
            for kind, idx in item_kinds:
                if kind == "group":
                    row_out.append(raw[idx])
                else:
                    func, __ = aggs[idx]
                    row_out.append(_fold(func, state[idx]))
            out_rows.append(tuple(row_out))
        return QueryResult(columns=columns, rows=out_rows)

    # -- projection / ordering -------------------------------------------------------------

    def _project(
        self,
        stmt: ast.SelectStmt,
        rows: Iterator[tuple],
        scope: Scope,
        deduction: DeductionResult,
        param_slots: dict[str, int],
        param_values: list[object],
        hidden_exprs: list[ast.ColumnName] | None = None,
    ) -> QueryResult:
        columns: list[ResultColumn] = []
        extractors: list[object] = []  # int slot | CompiledExpression
        for i, item in enumerate(stmt.items):
            if item.expr is None:
                for resolved in scope.all_columns():
                    columns.append(ResultColumn(resolved.column.name, resolved.column.column_type))
                    extractors.append(resolved.slot)
                continue
            if isinstance(item.expr, ast.ColumnName):
                resolved = scope.resolve(item.expr)
                columns.append(
                    ResultColumn(item.alias or resolved.column.name, resolved.column.column_type)
                )
                extractors.append(resolved.slot)
            else:
                bound = self._to_expr(item.expr, scope, deduction, param_slots)
                columns.append(ResultColumn(item.alias or f"col{i+1}", ColumnType(SqlType("VARCHAR"))))
                extractors.append(self._compile(bound))

        for expr in hidden_exprs or []:
            resolved = scope.resolve(expr)
            columns.append(
                ResultColumn(f"__order_{resolved.column.name}", resolved.column.column_type)
            )
            extractors.append(resolved.slot)

        out_rows: list[tuple] = []
        for row in rows:
            inputs = list(row) + param_values
            out: list[object] = []
            for extractor in extractors:
                if isinstance(extractor, int):
                    out.append(row[extractor])
                else:
                    out.append(self._vm.eval(extractor.host_program, inputs)[0])
            out_rows.append(tuple(out))
        return QueryResult(columns=columns, rows=out_rows)

    def _distinct(self, result: QueryResult) -> list[tuple]:
        for column in result.columns:
            enc = column.column_type.encryption
            if enc is not None and enc.scheme is EncryptionScheme.RANDOMIZED:
                raise ExecutionError(
                    "DISTINCT over a randomized encrypted column is not supported"
                )
        seen: set = set()
        out: list[tuple] = []
        for row in result.rows:
            key = tuple(_hash_key(cell) for cell in row)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return out

    def _order(
        self, stmt: ast.SelectStmt, result: QueryResult, scope: Scope, hidden: int = 0
    ) -> list[tuple]:
        # ORDER BY references output columns by name; hidden trailing sort
        # columns (see _select) cover non-projected table columns.
        keys: list[tuple[int, bool]] = []
        n_visible = len(result.columns) - hidden
        for order_index, item in enumerate(stmt.order_by):
            if not isinstance(item.expr, ast.ColumnName):
                raise ExecutionError("ORDER BY supports column references only")
            target = item.expr.name.lower()
            position = None
            for i, column in enumerate(result.columns[:n_visible]):
                if column.name.lower() == target:
                    position = i
                    break
            if position is None and hidden:
                position = n_visible + order_index
            if position is None:
                raise BindError(f"ORDER BY column {item.expr.name!r} is not in the output")
            enc = result.columns[position].column_type.encryption
            enclave_sorted = False
            if enc is not None:
                if not (
                    self.allow_enclave_order_by
                    and enc.scheme is EncryptionScheme.RANDOMIZED
                    and enc.enclave_enabled
                    and self.engine.enclave is not None
                ):
                    raise TypeDeductionError(
                        "ORDER BY on encrypted columns is not supported in AEv2 "
                        "(the paper removes these from TPC-C for the same reason); "
                        "enable allow_enclave_order_by for the extension"
                    )
                enclave_sorted = True
            keys.append((position, item.ascending, enc if enclave_sorted else None))

        enclave = self.engine.enclave

        # Batched extension path: pre-rank every distinct ciphertext of each
        # enclave sort column with decrypt-probe-once compare_batch ecalls —
        # k probe ecalls for k distinct cells instead of O(n log n) compare
        # ecalls inside the sort. The full pairwise outcome matrix this
        # reveals is the transitive closure of the sort's comparison
        # outcomes (a sort determines the total order), so the adversary
        # learns the same order information either way (see docs/PERF.md).
        rank_maps: dict[int, dict[object, int]] = {}
        if self.eval_batch_size > 1:
            for position, __, enc in keys:
                if enc is not None and position not in rank_maps:
                    rank_maps[position] = self._enclave_rank_map(
                        result.rows, position, enc, enclave
                    )

        def cell_compare(av: object, bv: object, enc, position: int) -> int:
            if av is None and bv is None:
                return 0
            if av is None:
                return -1
            if bv is None:
                return 1
            if enc is not None:
                ranks = rank_maps.get(position)
                if ranks is not None:
                    return compare_values(ranks[_hash_key(av)], ranks[_hash_key(bv)])
                # Extension path: the comparison — and hence the row
                # ordering — crosses the enclave boundary in the clear,
                # the same leakage as a range index build.
                return enclave.compare(enc.cek_name, av, bv)
            return compare_values(av, bv)

        def cmp(a: tuple, b: tuple) -> int:
            for position, ascending, enc in keys:
                c = cell_compare(a[position], b[position], enc, position)
                if c:
                    return c if ascending else -c
            return 0

        return sorted(result.rows, key=functools.cmp_to_key(cmp))

    def _enclave_rank_map(
        self, rows: list[tuple], position: int, enc, enclave
    ) -> dict[object, int]:
        """Rank each distinct ciphertext of a sort column via batch compares.

        A cell's rank is the number of cells ordered strictly below it;
        equal plaintexts (distinct RND ciphertexts) get equal ranks, so
        comparing ranks is exactly comparing plaintexts.
        """
        cells: list[object] = []
        seen: set = set()
        for row in rows:
            cell = row[position]
            if cell is None:
                continue
            key = _hash_key(cell)
            if key not in seen:
                seen.add(key)
                cells.append(cell)
        ranks: dict[object, int] = {}
        for cell in cells:
            outcomes: list[int] = []
            for start in range(0, len(cells), self.eval_batch_size):
                outcomes.extend(
                    enclave.compare_batch(
                        enc.cek_name, cell, cells[start : start + self.eval_batch_size]
                    )
                )
            ranks[_hash_key(cell)] = sum(1 for c in outcomes if c > 0)
        return ranks

    # ---------------------------------------------------------------------- DML

    def _insert(
        self,
        stmt: ast.InsertStmt,
        params: dict[str, object],
        txn: Transaction | None,
        deduction: DeductionResult | None,
    ) -> QueryResult:
        if txn is None:
            raise ExecutionError("INSERT requires a transaction")
        scope = self._scope_for(stmt)
        deduction = deduction or deduce(stmt, scope)
        param_slots = self._param_slots(stmt, scope)
        param_values = self._param_values(stmt, params)
        schema = self.engine.catalog.table(stmt.table)
        columns = [c.lower() for c in (stmt.columns or tuple(schema.column_names()))]
        count = 0
        for value_row in stmt.rows:
            if len(value_row) != len(columns):
                raise ExecutionError("INSERT arity mismatch")
            cells: dict[str, object] = {}
            for column_name, expr in zip(columns, value_row):
                bound = self._to_expr(expr, scope, deduction, param_slots)
                compiled = self._compile(bound)
                cells[column_name] = self._vm.eval(
                    compiled.host_program, [None] * scope.width + param_values
                )[0]
            row = tuple(cells.get(c.name.lower()) for c in schema.columns)
            self.engine.insert(txn, stmt.table, row)
            count += 1
        return QueryResult(rowcount=count)

    def _qualified_under_lock(
        self,
        stmt: ast.UpdateStmt | ast.DeleteStmt,
        txn: Transaction,
        scope: Scope,
        deduction: DeductionResult,
        param_slots: dict[str, int],
        param_values: list[object],
    ) -> Iterator[tuple[RowId, tuple]]:
        """Yield ``(rid, row)`` for each row an UPDATE/DELETE must change.

        Two-phase qualification: lock, re-read, re-check. Scanning reads are
        unlocked, so assignment expressions (e.g. the D_NEXT_O_ID increment
        of TPC-C NewOrder) must be evaluated against the row as it exists
        *under the lock* — the one yielded here — or concurrent
        read-modify-writes lose updates.
        """
        table = self.engine.table(stmt.table)
        sargs = extract_sargs(stmt.where, scope, scope.bindings()[0][0])
        path = choose_access_path(table, sargs)
        candidates = self._access(table, path, param_slots, param_values, scope)
        predicate = None
        if stmt.where is not None:
            predicate = self._compile(self._to_expr(stmt.where, scope, deduction, param_slots))
            candidates = self._qualify(
                candidates, predicate, param_values, row_of=operator.itemgetter(1)
            )
        # Materialize the first phase before the caller's first write, so
        # the scan never meets rows this statement has already changed.
        for rid, __ in list(candidates):
            self.engine.lock_row(txn, stmt.table, rid)
            row = self.engine.read(stmt.table, rid)
            if row is None:
                continue
            # The re-check re-reads single rows, so it is a chunk of one.
            if predicate is not None and not list(
                self._qualify([row], predicate, param_values)
            ):
                continue
            yield rid, row

    def _update(
        self,
        stmt: ast.UpdateStmt,
        params: dict[str, object],
        txn: Transaction | None,
        deduction: DeductionResult | None,
    ) -> QueryResult:
        if txn is None:
            raise ExecutionError("UPDATE requires a transaction")
        scope = self._scope_for(stmt)
        deduction = deduction or deduce(stmt, scope)
        param_slots = self._param_slots(stmt, scope)
        param_values = self._param_values(stmt, params)
        schema = self.engine.catalog.table(stmt.table)
        assignments: list[tuple[int, CompiledExpression]] = []
        for column_name, expr in stmt.assignments:
            slot = schema.column_index(column_name)
            bound = self._to_expr(expr, scope, deduction, param_slots)
            assignments.append((slot, self._compile(bound)))
        count = 0
        for rid, row in self._qualified_under_lock(
            stmt, txn, scope, deduction, param_slots, param_values
        ):
            inputs = list(row) + param_values
            new_row = list(row)
            for slot, compiled in assignments:
                new_row[slot] = self._vm.eval(compiled.host_program, inputs)[0]
            self.engine.update(txn, stmt.table, rid, tuple(new_row))
            count += 1
        return QueryResult(rowcount=count)

    def _delete(
        self,
        stmt: ast.DeleteStmt,
        params: dict[str, object],
        txn: Transaction | None,
        deduction: DeductionResult | None,
    ) -> QueryResult:
        if txn is None:
            raise ExecutionError("DELETE requires a transaction")
        scope = self._scope_for(stmt)
        deduction = deduction or deduce(stmt, scope)
        param_slots = self._param_slots(stmt, scope)
        param_values = self._param_values(stmt, params)
        count = 0
        for rid, __ in self._qualified_under_lock(
            stmt, txn, scope, deduction, param_slots, param_values
        ):
            self.engine.delete(txn, stmt.table, rid)
            count += 1
        return QueryResult(rowcount=count)


def _hash_key(value: object) -> object:
    if isinstance(value, Ciphertext):
        return ("ct", value.envelope)
    return value


def _fold(func: str, values: list[object]) -> object:
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return sum(values)  # type: ignore[arg-type]
    if func == "AVG":
        return sum(values) / len(values)  # type: ignore[arg-type]
    if func == "MIN":
        return min(values)  # type: ignore[type-var]
    if func == "MAX":
        return max(values)  # type: ignore[type-var]
    raise ExecutionError(f"unknown aggregate {func!r}")
