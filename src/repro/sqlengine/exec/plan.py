"""Physical plans: everything about a statement that is decided once per text.

:func:`build_plan` binds a parsed statement against the catalog, chooses
the access path, lowers every expression and compiles it (Section 4.4:
expression services compile once per plan), and returns an immutable plan
the server caches beside the type deduction. :meth:`Executor.execute` only
binds parameter values and pulls rows through it.

A plan is shared by every session thread that runs its text, so nothing
reachable from one is written after construction. It holds the
``TableObject`` / ``IndexObject`` it reads — never an index's tree, which a
rebuild swaps — and is valid only at the catalog's ``schema_version`` it was
built at (see :meth:`Catalog.bump_schema_version`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from repro.crypto.aead import EncryptionScheme
from repro.errors import BindError, ExecutionError, TypeDeductionError
from repro.sqlengine.engine import IndexObject, StorageEngine, TableObject
from repro.sqlengine.exec.planner import (
    choose_access_path,
    extract_sargs,
    is_randomized,
    residual,
)
from repro.sqlengine.expression.compiler import CompiledExpression, compile_expression
from repro.sqlengine.expression.program import Opcode
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
from repro.sqlengine.expression.vm import LoweredProgram
from repro.sqlengine.scope import Scope
from repro.sqlengine.sqlparser import ast
from repro.sqlengine.typededuce import DeductionResult
from repro.sqlengine.types import ColumnType, EncryptionInfo, SqlType

_VARCHAR = ColumnType(SqlType("VARCHAR"))
_COMPARE_OPS = {op.value: op for op in CompareOp}
_ARITH_OPS = {op.value: op for op in ArithOp}


@dataclass(frozen=True)
class ResultColumn:
    """Name + full type of one result column (driver needs the encryption
    metadata to decrypt)."""

    name: str
    column_type: ColumnType


@dataclass(frozen=True)
class Scalar:
    """One value per input row: a slot read, a constant, or a host program.

    Every scalar goes through :func:`compile_expression`; a program that
    is a single ``GET_DATA`` or ``PUSH_CONST`` is kept as the slot or the
    constant it names, so reading it costs no VM call. Any other is kept
    as the VM runs it: lowered, once per plan.
    """

    slot: int | None = None
    const: object = None
    program: LoweredProgram | None = None


@dataclass(frozen=True)
class Access:
    """How the main table is read. Key operands are parameter positions
    (``Scalar.slot`` indexes the bound parameter values) or constants.

    ``checked`` are the key positions whose sargs the executor's key check
    decides on every fetched row (position ``len(eq)``: the range bounds);
    the plan's residual predicate no longer holds those conjuncts.
    """

    table: TableObject
    info: str
    index: IndexObject | None = None            # None: heap scan
    eq: tuple[Scalar, ...] = ()                 # equality prefix of the index key
    low: tuple[Scalar, bool] | None = None      # (operand, inclusive) on the next column
    high: tuple[Scalar, bool] | None = None
    checked: tuple[int, ...] = ()


@dataclass(frozen=True)
class JoinStep:
    """One joined table: hashed on an equality key, else a nested loop
    evaluating ``condition`` per pair (RND keys: per-pair enclave equality)."""

    table: TableObject
    hash_slots: tuple[int, int] | None          # (slot in the left row, slot in the joined row)
    condition: CompiledExpression | None
    pad: tuple[None, ...]                       # NULLs for the tables joined later


@dataclass(frozen=True)
class Aggregation:
    keys: tuple[Scalar, ...]
    aggregates: tuple[tuple[str, Scalar | None], ...]   # (func, argument); None = COUNT(*)
    items: tuple[tuple[bool, int], ...]         # output item -> (is an aggregate, its index)


@dataclass(frozen=True)
class SortKey:
    position: int
    ascending: bool
    enc: EncryptionInfo | None                  # set when the enclave compares this column


@dataclass(frozen=True)
class SelectPlan:
    params: tuple[str, ...]                     # lower-cased names, in slot order
    access: Access | None                       # None: SELECT without FROM
    joins: tuple[JoinStep, ...]
    where: CompiledExpression | None            # what the access path left undecided
    outputs: tuple[Scalar, ...]                 # projection; hidden sort columns last
    getter: Callable[[tuple], tuple] | None     # the projection when every output is a column
    aggregate: Aggregation | None               # replaces ``outputs`` when set
    columns: tuple[ResultColumn, ...]           # visible result columns
    hidden: int
    distinct: bool
    order: tuple[SortKey, ...]
    limit: int | None


@dataclass(frozen=True)
class InsertPlan:
    params: tuple[str, ...]
    table: str
    blank: tuple[None, ...]                     # the (absent) row the value programs run against
    rows: tuple[tuple[Scalar, ...], ...]        # one template per VALUES row, in schema order


@dataclass(frozen=True)
class DeletePlan:
    params: tuple[str, ...]
    table: str
    access: Access
    where: CompiledExpression | None            # what the access path left undecided


@dataclass(frozen=True)
class UpdatePlan(DeletePlan):
    """DELETE's qualification plus the new value of each assigned slot."""

    assignments: tuple[tuple[int, Scalar], ...]


Plan = SelectPlan | InsertPlan | UpdatePlan | DeletePlan

#: The statements that have a plan (everything else is DDL or transaction control).
PLANNED_STATEMENTS = (ast.SelectStmt, ast.InsertStmt, ast.UpdateStmt, ast.DeleteStmt)


def build_plan(
    stmt: ast.Statement,
    deduction: DeductionResult,
    engine: StorageEngine,
    allow_enclave_order_by: bool = False,
) -> Plan:
    """Plan ``stmt``; raises what binding raises (nothing is executed)."""
    if not isinstance(stmt, PLANNED_STATEMENTS):
        raise ExecutionError(f"executor cannot run {type(stmt).__name__}")
    builder = _Builder(stmt, deduction, engine)
    if isinstance(stmt, ast.SelectStmt):
        return builder.select(stmt, allow_enclave_order_by)
    if isinstance(stmt, ast.InsertStmt):
        return builder.insert(stmt)
    return builder.modify(stmt)


def _getter(slots: list[int]) -> Callable[[tuple], tuple]:
    """One call that projects a row onto ``slots``."""
    if len(slots) == 1:
        (slot,) = slots
        return lambda row: (row[slot],)
    return operator.itemgetter(*slots)


def _literal_type(value: object) -> ColumnType:
    if isinstance(value, bool):
        return ColumnType(SqlType("BIT"))
    if isinstance(value, int):
        return ColumnType(SqlType("INT"))
    if isinstance(value, float):
        return ColumnType(SqlType("FLOAT"))
    if isinstance(value, (bytes, bytearray)):
        return ColumnType(SqlType("VARBINARY"))
    return _VARCHAR


class _Builder:
    """Scope, parameter slots and deduction of the one statement being planned."""

    def __init__(self, stmt: ast.Statement, deduction: DeductionResult, engine: StorageEngine):
        self.engine = engine
        self.deduction = deduction
        self.scope = Scope.for_statement(engine.catalog, stmt)
        # Parameters live after the column slots of the concatenated row.
        self.params = tuple(name.lower() for name in ast.statement_params(stmt))
        self.param_slots = {
            name: self.scope.width + i for i, name in enumerate(self.params)
        }

    # -- expressions ---------------------------------------------------------------

    def lower(self, node: ast.AstExpr) -> Expr:
        """Bind an AST expression to slots and types (``CScaOp`` tree)."""
        lower = self.lower
        if isinstance(node, ast.ColumnName):
            resolved = self.scope.resolve(node)
            job = self.engine.catalog.column_rotation(resolved.table.name, resolved.column.name)
            if job is not None and job.kind != "rotate":
                # Plaintext and ciphertext side by side: no one operation
                # reads both (the enclave reads both keys of a rotation).
                raise ExecutionError(
                    f"column {resolved.table.name}.{resolved.column.name} is mid-{job.kind} "
                    f"(job {job.rotation_id}); finish the job before computing on it"
                )
            return ColumnRefExpr(
                resolved.column.name, resolved.slot, resolved.column.column_type
            )
        if isinstance(node, ast.Param):
            name = node.name.lower()
            return ParameterExpr(
                name, self.param_slots[name], self.deduction.param_types.get(name, _VARCHAR)
            )
        if isinstance(node, ast.Literal):
            return LiteralExpr(node.value, _literal_type(node.value))
        if isinstance(node, ast.BinaryOp):
            op = node.op.upper()
            if op == "AND":
                return AndExpr(lower(node.left), lower(node.right))
            if op == "OR":
                return OrExpr(lower(node.left), lower(node.right))
            if op in _COMPARE_OPS:
                return CompareExpr(_COMPARE_OPS[op], lower(node.left), lower(node.right))
            if op in _ARITH_OPS:
                return ArithExpr(_ARITH_OPS[op], lower(node.left), lower(node.right))
            raise ExecutionError(f"unsupported operator {node.op!r}")
        if isinstance(node, ast.UnaryOp):
            if node.op == "NOT":
                return NotExpr(lower(node.operand))
            if node.op == "-":
                zero = LiteralExpr(0, ColumnType(SqlType("INT")))
                return ArithExpr(ArithOp.SUB, zero, lower(node.operand))
            raise ExecutionError(f"unsupported unary operator {node.op!r}")
        if isinstance(node, ast.LikeOp):
            like = LikeExpr(lower(node.value), lower(node.pattern))
            return NotExpr(like) if node.negated else like
        if isinstance(node, ast.BetweenOp):
            value = lower(node.value)
            return AndExpr(
                CompareExpr(CompareOp.GE, value, lower(node.low)),
                CompareExpr(CompareOp.LE, value, lower(node.high)),
            )
        if isinstance(node, ast.InOp):
            value = lower(node.value)
            expr: Expr | None = None
            for option in node.options:
                eq = CompareExpr(CompareOp.EQ, value, lower(option))
                expr = eq if expr is None else OrExpr(expr, eq)
            assert expr is not None
            return NotExpr(expr) if node.negated else expr
        if isinstance(node, ast.IsNullOp):
            return IsNullExpr(lower(node.value), node.negated)
        raise ExecutionError(f"cannot bind expression node {type(node).__name__}")

    def scalar(self, node: ast.AstExpr | Expr) -> Scalar:
        expr = node if isinstance(node, Expr) else self.lower(node)
        compiled = compile_expression(expr)
        program = compiled.host_program
        if len(program) == 1:
            only = program.instructions[0]
            if only.opcode is Opcode.GET_DATA:
                return Scalar(slot=only.operand[0])
            if only.opcode is Opcode.PUSH_CONST:
                return Scalar(const=only.operand)
        return Scalar(program=compiled.lowered)

    def predicate(self, node: ast.AstExpr | None) -> CompiledExpression | None:
        return None if node is None else compile_expression(self.lower(node))

    # -- access path -----------------------------------------------------------------

    def access(
        self, table_name: str, where: ast.AstExpr | None, binding: str
    ) -> tuple[Access, ast.AstExpr | None]:
        """The main table's access path, and the part of ``where`` it
        leaves to the residual predicate."""
        table = self.engine.table(table_name)
        path = choose_access_path(table, extract_sargs(where, self.scope, binding))

        def key(operand: ast.AstExpr) -> Scalar:
            # A sarg operand is a parameter or a literal: rebase the
            # parameter's slot so it indexes the bound values directly.
            scalar = self.scalar(operand)
            if scalar.slot is None:
                return scalar
            return Scalar(slot=scalar.slot - self.scope.width)

        if path.kind == "scan" or path.index is None:
            return Access(table, path.describe()), where
        access = Access(
            table,
            path.describe(),
            index=path.index,
            eq=tuple(key(operand) for operand in path.eq_operands),
            low=path.low and (key(path.low[0]), path.low[1]),
            high=path.high and (key(path.high[0]), path.high[1]),
            checked=tuple(path.checked),
        )
        return access, residual(where, path.consumed)

    # -- SELECT ------------------------------------------------------------------------

    def select(self, stmt: ast.SelectStmt, allow_enclave_order_by: bool) -> SelectPlan:
        access = None
        joins: list[JoinStep] = []
        where = stmt.where
        if stmt.table is not None:
            access, where = self.access(stmt.table.name, where, stmt.table.binding_name)
            left_width = access.table.schema.arity
            for join in stmt.joins:
                joins.append(self.join(join, left_width))
                left_width += joins[-1].table.schema.arity

        aggregate = None
        hidden: list[ast.ColumnName] = []
        if stmt.group_by or any(isinstance(i.expr, ast.Aggregate) for i in stmt.items):
            aggregate, columns = self.aggregation(stmt)
            outputs: list[Scalar] = []
        else:
            # Sorting may reference columns that are not projected (SQL
            # allows ORDER BY over any table column); carry them as hidden
            # trailing columns and strip them after the sort. DISTINCT
            # sorts its visible columns only.
            if not stmt.distinct:
                hidden = [i.expr for i in stmt.order_by if isinstance(i.expr, ast.ColumnName)]
            outputs, columns = self.projection(stmt, hidden)
        slots = [scalar.slot for scalar in outputs]
        getter = None
        if outputs and all(slot is not None and slot < self.scope.width for slot in slots):
            getter = _getter(slots)
        visible = columns[: len(columns) - len(hidden)]
        if stmt.distinct and any(is_randomized(c.column_type) for c in visible):
            raise ExecutionError("DISTINCT over a randomized encrypted column is not supported")
        return SelectPlan(
            params=self.params,
            access=access,
            joins=tuple(joins),
            where=self.predicate(where),
            outputs=tuple(outputs),
            getter=getter,
            aggregate=aggregate,
            columns=tuple(visible),
            hidden=len(hidden),
            distinct=stmt.distinct,
            order=self.sort_keys(stmt, columns, len(hidden), allow_enclave_order_by),
            limit=stmt.limit,
        )

    def join(self, join: ast.Join, left_width: int) -> JoinStep:
        table = self.engine.table(join.table.name)
        pad = (None,) * (self.scope.width - left_width - table.schema.arity)
        slots = self.hash_join_slots(join.condition, left_width)
        if slots is not None:
            return JoinStep(table, (slots[0], slots[1] - left_width), None, pad)
        return JoinStep(table, None, self.predicate(join.condition), pad)

    def hash_join_slots(self, condition: ast.AstExpr, left_width: int) -> tuple[int, int] | None:
        """(left slot, right slot) if ``condition`` is an equality a hash
        join can serve; RND keys need per-pair enclave checks instead."""
        if not (
            isinstance(condition, ast.BinaryOp)
            and condition.op == "="
            and isinstance(condition.left, ast.ColumnName)
            and isinstance(condition.right, ast.ColumnName)
        ):
            return None
        a = self.scope.resolve(condition.left)
        b = self.scope.resolve(condition.right)
        if a.slot < left_width <= b.slot:
            left, right = a, b
        elif b.slot < left_width <= a.slot:
            left, right = b, a
        else:
            return None
        enc_left = left.column.column_type.encryption
        enc_right = right.column.column_type.encryption
        if (enc_left is None) != (enc_right is None):
            raise TypeDeductionError("cannot join an encrypted column with a plaintext column")
        if enc_left is not None and enc_left.cek_name != enc_right.cek_name:
            raise TypeDeductionError("join columns are encrypted with different CEKs")
        if is_randomized(left.column.column_type) or is_randomized(right.column.column_type):
            return None
        return left.slot, right.slot

    def projection(
        self, stmt: ast.SelectStmt, hidden: list[ast.ColumnName]
    ) -> tuple[list[Scalar], list[ResultColumn]]:
        outputs: list[Scalar] = []
        columns: list[ResultColumn] = []
        for i, item in enumerate(stmt.items):
            if item.expr is None:
                if stmt.table is None:
                    raise BindError("SELECT * requires a FROM clause")
                for resolved in self.scope.all_columns():
                    columns.append(ResultColumn(resolved.column.name, resolved.column.column_type))
                    outputs.append(Scalar(slot=resolved.slot))
            elif isinstance(item.expr, ast.ColumnName):
                resolved = self.scope.resolve(item.expr)
                columns.append(
                    ResultColumn(item.alias or resolved.column.name, resolved.column.column_type)
                )
                outputs.append(Scalar(slot=resolved.slot))
            else:
                columns.append(ResultColumn(item.alias or f"col{i+1}", _VARCHAR))
                outputs.append(self.scalar(item.expr))
        for expr in hidden:
            resolved = self.scope.resolve(expr)
            columns.append(
                ResultColumn(f"__order_{resolved.column.name}", resolved.column.column_type)
            )
            outputs.append(Scalar(slot=resolved.slot))
        return outputs, columns

    def aggregation(self, stmt: ast.SelectStmt) -> tuple[Aggregation, list[ResultColumn]]:
        group_exprs = [self.lower(g) for g in stmt.group_by]
        for bound in group_exprs:
            if isinstance(bound, ColumnRefExpr) and is_randomized(bound.column_type):
                raise ExecutionError("GROUP BY on a randomized encrypted column is not supported")
        aggregates: list[tuple[str, Scalar | None]] = []
        items: list[tuple[bool, int]] = []
        columns: list[ResultColumn] = []
        for i, item in enumerate(stmt.items):
            if item.expr is None:
                raise BindError("SELECT * cannot be combined with aggregation")
            if isinstance(item.expr, ast.Aggregate):
                agg = item.expr
                argument = None if agg.argument is None else self.scalar(agg.argument)
                items.append((True, len(aggregates)))
                aggregates.append((agg.func, argument))
                sql_type = SqlType("INT" if agg.func == "COUNT" else "FLOAT")
                columns.append(ResultColumn(item.alias or agg.func.lower(), ColumnType(sql_type)))
                continue
            bound = self.lower(item.expr)
            if bound not in group_exprs:
                raise BindError("non-aggregate SELECT item must appear in GROUP BY")
            items.append((False, group_exprs.index(bound)))
            simple = isinstance(bound, (ColumnRefExpr, ParameterExpr, LiteralExpr))
            name = item.expr.name if isinstance(item.expr, ast.ColumnName) else f"col{i+1}"
            columns.append(
                ResultColumn(item.alias or name, bound.column_type if simple else _VARCHAR)
            )
        keys = tuple(self.scalar(g) for g in group_exprs)
        return Aggregation(keys, tuple(aggregates), tuple(items)), columns

    def sort_keys(
        self,
        stmt: ast.SelectStmt,
        columns: list[ResultColumn],
        hidden: int,
        allow_enclave_order_by: bool,
    ) -> tuple[SortKey, ...]:
        # ORDER BY references output columns by name; the hidden trailing
        # sort columns (see select) cover non-projected table columns.
        keys: list[SortKey] = []
        n_visible = len(columns) - hidden
        for order_index, item in enumerate(stmt.order_by):
            if not isinstance(item.expr, ast.ColumnName):
                raise ExecutionError("ORDER BY supports column references only")
            target = item.expr.name.lower()
            position = next(
                (i for i, c in enumerate(columns[:n_visible]) if c.name.lower() == target),
                n_visible + order_index if hidden else None,
            )
            if position is None:
                raise BindError(f"ORDER BY column {item.expr.name!r} is not in the output")
            enc = columns[position].column_type.encryption
            if enc is not None and not (
                allow_enclave_order_by
                and enc.scheme is EncryptionScheme.RANDOMIZED
                and enc.enclave_enabled
                and self.engine.enclave is not None
            ):
                raise TypeDeductionError(
                    "ORDER BY on encrypted columns is not supported in AEv2 "
                    "(the paper removes these from TPC-C for the same reason); "
                    "enable allow_enclave_order_by for the extension"
                )
            keys.append(SortKey(position, item.ascending, enc))
        return tuple(keys)

    # -- DML ------------------------------------------------------------------------------

    def insert(self, stmt: ast.InsertStmt) -> InsertPlan:
        schema = self.engine.catalog.table(stmt.table)
        names = [c.lower() for c in (stmt.columns or tuple(schema.column_names()))]
        rows: list[tuple[Scalar, ...]] = []
        for value_row in stmt.rows:
            if len(value_row) != len(names):
                raise ExecutionError("INSERT arity mismatch")
            values = {name: self.scalar(expr) for name, expr in zip(names, value_row)}
            rows.append(tuple(values.get(c.name.lower(), Scalar()) for c in schema.columns))
        return InsertPlan(self.params, stmt.table, (None,) * self.scope.width, tuple(rows))

    def modify(self, stmt: ast.UpdateStmt | ast.DeleteStmt) -> DeletePlan:
        access, where = self.access(stmt.table, stmt.where, self.scope.bindings()[0][0])
        qualification = (self.params, stmt.table, access, self.predicate(where))
        if isinstance(stmt, ast.DeleteStmt):
            return DeletePlan(*qualification)
        schema = self.engine.catalog.table(stmt.table)
        assignments = tuple(
            (schema.column_index(name), self.scalar(expr))
            for name, expr in stmt.assignments
        )
        return UpdatePlan(*qualification, assignments)
