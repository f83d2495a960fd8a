"""Unbound AST for parsed SQL statements.

These nodes carry names, not resolved slots/types — binding against the
catalog (and encryption type deduction) happens later, mirroring the
parse → bind → (encryption) type deduction pipeline of Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Scalar expressions (unbound)
# ---------------------------------------------------------------------------


class AstExpr:
    __slots__ = ()


@dataclass(frozen=True)
class ColumnName(AstExpr):
    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal(AstExpr):
    value: object  # int | float | str | bytes | bool | None


@dataclass(frozen=True)
class Param(AstExpr):
    name: str


@dataclass(frozen=True)
class BinaryOp(AstExpr):
    op: str  # = <> < <= > >= + - * / AND OR
    left: AstExpr
    right: AstExpr


@dataclass(frozen=True)
class UnaryOp(AstExpr):
    op: str  # NOT, -
    operand: AstExpr


@dataclass(frozen=True)
class LikeOp(AstExpr):
    value: AstExpr
    pattern: AstExpr
    negated: bool = False


@dataclass(frozen=True)
class BetweenOp(AstExpr):
    value: AstExpr
    low: AstExpr
    high: AstExpr


@dataclass(frozen=True)
class InOp(AstExpr):
    value: AstExpr
    options: tuple[AstExpr, ...]
    negated: bool = False


@dataclass(frozen=True)
class IsNullOp(AstExpr):
    value: AstExpr
    negated: bool = False


@dataclass(frozen=True)
class Aggregate(AstExpr):
    func: str  # COUNT SUM AVG MIN MAX
    argument: AstExpr | None  # None = COUNT(*)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    __slots__ = ()


@dataclass(frozen=True)
class SelectItem:
    expr: AstExpr | None  # None = '*'
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return (self.alias or self.name).lower()


@dataclass(frozen=True)
class Join:
    table: TableRef
    condition: AstExpr


@dataclass(frozen=True)
class OrderItem:
    expr: AstExpr
    ascending: bool = True


@dataclass(frozen=True)
class SelectStmt(Statement):
    items: tuple[SelectItem, ...]
    table: TableRef | None
    joins: tuple[Join, ...] = ()
    where: AstExpr | None = None
    group_by: tuple[AstExpr, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False


@dataclass(frozen=True)
class InsertStmt(Statement):
    table: str
    columns: tuple[str, ...]       # empty = all columns in schema order
    rows: tuple[tuple[AstExpr, ...], ...]


@dataclass(frozen=True)
class UpdateStmt(Statement):
    table: str
    assignments: tuple[tuple[str, AstExpr], ...]
    where: AstExpr | None = None


@dataclass(frozen=True)
class DeleteStmt(Statement):
    table: str
    where: AstExpr | None = None


@dataclass(frozen=True)
class ColumnEncryptionClause:
    """The ``ENCRYPTED WITH (...)`` clause of Figure 1."""

    cek_name: str
    encryption_type: str       # 'Deterministic' | 'Randomized'
    algorithm: str


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    type_length: int | None = None
    encryption: ColumnEncryptionClause | None = None
    nullable: bool = True
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTableStmt(Statement):
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()


@dataclass(frozen=True)
class CreateIndexStmt(Statement):
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    clustered: bool = False


@dataclass(frozen=True)
class DropTableStmt(Statement):
    name: str


@dataclass(frozen=True)
class DropIndexStmt(Statement):
    name: str
    table: str


@dataclass(frozen=True)
class CreateCmkStmt(Statement):
    """CREATE COLUMN MASTER KEY (Figure 1)."""

    name: str
    key_store_provider_name: str
    key_path: str
    enclave_computations_signature: bytes | None = None


@dataclass(frozen=True)
class CreateCekStmt(Statement):
    """CREATE COLUMN ENCRYPTION KEY (Figure 1)."""

    name: str
    cmk_name: str
    algorithm: str
    encrypted_value: bytes
    signature: bytes


@dataclass(frozen=True)
class AlterCekStmt(Statement):
    """ALTER COLUMN ENCRYPTION KEY ... ADD VALUE / DROP VALUE.

    The CMK-rotation half of the key lifecycle: a CEK gains a second
    encrypted value under the new CMK, clients migrate, then the old
    value is dropped. ``action`` is ``'add'`` or ``'drop'``; the value
    fields are populated only for ``'add'``.
    """

    name: str
    action: str                      # 'add' | 'drop'
    cmk_name: str
    algorithm: str | None = None
    encrypted_value: bytes | None = None
    signature: bytes | None = None


@dataclass(frozen=True)
class AlterColumnStmt(Statement):
    """ALTER TABLE ... ALTER COLUMN — in-place (initial) encryption,
    decryption, or key rotation through the enclave (Section 2.4.2)."""

    table: str
    column: str
    type_name: str
    type_length: int | None = None
    encryption: ColumnEncryptionClause | None = None  # None = decrypt


@dataclass(frozen=True)
class AlterColumnOnlineStmt(Statement):
    """ALTER TABLE ... ALTER COLUMN c ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY
    = k) ONLINE — the text an online lifecycle job runs under. The server
    describes it like any DDL but never executes it: the job itself runs
    through ``rotate_start``."""

    table: str
    column: str
    cek_name: str


@dataclass(frozen=True)
class BeginStmt(Statement):
    pass


@dataclass(frozen=True)
class CommitStmt(Statement):
    pass


@dataclass(frozen=True)
class RollbackStmt(Statement):
    pass


def collect_params(expr: AstExpr | None, out: list[str] | None = None) -> list[str]:
    """All parameter names referenced by an expression, in first-seen order."""
    if out is None:
        out = []
    if expr is None:
        return out
    if isinstance(expr, Param):
        if expr.name not in out:
            out.append(expr.name)
    elif isinstance(expr, BinaryOp):
        collect_params(expr.left, out)
        collect_params(expr.right, out)
    elif isinstance(expr, UnaryOp):
        collect_params(expr.operand, out)
    elif isinstance(expr, LikeOp):
        collect_params(expr.value, out)
        collect_params(expr.pattern, out)
    elif isinstance(expr, BetweenOp):
        collect_params(expr.value, out)
        collect_params(expr.low, out)
        collect_params(expr.high, out)
    elif isinstance(expr, InOp):
        collect_params(expr.value, out)
        for option in expr.options:
            collect_params(option, out)
    elif isinstance(expr, IsNullOp):
        collect_params(expr.value, out)
    elif isinstance(expr, Aggregate) and expr.argument is not None:
        collect_params(expr.argument, out)
    return out


def statement_params(stmt: Statement) -> list[str]:
    """All parameter names used anywhere in a statement."""
    params: list[str] = []
    if isinstance(stmt, SelectStmt):
        for item in stmt.items:
            collect_params(item.expr, params)
        for join in stmt.joins:
            collect_params(join.condition, params)
        collect_params(stmt.where, params)
    elif isinstance(stmt, InsertStmt):
        for row in stmt.rows:
            for expr in row:
                collect_params(expr, params)
    elif isinstance(stmt, UpdateStmt):
        for __, expr in stmt.assignments:
            collect_params(expr, params)
        collect_params(stmt.where, params)
    elif isinstance(stmt, DeleteStmt):
        collect_params(stmt.where, params)
    return params
