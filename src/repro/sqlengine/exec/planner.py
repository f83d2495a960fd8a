"""Access-path selection: scan vs. index seek/range.

A deliberately simple rule-based planner: it decomposes the WHERE clause
into a conjunction, finds sargable conjuncts (column OP param/literal) on
the main table, and matches them against available indexes.

Encryption awareness mirrors Section 3.1:

* any usable index supports equality-prefix seeks (DET ciphertext order
  clusters equal values, so equality works through it);
* a *value-range* conjunct can extend the prefix only when the next index
  column's order is semantic (plaintext or RND-enclave, never DET);
* invalid or pending indexes (Section 4.5) are never chosen.

The path also says which conjuncts the index *decides*: the sargs it
seeks or bounds on a plaintext or DET key column. The executor checks
those on each fetched row with the tree's own comparator (the key check),
so they leave the residual WHERE. A conjunct on an RND key column stays
in the residual: the enclave decides it, as it would without the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.aead import EncryptionScheme
from repro.sqlengine.engine import IndexObject, TableObject
from repro.sqlengine.scope import Scope
from repro.sqlengine.sqlparser import ast
from repro.sqlengine.types import ColumnType


@dataclass(frozen=True)
class Sarg:
    """A sargable conjunct: ``column OP operand`` with a constant operand."""

    column: str           # lower-cased column name on the main table
    op: str               # = < <= > >=
    operand: ast.AstExpr  # Param or Literal
    source: ast.AstExpr   # the conjunct it came from (a BETWEEN gives two sargs)


@dataclass
class AccessPath:
    """How the main table will be accessed."""

    kind: str                     # "scan" | "seek" | "range"
    index: IndexObject | None = None
    # Equality prefix: operands for index columns [0..len-1].
    eq_operands: list[ast.AstExpr] = field(default_factory=list)
    # Optional range bounds on the next index column.
    low: tuple[ast.AstExpr, bool] | None = None   # (operand, inclusive)
    high: tuple[ast.AstExpr, bool] | None = None
    # Key positions the key check decides (not RND); position len(eq_operands)
    # stands for the range bounds.
    checked: list[int] = field(default_factory=list)
    # Conjuncts every sarg of which the key check decides.
    consumed: list[ast.AstExpr] = field(default_factory=list)

    def describe(self) -> str:
        if self.kind == "scan":
            return "TableScan"
        name = self.index.schema.name if self.index else "?"
        return f"Index{'Seek' if self.kind == 'seek' else 'RangeScan'}({name})"


def conjuncts(expr: ast.AstExpr | None) -> list[ast.AstExpr]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op.upper() == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def _constant(expr: ast.AstExpr) -> bool:
    return isinstance(expr, (ast.Param, ast.Literal))


def extract_sargs(where: ast.AstExpr | None, scope: Scope, main_binding: str) -> list[Sarg]:
    """Sargable conjuncts over main-table columns."""
    sargs: list[Sarg] = []
    for conjunct in conjuncts(where):
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in ("=", "<", "<=", ">", ">="):
            pairs = [
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, _flip(conjunct.op)),
            ]
            for column_side, operand_side, op in pairs:
                if isinstance(column_side, ast.ColumnName) and _constant(operand_side):
                    try:
                        resolved = scope.resolve(column_side)
                    except Exception:
                        continue
                    if resolved.binding == main_binding:
                        sargs.append(
                            Sarg(resolved.column.name.lower(), op, operand_side, conjunct)
                        )
                    break
        elif isinstance(conjunct, ast.BetweenOp):
            if isinstance(conjunct.value, ast.ColumnName) and _constant(conjunct.low) and _constant(conjunct.high):
                try:
                    resolved = scope.resolve(conjunct.value)
                except Exception:
                    continue
                if resolved.binding == main_binding:
                    name = resolved.column.name.lower()
                    sargs.append(Sarg(name, ">=", conjunct.low, conjunct))
                    sargs.append(Sarg(name, "<=", conjunct.high, conjunct))
    return sargs


def _flip(op: str) -> str:
    return {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def choose_access_path(table: TableObject, sargs: list[Sarg]) -> AccessPath:
    """Pick the best usable index for the sargs, or fall back to a scan."""
    eq_by_column: dict[str, Sarg] = {}
    ranges_by_column: dict[str, list[Sarg]] = {}
    for sarg in sargs:
        if sarg.op == "=":
            eq_by_column.setdefault(sarg.column, sarg)
        else:
            ranges_by_column.setdefault(sarg.column, []).append(sarg)

    best: AccessPath | None = None
    best_used: list[Sarg] = []
    best_score = 0
    for obj in table.indexes.values():
        if not obj.usable:
            continue
        columns = [c.lower() for c in obj.schema.column_names]
        used: list[Sarg] = []
        for column in columns:
            if column not in eq_by_column:
                break
            used.append(eq_by_column[column])
        prefix = len(used)
        low = high = None
        if prefix < len(columns) and obj.tree.comparator.cells[prefix].semantic_order:
            # Value-range bounds are only meaningful when this column's
            # index order matches plaintext order (not DET).
            for sarg in ranges_by_column.get(columns[prefix], []):
                if sarg.op in (">", ">="):
                    low = low or sarg
                else:
                    high = high or sarg
        bounds = [sarg for sarg in (low, high) if sarg is not None]
        if used or bounds:
            score = prefix * 2 + (1 if bounds else 0)
            if score > best_score:
                best = AccessPath(
                    kind="seek" if prefix == len(columns) else "range",
                    index=obj,
                    eq_operands=[sarg.operand for sarg in used],
                    low=low and (low.operand, low.op == ">="),
                    high=high and (high.operand, high.op == "<="),
                )
                best_used = used + bounds
                best_score = score
    if best is None:
        return AccessPath(kind="scan")
    assert best.index is not None
    # The key check decides every used sarg on a key column the host can
    # compare; an RND column's stay with the enclave. A conjunct leaves the
    # residual only when the key check decides every sarg it gave.
    keyed = len(best.eq_operands) + (1 if best.low or best.high else 0)
    columns = [c.lower() for c in best.index.schema.column_names][:keyed]
    best.checked = [
        i for i, column in enumerate(columns)
        if not is_randomized(table.schema.column(column).column_type)
    ]
    decided = {id(s) for s in best_used if columns.index(s.column) in best.checked}
    undecided = {id(s.source) for s in sargs if id(s) not in decided}
    consumed = {id(s.source): s.source for s in sargs if id(s.source) not in undecided}
    best.consumed = list(consumed.values())
    return best


def is_randomized(column_type: ColumnType) -> bool:
    enc = column_type.encryption
    return enc is not None and enc.scheme is EncryptionScheme.RANDOMIZED


def residual(where: ast.AstExpr | None, consumed: list[ast.AstExpr]) -> ast.AstExpr | None:
    """``where`` without the ``consumed`` conjuncts (matched by identity)."""
    dropped = {id(conjunct) for conjunct in consumed}
    kept: ast.AstExpr | None = None
    for conjunct in conjuncts(where):
        if id(conjunct) not in dropped:
            kept = conjunct if kept is None else ast.BinaryOp("AND", kept, conjunct)
    return kept
