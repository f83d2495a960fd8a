"""Name resolution scope for binding queries against the catalog."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BindError
from repro.sqlengine.catalog import Catalog, ColumnSchema, TableSchema
from repro.sqlengine.sqlparser import ast


@dataclass(frozen=True)
class ResolvedColumn:
    """A column resolved to its table binding and global row slot."""

    binding: str           # table alias (or name) it resolved through
    table: TableSchema
    column: ColumnSchema
    slot: int              # position in the concatenated row layout


class Scope:
    """Tables in scope for one statement, with a concatenated row layout.

    For ``FROM A JOIN B`` the row layout is A's columns followed by B's;
    slot numbers index that layout. Parameters are appended after all
    column slots by the binder.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._bindings: list[tuple[str, TableSchema, int]] = []
        self._width = 0

    @classmethod
    def for_statement(cls, catalog: Catalog, stmt: ast.Statement) -> "Scope":
        """The scope a SELECT / INSERT / UPDATE / DELETE binds against."""
        scope = cls(catalog)
        if isinstance(stmt, ast.SelectStmt):
            if stmt.table is not None:
                scope.add_table(stmt.table)
            for join in stmt.joins:
                scope.add_table(join.table)
        else:
            scope.add_table(ast.TableRef(name=stmt.table))
        return scope

    def add_table(self, ref: ast.TableRef) -> TableSchema:
        schema = self._catalog.table(ref.name)
        binding = ref.binding_name
        if any(b == binding for b, __, __ in self._bindings):
            raise BindError(f"duplicate table binding {binding!r}")
        self._bindings.append((binding, schema, self._width))
        self._width += schema.arity
        return schema

    @property
    def width(self) -> int:
        return self._width

    def bindings(self) -> list[tuple[str, TableSchema, int]]:
        return list(self._bindings)

    def resolve(self, name: ast.ColumnName) -> ResolvedColumn:
        matches: list[ResolvedColumn] = []
        for binding, schema, base in self._bindings:
            if name.table is not None and name.table.lower() != binding:
                continue
            for i, column in enumerate(schema.columns):
                if column.name.lower() == name.name.lower():
                    matches.append(
                        ResolvedColumn(binding=binding, table=schema, column=column, slot=base + i)
                    )
        if not matches:
            raise BindError(f"unknown column {name}")
        if len(matches) > 1:
            raise BindError(f"ambiguous column {name}")
        return matches[0]

    def all_columns(self) -> list[ResolvedColumn]:
        out: list[ResolvedColumn] = []
        for binding, schema, base in self._bindings:
            for i, column in enumerate(schema.columns):
                out.append(ResolvedColumn(binding=binding, table=schema, column=column, slot=base + i))
        return out
