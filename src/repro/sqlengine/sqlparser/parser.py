"""Recursive-descent parser for the engine's SQL dialect.

Covers the DDL the paper introduces (CREATE COLUMN MASTER KEY / COLUMN
ENCRYPTION KEY, ENCRYPTED WITH column clauses, ALTER TABLE ALTER COLUMN for
in-place encryption) plus the DML surface the workloads need: SELECT with
joins / grouping / ordering / LIKE / BETWEEN / IN, INSERT, UPDATE, DELETE,
and transaction control.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sqlengine.sqlparser import ast
from repro.sqlengine.sqlparser.lexer import Token, TokenType, tokenize

_AGG_FUNCS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_TYPE_NAMES = {"INT", "BIGINT", "FLOAT", "VARCHAR", "CHAR", "VARBINARY", "BIT"}


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement."""
    return _Parser(tokenize(sql)).parse_statement()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, type_: TokenType, value: str | None = None) -> bool:
        return self._peek().matches(type_, value)

    def _accept(self, type_: TokenType, value: str | None = None) -> Token | None:
        if self._check(type_, value):
            return self._advance()
        return None

    def _expect(self, type_: TokenType, value: str | None = None) -> Token:
        token = self._accept(type_, value)
        if token is None:
            actual = self._peek()
            want = value or type_.value
            raise ParseError(
                f"expected {want!r} but found {actual.value!r} at position {actual.position}"
            )
        return token

    def _expect_keyword(self, *words: str) -> None:
        for word in words:
            self._expect(TokenType.KEYWORD, word)

    def _ident(self) -> str:
        token = self._peek()
        # Permit non-reserved keyword-ish identifiers where unambiguous.
        if token.type is TokenType.IDENT:
            return self._advance().value
        raise ParseError(f"expected identifier, found {token.value!r} at {token.position}")

    # -- statements -------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        stmt = self._statement()
        self._accept(TokenType.OPERATOR, ";")
        self._expect(TokenType.EOF)
        return stmt

    def _statement(self) -> ast.Statement:
        if self._check(TokenType.KEYWORD, "SELECT"):
            return self._select()
        if self._check(TokenType.KEYWORD, "INSERT"):
            return self._insert()
        if self._check(TokenType.KEYWORD, "UPDATE"):
            return self._update()
        if self._check(TokenType.KEYWORD, "DELETE"):
            return self._delete()
        if self._check(TokenType.KEYWORD, "CREATE"):
            return self._create()
        if self._check(TokenType.KEYWORD, "DROP"):
            return self._drop()
        if self._check(TokenType.KEYWORD, "ALTER"):
            return self._alter()
        if self._accept(TokenType.KEYWORD, "BEGIN"):
            self._accept(TokenType.KEYWORD, "TRANSACTION")
            return ast.BeginStmt()
        if self._accept(TokenType.KEYWORD, "COMMIT"):
            self._accept(TokenType.KEYWORD, "TRANSACTION")
            return ast.CommitStmt()
        if self._accept(TokenType.KEYWORD, "ROLLBACK"):
            self._accept(TokenType.KEYWORD, "TRANSACTION")
            return ast.RollbackStmt()
        token = self._peek()
        raise ParseError(f"unexpected token {token.value!r} at position {token.position}")

    # -- SELECT -------------------------------------------------------------------

    def _select(self) -> ast.SelectStmt:
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = self._accept(TokenType.KEYWORD, "DISTINCT") is not None
        items = self._select_items()
        table = None
        joins: list[ast.Join] = []
        if self._accept(TokenType.KEYWORD, "FROM"):
            table = self._table_ref()
            while self._check(TokenType.KEYWORD, "JOIN") or self._check(TokenType.KEYWORD, "INNER"):
                self._accept(TokenType.KEYWORD, "INNER")
                self._expect(TokenType.KEYWORD, "JOIN")
                join_table = self._table_ref()
                self._expect(TokenType.KEYWORD, "ON")
                condition = self._expression()
                joins.append(ast.Join(table=join_table, condition=condition))
        where = self._expression() if self._accept(TokenType.KEYWORD, "WHERE") else None
        group_by: tuple[ast.AstExpr, ...] = ()
        if self._accept(TokenType.KEYWORD, "GROUP"):
            self._expect(TokenType.KEYWORD, "BY")
            group_by = tuple(self._expression_list())
        order_by: list[ast.OrderItem] = []
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            while True:
                expr = self._expression()
                ascending = True
                if self._accept(TokenType.KEYWORD, "DESC"):
                    ascending = False
                else:
                    self._accept(TokenType.KEYWORD, "ASC")
                order_by.append(ast.OrderItem(expr=expr, ascending=ascending))
                if not self._accept(TokenType.OPERATOR, ","):
                    break
        limit = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            limit = int(self._expect(TokenType.NUMBER).value)
        return ast.SelectStmt(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def _select_items(self) -> list[ast.SelectItem]:
        items: list[ast.SelectItem] = []
        while True:
            if self._accept(TokenType.OPERATOR, "*"):
                items.append(ast.SelectItem(expr=None))
            else:
                expr = self._expression()
                alias = None
                if self._accept(TokenType.KEYWORD, "AS"):
                    alias = self._ident()
                elif self._check(TokenType.IDENT):
                    alias = self._ident()
                items.append(ast.SelectItem(expr=expr, alias=alias))
            if not self._accept(TokenType.OPERATOR, ","):
                return items

    def _table_ref(self) -> ast.TableRef:
        name = self._ident()
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._ident()
        elif self._check(TokenType.IDENT):
            alias = self._ident()
        return ast.TableRef(name=name, alias=alias)

    # -- DML -------------------------------------------------------------------

    def _insert(self) -> ast.InsertStmt:
        self._expect_keyword("INSERT", "INTO")
        table = self._ident()
        columns: list[str] = []
        if self._accept(TokenType.OPERATOR, "("):
            while True:
                columns.append(self._ident())
                if not self._accept(TokenType.OPERATOR, ","):
                    break
            self._expect(TokenType.OPERATOR, ")")
        self._expect(TokenType.KEYWORD, "VALUES")
        rows: list[tuple[ast.AstExpr, ...]] = []
        while True:
            self._expect(TokenType.OPERATOR, "(")
            rows.append(tuple(self._expression_list()))
            self._expect(TokenType.OPERATOR, ")")
            if not self._accept(TokenType.OPERATOR, ","):
                break
        return ast.InsertStmt(table=table, columns=tuple(columns), rows=tuple(rows))

    def _update(self) -> ast.UpdateStmt:
        self._expect(TokenType.KEYWORD, "UPDATE")
        table = self._ident()
        self._expect(TokenType.KEYWORD, "SET")
        assignments: list[tuple[str, ast.AstExpr]] = []
        while True:
            column = self._ident()
            self._expect(TokenType.OPERATOR, "=")
            assignments.append((column, self._expression()))
            if not self._accept(TokenType.OPERATOR, ","):
                break
        where = self._expression() if self._accept(TokenType.KEYWORD, "WHERE") else None
        return ast.UpdateStmt(table=table, assignments=tuple(assignments), where=where)

    def _delete(self) -> ast.DeleteStmt:
        self._expect_keyword("DELETE", "FROM")
        table = self._ident()
        where = self._expression() if self._accept(TokenType.KEYWORD, "WHERE") else None
        return ast.DeleteStmt(table=table, where=where)

    # -- DDL --------------------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "CREATE")
        if self._check(TokenType.KEYWORD, "TABLE"):
            return self._create_table()
        if self._check(TokenType.KEYWORD, "COLUMN"):
            return self._create_key()
        unique = self._accept(TokenType.KEYWORD, "UNIQUE") is not None
        clustered = False
        if self._accept(TokenType.KEYWORD, "CLUSTERED"):
            clustered = True
        else:
            self._accept(TokenType.KEYWORD, "NONCLUSTERED")
        self._expect(TokenType.KEYWORD, "INDEX")
        name = self._ident()
        self._expect(TokenType.KEYWORD, "ON")
        table = self._ident()
        self._expect(TokenType.OPERATOR, "(")
        columns = [self._ident()]
        while self._accept(TokenType.OPERATOR, ","):
            columns.append(self._ident())
        self._expect(TokenType.OPERATOR, ")")
        return ast.CreateIndexStmt(
            name=name, table=table, columns=tuple(columns), unique=unique, clustered=clustered
        )

    def _create_key(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "COLUMN")
        if self._accept(TokenType.KEYWORD, "MASTER"):
            self._expect(TokenType.KEYWORD, "KEY")
            name = self._ident()
            self._expect(TokenType.KEYWORD, "WITH")
            self._expect(TokenType.OPERATOR, "(")
            provider = key_path = None
            signature: bytes | None = None
            while True:
                prop = self._ident().upper()
                if prop == "KEY_STORE_PROVIDER_NAME":
                    self._expect(TokenType.OPERATOR, "=")
                    provider = self._expect(TokenType.STRING).value
                elif prop == "KEY_PATH":
                    self._expect(TokenType.OPERATOR, "=")
                    key_path = self._expect(TokenType.STRING).value
                elif prop == "ENCLAVE_COMPUTATIONS":
                    self._expect(TokenType.OPERATOR, "(")
                    sig_prop = self._ident().upper()
                    if sig_prop != "SIGNATURE":
                        raise ParseError("ENCLAVE_COMPUTATIONS expects SIGNATURE = 0x...")
                    self._expect(TokenType.OPERATOR, "=")
                    signature = bytes.fromhex(self._expect(TokenType.HEXBLOB).value)
                    self._expect(TokenType.OPERATOR, ")")
                else:
                    raise ParseError(f"unknown CMK property {prop!r}")
                if not self._accept(TokenType.OPERATOR, ","):
                    break
            self._expect(TokenType.OPERATOR, ")")
            if provider is None or key_path is None:
                raise ParseError("CMK requires KEY_STORE_PROVIDER_NAME and KEY_PATH")
            return ast.CreateCmkStmt(
                name=name,
                key_store_provider_name=provider,
                key_path=key_path,
                enclave_computations_signature=signature,
            )
        self._expect(TokenType.KEYWORD, "ENCRYPTION")
        self._expect(TokenType.KEYWORD, "KEY")
        name = self._ident()
        self._expect(TokenType.KEYWORD, "WITH")
        self._expect(TokenType.KEYWORD, "VALUES")
        self._expect(TokenType.OPERATOR, "(")
        cmk_name = algorithm = None
        encrypted_value = signature_bytes = None
        while True:
            if self._check(TokenType.KEYWORD, "COLUMN"):
                self._expect_keyword("COLUMN", "MASTER", "KEY")
                self._expect(TokenType.OPERATOR, "=")
                cmk_name = self._ident()
            else:
                prop = self._ident().upper()
                self._expect(TokenType.OPERATOR, "=")
                if prop == "COLUMN_MASTER_KEY":
                    cmk_name = self._ident()
                elif prop == "ALGORITHM":
                    algorithm = self._expect(TokenType.STRING).value
                elif prop == "ENCRYPTED_VALUE":
                    encrypted_value = bytes.fromhex(self._expect(TokenType.HEXBLOB).value)
                elif prop == "SIGNATURE":
                    signature_bytes = bytes.fromhex(self._expect(TokenType.HEXBLOB).value)
                else:
                    raise ParseError(f"unknown CEK property {prop!r}")
            if not self._accept(TokenType.OPERATOR, ","):
                break
        self._expect(TokenType.OPERATOR, ")")
        if cmk_name is None or algorithm is None or encrypted_value is None or signature_bytes is None:
            raise ParseError(
                "CEK requires COLUMN_MASTER_KEY, ALGORITHM, ENCRYPTED_VALUE, and SIGNATURE"
            )
        return ast.CreateCekStmt(
            name=name,
            cmk_name=cmk_name,
            algorithm=algorithm,
            encrypted_value=encrypted_value,
            signature=signature_bytes,
        )

    def _create_table(self) -> ast.CreateTableStmt:
        self._expect(TokenType.KEYWORD, "TABLE")
        name = self._ident()
        self._expect(TokenType.OPERATOR, "(")
        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self._check(TokenType.KEYWORD, "PRIMARY"):
                self._expect_keyword("PRIMARY", "KEY")
                self._expect(TokenType.OPERATOR, "(")
                pk = [self._ident()]
                while self._accept(TokenType.OPERATOR, ","):
                    pk.append(self._ident())
                self._expect(TokenType.OPERATOR, ")")
                primary_key = tuple(pk)
            else:
                columns.append(self._column_def())
            if not self._accept(TokenType.OPERATOR, ","):
                break
        self._expect(TokenType.OPERATOR, ")")
        inline_pk = tuple(c.name for c in columns if c.primary_key)
        if inline_pk and primary_key:
            raise ParseError("both inline and table-level PRIMARY KEY specified")
        return ast.CreateTableStmt(
            name=name, columns=tuple(columns), primary_key=primary_key or inline_pk
        )

    def _column_def(self) -> ast.ColumnDef:
        name = self._ident()
        type_name, type_length = self._type()
        encryption = None
        nullable = True
        primary_key = False
        while True:
            if self._accept(TokenType.KEYWORD, "ENCRYPTED"):
                self._expect(TokenType.KEYWORD, "WITH")
                encryption = self._encryption_clause()
            elif self._accept(TokenType.KEYWORD, "NOT"):
                self._expect(TokenType.KEYWORD, "NULL")
                nullable = False
            elif self._accept(TokenType.KEYWORD, "NULL"):
                nullable = True
            elif self._accept(TokenType.KEYWORD, "PRIMARY"):
                self._expect(TokenType.KEYWORD, "KEY")
                primary_key = True
                nullable = False
            else:
                break
        return ast.ColumnDef(
            name=name,
            type_name=type_name,
            type_length=type_length,
            encryption=encryption,
            nullable=nullable,
            primary_key=primary_key,
        )

    def _type(self) -> tuple[str, int | None]:
        token = self._peek()
        if token.type is not TokenType.IDENT or token.value.upper() not in _TYPE_NAMES:
            raise ParseError(f"expected a type name, found {token.value!r} at {token.position}")
        type_name = self._advance().value.upper()
        length = None
        if self._accept(TokenType.OPERATOR, "("):
            length = int(self._expect(TokenType.NUMBER).value)
            self._expect(TokenType.OPERATOR, ")")
        return type_name, length

    def _encryption_clause(self) -> ast.ColumnEncryptionClause:
        self._expect(TokenType.OPERATOR, "(")
        cek_name = encryption_type = algorithm = None
        while True:
            prop = self._ident().upper()
            self._expect(TokenType.OPERATOR, "=")
            if prop == "COLUMN_ENCRYPTION_KEY":
                cek_name = self._ident()
            elif prop == "ENCRYPTION_TYPE":
                encryption_type = self._ident()
            elif prop == "ALGORITHM":
                algorithm = self._expect(TokenType.STRING).value
            else:
                raise ParseError(f"unknown ENCRYPTED WITH property {prop!r}")
            if not self._accept(TokenType.OPERATOR, ","):
                break
        self._expect(TokenType.OPERATOR, ")")
        if cek_name is None or encryption_type is None or algorithm is None:
            raise ParseError(
                "ENCRYPTED WITH requires COLUMN_ENCRYPTION_KEY, ENCRYPTION_TYPE, and ALGORITHM"
            )
        if encryption_type.capitalize() not in ("Deterministic", "Randomized"):
            raise ParseError(f"unknown ENCRYPTION_TYPE {encryption_type!r}")
        return ast.ColumnEncryptionClause(
            cek_name=cek_name,
            encryption_type=encryption_type.capitalize(),
            algorithm=algorithm,
        )

    def _drop(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "DROP")
        if self._accept(TokenType.KEYWORD, "TABLE"):
            return ast.DropTableStmt(name=self._ident())
        self._expect(TokenType.KEYWORD, "INDEX")
        name = self._ident()
        self._expect(TokenType.KEYWORD, "ON")
        table = self._ident()
        return ast.DropIndexStmt(name=name, table=table)

    def _alter(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "ALTER")
        if self._check(TokenType.KEYWORD, "COLUMN"):
            return self._alter_cek()
        self._expect(TokenType.KEYWORD, "TABLE")
        table = self._ident()
        self._expect_keyword("ALTER", "COLUMN")
        column = self._ident()
        if self._accept(TokenType.KEYWORD, "ENCRYPTED"):
            # The online form: no type, only the key, then ONLINE.
            self._expect(TokenType.KEYWORD, "WITH")
            self._expect(TokenType.OPERATOR, "(")
            prop = self._ident().upper()
            if prop != "COLUMN_ENCRYPTION_KEY":
                raise ParseError(f"expected COLUMN_ENCRYPTION_KEY, found {prop!r}")
            self._expect(TokenType.OPERATOR, "=")
            cek_name = self._ident()
            self._expect(TokenType.OPERATOR, ")")
            word = self._ident().upper()
            if word != "ONLINE":
                raise ParseError(f"expected a type or ONLINE, found {word!r}")
            return ast.AlterColumnOnlineStmt(table=table, column=column, cek_name=cek_name)
        type_name, type_length = self._type()
        encryption = None
        if self._accept(TokenType.KEYWORD, "ENCRYPTED"):
            self._expect(TokenType.KEYWORD, "WITH")
            encryption = self._encryption_clause()
        return ast.AlterColumnStmt(
            table=table,
            column=column,
            type_name=type_name,
            type_length=type_length,
            encryption=encryption,
        )

    def _alter_cek(self) -> ast.AlterCekStmt:
        """ALTER COLUMN ENCRYPTION KEY <name> ADD VALUE (...) | DROP VALUE (...)."""
        self._expect_keyword("COLUMN", "ENCRYPTION", "KEY")
        name = self._ident()
        # ADD and VALUE are not reserved words; they lex as identifiers.
        if self._check(TokenType.KEYWORD, "DROP"):
            self._advance()
            action = "drop"
        else:
            word = self._ident().upper()
            if word != "ADD":
                raise ParseError(f"expected ADD or DROP after CEK name, found {word!r}")
            action = "add"
        value_kw = self._ident().upper()
        if value_kw != "VALUE":
            raise ParseError(f"expected VALUE after {action.upper()}, found {value_kw!r}")
        self._expect(TokenType.OPERATOR, "(")
        cmk_name = algorithm = None
        encrypted_value = signature_bytes = None
        while True:
            if self._check(TokenType.KEYWORD, "COLUMN"):
                self._expect_keyword("COLUMN", "MASTER", "KEY")
                self._expect(TokenType.OPERATOR, "=")
                cmk_name = self._ident()
            else:
                prop = self._ident().upper()
                self._expect(TokenType.OPERATOR, "=")
                if prop == "COLUMN_MASTER_KEY":
                    cmk_name = self._ident()
                elif prop == "ALGORITHM":
                    algorithm = self._expect(TokenType.STRING).value
                elif prop == "ENCRYPTED_VALUE":
                    encrypted_value = bytes.fromhex(self._expect(TokenType.HEXBLOB).value)
                elif prop == "SIGNATURE":
                    signature_bytes = bytes.fromhex(self._expect(TokenType.HEXBLOB).value)
                else:
                    raise ParseError(f"unknown ALTER CEK property {prop!r}")
            if not self._accept(TokenType.OPERATOR, ","):
                break
        self._expect(TokenType.OPERATOR, ")")
        if cmk_name is None:
            raise ParseError("ALTER CEK requires COLUMN_MASTER_KEY")
        if action == "add" and (
            algorithm is None or encrypted_value is None or signature_bytes is None
        ):
            raise ParseError(
                "ALTER CEK ADD VALUE requires ALGORITHM, ENCRYPTED_VALUE, and SIGNATURE"
            )
        return ast.AlterCekStmt(
            name=name,
            action=action,
            cmk_name=cmk_name,
            algorithm=algorithm,
            encrypted_value=encrypted_value,
            signature=signature_bytes,
        )

    # -- expressions ---------------------------------------------------------------

    def _expression_list(self) -> list[ast.AstExpr]:
        exprs = [self._expression()]
        while self._accept(TokenType.OPERATOR, ","):
            exprs.append(self._expression())
        return exprs

    def _expression(self) -> ast.AstExpr:
        return self._or_expr()

    def _or_expr(self) -> ast.AstExpr:
        left = self._and_expr()
        while self._accept(TokenType.KEYWORD, "OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.AstExpr:
        left = self._not_expr()
        while self._accept(TokenType.KEYWORD, "AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.AstExpr:
        if self._accept(TokenType.KEYWORD, "NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.AstExpr:
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ("=", "<>", "<", "<=", ">", ">="):
            self._advance()
            return ast.BinaryOp(token.value, left, self._additive())
        negated = self._check(TokenType.KEYWORD, "NOT") and any(
            self._peek(1).matches(TokenType.KEYWORD, word) for word in ("LIKE", "BETWEEN", "IN")
        )
        if negated:
            self._advance()
        if self._accept(TokenType.KEYWORD, "LIKE"):
            return ast.LikeOp(value=left, pattern=self._additive(), negated=negated)
        if self._accept(TokenType.KEYWORD, "BETWEEN"):
            low = self._additive()
            self._expect(TokenType.KEYWORD, "AND")
            between = ast.BetweenOp(value=left, low=low, high=self._additive())
            # Not a BetweenOp, so the planner never takes it for a range sarg.
            return ast.UnaryOp("NOT", between) if negated else between
        if self._accept(TokenType.KEYWORD, "IN"):
            self._expect(TokenType.OPERATOR, "(")
            options = tuple(self._expression_list())
            self._expect(TokenType.OPERATOR, ")")
            return ast.InOp(value=left, options=options, negated=negated)
        if self._accept(TokenType.KEYWORD, "IS"):
            negated = self._accept(TokenType.KEYWORD, "NOT") is not None
            self._expect(TokenType.KEYWORD, "NULL")
            return ast.IsNullOp(value=left, negated=negated)
        return left

    def _additive(self) -> ast.AstExpr:
        left = self._term()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                self._advance()
                left = ast.BinaryOp(token.value, left, self._term())
            else:
                return left

    def _term(self) -> ast.AstExpr:
        left = self._factor()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.value in ("*", "/"):
                self._advance()
                left = ast.BinaryOp(token.value, left, self._factor())
            else:
                return left

    def _factor(self) -> ast.AstExpr:
        token = self._peek()
        if self._accept(TokenType.OPERATOR, "("):
            expr = self._expression()
            self._expect(TokenType.OPERATOR, ")")
            return expr
        if self._accept(TokenType.OPERATOR, "-"):
            operand = self._factor()
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if token.type is TokenType.NUMBER:
            self._advance()
            value = float(token.value) if "." in token.value else int(token.value)
            return ast.Literal(value)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value)
        if token.type is TokenType.HEXBLOB:
            self._advance()
            return ast.Literal(bytes.fromhex(token.value))
        if token.type is TokenType.PARAM:
            self._advance()
            return ast.Param(token.value)
        if token.matches(TokenType.KEYWORD, "NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches(TokenType.KEYWORD, "TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches(TokenType.KEYWORD, "FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.type is TokenType.KEYWORD and token.value in _AGG_FUNCS:
            self._advance()
            self._expect(TokenType.OPERATOR, "(")
            if token.value == "COUNT" and self._accept(TokenType.OPERATOR, "*"):
                self._expect(TokenType.OPERATOR, ")")
                return ast.Aggregate(func="COUNT", argument=None)
            argument = self._expression()
            self._expect(TokenType.OPERATOR, ")")
            return ast.Aggregate(func=token.value, argument=argument)
        if token.type is TokenType.IDENT:
            name = self._advance().value
            if self._accept(TokenType.OPERATOR, "."):
                column = self._ident()
                return ast.ColumnName(name=column, table=name)
            return ast.ColumnName(name=name)
        raise ParseError(f"unexpected token {token.value!r} at position {token.position}")
