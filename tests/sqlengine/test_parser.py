"""Lexer and parser coverage: the paper's DDL plus the DML surface."""

import pytest

from repro.errors import ParseError
from repro.sqlengine.sqlparser import ast, parse, tokenize
from repro.sqlengine.sqlparser.lexer import TokenType


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a FROM t WHERE x = @p")
        kinds = [t.type for t in tokens]
        assert kinds[0] is TokenType.KEYWORD
        assert TokenType.PARAM in kinds

    def test_string_escapes(self):
        tokens = tokenize("SELECT 'it''s'")
        assert tokens[1].value == "it's"

    def test_national_string_prefix(self):
        tokens = tokenize("SELECT N'azure'")
        assert tokens[1].type is TokenType.STRING
        assert tokens[1].value == "azure"

    def test_hex_blob(self):
        tokens = tokenize("SELECT 0x6FCF")
        assert tokens[1].type is TokenType.HEXBLOB
        assert tokens[1].value == "6FCF"

    def test_numbers(self):
        tokens = tokenize("SELECT 42, 3.14")
        assert tokens[1].value == "42"
        assert tokens[3].value == "3.14"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- comment\n, 2")
        values = [t.value for t in tokens if t.type is TokenType.NUMBER]
        assert values == ["1", "2"]

    def test_bracketed_identifier(self):
        tokens = tokenize("SELECT [weird name]")
        assert tokens[1].type is TokenType.IDENT
        assert tokens[1].value == "weird name"

    def test_unterminated_string_rejected(self):
        with pytest.raises(ParseError):
            tokenize("SELECT 'oops")

    def test_bare_at_rejected(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @ FROM t")

    def test_not_equal_variants(self):
        assert tokenize("a <> b")[1].value == "<>"
        assert tokenize("a != b")[1].value == "<>"


class TestFigure1Ddl:
    def test_create_cmk(self):
        stmt = parse(
            "CREATE COLUMN MASTER KEY MyCMK WITH ("
            "KEY_STORE_PROVIDER_NAME = N'AZURE_KEY_VAULT_PROVIDER', "
            "KEY_PATH = N'https://vault.azure.net/keys/k', "
            "ENCLAVE_COMPUTATIONS (SIGNATURE = 0x6FCF))"
        )
        assert isinstance(stmt, ast.CreateCmkStmt)
        assert stmt.key_store_provider_name == "AZURE_KEY_VAULT_PROVIDER"
        assert stmt.enclave_computations_signature == bytes.fromhex("6FCF")

    def test_create_cmk_without_enclave(self):
        stmt = parse(
            "CREATE COLUMN MASTER KEY M WITH ("
            "KEY_STORE_PROVIDER_NAME = 'P', KEY_PATH = 'path')"
        )
        assert stmt.enclave_computations_signature is None

    def test_create_cek(self):
        stmt = parse(
            "CREATE COLUMN ENCRYPTION KEY MyCEK WITH VALUES ("
            "COLUMN_MASTER_KEY = MyCMK, ALGORITHM = 'RSA_OAEP', "
            "ENCRYPTED_VALUE = 0x0170, SIGNATURE = 0xBEEF)"
        )
        assert isinstance(stmt, ast.CreateCekStmt)
        assert stmt.cmk_name == "MyCMK"
        assert stmt.algorithm == "RSA_OAEP"

    def test_create_cek_requires_all_properties(self):
        with pytest.raises(ParseError):
            parse(
                "CREATE COLUMN ENCRYPTION KEY K WITH VALUES ("
                "COLUMN_MASTER_KEY = M, ALGORITHM = 'RSA_OAEP')"
            )

    def test_create_encrypted_table(self):
        stmt = parse(
            "CREATE TABLE T(id int, value int ENCRYPTED WITH ("
            "COLUMN_ENCRYPTION_KEY = MyCEK, ENCRYPTION_TYPE = Randomized, "
            "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"
        )
        assert isinstance(stmt, ast.CreateTableStmt)
        enc = stmt.columns[1].encryption
        assert enc.cek_name == "MyCEK"
        assert enc.encryption_type == "Randomized"

    def test_deterministic_encryption_type(self):
        stmt = parse(
            "CREATE TABLE T(v varchar(10) ENCRYPTED WITH ("
            "COLUMN_ENCRYPTION_KEY = K, ENCRYPTION_TYPE = Deterministic, "
            "ALGORITHM = 'A'))"
        )
        assert stmt.columns[0].encryption.encryption_type == "Deterministic"

    def test_bad_encryption_type_rejected(self):
        with pytest.raises(ParseError):
            parse(
                "CREATE TABLE T(v int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = K, "
                "ENCRYPTION_TYPE = Sideways, ALGORITHM = 'A'))"
            )

    def test_alter_column_encrypt(self):
        stmt = parse(
            "ALTER TABLE T ALTER COLUMN v int ENCRYPTED WITH ("
            "COLUMN_ENCRYPTION_KEY = K, ENCRYPTION_TYPE = Randomized, ALGORITHM = 'A')"
        )
        assert isinstance(stmt, ast.AlterColumnStmt)
        assert stmt.encryption is not None

    def test_alter_column_decrypt(self):
        stmt = parse("ALTER TABLE T ALTER COLUMN v int")
        assert stmt.encryption is None

    def test_alter_column_online(self):
        stmt = parse("ALTER TABLE T ALTER COLUMN v ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = K) ONLINE")
        assert stmt == ast.AlterColumnOnlineStmt(table="T", column="v", cek_name="K")
        for bad in ("(COLUMN_ENCRYPTION_KEY = K)", "(ALGORITHM = K) ONLINE",
                    "(COLUMN_ENCRYPTION_KEY = K) OFFLINE"):
            with pytest.raises(ParseError):
                parse(f"ALTER TABLE T ALTER COLUMN v ENCRYPTED WITH {bad}")


class TestDml:
    def test_select_star(self):
        stmt = parse("SELECT * FROM T WHERE value = @v")
        assert stmt.items[0].expr is None
        assert isinstance(stmt.where, ast.BinaryOp)

    def test_select_with_everything(self):
        stmt = parse(
            "SELECT c, COUNT(*) AS n FROM t WHERE a = 1 AND b LIKE 'x%' "
            "GROUP BY c ORDER BY c DESC LIMIT 7"
        )
        assert stmt.group_by and not stmt.order_by[0].ascending and stmt.limit == 7

    def test_join(self):
        stmt = parse("SELECT a.x FROM A a JOIN B b ON a.id = b.id")
        assert stmt.joins[0].table.alias == "b"

    def test_between_and_in(self):
        stmt = parse("SELECT x FROM t WHERE x BETWEEN 1 AND 5 AND y IN (1, 2, 3)")
        conj = stmt.where
        assert isinstance(conj.left, ast.BetweenOp)
        assert isinstance(conj.right, ast.InOp)

    def test_not_in_and_not_like(self):
        stmt = parse("SELECT x FROM t WHERE x NOT IN (1) AND y NOT LIKE 'a%'")
        assert stmt.where.left.negated and stmt.where.right.negated

    def test_is_null(self):
        stmt = parse("SELECT x FROM t WHERE x IS NULL AND y IS NOT NULL")
        assert not stmt.where.left.negated and stmt.where.right.negated

    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, @x), (2, @y)")
        assert len(stmt.rows) == 2 and stmt.columns == ("a", "b")

    def test_update(self):
        stmt = parse("UPDATE t SET a = a + 1, b = @b WHERE id = 3")
        assert len(stmt.assignments) == 2

    def test_delete_without_where(self):
        stmt = parse("DELETE FROM t")
        assert stmt.where is None

    def test_operator_precedence(self):
        stmt = parse("SELECT x FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR.
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arith_precedence(self):
        stmt = parse("SELECT 1 + 2 * 3 FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_negative_literal(self):
        stmt = parse("SELECT x FROM t WHERE x > -5")
        assert stmt.where.right.value == -5

    def test_params_collected_in_order(self):
        stmt = parse("SELECT x FROM t WHERE a = @p2 AND b = @p1 AND c = @p2")
        assert ast.statement_params(stmt) == ["p2", "p1"]

    def test_transaction_statements(self):
        assert isinstance(parse("BEGIN TRANSACTION"), ast.BeginStmt)
        assert isinstance(parse("COMMIT"), ast.CommitStmt)
        assert isinstance(parse("ROLLBACK"), ast.RollbackStmt)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT x FROM t garbage garbage garbage()")

    def test_index_statements(self):
        stmt = parse("CREATE UNIQUE CLUSTERED INDEX i ON t (a, b)")
        assert stmt.unique and stmt.clustered
        stmt = parse("CREATE NONCLUSTERED INDEX i ON t (a)")
        assert not stmt.clustered and not stmt.unique
        stmt = parse("DROP INDEX i ON t")
        assert isinstance(stmt, ast.DropIndexStmt)

    def test_drop_table(self):
        assert isinstance(parse("DROP TABLE t"), ast.DropTableStmt)
