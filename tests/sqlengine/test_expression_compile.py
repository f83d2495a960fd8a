"""Expression compilation and the Figure 7 host/enclave split."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import EncryptionScheme
from repro.enclave.validate import validate_program
from repro.errors import TypeDeductionError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.compiler import compile_expression
from repro.sqlengine.expression.program import Opcode, StackProgram
from repro.sqlengine.expression.tree import (
    AndExpr,
    ArithExpr,
    ArithOp,
    ColumnRefExpr,
    CompareExpr,
    CompareOp,
    IsNullExpr,
    LikeExpr,
    LiteralExpr,
    NotExpr,
    OrExpr,
    ParameterExpr,
)
from repro.sqlengine.expression.vm import StackMachine
from repro.sqlengine.types import ColumnType, EncryptionInfo, SqlType
from repro.sqlengine.values import deserialize_value, serialize_value

RND_ENC = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="CEK", enclave_enabled=True)
DET_ENC = EncryptionInfo(scheme=EncryptionScheme.DETERMINISTIC, cek_name="CEK", enclave_enabled=False)
RND_NOENC = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="CEK", enclave_enabled=False)

INT = SqlType("INT")


def col(slot, enc=None):
    return ColumnRefExpr(name=f"c{slot}", slot=slot, column_type=ColumnType(INT, enc))


def param(slot, enc=None):
    return ParameterExpr(name=f"p{slot}", slot=slot, column_type=ColumnType(INT, enc))


def lit(value):
    return LiteralExpr(value=value, column_type=ColumnType(INT))


class TestFigure7Split:
    def test_figure7_split(self):
        """value = @v over an enclave-enabled RND column compiles to a host
        program with TM_EVAL whose operand serializes the enclave program
        — exactly the two CEsComp objects of Figure 7."""
        expr = CompareExpr(CompareOp.EQ, col(0, RND_ENC), param(1, RND_ENC))
        compiled = compile_expression(expr)

        host_ops = [i.opcode for i in compiled.host_program.instructions]
        assert host_ops == [Opcode.GET_DATA, Opcode.GET_DATA, Opcode.TM_EVAL]
        # Host GET_DATAs carry NO encryption annotation: the host moves
        # opaque ciphertext, never decrypts.
        for ins in compiled.host_program.instructions[:2]:
            assert ins.operand[1] is None

        assert compiled.uses_enclave
        assert compiled.enclave_ceks == {"CEK"}
        blob, n_inputs = compiled.host_program.instructions[2].operand
        assert n_inputs == 2
        enclave_program = StackProgram.deserialize(blob)
        enclave_ops = [i.opcode for i in enclave_program.instructions]
        assert enclave_ops == [Opcode.GET_DATA, Opcode.GET_DATA, Opcode.COMP, Opcode.SET_DATA]
        # Enclave GET_DATAs carry the CEK annotations (decrypt-at-ingress).
        assert enclave_program.instructions[0].operand[1] == RND_ENC
        # The result SET_DATA is plaintext (the boolean returned in clear).
        assert enclave_program.instructions[3].operand[1] is None

    def test_range_comparison_splits(self):
        compiled = compile_expression(CompareExpr(CompareOp.LT, col(0, RND_ENC), param(1, RND_ENC)))
        assert compiled.uses_enclave

    def test_like_splits(self):
        compiled = compile_expression(LikeExpr(value=col(0, RND_ENC), pattern=param(1, RND_ENC)))
        assert compiled.uses_enclave
        blob, __ = compiled.host_program.instructions[-1].operand
        ops = [i.opcode for i in StackProgram.deserialize(blob).instructions]
        assert Opcode.LIKE in ops


class TestDetStaysOnHost:
    def test_det_equality_no_tmeval(self):
        """Equality on DET is VARBINARY comparison, no TMEval (Section 4.4)."""
        compiled = compile_expression(CompareExpr(CompareOp.EQ, col(0, DET_ENC), param(1, DET_ENC)))
        assert not compiled.uses_enclave
        ops = [i.opcode for i in compiled.host_program.instructions]
        assert Opcode.TM_EVAL not in ops
        assert Opcode.COMP in ops

    def test_det_inequality_allowed(self):
        compiled = compile_expression(CompareExpr(CompareOp.NE, col(0, DET_ENC), param(1, DET_ENC)))
        assert not compiled.uses_enclave

    def test_det_range_rejected(self):
        with pytest.raises(TypeDeductionError):
            compile_expression(CompareExpr(CompareOp.LT, col(0, DET_ENC), param(1, DET_ENC)))


class TestRejections:
    def test_rnd_without_enclave_rejected(self):
        with pytest.raises(TypeDeductionError):
            compile_expression(CompareExpr(CompareOp.EQ, col(0, RND_NOENC), param(1, RND_NOENC)))

    def test_encrypted_vs_plaintext_rejected(self):
        with pytest.raises(TypeDeductionError):
            compile_expression(CompareExpr(CompareOp.EQ, col(0, RND_ENC), lit(5)))

    def test_cross_cek_rejected(self):
        other = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="OTHER", enclave_enabled=True)
        with pytest.raises(TypeDeductionError):
            compile_expression(CompareExpr(CompareOp.EQ, col(0, RND_ENC), col(1, other)))

    def test_arith_on_encrypted_rejected(self):
        with pytest.raises(TypeDeductionError):
            compile_expression(ArithExpr(ArithOp.ADD, col(0, RND_ENC), lit(1)))


class TestPlaintextCompilation:
    def test_plain_comparison(self):
        compiled = compile_expression(CompareExpr(CompareOp.LT, col(0), lit(10)))
        assert not compiled.uses_enclave
        ops = [i.opcode for i in compiled.host_program.instructions]
        assert ops == [Opcode.GET_DATA, Opcode.PUSH_CONST, Opcode.COMP]

    def test_and_combines_subprograms(self):
        expr = AndExpr(
            CompareExpr(CompareOp.EQ, col(0), lit(1)),
            CompareExpr(CompareOp.EQ, col(1, RND_ENC), param(2, RND_ENC)),
        )
        compiled = compile_expression(expr)
        ops = [i.opcode for i in compiled.host_program.instructions]
        assert ops[-1] == Opcode.AND
        assert compiled.uses_enclave

    def test_conjunction_is_one_program(self):
        """``c > @lo AND c < @hi`` — a BETWEEN — is one enclave program:
        three inputs (the column once), both comparisons and the AND inside,
        one verdict out."""
        expr = AndExpr(
            CompareExpr(CompareOp.GT, col(0, RND_ENC), param(1, RND_ENC)),
            CompareExpr(CompareOp.LT, col(0, RND_ENC), param(2, RND_ENC)),
        )
        compiled = compile_expression(expr)
        assert len(compiled.enclave_programs) == 1
        assert host_ops(compiled) == [Opcode.GET_DATA] * 3 + [Opcode.TM_EVAL]
        assert [i.operand for i in compiled.host_program.instructions[:3]] == [
            (0, None), (1, None), (2, None)
        ]
        assert enclave_code(compiled) == [[
            (Opcode.GET_DATA, (0, RND_ENC)), (Opcode.GET_DATA, (1, RND_ENC)),
            (Opcode.COMP, ">"),
            (Opcode.GET_DATA, (0, RND_ENC)), (Opcode.GET_DATA, (2, RND_ENC)),
            (Opcode.COMP, "<"),
            (Opcode.AND, None), (Opcode.SET_DATA, (0, None)),
        ]]


def host_ops(compiled):
    return [i.opcode for i in compiled.host_program.instructions]


def enclave_code(compiled):
    """Each enclave program as (opcode, operand) pairs."""
    return [
        [(i.opcode, i.operand) for i in StackProgram.deserialize(blob).instructions]
        for blob in compiled.enclave_programs
    ]


def gt(left, right):
    return CompareExpr(CompareOp.GT, left, right)


def eq(left, right):
    return CompareExpr(CompareOp.EQ, left, right)


class TestEnclaveSubtrees:
    """One enclave program per enclave subtree, whatever its shape."""

    def test_in_list_is_one_program(self):
        value = col(0, RND_ENC)
        expr = OrExpr(OrExpr(eq(value, param(1, RND_ENC)), eq(value, param(2, RND_ENC))),
                      eq(value, param(3, RND_ENC)))
        compiled = compile_expression(expr)
        assert host_ops(compiled) == [Opcode.GET_DATA] * 4 + [Opcode.TM_EVAL]
        (code,) = enclave_code(compiled)
        assert [op for op, __ in code].count(Opcode.OR) == 2
        assert code[-1] == (Opcode.SET_DATA, (0, None))

    def test_not_like_negates_inside(self):
        compiled = compile_expression(NotExpr(LikeExpr(col(0, RND_ENC), param(1, RND_ENC))))
        assert host_ops(compiled) == [Opcode.GET_DATA, Opcode.GET_DATA, Opcode.TM_EVAL]
        (code,) = enclave_code(compiled)
        assert [op for op, __ in code] == [
            Opcode.GET_DATA, Opcode.GET_DATA, Opcode.LIKE, Opcode.NOT, Opcode.SET_DATA
        ]

    def test_mixed_chain_gathers_its_enclave_terms(self):
        """``a > @x AND (plain = 1 AND b > @y)``: the two enclave terms are
        one program wherever they sit in the chain; the plaintext term runs
        on the host."""
        expr = AndExpr(
            gt(col(0, RND_ENC), param(3, RND_ENC)),
            AndExpr(eq(col(2), lit(1)), gt(col(1, RND_ENC), param(4, RND_ENC))),
        )
        compiled = compile_expression(expr)
        assert len(compiled.enclave_programs) == 1
        assert host_ops(compiled) == [Opcode.GET_DATA] * 4 + [
            Opcode.TM_EVAL, Opcode.GET_DATA, Opcode.PUSH_CONST, Opcode.COMP, Opcode.AND
        ]
        assert [op for op, __ in enclave_code(compiled)[0]].count(Opcode.COMP) == 2

    def test_or_chain_mixed_with_host(self):
        expr = OrExpr(eq(col(2), lit(1)), NotExpr(gt(col(0, RND_ENC), param(3, RND_ENC))))
        compiled = compile_expression(expr)
        assert len(compiled.enclave_programs) == 1
        assert host_ops(compiled)[-1] is Opcode.OR

    def test_connective_over_two_ceks(self):
        other = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="OTHER",
                               enclave_enabled=True)
        expr = AndExpr(gt(col(0, RND_ENC), param(2, RND_ENC)), gt(col(1, other), param(3, other)))
        compiled = compile_expression(expr)
        assert len(compiled.enclave_programs) == 1
        assert compiled.enclave_ceks == {"CEK", "OTHER"}

    def test_det_equality_stays_on_host_beside_an_enclave_term(self):
        expr = AndExpr(eq(col(0, DET_ENC), param(2, DET_ENC)), gt(col(1, RND_ENC), param(3, RND_ENC)))
        compiled = compile_expression(expr)
        (code,) = enclave_code(compiled)
        assert [op for op, __ in code].count(Opcode.COMP) == 1
        assert host_ops(compiled).count(Opcode.COMP) == 1

    def test_each_chain_under_a_host_connective_is_its_own_program(self):
        """``(a > @x AND a < @y) OR plain = 1`` nests an AND chain in an OR
        chain: the AND is one program, the OR runs on the host."""
        expr = OrExpr(
            AndExpr(gt(col(0, RND_ENC), param(2, RND_ENC)), gt(param(3, RND_ENC), col(0, RND_ENC))),
            eq(col(1), lit(1)),
        )
        compiled = compile_expression(expr)
        assert len(compiled.enclave_programs) == 1
        assert host_ops(compiled).count(Opcode.GET_DATA) == 4  # a, @x, @y; plain

    def test_rejections_reach_inside_a_subtree(self):
        with pytest.raises(TypeDeductionError, match="plaintext operand"):
            compile_expression(AndExpr(gt(col(0, RND_ENC), param(1, RND_ENC)),
                                       gt(col(0, RND_ENC), lit(5))))


# -- the merged program means what the host program meant ---------------------

CEK_A = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="A", enclave_enabled=True)
CEK_B = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="B", enclave_enabled=True)
#: Row layout: a (int, RND under A), b (text, RND under B), p (int,
#: plaintext), then one parameter per leaf.
COLUMNS = (("a", SqlType("INT"), CEK_A), ("b", SqlType("VARCHAR"), CEK_B), ("p", INT, None))
N_COLUMNS = len(COLUMNS)
INTS = [None, -1, 0, 1, 2]
TEXTS = [None, "", "a", "ab", "b"]


class _ClearEnclave:
    """An enclave double whose "ciphertext" is the serialized value: it
    validates each registered program as the enclave does and runs it with
    the enclave-side VM, so merged programs are checked end to end."""

    def __init__(self):
        self.programs = []
        self.crossings = 0

    def register_program(self, program_bytes):
        program = StackProgram.deserialize(program_bytes)
        validate_program(program, frozenset({"A", "B"}))
        self.programs.append(StackMachine.lower(program))
        return len(self.programs) - 1

    def eval(self, handle, inputs):
        return self.eval_batch(handle, [inputs])[0]

    def eval_batch(self, handle, rows):
        self.crossings += 1
        return StackMachine(crypto=self).eval_batch(self.programs[handle], rows)

    def decrypt_cell(self, ciphertext, enc):
        return deserialize_value(ciphertext.envelope)


_leaves = st.one_of(
    st.tuples(st.just("a"), st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
              st.sampled_from(INTS)),
    st.tuples(st.just("b"), st.sampled_from(["=", "<", ">=", "LIKE"]),
              st.sampled_from(TEXTS + ["%", "a%", "_"])),
    st.tuples(st.just("p"), st.sampled_from(["=", "<"]), st.sampled_from(INTS[1:])),
    st.tuples(st.just("null"), st.sampled_from("abp")),
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(st.just("AND"), inner, inner),
        st.tuples(st.just("OR"), inner, inner),
        st.tuples(st.just("NOT"), inner),
    ),
    max_leaves=6,
)


def _build(tree, encrypted, params):
    """``tree`` as an Expr; each comparison leaf takes the next parameter
    slot and appends its value to ``params``."""
    tag = tree[0]
    if tag in ("AND", "OR"):
        kind = AndExpr if tag == "AND" else OrExpr
        return kind(_build(tree[1], encrypted, params), _build(tree[2], encrypted, params))
    if tag == "NOT":
        return NotExpr(_build(tree[1], encrypted, params))
    if tag == "null":
        return IsNullExpr(_column(tree[1], encrypted))
    column, op, value = tree
    column_expr = _column(column, encrypted)
    if column == "p":
        return CompareExpr(CompareOp(op), column_expr, lit(value))
    enc = column_expr.column_type.encryption
    operand = ParameterExpr(f"p{len(params)}", N_COLUMNS + len(params),
                            ColumnType(column_expr.column_type.sql_type, enc))
    params.append(value)
    if op == "LIKE":
        return LikeExpr(column_expr, operand)
    return CompareExpr(CompareOp(op), column_expr, operand)


def _column(name, encrypted):
    slot = "abp".index(name)
    __, sql_type, enc = COLUMNS[slot]
    return ColumnRefExpr(name, slot, ColumnType(sql_type, enc if encrypted else None))


def _seal(value):
    return None if value is None else Ciphertext(serialize_value(value))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    tree=_trees,
    rows=st.lists(st.tuples(st.sampled_from(INTS), st.sampled_from(TEXTS), st.sampled_from(INTS)),
                  min_size=1, max_size=6),
)
def test_enclave_subtrees_keep_three_valued_semantics(tree, rows):
    """Any tree of comparisons, LIKE, IS NULL, AND, OR and NOT over two
    RND columns and a plaintext one gives, row for row, the verdict the
    same tree gives over plaintext — with one TM_EVAL for a tree whose
    every leaf needs the enclave, and one crossing per TM_EVAL per chunk."""
    params: list = []
    plain = compile_expression(_build(tree, False, params))
    sealed_params: list = []
    compiled = compile_expression(_build(tree, True, sealed_params))
    assert sealed_params == params
    expected = StackMachine().eval_predicate_batch(
        plain.lowered, [row + tuple(params) for row in rows]
    )
    enclave = _ClearEnclave()
    sealed_rows = [
        (_seal(a), _seal(b), p) + tuple(map(_seal, params)) for a, b, p in rows
    ]
    verdicts = StackMachine(enclave=enclave).eval_predicate_batch(compiled.lowered, sealed_rows)
    assert verdicts == expected
    assert enclave.crossings == len(compiled.enclave_programs)
    if _needs_enclave_everywhere(tree):
        assert len(compiled.enclave_programs) == 1


def _needs_enclave_everywhere(tree) -> bool:
    if tree[0] in ("AND", "OR", "NOT"):
        return all(_needs_enclave_everywhere(child) for child in tree[1:])
    return tree[0] in ("a", "b")


class TestSerializationRoundtrip:
    def test_program_roundtrip(self):
        expr = CompareExpr(CompareOp.EQ, col(0, RND_ENC), param(1, RND_ENC))
        compiled = compile_expression(expr)
        blob = compiled.host_program.serialize()
        restored = StackProgram.deserialize(blob)
        assert restored.serialize() == blob

    def test_const_null_roundtrip(self):
        program = StackProgram([])
        from repro.sqlengine.expression.program import Instruction

        program.instructions.append(Instruction(Opcode.PUSH_CONST, None))
        program.instructions.append(Instruction(Opcode.PUSH_CONST, "text"))
        program.instructions.append(Instruction(Opcode.PUSH_CONST, 3.5))
        restored = StackProgram.deserialize(program.serialize())
        assert [i.operand for i in restored.instructions] == [None, "text", 3.5]
