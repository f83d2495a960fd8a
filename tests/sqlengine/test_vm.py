"""The host-side stack machine: three-valued logic, ciphertext movement."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import EncryptionScheme
from repro.errors import EnclaveError, ExecutionError, SqlError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
from repro.sqlengine.expression.vm import StackMachine
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import compare_values, like_match


def run(instructions, inputs=()):
    vm = StackMachine()
    return vm.eval(StackProgram(list(instructions)), list(inputs))[0]


def get(slot):
    return Instruction(Opcode.GET_DATA, (slot, None))


def const(v):
    return Instruction(Opcode.PUSH_CONST, v)


class TestComparisons:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("=", 1, 1, True), ("=", 1, 2, False),
            ("<>", 1, 2, True), ("<>", 2, 2, False),
            ("<", 1, 2, True), ("<=", 2, 2, True),
            (">", 3, 2, True), (">=", 1, 2, False),
        ],
    )
    def test_operators(self, op, a, b, expected):
        assert run([const(a), const(b), Instruction(Opcode.COMP, op)]) is expected

    def test_null_propagates_to_unknown(self):
        assert run([const(None), const(1), Instruction(Opcode.COMP, "=")]) is None
        assert run([const(1), const(None), Instruction(Opcode.COMP, "<")]) is None

    def test_string_comparison(self):
        assert run([const("a"), const("b"), Instruction(Opcode.COMP, "<")]) is True


class TestCiphertextOnHost:
    def test_det_equality_by_envelope(self):
        a = Ciphertext(b"\x01" * 80)
        b = Ciphertext(b"\x01" * 80)
        c = Ciphertext(b"\x02" * 80)
        assert run([get(0), get(1), Instruction(Opcode.COMP, "=")], [a, b]) is True
        assert run([get(0), get(1), Instruction(Opcode.COMP, "=")], [a, c]) is False
        assert run([get(0), get(1), Instruction(Opcode.COMP, "<>")], [a, c]) is True

    def test_ciphertext_range_rejected_on_host(self):
        a, b = Ciphertext(b"\x01" * 80), Ciphertext(b"\x02" * 80)
        with pytest.raises(ExecutionError):
            run([get(0), get(1), Instruction(Opcode.COMP, "<")], [a, b])

    def test_ciphertext_vs_plaintext_rejected(self):
        with pytest.raises(ExecutionError):
            run([get(0), const(1), Instruction(Opcode.COMP, "=")], [Ciphertext(b"x" * 80)])

    def test_host_cannot_decrypt(self):
        # An encrypted GET_DATA annotation outside the enclave must fail.
        from repro.crypto.aead import EncryptionScheme
        from repro.sqlengine.types import EncryptionInfo

        enc = EncryptionInfo(
            scheme=EncryptionScheme.RANDOMIZED, cek_name="K", enclave_enabled=True
        )
        program = StackProgram([Instruction(Opcode.GET_DATA, (0, enc))])
        with pytest.raises(ExecutionError, match="never"):
            StackMachine().eval(program, [Ciphertext(b"x" * 80)])

    def test_like_on_ciphertext_rejected(self):
        with pytest.raises(ExecutionError):
            run([get(0), const("%"), Instruction(Opcode.LIKE)], [Ciphertext(b"x" * 80)])


class TestKleeneLogic:
    T, F, N = True, False, None

    @pytest.mark.parametrize(
        "a,b,expected",
        [(T, T, T), (T, F, F), (F, N, F), (N, T, N), (N, N, N)],
    )
    def test_and(self, a, b, expected):
        assert run([const(a), const(b), Instruction(Opcode.AND)]) is expected

    @pytest.mark.parametrize(
        "a,b,expected",
        [(T, T, T), (T, F, T), (F, N, N), (N, T, T), (F, F, F), (N, N, N)],
    )
    def test_or(self, a, b, expected):
        assert run([const(a), const(b), Instruction(Opcode.OR)]) is expected

    @pytest.mark.parametrize("a,expected", [(T, F), (F, T), (N, N)])
    def test_not(self, a, expected):
        assert run([const(a), Instruction(Opcode.NOT)]) is expected


class TestArithmetic:
    def test_operations(self):
        assert run([const(2), const(3), Instruction(Opcode.ARITH, "+")]) == 5
        assert run([const(2), const(3), Instruction(Opcode.ARITH, "-")]) == -1
        assert run([const(2), const(3), Instruction(Opcode.ARITH, "*")]) == 6

    def test_integer_division_truncates_toward_zero(self):
        assert run([const(7), const(2), Instruction(Opcode.ARITH, "/")]) == 3
        assert run([const(-7), const(2), Instruction(Opcode.ARITH, "/")]) == -3

    def test_float_division(self):
        assert run([const(7.0), const(2), Instruction(Opcode.ARITH, "/")]) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            run([const(1), const(0), Instruction(Opcode.ARITH, "/")])

    def test_null_propagates(self):
        assert run([const(None), const(3), Instruction(Opcode.ARITH, "+")]) is None

    def test_arith_on_ciphertext_rejected(self):
        with pytest.raises(ExecutionError):
            run([get(0), const(1), Instruction(Opcode.ARITH, "+")], [Ciphertext(b"x" * 80)])


class TestMisc:
    def test_is_null(self):
        assert run([const(None), Instruction(Opcode.IS_NULL, False)]) is True
        assert run([const(1), Instruction(Opcode.IS_NULL, False)]) is False
        assert run([const(None), Instruction(Opcode.IS_NULL, True)]) is False

    def test_like(self):
        assert run([const("hello"), const("h%"), Instruction(Opcode.LIKE)]) is True

    def test_set_data_routes_output(self):
        vm = StackMachine()
        program = StackProgram([const(42), Instruction(Opcode.SET_DATA, (0, None))])
        assert vm.eval(program, [], n_outputs=1) == [42]

    def test_get_data_out_of_range(self):
        with pytest.raises(ExecutionError):
            run([get(5)], [1])

    def test_tm_eval_without_enclave_rejected(self):
        with pytest.raises(ExecutionError, match="enclave"):
            run([const(1), Instruction(Opcode.TM_EVAL, (b"", 1))])

    def test_eval_predicate_type_checked(self):
        vm = StackMachine()
        with pytest.raises(ExecutionError):
            vm.eval_predicate(StackProgram([const(42)]), [])

    def test_stack_underflow(self):
        with pytest.raises(ExecutionError):
            run([Instruction(Opcode.COMP, "=")])


class TestSetDataOutputRegression:
    def test_stack_residue_does_not_clobber_set_data(self):
        # Regression: a program that wrote output 0 via SET_DATA and then
        # left residue on the stack used to have output 0 overwritten by
        # the stack top.
        vm = StackMachine()
        program = StackProgram([
            const(1), const(2), Instruction(Opcode.COMP, "<"),
            Instruction(Opcode.SET_DATA, (0, None)),
            const(99),  # residue
        ])
        assert vm.eval(program, [], n_outputs=1) == [True]

    def test_set_data_to_later_slot_keeps_slot_zero(self):
        vm = StackMachine()
        program = StackProgram([
            const(7), Instruction(Opcode.SET_DATA, (1, None)),
            const(5),  # residue with no SET_DATA targeting slot 0
        ])
        # Any SET_DATA means the program manages outputs itself; the
        # residue must not be surfaced.
        assert vm.eval(program, [], n_outputs=2) == [None, 7]

    def test_pure_predicate_still_surfaces_stack_top(self):
        assert run([const(1), const(2), Instruction(Opcode.COMP, "<")]) is True


class _RecordingConnector:
    """EnclaveConnector double — a deterministic verdict per row — that logs
    every crossing in order: (ecall, sub-program bytes, rows shipped)."""

    def __init__(self):
        self.log = []

    @property
    def single_calls(self):
        return [rows[0] for ecall, __, rows in self.log if ecall == "eval"]

    @property
    def batch_calls(self):
        return [rows for ecall, __, rows in self.log if ecall == "eval_batch"]

    def register_program(self, program_bytes):
        return program_bytes

    def eval(self, handle, inputs):
        self.log.append(("eval", handle, [list(inputs)]))
        return [inputs[0] == inputs[1]]

    def eval_batch(self, handle, rows):
        self.log.append(("eval_batch", handle, [list(r) for r in rows]))
        return [[r[0] == r[1]] for r in rows]


class TestEvalBatch:
    def test_matches_per_row_eval_for_host_programs(self):
        vm = StackMachine()
        program = StackProgram([get(0), get(1), Instruction(Opcode.COMP, "<")])
        rows = [[1, 2], [3, 3], [5, 4], [None, 1]]
        batched = vm.eval_batch(program, rows)
        assert batched == [vm.eval(program, row) for row in rows]

    def test_empty_batch(self):
        vm = StackMachine()
        assert vm.eval_batch(StackProgram([const(1)]), []) == []

    def test_tm_eval_coalesced_into_one_connector_call(self):
        connector = _RecordingConnector()
        vm = StackMachine(enclave=connector)
        program = StackProgram([
            get(0), get(1), Instruction(Opcode.TM_EVAL, (b"sub", 2)),
        ])
        verdicts = vm.eval_predicate_batch(program, [[1, 1], [1, 2], [4, 4]])
        assert verdicts == [True, False, True]
        assert connector.batch_calls == [[[1, 1], [1, 2], [4, 4]]]
        assert connector.single_calls == []

    def test_single_row_batch_uses_plain_eval(self):
        connector = _RecordingConnector()
        vm = StackMachine(enclave=connector)
        program = StackProgram([
            get(0), get(1), Instruction(Opcode.TM_EVAL, (b"sub", 2)),
        ])
        assert vm.eval_predicate_batch(program, [[2, 2]]) == [True]
        assert connector.batch_calls == []
        assert connector.single_calls == [[2, 2]]

    def test_predicate_batch_type_checked(self):
        vm = StackMachine()
        with pytest.raises(ExecutionError, match="non-boolean"):
            vm.eval_predicate_batch(StackProgram([const(42)]), [[], []])

    def test_set_data_fix_applies_to_batch_path(self):
        vm = StackMachine()
        program = StackProgram([
            const(False), Instruction(Opcode.SET_DATA, (0, None)), const(True),
        ])
        assert vm.eval_batch(program, [[], []]) == [[False], [False]]


# ---------------------------------------------------------------------------
# The lowered form against the interpreter it replaced
# ---------------------------------------------------------------------------


def reference_eval(program, inputs, connector=None, n_outputs=1, crypto=None):
    """The interpreter lowering replaced: one instruction at a time over one
    row's stack, every check made when (and if) the instruction is reached,
    and an encrypted cell opened (through ``crypto``) at each read of it."""
    stack, outputs, wrote = [], [None] * n_outputs, False

    def pop(count, what):
        if len(stack) < count:
            raise ExecutionError(f"{what} underflows the stack")
        return [stack.pop() for __ in range(count)][::-1]

    for ins in program.instructions:
        opcode, operand = ins.opcode, ins.operand
        if opcode is Opcode.GET_DATA:
            slot, enc = operand
            if slot >= len(inputs):
                raise ExecutionError("GET_DATA slot out of range")
            value = inputs[slot]
            if enc is not None and value is not None:
                if crypto is None:
                    raise ExecutionError("the host must never decrypt column data")
                if not isinstance(value, Ciphertext):
                    raise ExecutionError("encrypted read of a plaintext cell")
                value = crypto.decrypt_cell(value, enc)
            stack.append(value)
        elif opcode is Opcode.SET_DATA:
            (value,) = pop(1, "SET_DATA")
            if operand[0] >= n_outputs:
                raise ExecutionError("SET_DATA slot out of range")
            if operand[1] is not None and value is not None:
                value = crypto.encrypt_cell(value, operand[1])
            outputs[operand[0]], wrote = value, True
        elif opcode is Opcode.PUSH_CONST:
            stack.append(operand)
        elif opcode is Opcode.TM_EVAL:
            blob, n_inputs = operand
            stack.append(connector.eval(connector.register_program(blob), pop(n_inputs, "TM_EVAL"))[0])
        elif opcode is Opcode.NOT:
            (value,) = pop(1, "NOT")
            stack.append(None if value is None else not value)
        elif opcode is Opcode.IS_NULL:
            (value,) = pop(1, "IS_NULL")
            stack.append((value is None) != bool(operand))
        elif opcode in _REFERENCE_BINARY:
            left, right = pop(2, opcode.name)
            stack.append(_REFERENCE_BINARY[opcode](operand, left, right))
        else:
            raise ExecutionError(f"unknown opcode {opcode}")
    if not wrote and stack:
        outputs[0] = stack[-1]
    return outputs


def _ref_comp(op, left, right):
    if left is None or right is None:
        return None
    if isinstance(left, Ciphertext) != isinstance(right, Ciphertext):
        raise ExecutionError("encrypted against plaintext")
    if isinstance(left, Ciphertext):
        if op not in ("=", "<>"):
            raise ExecutionError("only equality on ciphertext")
        return (left.envelope == right.envelope) == (op == "=")
    c = compare_values(left, right)
    return {"=": c == 0, "<>": c != 0, "<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]


def _ref_like(__, value, pattern):
    if value is None or pattern is None:
        return None
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ExecutionError("LIKE needs plaintext strings")
    return like_match(value, pattern)


def _ref_and(__, left, right):
    if left is False or right is False:
        return False
    return None if left is None or right is None else bool(left) and bool(right)


def _ref_or(__, left, right):
    if left is True or right is True:
        return True
    return None if left is None or right is None else bool(left) or bool(right)


def _ref_arith(op, left, right):
    if left is None or right is None:
        return None
    if not all(isinstance(v, (int, float)) for v in (left, right)):
        raise ExecutionError("arithmetic needs plaintext numbers")
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return int(math.copysign(abs(left) // abs(right), left * right))
        return left / right
    return {"+": left + right, "-": left - right, "*": left * right}[op]


_REFERENCE_BINARY = {
    Opcode.COMP: _ref_comp, Opcode.LIKE: _ref_like, Opcode.AND: _ref_and,
    Opcode.OR: _ref_or, Opcode.ARITH: _ref_arith,
}

ENC = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="K", enclave_enabled=True)
CELLS = [Ciphertext(b"\x01" * 70), Ciphertext(b"\x01" * 70), Ciphertext(b"\x02" * 70)]

values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([-2.0, -0.5, 0.0, 1.5, 3.0]),
    st.sampled_from(["", "a", "ab", "a%", "_b"]), st.sampled_from(CELLS),
)
comparisons = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
leaves = st.one_of(
    st.builds(lambda slot: [get(slot)], st.integers(0, 4)),          # slot 4 is out of range
    st.builds(lambda v: [const(v)], values),
    st.just([Instruction(Opcode.GET_DATA, (0, ENC))]),
    # DET cells meet each other (and NULL, and plaintext) often enough to matter.
    st.builds(
        lambda a, b, op: [const(a), const(b), Instruction(Opcode.COMP, op)],
        st.sampled_from(CELLS + [None]), st.sampled_from(CELLS + [None, 1]), comparisons,
    ),
)


def _apply(opcodes, arity):
    return lambda children: st.builds(
        lambda ins, *operands: [i for operand in operands for i in operand] + [ins],
        opcodes, *[children] * arity,
    )


expressions = st.recursive(
    leaves,
    lambda children: st.one_of(
        _apply(st.builds(Instruction, st.just(Opcode.COMP), comparisons), 2)(children),
        _apply(st.builds(Instruction, st.just(Opcode.ARITH), st.sampled_from("+-*/")), 2)(children),
        _apply(st.sampled_from([Instruction(Opcode.AND), Instruction(Opcode.OR),
                                Instruction(Opcode.LIKE)]), 2)(children),
        _apply(st.sampled_from([Instruction(Opcode.TM_EVAL, (b"p", 2)),
                                Instruction(Opcode.TM_EVAL, (b"q", 2))]), 2)(children),
        _apply(st.sampled_from([Instruction(Opcode.NOT), Instruction(Opcode.IS_NULL, False),
                                Instruction(Opcode.IS_NULL, True)]), 1)(children),
    ),
    max_leaves=8,
)
# An expression leaves its value on the stack, or writes it with SET_DATA
# (slot 1 is out of range for a one-output program) over some residue.
tails = st.sampled_from([
    [], [Instruction(Opcode.SET_DATA, (0, None))], [Instruction(Opcode.SET_DATA, (1, None))],
    [Instruction(Opcode.SET_DATA, (0, None)), const(99)],
])
programs = st.builds(lambda body, tail: StackProgram(body + tail), expressions, tails)
rows = st.lists(values, min_size=4, max_size=4)


def outcome(run):
    """What a caller can tell apart: the values with their exact types, or
    the type of the error."""
    try:
        return [[(value, type(value)) for value in outputs] for outputs in run()]
    except SqlError as error:
        return type(error)


class TestLoweredAgainstReference:
    @given(programs, st.lists(rows, min_size=1, max_size=5))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_property_agrees_with_the_interpreter_it_replaced(self, program, chunk):
        lowered = StackMachine.lower(program)
        vm = StackMachine(enclave=_RecordingConnector())
        if lowered.width > 1:
            # Writes outside its one output: refused before any row runs (the
            # interpreter ran each row as far as the SET_DATA, or an earlier error).
            assert outcome(lambda: vm.eval_batch(lowered, chunk)) is ExecutionError
            assert all(
                isinstance(outcome(lambda: [reference_eval(program, row, _RecordingConnector())]), type)
                for row in chunk
            )
            return
        by_row = [
            outcome(lambda: [reference_eval(program, row, _RecordingConnector())]) for row in chunk
        ]
        for row, expected in zip(chunk, by_row):
            actual = outcome(lambda: [vm.eval(lowered, row)])
            if lowered.calls and isinstance(expected, type):
                # TM_EVAL inputs are computed before the rest of the row, so of
                # two errors in one row the lowered form may report the other.
                assert isinstance(actual, type)
                continue
            assert actual == expected
            assert outcome(lambda: [vm.eval(program, row)]) == expected
            verdict = outcome(lambda: [[vm.eval_predicate(lowered, row)]])
            if isinstance(expected, list) and expected[0][0][1] in (bool, type(None)):
                assert verdict == expected
            else:
                assert isinstance(verdict, type)                 # non-boolean predicate
        whole = outcome(lambda: vm.eval_batch(lowered, chunk))
        if all(isinstance(expected, list) for expected in by_row):
            assert whole == [expected[0] for expected in by_row]
        else:
            assert isinstance(whole, type)

    @pytest.mark.parametrize(
        "row,error",
        [
            ([CELLS[0], 1], "encrypted value with a plaintext"),
            ([CELLS[0], CELLS[2]], "not supported on ciphertext"),
            ([1], "out of range"),
        ],
    )
    def test_errors_by_kind(self, row, error):
        program = StackProgram([get(0), get(1), Instruction(Opcode.COMP, "<")])
        with pytest.raises(ExecutionError, match=error):
            StackMachine().eval(StackMachine.lower(program), row)
        with pytest.raises(ExecutionError):
            reference_eval(program, row)

    @pytest.mark.parametrize(
        "instructions",
        [
            [Instruction(Opcode.COMP, "=")],
            [const(1), Instruction(Opcode.AND)],
            [Instruction(Opcode.NOT)],
            [Instruction(Opcode.SET_DATA, (0, None))],
            [const(1), Instruction(Opcode.SET_DATA, (0, None)), Instruction(Opcode.SET_DATA, (0, None))],
            [const(1), Instruction(Opcode.TM_EVAL, (b"p", 2))],
            [const(1), const(2), Instruction(Opcode.COMP, "~")],
            [const(1), const(2), Instruction(Opcode.ARITH, "%")],
            [Instruction("BOGUS")],
        ],
    )
    def test_malformed_programs_fail_at_lowering(self, instructions):
        """Before any row: the interpreter found these when (and only if) a
        row reached the instruction."""
        with pytest.raises(ExecutionError):
            StackMachine.lower(StackProgram(instructions))
        with pytest.raises(ExecutionError):
            StackMachine().eval_batch(StackProgram(instructions), [])

    @pytest.mark.parametrize(
        "instructions",
        [
            [Instruction(Opcode.COMP, "="), Instruction(Opcode.SET_DATA, (0, None))],
            [Instruction(Opcode.SET_DATA, (0, None))],
            [const(1), const(2), Instruction(Opcode.COMP, "~"), Instruction(Opcode.SET_DATA, (0, None))],
            [const(1), const(2), Instruction(Opcode.ARITH, "%"), Instruction(Opcode.SET_DATA, (0, None))],
        ],
    )
    def test_malformed_programs_fail_at_register_program(self, enclave, instructions):
        with pytest.raises((EnclaveError, ExecutionError)):
            enclave.register_program(StackProgram(instructions).serialize())
        assert enclave.counters.programs_registered == 0

    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    def test_a_chunk_crosses_each_tm_eval_once_in_program_order(self, n_rows):
        connector = _RecordingConnector()
        vm = StackMachine(enclave=connector)
        # q consumes p's verdict: calls nest, and still go out p first.
        program = StackProgram([
            get(0), get(1), Instruction(Opcode.TM_EVAL, (b"p", 2)),
            get(2), Instruction(Opcode.TM_EVAL, (b"q", 2)),
            get(3), get(0), Instruction(Opcode.TM_EVAL, (b"p", 2)),
            Instruction(Opcode.AND),
        ])
        chunk = [[i, 3, "x", i + 1] for i in range(n_rows)]
        verdicts = vm.eval_predicate_batch(StackMachine.lower(program), chunk)
        assert verdicts == [
            reference_eval(program, row, _RecordingConnector())[0] for row in chunk
        ]
        ecall = "eval" if n_rows == 1 else "eval_batch"
        first = [[row[0], row[1]] for row in chunk]
        assert connector.log == [
            (ecall, b"p", first),
            (ecall, b"q", [[a == b, "x"] for a, b in first]),
            (ecall, b"p", [[row[3], row[0]] for row in chunk]),
        ]

    def test_one_lowered_program_serves_many_machines(self):
        """Plans are shared by session threads and a handle by every ecall:
        the closures take the opened row and the connector's results as
        arguments and keep nothing between calls; the machine opens."""
        lowered = StackMachine.lower(
            StackProgram([Instruction(Opcode.GET_DATA, (0, ENC)), const(2), Instruction(Opcode.COMP, "<")])
        )

        class Opens:
            def __init__(self, plaintext):
                self.plaintext = plaintext

            def decrypt_cell(self, ciphertext, enc):
                return self.plaintext

        assert StackMachine(crypto=Opens(1)).eval(lowered, [CELLS[0]]) == [True]
        assert StackMachine(crypto=Opens(5)).eval(lowered, [CELLS[0]]) == [False]
        assert StackMachine(crypto=Opens(5)).eval(lowered, [None]) == [None]
        with pytest.raises(ExecutionError, match="never"):
            StackMachine().eval(lowered, [CELLS[0]])


# ---------------------------------------------------------------------------
# Opened at the boundary: a row's encrypted slots, once each, before its nodes
# ---------------------------------------------------------------------------

FIVE, NINE = Ciphertext(b"\x05" * 70), Ciphertext(b"\x09" * 70)
PLAINTEXTS = {cell.envelope: value for cell, value in zip(CELLS + [FIVE, NINE], [1, 1, "ab", 5, 9])}


class _CountingCrypto:
    """CryptoContext double: a cell's plaintext is looked up by envelope, a
    sealed value is its repr; every open is logged."""

    def __init__(self):
        self.opened = []

    def decrypt_cell(self, ciphertext, enc):
        self.opened.append(ciphertext)
        return PLAINTEXTS[ciphertext.envelope]

    def encrypt_cell(self, value, enc):
        return Ciphertext(repr(value).encode())


def enc_get(slot):
    return Instruction(Opcode.GET_DATA, (slot, ENC))


# Slots 0 and 1 are read only encrypted (as the enclave's validator demands),
# 2 and 3 only in the clear, and 4 is out of range. No TM_EVAL: the enclave
# never re-enters itself.
boundary_leaves = st.one_of(
    st.builds(lambda slot: [get(slot)], st.integers(2, 4)),
    st.builds(lambda v: [const(v)], values),
    st.builds(lambda slot: [enc_get(slot)], st.integers(0, 1)),
)
boundary_expressions = st.recursive(
    boundary_leaves,
    lambda children: st.one_of(
        _apply(st.builds(Instruction, st.just(Opcode.COMP), comparisons), 2)(children),
        _apply(st.builds(Instruction, st.just(Opcode.ARITH), st.sampled_from("+-*/")), 2)(children),
        _apply(st.sampled_from([Instruction(Opcode.AND), Instruction(Opcode.OR),
                                Instruction(Opcode.LIKE)]), 2)(children),
        _apply(st.sampled_from([Instruction(Opcode.NOT), Instruction(Opcode.IS_NULL, False),
                                Instruction(Opcode.IS_NULL, True)]), 1)(children),
    ),
    max_leaves=8,
)
boundary_programs = st.builds(
    lambda body, tail: StackProgram(body + tail),
    boundary_expressions,
    st.sampled_from([[], [Instruction(Opcode.SET_DATA, (0, None))],
                     [Instruction(Opcode.SET_DATA, (0, ENC))]]),
)
boundary_rows = st.builds(
    lambda sealed, clear: sealed + clear,
    st.lists(st.sampled_from(CELLS + [None]), min_size=2, max_size=2),
    st.lists(values, min_size=2, max_size=2),
)


class TestBoundaryOpens:
    def test_one_open_per_distinct_encrypted_slot_per_row_in_first_read_order(self):
        program = StackMachine.lower(StackProgram([
            enc_get(1), enc_get(0), Instruction(Opcode.COMP, "<"),
            enc_get(1), get(2), Instruction(Opcode.COMP, "="),
            Instruction(Opcode.OR),
        ]))
        assert program.decrypts == ((1, ENC), (0, ENC))
        crypto = _CountingCrypto()
        rows = [[FIVE, NINE, 9], [NINE, FIVE, None]]
        # 9 < 5 or 9 = 9; 5 < 9 or 5 = NULL.
        assert StackMachine(crypto=crypto).eval_batch(program, rows) == [[True], [True]]
        assert crypto.opened == [NINE, FIVE, FIVE, NINE]

    def test_a_null_cell_is_not_opened(self):
        crypto = _CountingCrypto()
        program = StackProgram([enc_get(0), Instruction(Opcode.IS_NULL, False)])
        assert StackMachine(crypto=crypto).eval(program, [None]) == [True]
        assert crypto.opened == []

    @pytest.mark.parametrize(
        "crypto,row,error",
        [
            (None, [CELLS[0]], "encrypted GET_DATA outside the enclave: the host must never decrypt"),
            (_CountingCrypto(), [7], "GET_DATA annotated encrypted but input is int"),
            (_CountingCrypto(), [], r"GET_DATA slot 0 out of range \(0 inputs\)"),
        ],
        ids=["host", "plaintext_cell", "out_of_range"],
    )
    def test_refusals_keep_their_messages(self, crypto, row, error):
        program = StackProgram([enc_get(0), const(1), Instruction(Opcode.COMP, "=")])
        with pytest.raises(ExecutionError, match=error):
            StackMachine(crypto=crypto).eval(program, row)
        with pytest.raises(ExecutionError, match=error):
            StackMachine(crypto=crypto).eval_batch(program, [row, row])
        assert crypto is None or crypto.opened == []

    def test_an_encrypted_output_is_sealed_after_its_node_runs(self):
        program = StackProgram([enc_get(0), Instruction(Opcode.SET_DATA, (0, ENC))])
        crypto = _CountingCrypto()
        assert StackMachine(crypto=crypto).eval(program, [CELLS[2]]) == [Ciphertext(b"'ab'")]
        with pytest.raises(ExecutionError, match="never encrypt"):
            StackMachine().eval(StackProgram([const(1), Instruction(Opcode.SET_DATA, (0, ENC))]), [])

    @given(boundary_programs, st.lists(boundary_rows, min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_property_agrees_with_opening_at_each_read(self, program, chunk):
        lowered = StackMachine.lower(program)
        crypto = _CountingCrypto()
        expected = [
            outcome(lambda: [reference_eval(program, row, crypto=_CountingCrypto())])
            for row in chunk
        ]
        for row, verdict in zip(chunk, expected):
            assert outcome(lambda: [StackMachine(crypto=crypto).eval(lowered, row)]) == verdict
        crypto.opened.clear()
        whole = outcome(lambda: StackMachine(crypto=crypto).eval_batch(lowered, chunk))
        if all(isinstance(verdict, list) for verdict in expected):
            assert whole == [verdict[0] for verdict in expected]
            # Each row opened each of its non-NULL encrypted operands once.
            assert len(crypto.opened) == sum(
                row[slot] is not None for row in chunk for slot, __ in lowered.decrypts
            )
        else:
            assert whole == next(v for v in expected if not isinstance(v, list))


class TestShippedBySlot:
    """A ``TM_EVAL`` whose arguments are all slot reads ships them straight
    from the chunk's rows, and a program whose one output is a call's result
    reads its verdicts off that call's results; neither changes what a
    caller can see."""

    BY_SLOT = StackProgram([get(0), get(3), Instruction(Opcode.TM_EVAL, (b"p", 2))])
    BY_NODE = StackProgram([
        get(0), get(3), const(1), Instruction(Opcode.ARITH, "*"),
        Instruction(Opcode.TM_EVAL, (b"p", 2)),
    ])

    def test_the_chunk_ships_the_slots_and_reads_the_verdicts(self):
        connector = _RecordingConnector()
        chunk = [(1, "a", "b", 1), (2, "c", "d", 3)]
        assert StackMachine(enclave=connector).eval_batch(self.BY_SLOT, chunk, n_outputs=2) == [
            [True, None], [False, None]
        ]
        assert connector.batch_calls == [[[1, 1], [2, 3]]]

    @pytest.mark.parametrize("program", [BY_SLOT, BY_NODE], ids=["by_slot", "by_node"])
    def test_an_out_of_range_slot_reads_as_the_nodes_refusal(self, program):
        connector = _RecordingConnector()
        chunk = [[1, 2, 3, 4], [5, 6, 7], [8]]
        with pytest.raises(ExecutionError, match=r"^GET_DATA slot 3 out of range \(3 inputs\)$"):
            StackMachine(enclave=connector).eval_batch(program, chunk)
        assert connector.log == []
