"""The expression-services stack machine evaluator.

The same VM runs in two places, mirroring the paper's "compile ES into two
binaries" approach (Section 4.4):

* **Host side** — crypto context is ``None``. Encrypted cells are opaque
  :class:`~repro.sqlengine.cells.Ciphertext` blobs; the only computation
  allowed on them is binary equality (DET columns). Any ``TM_EVAL``
  instruction delegates to an :class:`EnclaveConnector`.
* **Enclave side** — a crypto context backed by the enclave's CEK store is
  supplied, so ``GET_DATA`` / ``SET_DATA`` transparently decrypt/encrypt at
  the stack boundary and the program body computes on plaintext.

Comparison results use SQL three-valued logic: ``None`` is UNKNOWN and
propagates through comparisons; AND/OR follow Kleene semantics.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.errors import ExecutionError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import SqlScalar, compare_values, like_match


# Enum member access goes through the metaclass; the interpreter loop tests
# these two on every instruction.
_TM_EVAL = Opcode.TM_EVAL
_SET_DATA = Opcode.SET_DATA


class CryptoContext(Protocol):
    """Decrypt/encrypt services available only inside the enclave."""

    def decrypt_cell(self, ciphertext: Ciphertext, enc: EncryptionInfo) -> SqlScalar: ...

    def encrypt_cell(self, value: SqlScalar, enc: EncryptionInfo) -> Ciphertext: ...


class EnclaveConnector(Protocol):
    """How the host VM reaches the enclave for ``TM_EVAL``.

    ``register`` installs a serialized program once and returns a handle
    (the paper's registration/handle usage pattern); ``eval`` runs it.
    """

    def register_program(self, program_bytes: bytes) -> int: ...

    def eval(self, handle: int, inputs: list[object]) -> list[object]: ...

    def eval_batch(self, handle: int, rows: list[list[object]]) -> list[list[object]]: ...


class StackMachine:
    """Evaluates :class:`StackProgram` objects against input slot arrays."""

    def __init__(
        self,
        crypto: CryptoContext | None = None,
        enclave: EnclaveConnector | None = None,
    ):
        self._crypto = crypto
        self._enclave = enclave
        self._handle_cache: dict[bytes, int] = {}

    def eval(self, program: StackProgram, inputs: Sequence[object], n_outputs: int = 1) -> list[object]:
        """Run ``program``; returns the outputs array (size ``n_outputs``)."""
        return self.eval_batch(program, [inputs], n_outputs)[0]

    def eval_batch(
        self,
        program: StackProgram,
        input_rows: list[Sequence[object]],
        n_outputs: int = 1,
    ) -> list[list[object]]:
        """Run ``program`` over a chunk of input rows; one outputs array each.

        Stack programs are straight-line (no branches), so every row reaches
        each instruction at the same program counter. The interpreter
        exploits that: it steps instruction-at-a-time across per-row stacks,
        so a ``TM_EVAL`` ships the whole chunk's sub-program inputs through
        one enclave call instead of one per row. Host-side instructions run
        per row. :meth:`eval` is the chunk of one.
        """
        if not input_rows:
            return []
        # One (stack, inputs, outputs) lane per row.
        lanes = [([], inputs, [None] * n_outputs) for inputs in input_rows]
        wrote_output = False
        for ins in program.instructions:
            opcode = ins.opcode
            if opcode is _TM_EVAL:
                self._tm_eval(ins, [lane[0] for lane in lanes])
                continue
            if opcode is _SET_DATA:
                wrote_output = True
            for stack, inputs, outputs in lanes:
                self._step(ins, stack, inputs, outputs)
        if not wrote_output:
            # A predicate program with no SET_DATA leaves its result on the
            # stack; surface it as output 0 for convenience. A program that
            # DID write outputs via SET_DATA keeps them — stack residue must
            # not clobber output 0.
            for stack, __, outputs in lanes:
                if stack:
                    outputs[0] = stack[-1]
        return [lane[2] for lane in lanes]

    def eval_predicate(self, program: StackProgram, inputs: Sequence[object]) -> bool | None:
        """Run a boolean-valued program; returns True/False/None (UNKNOWN)."""
        return self.eval_predicate_batch(program, [inputs])[0]

    def eval_predicate_batch(
        self, program: StackProgram, input_rows: list[Sequence[object]]
    ) -> list[bool | None]:
        """One True/False/None (UNKNOWN) verdict per input row."""
        verdicts: list[bool | None] = []
        for outputs in self.eval_batch(program, input_rows, n_outputs=1):
            result = outputs[0]
            if result is not None and not isinstance(result, bool):
                raise ExecutionError(f"predicate produced non-boolean {result!r}")
            verdicts.append(result)
        return verdicts

    def _tm_eval(self, ins: Instruction, stacks: list[list[object]]) -> None:
        """Execute one shared ``TM_EVAL`` across every row of the chunk.

        The chunk crosses the boundary as a single ``eval_batch`` ecall; a
        chunk of one row is a plain ``eval`` ecall — which is all that
        distinguishes the paper's row-at-a-time mode (Section 4.4) from
        batch mode.
        """
        blob, n_inputs = ins.operand  # type: ignore[misc]
        if self._enclave is None:
            raise ExecutionError(
                "TM_EVAL encountered but no enclave is configured for this query"
            )
        rows: list[list[object]] = []
        for stack in stacks:
            if len(stack) < n_inputs:
                raise ExecutionError("TM_EVAL underflow: not enough inputs on stack")
            rows.append(stack[len(stack) - n_inputs :])
            del stack[len(stack) - n_inputs :]
        handle = self._handle_cache.get(blob)
        if handle is None:
            handle = self._enclave.register_program(blob)
            self._handle_cache[blob] = handle
        if len(rows) == 1:
            results = [self._enclave.eval(handle, rows[0])]
        else:
            results = self._enclave.eval_batch(handle, rows)
        for stack, result in zip(stacks, results):
            stack.append(result[0])

    # -- dispatch ------------------------------------------------------------

    def _step(
        self,
        ins: Instruction,
        stack: list[object],
        inputs: Sequence[object],
        outputs: list[object],
    ) -> None:
        opcode = ins.opcode
        if opcode is Opcode.GET_DATA:
            slot, enc = ins.operand  # type: ignore[misc]
            if slot >= len(inputs):
                raise ExecutionError(f"GET_DATA slot {slot} out of range ({len(inputs)} inputs)")
            value = inputs[slot]
            if enc is not None and value is not None:
                value = self._decrypt(value, enc)
            stack.append(value)
        elif opcode is Opcode.SET_DATA:
            slot, enc = ins.operand  # type: ignore[misc]
            if not stack:
                raise ExecutionError("SET_DATA on empty stack")
            value = stack.pop()
            if enc is not None and value is not None:
                value = self._encrypt(value, enc)
            if slot >= len(outputs):
                raise ExecutionError(f"SET_DATA slot {slot} out of range")
            outputs[slot] = value
        elif opcode is Opcode.PUSH_CONST:
            stack.append(ins.operand)
        elif opcode is Opcode.COMP:
            right, left = _pop2(stack, "COMP")
            stack.append(_compare(str(ins.operand), left, right))
        elif opcode is Opcode.LIKE:
            pattern, value = _pop2(stack, "LIKE")
            stack.append(_like(value, pattern))
        elif opcode is Opcode.AND:
            right, left = _pop2(stack, "AND")
            stack.append(_kleene_and(left, right))
        elif opcode is Opcode.OR:
            right, left = _pop2(stack, "OR")
            stack.append(_kleene_or(left, right))
        elif opcode is Opcode.NOT:
            if not stack:
                raise ExecutionError("NOT on empty stack")
            value = stack.pop()
            stack.append(None if value is None else not value)
        elif opcode is Opcode.ARITH:
            right, left = _pop2(stack, "ARITH")
            stack.append(_arith(str(ins.operand), left, right))
        elif opcode is Opcode.IS_NULL:
            if not stack:
                raise ExecutionError("IS_NULL on empty stack")
            value = stack.pop()
            result = value is None
            stack.append(not result if ins.operand else result)
        else:  # pragma: no cover - exhaustive
            raise ExecutionError(f"unknown opcode {opcode}")

    def _decrypt(self, value: object, enc: EncryptionInfo) -> SqlScalar:
        if self._crypto is None:
            raise ExecutionError(
                "encrypted GET_DATA outside the enclave: the host must never "
                "decrypt column data"
            )
        if not isinstance(value, Ciphertext):
            raise ExecutionError(
                f"GET_DATA annotated encrypted but input is {type(value).__name__}"
            )
        return self._crypto.decrypt_cell(value, enc)

    def _encrypt(self, value: object, enc: EncryptionInfo) -> Ciphertext:
        if self._crypto is None:
            raise ExecutionError(
                "encrypted SET_DATA outside the enclave: the host must never "
                "encrypt column data"
            )
        return self._crypto.encrypt_cell(value, enc)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Operation semantics
# ---------------------------------------------------------------------------


def _pop2(stack: list[object], what: str) -> tuple[object, object]:
    if len(stack) < 2:
        raise ExecutionError(f"{what} needs two operands, stack has {len(stack)}")
    return stack.pop(), stack.pop()


def _compare(op: str, left: object, right: object) -> bool | None:
    if left is None or right is None:
        return None
    left_ct = isinstance(left, Ciphertext)
    right_ct = isinstance(right, Ciphertext)
    if left_ct != right_ct:
        raise ExecutionError(
            "cannot compare an encrypted value with a plaintext value"
        )
    if left_ct and right_ct:
        # DET ciphertext: equality preserved value-wise, so =/<> are exact.
        # Anything else on ciphertext is meaningless and rejected.
        if op == "=":
            return left.envelope == right.envelope  # type: ignore[union-attr]
        if op == "<>":
            return left.envelope != right.envelope  # type: ignore[union-attr]
        raise ExecutionError(f"operator {op!r} is not supported on ciphertext")
    c = compare_values(left, right)  # type: ignore[arg-type]
    if op == "=":
        return c == 0
    if op == "<>":
        return c != 0
    if op == "<":
        return c < 0
    if op == "<=":
        return c <= 0
    if op == ">":
        return c > 0
    if op == ">=":
        return c >= 0
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _like(value: object, pattern: object) -> bool | None:
    if value is None or pattern is None:
        return None
    if isinstance(value, Ciphertext) or isinstance(pattern, Ciphertext):
        raise ExecutionError("LIKE on ciphertext requires enclave evaluation")
    if not isinstance(value, str) or not isinstance(pattern, str):
        raise ExecutionError("LIKE requires string operands")
    return like_match(value, pattern)


def _kleene_and(left: object, right: object) -> bool | None:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return bool(left) and bool(right)


def _kleene_or(left: object, right: object) -> bool | None:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return bool(left) or bool(right)


def _arith(op: str, left: object, right: object) -> SqlScalar:
    if left is None or right is None:
        return None
    if isinstance(left, Ciphertext) or isinstance(right, Ciphertext):
        raise ExecutionError("arithmetic on encrypted values is not supported in AEv2")
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError("arithmetic requires numeric operands")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            # SQL integer division truncates toward zero.
            quotient = abs(left) // abs(right)
            return quotient if (left >= 0) == (right >= 0) else -quotient
        return left / right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")
