"""The expression-services stack machine evaluator.

The same VM runs in two places, mirroring the paper's "compile ES into two
binaries" approach (Section 4.4):

* **Host side** — crypto context is ``None``. Encrypted cells are opaque
  :class:`~repro.sqlengine.cells.Ciphertext` blobs; the only computation
  allowed on them is binary equality (DET columns). Any ``TM_EVAL``
  instruction delegates to an :class:`EnclaveConnector`.
* **Enclave side** — a crypto context backed by the enclave's CEK store is
  supplied. A row's encrypted ``GET_DATA`` slots are opened through it, each
  once, before any node runs, and encrypted ``SET_DATA`` outputs are sealed
  after: the stack boundary is the row's, and the program body computes on
  plaintext only.

Comparison results use SQL three-valued logic: ``None`` is UNKNOWN and
propagates through comparisons; AND/OR follow Kleene semantics.

A program is lowered once (:meth:`StackMachine.lower`) into closures and
evaluation calls those. The lowered form lives where the program does — on
the plan's ``CompiledExpression`` / ``Scalar``, in the enclave's handle
table — and knows no crypto context: the machine running it opens and seals
at the row's edges, so one evaluator serves both sides.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Protocol, Sequence

from repro.errors import ExecutionError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.program import Opcode, StackProgram
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import SqlScalar, compare_values, like_match


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


#: One stack value of one row: ``node(inputs, returned)`` over the row's input
#: slots — its encrypted ones already opened — and the results of the row's
#: ``TM_EVAL`` calls so far. Nodes compute on plaintext and never decrypt.
Node = Callable[[Sequence[object], Sequence[object]], object]


class LoweredProgram(NamedTuple):
    """A :class:`StackProgram` as closures: straight-line stack code is an
    expression forest, so each value the program pushes becomes a
    :data:`Node` over the nodes it popped. Nodes keep no state — one lowered
    program serves every session thread of a shared plan and every ecall of
    a registered handle."""

    #: Each ``TM_EVAL`` in program order: sub-program bytes, a node per input.
    calls: tuple[tuple[bytes, tuple[Node, ...]], ...]
    #: ``(slot, node, enc)`` per ``SET_DATA``, sealed under ``enc`` when it
    #: is not None; a program without one leaves its result on the stack,
    #: which is output 0. Other residue is not computed.
    outputs: tuple[tuple[int, Node, EncryptionInfo | None], ...]
    width: int  # output slots written: 1 + the highest ``SET_DATA`` slot
    #: ``(slot, enc)`` per slot an encrypted ``GET_DATA`` reads, each once, in
    #: first-read order: the operands a row opens before its nodes run. Both
    #: sides of AND/OR are evaluated, so every row reads all of them.
    decrypts: tuple[tuple[int, EncryptionInfo], ...]


Program = StackProgram | LoweredProgram


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

    @staticmethod
    def lower(program: StackProgram) -> LoweredProgram:
        """Lower ``program`` once, for any number of evaluations: what does
        not depend on a row is decided — and a malformed program (stack
        underflow, an unknown opcode or operator) rejected — here."""
        stack: list[Node] = []
        calls: list[tuple[bytes, tuple[Node, ...]]] = []
        outputs: list[tuple[int, Node, EncryptionInfo | None]] = []
        decrypts: dict[int, EncryptionInfo] = {}

        def pop(count: int, what: object) -> list[Node]:
            if len(stack) < count:
                raise ExecutionError(f"{what} needs {count} operand(s), stack has {len(stack)}")
            popped = stack[len(stack) - count :]
            del stack[len(stack) - count :]
            return popped

        for ins in program.instructions:
            opcode, operand = ins.opcode, ins.operand
            if opcode is Opcode.GET_DATA:
                slot, enc = operand  # type: ignore[misc]
                stack.append(_get_data(slot))
                if enc is not None:
                    decrypts.setdefault(slot, enc)
            elif opcode is Opcode.PUSH_CONST:
                stack.append(_constant(operand))
            elif opcode is Opcode.SET_DATA:
                slot, enc = operand  # type: ignore[misc]
                outputs.append((slot, *pop(1, "SET_DATA"), enc))
            elif opcode is Opcode.TM_EVAL:
                blob, n_inputs = operand  # type: ignore[misc]
                calls.append((blob, tuple(pop(n_inputs, "TM_EVAL"))))
                stack.append(_call_result(len(calls) - 1))
            elif opcode in _OPERATIONS:
                arity, operation = _OPERATIONS[opcode]
                stack.append(_apply(operation(operand), *pop(arity, opcode.name)))
            else:
                raise ExecutionError(f"unknown opcode {opcode}")
        if not outputs and stack:
            outputs.append((0, stack[-1], None))
        width = 1 + max((slot for slot, *__ in outputs), default=-1)
        return LoweredProgram(tuple(calls), tuple(outputs), width, tuple(decrypts.items()))

    def eval(self, program: Program, inputs: Sequence[object], n_outputs: int = 1) -> list[object]:
        """Run ``program`` on one row; returns the outputs array (size
        ``n_outputs``). The row's encrypted operands are opened first, its
        nodes run on plaintext, and encrypted outputs are sealed last. A
        program with ``TM_EVAL`` runs as a chunk of one."""
        if isinstance(program, StackProgram) or program.calls:
            return self.eval_batch(program, [inputs], n_outputs)[0]
        if program.width > n_outputs:
            raise ExecutionError(f"SET_DATA slot {program.width - 1} out of range")
        if program.decrypts:
            inputs = self._decrypt(self._crypto, program.decrypts, inputs)
        return self._outputs(program, inputs, (), n_outputs)

    def eval_batch(
        self, program: Program, input_rows: list[Sequence[object]], n_outputs: int = 1
    ) -> list[list[object]]:
        """Run ``program`` over a chunk of input rows; one outputs array each.

        A ``TM_EVAL`` ships the whole chunk's sub-program inputs through one
        enclave call — a program's calls go out in program order, each once
        per chunk, their inputs computed first (after every row is opened) —
        and everything else runs row by row afterwards. A program without
        ``TM_EVAL`` is :meth:`eval` row by row. A :class:`StackProgram` is
        lowered on the spot: whoever evaluates a program more than once keeps
        its lowered form.
        """
        if isinstance(program, StackProgram):
            program = self.lower(program)
        if program.width > n_outputs:
            raise ExecutionError(f"SET_DATA slot {program.width - 1} out of range")
        if not program.calls:
            return [self.eval(program, inputs, n_outputs) for inputs in input_rows]
        if program.decrypts:
            input_rows = [self._decrypt(self._crypto, program.decrypts, inputs) for inputs in input_rows]
        # Per row, the results of its TM_EVAL calls so far.
        returned: list[list[object]] = [[] for __ in input_rows]
        for blob, arguments in program.calls:
            shipped = [
                [node(inputs, got) for node in arguments]
                for inputs, got in zip(input_rows, returned)
            ]
            for got, result in zip(returned, self._tm_eval(blob, shipped)):
                got.append(result[0])
        return [
            self._outputs(program, inputs, got, n_outputs)
            for inputs, got in zip(input_rows, returned)
        ]

    def eval_predicate(self, program: Program, inputs: Sequence[object]) -> bool | None:
        """Run a boolean-valued program; returns True/False/None (UNKNOWN)."""
        return self.eval_predicate_batch(program, [inputs])[0]

    def eval_predicate_batch(
        self, program: Program, input_rows: list[Sequence[object]]
    ) -> list[bool | None]:
        """One True/False/None (UNKNOWN) verdict per input row."""
        verdicts: list[bool | None] = []
        for outputs in self.eval_batch(program, input_rows, n_outputs=1):
            result = outputs[0]
            if result is not None and not isinstance(result, bool):
                raise ExecutionError(f"predicate produced non-boolean {result!r}")
            verdicts.append(result)
        return verdicts

    def _tm_eval(self, blob: bytes, rows: list[list[object]]) -> list[list[object]]:
        """One ``TM_EVAL`` for every row of the chunk: a single ``eval_batch``
        ecall, or for a chunk of one row a plain ``eval`` ecall — which is
        all that distinguishes the paper's row-at-a-time mode (Section 4.4)
        from batch mode."""
        if self._enclave is None:
            raise ExecutionError("TM_EVAL encountered but no enclave is configured for this query")
        handle = self._handle_cache.get(blob)
        if handle is None:
            handle = self._enclave.register_program(blob)
            self._handle_cache[blob] = handle
        if len(rows) == 1:
            return [self._enclave.eval(handle, rows[0])]
        return self._enclave.eval_batch(handle, rows)

    def _outputs(
        self, program: LoweredProgram, inputs: Sequence[object], returned: Sequence[object],
        n_outputs: int,
    ) -> list[object]:
        """One opened row's outputs array, each encrypted output sealed."""
        outputs: list[object] = [None] * n_outputs
        for slot, node, enc in program.outputs:
            value = node(inputs, returned)
            outputs[slot] = value if enc is None else self._encrypt(self._crypto, value, enc)
        return outputs

    @staticmethod
    def _decrypt(
        crypto: CryptoContext | None,
        decrypts: tuple[tuple[int, EncryptionInfo], ...],
        inputs: Sequence[object],
    ) -> list[object]:
        """``inputs`` with the cell of each encrypted slot opened, in order."""
        row = list(inputs)
        for slot, enc in decrypts:
            try:
                value = row[slot]
            except IndexError:
                raise ExecutionError(
                    f"GET_DATA slot {slot} out of range ({len(inputs)} inputs)"
                ) from None
            if value is None:  # NULL cells are stored as NULL, never as ciphertext
                continue
            if crypto is None:
                raise ExecutionError(
                    "encrypted GET_DATA outside the enclave: the host must never "
                    "decrypt column data"
                )
            if not isinstance(value, Ciphertext):
                raise ExecutionError(
                    f"GET_DATA annotated encrypted but input is {type(value).__name__}"
                )
            row[slot] = crypto.decrypt_cell(value, enc)
        return row

    @staticmethod
    def _encrypt(
        crypto: CryptoContext | None, value: object, enc: EncryptionInfo
    ) -> Ciphertext | None:
        if value is None:
            return None
        if crypto is None:
            raise ExecutionError(
                "encrypted SET_DATA outside the enclave: the host must never "
                "encrypt column data"
            )
        return crypto.encrypt_cell(value, enc)  # type: ignore[arg-type]


# -- nodes --------------------------------------------------------------------


def _get_data(slot: int) -> Node:
    def get(inputs, returned):
        try:
            return inputs[slot]
        except IndexError:
            raise ExecutionError(
                f"GET_DATA slot {slot} out of range ({len(inputs)} inputs)"
            ) from None

    return get


def _constant(value: object) -> Node:
    return lambda inputs, returned: value


def _call_result(call: int) -> Node:
    return lambda inputs, returned: returned[call]


def _apply(operation: Callable[..., object], *operands: Node) -> Node:
    """``operation`` over its one or two operands, evaluated in push order."""
    if len(operands) == 1:
        (only,) = operands
        return lambda inputs, returned: operation(only(inputs, returned))
    left, right = operands
    return lambda inputs, returned: operation(left(inputs, returned), right(inputs, returned))


# ---------------------------------------------------------------------------
# Operation semantics
# ---------------------------------------------------------------------------

_COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _comparison(op: str) -> Callable[[object, object], bool | None]:
    test = _COMPARISONS.get(op)
    if test is None:
        raise ExecutionError(f"unknown comparison operator {op!r}")

    def compare(left: object, right: object) -> bool | None:
        if left is None or right is None:
            return None
        left_ct = isinstance(left, Ciphertext)
        if left_ct != isinstance(right, Ciphertext):
            raise ExecutionError("cannot compare an encrypted value with a plaintext value")
        if left_ct:
            # DET ciphertext: equality preserved value-wise, so =/<> are exact.
            # Anything else on ciphertext is meaningless and rejected.
            if op not in ("=", "<>"):
                raise ExecutionError(f"operator {op!r} is not supported on ciphertext")
            return test(left.envelope, right.envelope)  # type: ignore[union-attr]
        return test(compare_values(left, right), 0)  # type: ignore[arg-type]

    return compare


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


def _divide(left: int | float, right: int | float) -> int | float:
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        # SQL integer division truncates toward zero.
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _arithmetic(op: str) -> Callable[[object, object], SqlScalar]:
    compute = _ARITHMETIC.get(op)
    if compute is None:
        raise ExecutionError(f"unknown arithmetic operator {op!r}")

    def arith(left: object, right: object) -> SqlScalar:
        if left is None or right is None:
            return None
        if isinstance(left, Ciphertext) or isinstance(right, Ciphertext):
            raise ExecutionError("arithmetic on encrypted values is not supported in AEv2")
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise ExecutionError("arithmetic requires numeric operands")
        return compute(left, right)

    return arith


#: Opcode -> (operands popped, operand -> the operation on their values).
_OPERATIONS: dict[Opcode, tuple[int, Callable[[object], Callable[..., object]]]] = {
    Opcode.COMP: (2, lambda op: _comparison(str(op))),
    Opcode.LIKE: (2, lambda __: _like),
    Opcode.AND: (2, lambda __: _kleene_and),
    Opcode.OR: (2, lambda __: _kleene_or),
    Opcode.NOT: (1, lambda __: lambda value: None if value is None else not value),
    Opcode.ARITH: (2, lambda op: _arithmetic(str(op))),
    Opcode.IS_NULL: (1, lambda negated: lambda value: (value is None) != bool(negated)),
}
