"""The expression-services stack machine evaluator.

The same VM runs in two places, mirroring the paper's "compile ES into two
binaries" approach (Section 4.4):

* **Host side** — crypto context is ``None``. Encrypted cells are opaque
  :class:`~repro.sqlengine.cells.Ciphertext` blobs; the only computation
  allowed on them is binary equality (DET columns). Any ``TM_EVAL``
  instruction delegates to an :class:`EnclaveConnector`, once per chunk of
  rows: a call whose arguments are all slot reads ships them straight from
  the rows, and a program whose one output is a call's result reads its
  verdicts off that call's results, so no node runs per row.
* **Enclave side** — a crypto context backed by the enclave's CEK store is
  supplied. A row's encrypted ``GET_DATA`` slots are opened through it, each
  once, before any node runs — an operand the context has already opened
  is read from its memo — and encrypted ``SET_DATA`` outputs are sealed
  as they are computed: the stack boundary is the row's, and the program
  body computes on plaintext only.

Comparison results use SQL three-valued logic: ``None`` is UNKNOWN and
propagates through comparisons; AND/OR follow Kleene semantics.

A program is lowered once (:meth:`StackMachine.lower`) into closures and
evaluation calls those. The lowered form lives where the program does — on
the plan's ``CompiledExpression`` / ``Scalar``, in the enclave's handle
table — and knows no crypto context: the machine running it opens and seals
at the row's edges. A program without ``TM_EVAL`` runs one row loop
(:meth:`StackMachine.eval_batch`), checked once per chunk; it serves
``eval``, ``eval_batch`` and both enclave eval ecalls.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence

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
#: slots — its encrypted ones already opened — and, per ``TM_EVAL`` call of the
#: program so far, the outputs that call returned for the row. Nodes compute on
#: plaintext and never decrypt.
Node = Callable[[Sequence[object], Sequence[Sequence[object]]], object]

#: One ``TM_EVAL``'s argument reader: ``arguments(rows, results)`` is what the
#: call ships for a chunk of opened rows — a list of arguments per row — where
#: ``results`` holds, per earlier call, the outputs it returned for each row.
Arguments = Callable[[Sequence[Sequence[object]], Sequence[Sequence[object]]], list[list[object]]]

#: The outputs reader: ``outputs(inputs, returned, seal)`` is one opened row's
#: outputs, ``width`` of them, each encrypted one passed through
#: ``seal(value, enc)`` as it is computed.
Outputs = Callable[[Sequence[object], Sequence[Sequence[object]], Callable], list[object]]


class LoweredProgram(NamedTuple):
    """A :class:`StackProgram` as closures: straight-line stack code is an
    expression forest, so each value the program pushes becomes a
    :data:`Node` over the nodes it popped, and each ``TM_EVAL`` an argument
    reader over the nodes it popped. Readers and nodes keep no state — one
    lowered program serves every session thread of a shared plan and every
    ecall of a registered handle."""

    #: Each ``TM_EVAL`` in program order: sub-program bytes, argument reader.
    #: A call whose arguments are all slot reads ships them straight from the
    #: chunk's rows, without running a node.
    calls: tuple[tuple[bytes, Arguments], ...]
    #: The ``SET_DATA`` outputs, in program order, sealed under their ``enc``
    #: when it is not None; a program without one leaves its result on the
    #: stack, which is output 0. Other residue is not computed.
    outputs: Outputs
    width: int  # output slots written: 1 + the highest ``SET_DATA`` slot
    #: ``(slot, enc)`` per slot an encrypted ``GET_DATA`` reads, each once, in
    #: first-read order: the operands a row opens before its nodes run. Both
    #: sides of AND/OR are evaluated, so every row reads all of them.
    decrypts: tuple[tuple[int, EncryptionInfo], ...]
    #: The call whose result is the program's one output (slot 0, not
    #: sealed), or None. A chunk's outputs are then read off that call's
    #: results, and no node runs per row.
    verdict: int | None


Program = StackProgram | LoweredProgram

#: Stands for "not opened yet" in a memo of opened cells, where None is a value.
_UNOPENED = object()


class StackMachine:
    """Evaluates :class:`StackProgram` objects against input slot arrays.

    ``opened`` maps ``(cek_name, envelope)`` to the plaintext of a cell the
    crypto context has already opened and checked under that CEK; a row's
    operand found there is read from it, and any other is opened through
    ``crypto.decrypt_cell``. The mapping is the context's, and may grow while
    the machine runs.
    """

    def __init__(
        self,
        crypto: CryptoContext | None = None,
        enclave: EnclaveConnector | None = None,
        opened: Mapping[tuple[str, bytes], SqlScalar] | None = None,
    ):
        self._crypto = crypto
        self._enclave = enclave
        self._opened = {} if opened is None else opened
        self._handle_cache: dict[bytes, int] = {}

    @staticmethod
    def lower(program: StackProgram) -> LoweredProgram:
        """Lower ``program`` once, for any number of evaluations: what does
        not depend on a row is decided — and a malformed program (stack
        underflow, an unknown opcode or operator) rejected — here."""
        stack: list[Node] = []
        calls: list[tuple[bytes, Arguments]] = []
        outputs: list[tuple[int, Node, EncryptionInfo | None]] = []
        decrypts: dict[int, EncryptionInfo] = {}
        slot_of: dict[Node, int] = {}  # the slot each GET_DATA node reads
        call_of: dict[Node, int] = {}  # the call each TM_EVAL result node reads

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
                node = _get_data(slot)
                slot_of[node] = slot
                stack.append(node)
                if enc is not None:
                    decrypts.setdefault(slot, enc)
            elif opcode is Opcode.PUSH_CONST:
                stack.append(_constant(operand))
            elif opcode is Opcode.SET_DATA:
                slot, enc = operand  # type: ignore[misc]
                outputs.append((slot, *pop(1, "SET_DATA"), enc))
            elif opcode is Opcode.TM_EVAL:
                blob, n_inputs = operand  # type: ignore[misc]
                calls.append((blob, _arguments(pop(n_inputs, "TM_EVAL"), slot_of)))
                node = _call_result(len(calls) - 1)
                call_of[node] = len(calls) - 1
                stack.append(node)
            elif opcode in _OPERATIONS:
                arity, operation = _OPERATIONS[opcode]
                stack.append(_apply(operation(operand), *pop(arity, opcode.name)))
            else:
                raise ExecutionError(f"unknown opcode {opcode}")
        if not outputs and stack:
            outputs.append((0, stack[-1], None))
        width = 1 + max((slot for slot, *__ in outputs), default=-1)
        verdict = None
        if len(outputs) == 1 and outputs[0][0] == 0 and outputs[0][2] is None:
            verdict = call_of.get(outputs[0][1])
        return LoweredProgram(
            tuple(calls), _outputs(outputs, width), width, tuple(decrypts.items()), verdict
        )

    def eval(self, program: Program, inputs: Sequence[object], n_outputs: int = 1) -> list[object]:
        """Run ``program`` on one row — a chunk of one — and return its
        outputs array (size ``n_outputs``)."""
        return self.eval_batch(program, [inputs], n_outputs)[0]

    def eval_batch(
        self,
        program: Program,
        input_rows: Sequence[Sequence[object]],
        n_outputs: int = 1,
        checkpoint: Callable[[int], object] | None = None,
    ) -> list[list[object]]:
        """Run ``program`` over a chunk of input rows; one outputs array each.

        The program is checked once per chunk. A program without ``TM_EVAL``
        runs one row loop: per row, ``checkpoint(index)`` if given, then the
        row's encrypted operands are opened, its nodes run on plaintext, and
        its encrypted outputs are sealed. That loop is every evaluation on
        the enclave side.

        A program with ``TM_EVAL`` opens every row first, then ships the
        whole chunk's arguments for each call through one enclave call, in
        program order, and computes the outputs last; when the one output is
        a call's result, the outputs are read off that call's results. A
        :class:`StackProgram` is lowered on the spot: whoever evaluates a
        program more than once keeps its lowered form.
        """
        if isinstance(program, StackProgram):
            program = self.lower(program)
        if program.width > n_outputs:
            raise ExecutionError(f"SET_DATA slot {program.width - 1} out of range")
        if program.calls:
            rows = self._chunk(program, input_rows)
        else:
            rows = self._rows(program, input_rows, checkpoint)
        if n_outputs > program.width:
            padding = [None] * (n_outputs - program.width)
            for row in rows:
                row += padding
        return rows

    def eval_predicate(self, program: Program, inputs: Sequence[object]) -> bool | None:
        """Run a boolean-valued program; returns True/False/None (UNKNOWN)."""
        return self.eval_predicate_batch(program, [inputs])[0]

    def eval_predicate_batch(
        self, program: Program, input_rows: Sequence[Sequence[object]]
    ) -> list[bool | None]:
        """One True/False/None (UNKNOWN) verdict per input row."""
        verdicts: list[bool | None] = []
        for outputs in self.eval_batch(program, input_rows, n_outputs=1):
            result = outputs[0]
            if result is not None and not isinstance(result, bool):
                raise ExecutionError(f"predicate produced non-boolean {result!r}")
            verdicts.append(result)
        return verdicts

    def _rows(
        self,
        program: LoweredProgram,
        input_rows: Sequence[Sequence[object]],
        checkpoint: Callable[[int], object] | None,
    ) -> list[list[object]]:
        """The row loop of a program without ``TM_EVAL``."""
        decrypts, outputs, seal = program.decrypts, program.outputs, self._seal
        rows: list[list[object]] = []
        for index, inputs in enumerate(input_rows):
            if checkpoint is not None:
                checkpoint(index)
            if decrypts:
                inputs = self._decrypt(decrypts, inputs)
            rows.append(outputs(inputs, (), seal))
        return rows

    def _chunk(
        self, program: LoweredProgram, input_rows: Sequence[Sequence[object]]
    ) -> list[list[object]]:
        """A chunk of a program with ``TM_EVAL``: each call crosses once."""
        if program.decrypts:
            input_rows = [self._decrypt(program.decrypts, inputs) for inputs in input_rows]
        results: list[list[list[object]]] = []  # per call, what it returned per row
        for blob, arguments in program.calls:
            results.append(self._tm_eval(blob, arguments(input_rows, results)))
        if program.verdict is not None:
            return [[result[0]] for result in results[program.verdict]]
        outputs, seal = program.outputs, self._seal
        return [
            outputs(inputs, returned, seal)
            for inputs, returned in zip(input_rows, zip(*results))
        ]

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

    def _decrypt(
        self, decrypts: tuple[tuple[int, EncryptionInfo], ...], inputs: Sequence[object]
    ) -> list[object]:
        """``inputs`` with the cell of each encrypted slot opened, in order."""
        crypto, opened = self._crypto, self._opened
        row = list(inputs)
        for slot, enc in decrypts:
            try:
                cell = row[slot]
            except IndexError:
                raise _out_of_range(slot, inputs) from None
            if cell is None:  # NULL cells are stored as NULL, never as ciphertext
                continue
            if crypto is None:
                raise ExecutionError(
                    "encrypted GET_DATA outside the enclave: the host must never "
                    "decrypt column data"
                )
            if not isinstance(cell, Ciphertext):
                raise ExecutionError(
                    f"GET_DATA annotated encrypted but input is {type(cell).__name__}"
                )
            value = opened.get((enc.cek_name, cell.envelope), _UNOPENED)
            row[slot] = crypto.decrypt_cell(cell, enc) if value is _UNOPENED else value
        return row

    def _seal(self, value: object, enc: EncryptionInfo) -> Ciphertext | None:
        if value is None:
            return None
        if self._crypto is None:
            raise ExecutionError(
                "encrypted SET_DATA outside the enclave: the host must never "
                "encrypt column data"
            )
        return self._crypto.encrypt_cell(value, enc)  # type: ignore[arg-type]


# -- readers and nodes --------------------------------------------------------


def _out_of_range(slot: int, inputs: Sequence[object]) -> ExecutionError:
    return ExecutionError(f"GET_DATA slot {slot} out of range ({len(inputs)} inputs)")


def _arguments(nodes: Sequence[Node], slot_of: dict[Node, int]) -> Arguments:
    """A call's argument reader: slots taken straight from the rows when
    every argument is a slot read, its nodes run row by row otherwise."""
    if all(node in slot_of for node in nodes):
        return _slot_arguments(tuple(slot_of[node] for node in nodes))
    nodes = tuple(nodes)

    def read(rows, results):
        returned_rows = zip(*results) if results else itertools.repeat(())
        return [
            [node(inputs, returned) for node in nodes]
            for inputs, returned in zip(rows, returned_rows)
        ]

    return read


def _slot_arguments(slots: tuple[int, ...]) -> Arguments:
    pick = operator.itemgetter(*slots) if len(slots) > 1 else None

    def read(rows, results):
        try:
            if pick is not None:
                return [[*pick(inputs)] for inputs in rows]
            return [[inputs[slot] for slot in slots] for inputs in rows]
        except IndexError:
            # The first row, and in it the first slot, that a node would have failed on.
            for inputs in rows:
                for slot in slots:
                    if not -len(inputs) <= slot < len(inputs):
                        raise _out_of_range(slot, inputs) from None
            raise

    return read


def _outputs(outputs: Sequence[tuple[int, Node, EncryptionInfo | None]], width: int) -> Outputs:
    """The outputs reader of a program's ``(slot, node, enc)`` outputs."""
    if len(outputs) == 1 and outputs[0][0] == 0 and outputs[0][2] is None:
        only = outputs[0][1]
        return lambda inputs, returned, seal: [only(inputs, returned)]

    def read(inputs, returned, seal):
        row: list[object] = [None] * width
        for slot, node, enc in outputs:
            value = node(inputs, returned)
            row[slot] = value if enc is None else seal(value, enc)
        return row

    return read


def _get_data(slot: int) -> Node:
    def get(inputs, returned):
        try:
            return inputs[slot]
        except IndexError:
            raise _out_of_range(slot, inputs) from None

    return get


def _constant(value: object) -> Node:
    return lambda inputs, returned: value


def _call_result(call: int) -> Node:
    return lambda inputs, returned: returned[call][0]


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
        kind = type(left)
        if kind is type(right) and (kind is int or kind is str):
            return test(left, right)  # compare_values's order, without its type checks
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
