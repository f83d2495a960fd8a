"""Compilation of expression trees to stack programs with the TMEval split.

This reproduces Figure 7 of the paper: a comparison over an
enclave-required encrypted column compiles to *two* programs — a host
program whose ``TM_EVAL`` instruction holds the serialized enclave
sub-program, and the enclave sub-program itself, whose ``GET_DATA``
instructions carry the encryption annotations that drive transparent
decryption at the enclave's stack boundary.

Placement rules (Sections 2.4.3 / 4.4):

* Plaintext-only subexpressions run on the host.
* ``=`` / ``<>`` over DET operands run on the host as ciphertext binary
  comparisons — no enclave involved.
* ``=``, range comparisons, and ``LIKE`` over RND operands with
  enclave-enabled CEKs run in the enclave, and so does every ``AND`` /
  ``OR`` / ``NOT`` all of whose operands do: such an *enclave subtree* —
  a BETWEEN, an IN-list, a NOT LIKE, a conjunction of RND comparisons —
  compiles into **one** enclave sub-program behind one ``TM_EVAL``. Its
  inputs are the subtree's distinct operands, and its one output is the
  subtree's verdict. An ``AND`` / ``OR`` chain that mixes host and
  enclave terms gathers its enclave terms into one sub-program too.
* Everything else over encrypted operands is a compile-time error (type
  deduction normally rejects these before we get here; the checks are
  repeated because the compiler is also used directly in tests).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.crypto.aead import EncryptionScheme
from repro.errors import TypeDeductionError
from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
from repro.sqlengine.expression.tree import (
    AndExpr,
    ArithExpr,
    ColumnRefExpr,
    CompareExpr,
    Expr,
    IsNullExpr,
    LikeExpr,
    LiteralExpr,
    NotExpr,
    OrExpr,
    ParameterExpr,
)
from repro.sqlengine.expression.vm import LoweredProgram, StackMachine
from repro.sqlengine.types import EncryptionInfo


@dataclass
class CompiledExpression:
    """The result of compiling one scalar expression.

    ``host_program`` is the CEsComp evaluated by the host VM, ``lowered``
    the form the VM runs it in (lowered here, once per compilation);
    ``enclave_programs`` lists each serialized enclave sub-program (already
    embedded in TM_EVAL operands; exposed for registration/inspection);
    ``enclave_ceks`` is the set of CEK names the enclave will need.
    """

    host_program: StackProgram
    enclave_programs: list[bytes] = field(default_factory=list)
    enclave_ceks: set[str] = field(default_factory=set)
    lowered: LoweredProgram = field(init=False)

    @property
    def uses_enclave(self) -> bool:
        return bool(self.enclave_programs)


def compile_expression(expr: Expr) -> CompiledExpression:
    """Compile ``expr`` into a host program with embedded enclave splits."""
    compiled = CompiledExpression(host_program=StackProgram())
    _emit(expr, compiled.host_program.instructions, compiled)
    compiled.lowered = StackMachine.lower(compiled.host_program)
    return compiled


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _encryption_of(expr: Expr) -> EncryptionInfo | None:
    if isinstance(expr, (ColumnRefExpr, ParameterExpr, LiteralExpr)):
        return expr.column_type.encryption
    return None


def _needs_enclave(expr: Expr) -> bool:
    """Whether ``expr`` is an enclave subtree: a comparison or LIKE over an
    encrypted operand that is not DET equality, or an AND / OR / NOT all of
    whose operands are enclave subtrees."""
    if isinstance(expr, (AndExpr, OrExpr)):
        return _needs_enclave(expr.left) and _needs_enclave(expr.right)
    if isinstance(expr, NotExpr):
        return _needs_enclave(expr.operand)
    if isinstance(expr, CompareExpr):
        left, right = _encryption_of(expr.left), _encryption_of(expr.right)
        if left is None and right is None:
            return False
        deterministic = (
            left is not None
            and right is not None
            and left.scheme is EncryptionScheme.DETERMINISTIC
            and right.scheme is EncryptionScheme.DETERMINISTIC
        )
        return not (deterministic and expr.op.value in ("=", "<>"))
    if isinstance(expr, LikeExpr):
        return _encryption_of(expr.value) is not None or _encryption_of(expr.pattern) is not None
    return False


def _chain(expr: Expr, kind: type) -> list[Expr]:
    """The terms of the ``kind`` (AND or OR) chain rooted at ``expr``."""
    if type(expr) is kind:
        return _chain(expr.left, kind) + _chain(expr.right, kind)  # type: ignore[attr-defined]
    return [expr]


def _check_enclave_pair(left: EncryptionInfo | None, right: EncryptionInfo | None, what: str) -> EncryptionInfo:
    """Validate a comparison between encrypted operands for enclave eval."""
    if left is None or right is None:
        raise TypeDeductionError(
            f"{what}: cannot mix an encrypted operand with a plaintext operand; "
            "use a parameter so the driver can encrypt it"
        )
    if left.cek_name != right.cek_name:
        raise TypeDeductionError(
            f"{what}: operands are encrypted with different CEKs "
            f"({left.cek_name!r} vs {right.cek_name!r})"
        )
    if left.scheme is not right.scheme:
        raise TypeDeductionError(f"{what}: operands use different encryption schemes")
    if not (left.enclave_enabled and right.enclave_enabled):
        raise TypeDeductionError(
            f"{what}: operation requires an enclave-enabled CEK"
        )
    if left.scheme is not EncryptionScheme.RANDOMIZED:
        raise TypeDeductionError(
            f"{what}: rich computations require randomized encryption; "
            "deterministic encryption supports only equality"
        )
    return left


def _split_to_enclave(expr: Expr, out: list[Instruction], compiled: CompiledExpression) -> None:
    """Compile the enclave subtree ``expr`` into one enclave program behind
    one ``TM_EVAL``.

    The program's inputs are the subtree's distinct column and parameter
    operands, each pushed by the host once per row however many
    comparisons read it; its ``GET_DATA``s carry the encryption
    annotations, and it ``SET_DATA``s one plaintext result — the subtree's
    verdict, the boolean the paper notes is returned to SQL Server in the
    clear. The verdicts of the comparisons inside stay in the enclave.
    """
    inputs: dict[Expr, int] = {}
    body: list[Instruction] = []
    _emit_enclave(expr, body, inputs)
    body.append(Instruction(Opcode.SET_DATA, (0, None)))
    blob = StackProgram(body).serialize()
    for operand in inputs:
        out.append(Instruction(Opcode.GET_DATA, (operand.slot, None)))  # type: ignore[attr-defined]
        compiled.enclave_ceks.add(_encryption_of(operand).cek_name)  # type: ignore[union-attr]
    out.append(Instruction(Opcode.TM_EVAL, (blob, len(inputs))))
    compiled.enclave_programs.append(blob)


def _emit_enclave(expr: Expr, body: list[Instruction], inputs: dict[Expr, int]) -> None:
    """Emit the enclave-side code of the enclave subtree ``expr``;
    ``inputs`` numbers the distinct operands in first-read order."""
    if isinstance(expr, (AndExpr, OrExpr)):
        _emit_enclave(expr.left, body, inputs)
        _emit_enclave(expr.right, body, inputs)
        body.append(Instruction(Opcode.AND if isinstance(expr, AndExpr) else Opcode.OR))
        return
    if isinstance(expr, NotExpr):
        _emit_enclave(expr.operand, body, inputs)
        body.append(Instruction(Opcode.NOT))
        return
    if isinstance(expr, CompareExpr):
        operands, what = (expr.left, expr.right), f"comparison {expr.op.value!r}"
        operation = Instruction(Opcode.COMP, expr.op.value)
    else:  # a LikeExpr: _needs_enclave admits no other leaf
        operands, what = (expr.value, expr.pattern), "LIKE"
        operation = Instruction(Opcode.LIKE)
    _check_enclave_pair(*map(_encryption_of, operands), what)
    for operand in operands:
        if not isinstance(operand, (ColumnRefExpr, ParameterExpr)):
            raise TypeDeductionError(f"enclave {what} supports only column and parameter operands")
        slot = inputs.setdefault(operand, len(inputs))
        body.append(Instruction(Opcode.GET_DATA, (slot, _encryption_of(operand))))
    body.append(operation)


# ---------------------------------------------------------------------------
# Main recursive emitter
# ---------------------------------------------------------------------------


def _emit(expr: Expr, out: list[Instruction], compiled: CompiledExpression) -> None:
    if _needs_enclave(expr):
        _split_to_enclave(expr, out, compiled)
        return

    if isinstance(expr, (ColumnRefExpr, ParameterExpr)):
        # An encrypted value is moved as an opaque blob, never computed on.
        out.append(Instruction(Opcode.GET_DATA, (expr.slot, None)))
        return

    if isinstance(expr, LiteralExpr):
        out.append(Instruction(Opcode.PUSH_CONST, expr.value))
        return

    if isinstance(expr, CompareExpr):
        # Plaintext, or DET equality: host-side VARBINARY comparison on
        # ciphertext (Section 4.4), no TMEval instruction.
        left_enc, right_enc = _encryption_of(expr.left), _encryption_of(expr.right)
        if left_enc is not None and left_enc.cek_name != right_enc.cek_name:  # type: ignore[union-attr]
            raise TypeDeductionError(
                "DET equality requires both operands encrypted with the same CEK"
            )
        _emit(expr.left, out, compiled)
        _emit(expr.right, out, compiled)
        out.append(Instruction(Opcode.COMP, expr.op.value))
        return

    if isinstance(expr, LikeExpr):
        _emit(expr.value, out, compiled)
        _emit(expr.pattern, out, compiled)
        out.append(Instruction(Opcode.LIKE))
        return

    if isinstance(expr, (AndExpr, OrExpr)):
        # The chain's enclave terms become one enclave subtree; the rest run
        # here. Kleene AND / OR are associative and commutative, and the
        # host evaluates every term of a row, so regrouping changes nothing
        # but the number of TM_EVALs.
        kind = type(expr)
        inside, host = [], []
        for term in _chain(expr, kind):
            (inside if _needs_enclave(term) else host).append(term)
        terms = ([functools.reduce(kind, inside)] if inside else []) + host
        opcode = Opcode.AND if kind is AndExpr else Opcode.OR
        _emit(terms[0], out, compiled)
        for term in terms[1:]:
            _emit(term, out, compiled)
            out.append(Instruction(opcode))
        return

    if isinstance(expr, NotExpr):
        _emit(expr.operand, out, compiled)
        out.append(Instruction(Opcode.NOT))
        return

    if isinstance(expr, ArithExpr):
        left_enc = _encryption_of(expr.left)
        right_enc = _encryption_of(expr.right)
        if left_enc is not None or right_enc is not None:
            raise TypeDeductionError("arithmetic on encrypted columns is not supported")
        _emit(expr.left, out, compiled)
        _emit(expr.right, out, compiled)
        out.append(Instruction(Opcode.ARITH, expr.op.value))
        return

    if isinstance(expr, IsNullExpr):
        _emit(expr.operand, out, compiled)
        out.append(Instruction(Opcode.IS_NULL, expr.negated))
        return

    raise TypeDeductionError(f"cannot compile expression node {type(expr).__name__}")
