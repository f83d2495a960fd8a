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
  enclave-enabled CEKs compile into enclave sub-programs.
* Everything else over encrypted operands is a compile-time error (type
  deduction normally rejects these before we get here; the checks are
  repeated because the compiler is also used directly in tests).
"""

from __future__ import annotations

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
    if isinstance(expr, (ColumnRefExpr, ParameterExpr)):
        return expr.column_type.encryption
    if isinstance(expr, LiteralExpr):
        return expr.column_type.encryption
    return None


def _is_operand(expr: Expr) -> bool:
    return isinstance(expr, (ColumnRefExpr, ParameterExpr, LiteralExpr))


def _emit_operand_host(expr: Expr, out: list[Instruction], compiled: CompiledExpression) -> None:
    """Emit host code that pushes an operand's raw cell value (no crypto)."""
    if isinstance(expr, (ColumnRefExpr, ParameterExpr)):
        out.append(Instruction(Opcode.GET_DATA, (expr.slot, None)))
    elif isinstance(expr, LiteralExpr):
        out.append(Instruction(Opcode.PUSH_CONST, expr.value))
    else:
        _emit(expr, out, compiled)


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


def _split_to_enclave(
    operands: list[Expr],
    body: list[Instruction],
    out: list[Instruction],
    compiled: CompiledExpression,
) -> None:
    """Wrap ``body`` (which consumes len(operands) GET_DATAs) in a TM_EVAL.

    The enclave program reads its inputs from the TM_EVAL input array with
    encryption annotations, runs ``body``, and SET_DATAs a plaintext result
    — the boolean the paper notes is returned to SQL Server in the clear.
    """
    enclave_ins: list[Instruction] = []
    for slot, operand in enumerate(operands):
        enc = _encryption_of(operand)
        if isinstance(operand, LiteralExpr):
            enclave_ins.append(Instruction(Opcode.PUSH_CONST, operand.value))
        else:
            enclave_ins.append(Instruction(Opcode.GET_DATA, (slot, enc)))
    enclave_ins.extend(body)
    enclave_ins.append(Instruction(Opcode.SET_DATA, (0, None)))
    blob = StackProgram(enclave_ins).serialize()

    n_inputs = len(operands)
    for operand in operands:
        _emit_operand_host(operand, out, compiled)
    out.append(Instruction(Opcode.TM_EVAL, (blob, n_inputs)))

    compiled.enclave_programs.append(blob)
    for operand in operands:
        enc = _encryption_of(operand)
        if enc is not None:
            compiled.enclave_ceks.add(enc.cek_name)


# ---------------------------------------------------------------------------
# Main recursive emitter
# ---------------------------------------------------------------------------


def _emit(expr: Expr, out: list[Instruction], compiled: CompiledExpression) -> None:
    if isinstance(expr, (ColumnRefExpr, ParameterExpr)):
        enc = expr.column_type.encryption
        if enc is not None and enc.scheme is EncryptionScheme.RANDOMIZED and not enc.enclave_enabled:
            # A bare RND value may be projected (moved), never computed on;
            # the host moves it as an opaque blob.
            pass
        out.append(Instruction(Opcode.GET_DATA, (expr.slot, None)))
        return

    if isinstance(expr, LiteralExpr):
        out.append(Instruction(Opcode.PUSH_CONST, expr.value))
        return

    if isinstance(expr, CompareExpr):
        _emit_compare(expr, out, compiled)
        return

    if isinstance(expr, LikeExpr):
        _emit_like(expr, out, compiled)
        return

    if isinstance(expr, AndExpr):
        _emit(expr.left, out, compiled)
        _emit(expr.right, out, compiled)
        out.append(Instruction(Opcode.AND))
        return

    if isinstance(expr, OrExpr):
        _emit(expr.left, out, compiled)
        _emit(expr.right, out, compiled)
        out.append(Instruction(Opcode.OR))
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


def _emit_compare(expr: CompareExpr, out: list[Instruction], compiled: CompiledExpression) -> None:
    left_enc = _encryption_of(expr.left)
    right_enc = _encryption_of(expr.right)

    if left_enc is None and right_enc is None:
        _emit(expr.left, out, compiled)
        _emit(expr.right, out, compiled)
        out.append(Instruction(Opcode.COMP, expr.op.value))
        return

    deterministic = (
        left_enc is not None
        and right_enc is not None
        and left_enc.scheme is EncryptionScheme.DETERMINISTIC
        and right_enc.scheme is EncryptionScheme.DETERMINISTIC
    )
    if deterministic and expr.op.value in ("=", "<>"):
        # Host-side VARBINARY equality on ciphertext (Section 4.4): no
        # TMEval instruction is generated for DET equality.
        if left_enc.cek_name != right_enc.cek_name:  # type: ignore[union-attr]
            raise TypeDeductionError(
                "DET equality requires both operands encrypted with the same CEK"
            )
        _emit_operand_host(expr.left, out, compiled)
        _emit_operand_host(expr.right, out, compiled)
        out.append(Instruction(Opcode.COMP, expr.op.value))
        return

    # Everything else over encrypted operands needs the enclave.
    _check_enclave_pair(left_enc, right_enc, f"comparison {expr.op.value!r}")
    if not (_is_operand(expr.left) and _is_operand(expr.right)):
        raise TypeDeductionError("enclave comparisons support only simple operands")
    body = [Instruction(Opcode.COMP, expr.op.value)]
    _split_to_enclave([expr.left, expr.right], body, out, compiled)


def _emit_like(expr: LikeExpr, out: list[Instruction], compiled: CompiledExpression) -> None:
    value_enc = _encryption_of(expr.value)
    pattern_enc = _encryption_of(expr.pattern)

    if value_enc is None and pattern_enc is None:
        _emit(expr.value, out, compiled)
        _emit(expr.pattern, out, compiled)
        out.append(Instruction(Opcode.LIKE))
        return

    _check_enclave_pair(value_enc, pattern_enc, "LIKE")
    if not (_is_operand(expr.value) and _is_operand(expr.pattern)):
        raise TypeDeductionError("enclave LIKE supports only simple operands")
    body = [Instruction(Opcode.LIKE)]
    _split_to_enclave([expr.value, expr.pattern], body, out, compiled)
