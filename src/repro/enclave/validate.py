"""Static security validation of enclave stack programs.

The paper (Section 4.4.1): "The enclave enforces security checks that
ensures for instance that encrypted and plaintext values cannot be
compared." Since programs arrive from the *untrusted* host, the enclave
cannot rely on the host compiler having been honest; it re-derives the
provenance of every stack slot symbolically and rejects programs that
would compare plaintext chosen by the host against decrypted column data
(which would give the host an equality/ordering oracle), or that reference
CEKs the client never installed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EnclaveError
from repro.sqlengine.expression.program import Opcode, StackProgram


@dataclass(frozen=True)
class _Provenance:
    """What a symbolic stack slot holds during validation.

    ``cek`` is the CEK name the value was decrypted with, or None for
    values that never were ciphertext (constants, host-supplied plaintext,
    booleans produced by operators).
    """

    cek: str | None
    is_result: bool = False  # produced by an operator, safe to combine


def validate_program(program: StackProgram, installed_ceks: frozenset[str]) -> set[str]:
    """Validate ``program``; returns the set of CEKs it uses.

    Raises :class:`EnclaveError` on any violation:

    * GET_DATA/SET_DATA referencing a CEK not installed in the enclave;
    * COMP / LIKE mixing a decrypted value with host plaintext;
    * COMP / LIKE mixing values decrypted under different CEKs;
    * one input slot read under two annotations (encrypted and in the
      clear, or under two CEKs): the VM opens an encrypted slot once per
      row, before any node runs, so every read of it sees the plaintext;
    * arithmetic on decrypted values (unsupported in AEv2);
    * nested TM_EVAL (the enclave never re-enters itself);
    * stack underflow (malformed program).
    """
    stack: list[_Provenance] = []
    used: set[str] = set()
    reads: dict[int, str | None] = {}  # input slot -> the CEK it is read under

    def pop(n: int, what: str) -> list[_Provenance]:
        if len(stack) < n:
            raise EnclaveError(f"malformed enclave program: {what} underflows the stack")
        return [stack.pop() for __ in range(n)]

    for ins in program.instructions:
        opcode = ins.opcode
        if opcode is Opcode.GET_DATA:
            slot, enc = ins.operand  # type: ignore[misc]
            cek = None if enc is None else enc.cek_name
            if reads.setdefault(slot, cek) != cek:
                raise EnclaveError(
                    f"input slot {slot} is read {_under(reads[slot])} and {_under(cek)}: "
                    "every read of a slot sees it opened once; rejected"
                )
            if enc is not None:
                if enc.cek_name not in installed_ceks:
                    raise EnclaveError(
                        f"program references CEK {enc.cek_name!r} which the client "
                        "has not installed in the enclave"
                    )
                used.add(enc.cek_name)
                stack.append(_Provenance(cek=enc.cek_name))
            else:
                stack.append(_Provenance(cek=None))
        elif opcode is Opcode.PUSH_CONST:
            stack.append(_Provenance(cek=None))
        elif opcode in (Opcode.COMP, Opcode.LIKE):
            b, a = pop(2, opcode.name)
            _check_comparable(a, b, opcode.name)
            stack.append(_Provenance(cek=None, is_result=True))
        elif opcode in (Opcode.AND, Opcode.OR):
            pop(2, opcode.name)
            stack.append(_Provenance(cek=None, is_result=True))
        elif opcode is Opcode.NOT:
            pop(1, "NOT")
            stack.append(_Provenance(cek=None, is_result=True))
        elif opcode is Opcode.ARITH:
            b, a = pop(2, "ARITH")
            if a.cek is not None or b.cek is not None:
                raise EnclaveError("arithmetic on decrypted column data is not supported")
            stack.append(_Provenance(cek=None, is_result=True))
        elif opcode is Opcode.IS_NULL:
            pop(1, "IS_NULL")
            stack.append(_Provenance(cek=None, is_result=True))
        elif opcode is Opcode.SET_DATA:
            __, enc = ins.operand  # type: ignore[misc]
            pop(1, "SET_DATA")
            if enc is not None:
                if enc.cek_name not in installed_ceks:
                    raise EnclaveError(
                        f"program writes CEK {enc.cek_name!r} which the client "
                        "has not installed in the enclave"
                    )
                used.add(enc.cek_name)
        elif opcode is Opcode.TM_EVAL:
            raise EnclaveError("nested TM_EVAL inside an enclave program is not allowed")
        else:  # pragma: no cover - exhaustive
            raise EnclaveError(f"unknown opcode {opcode} in enclave program")
    return used


def _under(cek: str | None) -> str:
    return "in the clear" if cek is None else f"under CEK {cek!r}"


def _check_comparable(a: _Provenance, b: _Provenance, what: str) -> None:
    a_enc = a.cek is not None
    b_enc = b.cek is not None
    if a_enc != b_enc:
        raise EnclaveError(
            f"{what}: comparing a decrypted column value against host-chosen "
            "plaintext would expose a comparison oracle; rejected"
        )
    if a_enc and b_enc and a.cek != b.cek:
        raise EnclaveError(f"{what}: operands decrypted under different CEKs")
