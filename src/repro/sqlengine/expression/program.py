"""Stack-machine programs — the analog of SQL Server's ``CEsComp`` objects.

Expression services (ES) is a stack machine (Section 4.4). A compiled
expression is a sequence of instructions; data moves on and off the stack
via ``GetData`` / ``SetData``, which carry type annotations including the
CEK identifier and encryption scheme. During *enclave* evaluation those two
instructions transparently decrypt/encrypt at the stack boundary, so the
program body itself is oblivious to encryption — exactly the design in
Section 4.4.1.

``TMEval`` is the new instruction the paper adds for enclave computation:
it holds a *serialized* enclave sub-program (a deep copy, so the enclave
never dereferences host memory) plus the number of inputs it consumes from
the host stack.

The binary serialization implemented here is what crosses the host→enclave
boundary when a program is registered.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.crypto.aead import EncryptionScheme
from repro.errors import SqlError
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import SqlScalar, deserialize_value, serialize_value


class Opcode(enum.Enum):
    GET_DATA = 1       # push inputs[slot]           (operand: slot, enc_info)
    SET_DATA = 2       # pop into outputs[slot]      (operand: slot, enc_info)
    PUSH_CONST = 3     # push constant               (operand: value)
    COMP = 4           # pop b, a; push a OP b       (operand: CompareOp name)
    LIKE = 5           # pop pattern, value; push bool
    AND = 6            # Kleene AND
    OR = 7             # Kleene OR
    NOT = 8            # Kleene NOT
    ARITH = 9          # pop b, a; push a OP b       (operand: ArithOp name)
    IS_NULL = 10       # pop a; push a IS NULL       (operand: negated flag)
    TM_EVAL = 11       # host-only: invoke enclave   (operand: program bytes, n_inputs)


@dataclass(frozen=True)
class Instruction:
    """One stack-machine instruction.

    ``operand`` is opcode-specific:

    * GET_DATA / SET_DATA: ``(slot, EncryptionInfo | None)``
    * PUSH_CONST: the constant value
    * COMP / ARITH: the operator's string name
    * IS_NULL: bool ``negated``
    * TM_EVAL: ``(serialized_program_bytes, n_inputs)``
    """

    opcode: Opcode
    operand: object = None


@dataclass
class StackProgram:
    """A compiled expression (``CEsComp``)."""

    instructions: list[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    # -- serialization (the deep copy that crosses the enclave boundary) ----

    def serialize(self) -> bytes:
        out = bytearray()
        out += struct.pack(">I", len(self.instructions))
        for ins in self.instructions:
            out.append(ins.opcode.value)
            out += _serialize_operand(ins)
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "StackProgram":
        if len(data) < 4:
            raise SqlError("truncated stack program")
        (count,) = struct.unpack_from(">I", data, 0)
        offset = 4
        instructions: list[Instruction] = []
        for __ in range(count):
            if offset >= len(data):
                raise SqlError("truncated stack program")
            opcode = Opcode(data[offset])
            offset += 1
            operand, offset = _deserialize_operand(opcode, data, offset)
            instructions.append(Instruction(opcode, operand))
        if offset != len(data):
            raise SqlError("trailing bytes after stack program")
        return cls(instructions)


# ---------------------------------------------------------------------------
# Operand (de)serialization
# ---------------------------------------------------------------------------

_NULL_MARKER = b"\x00"
_VALUE_MARKER = b"\x01"


def _serialize_enc_info(enc: EncryptionInfo | None) -> bytes:
    if enc is None:
        return b"\x00"
    name = enc.cek_name.encode("utf-8")
    scheme = 1 if enc.scheme is EncryptionScheme.DETERMINISTIC else 2
    flags = 1 if enc.enclave_enabled else 0
    return b"\x01" + bytes([scheme, flags]) + struct.pack(">H", len(name)) + name


def _deserialize_enc_info(data: bytes, offset: int) -> tuple[EncryptionInfo | None, int]:
    present = data[offset]
    offset += 1
    if present == 0:
        return None, offset
    scheme_byte, flags = data[offset], data[offset + 1]
    offset += 2
    (name_len,) = struct.unpack_from(">H", data, offset)
    offset += 2
    name = data[offset : offset + name_len].decode("utf-8")
    offset += name_len
    scheme = (
        EncryptionScheme.DETERMINISTIC if scheme_byte == 1 else EncryptionScheme.RANDOMIZED
    )
    return EncryptionInfo(scheme=scheme, cek_name=name, enclave_enabled=flags == 1), offset


def _serialize_value_operand(value: SqlScalar) -> bytes:
    if value is None:
        return _NULL_MARKER
    blob = serialize_value(value)
    return _VALUE_MARKER + struct.pack(">I", len(blob)) + blob


def _deserialize_value_operand(data: bytes, offset: int) -> tuple[SqlScalar, int]:
    marker = data[offset]
    offset += 1
    if marker == 0:
        return None, offset
    (length,) = struct.unpack_from(">I", data, offset)
    offset += 4
    value = deserialize_value(data[offset : offset + length])
    return value, offset + length


def _serialize_operand(ins: Instruction) -> bytes:
    opcode = ins.opcode
    if opcode in (Opcode.GET_DATA, Opcode.SET_DATA):
        slot, enc = ins.operand  # type: ignore[misc]
        return struct.pack(">H", slot) + _serialize_enc_info(enc)
    if opcode is Opcode.PUSH_CONST:
        return _serialize_value_operand(ins.operand)  # type: ignore[arg-type]
    if opcode in (Opcode.COMP, Opcode.ARITH):
        name = str(ins.operand).encode("utf-8")
        return bytes([len(name)]) + name
    if opcode is Opcode.IS_NULL:
        return b"\x01" if ins.operand else b"\x00"
    if opcode is Opcode.TM_EVAL:
        blob, n_inputs = ins.operand  # type: ignore[misc]
        return struct.pack(">IH", len(blob), n_inputs) + blob
    return b""


def _deserialize_operand(opcode: Opcode, data: bytes, offset: int) -> tuple[object, int]:
    if opcode in (Opcode.GET_DATA, Opcode.SET_DATA):
        (slot,) = struct.unpack_from(">H", data, offset)
        enc, offset = _deserialize_enc_info(data, offset + 2)
        return (slot, enc), offset
    if opcode is Opcode.PUSH_CONST:
        return _deserialize_value_operand(data, offset)
    if opcode in (Opcode.COMP, Opcode.ARITH):
        length = data[offset]
        offset += 1
        name = data[offset : offset + length].decode("utf-8")
        return name, offset + length
    if opcode is Opcode.IS_NULL:
        return data[offset] == 1, offset + 1
    if opcode is Opcode.TM_EVAL:
        blob_len, n_inputs = struct.unpack_from(">IH", data, offset)
        offset += 6
        blob = data[offset : offset + blob_len]
        return (blob, n_inputs), offset + blob_len
    return None, offset


__all__ = ["Instruction", "Opcode", "StackProgram"]
