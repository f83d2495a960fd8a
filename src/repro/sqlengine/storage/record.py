"""Row (record) serialization for on-page storage.

A stored row is a sequence of cells, each either NULL, a plaintext scalar,
or an opaque ciphertext envelope. The record format tags each cell so the
engine can move rows without consulting the schema — which is also what
makes the strong adversary's view of disk pages realistic: ciphertext
cells appear as opaque blobs, plaintext cells are readable. The engine
writes through a :class:`RowCodec`, which checks a row as it encodes it.
"""

from __future__ import annotations

import struct

from repro.errors import SqlError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.values import deserialize_value, serialize_value

_CELL_NULL = 0
_CELL_PLAIN = 1
_CELL_CIPHER = 2

#: The exact cell types decoding produces.
_DECODED_TYPES = frozenset({type(None), bool, int, float, str, bytes, Ciphertext})

def serialize_row(row: tuple) -> bytes:
    """Serialize a row of cell values to bytes."""
    out = bytearray()
    out += struct.pack(">H", len(row))
    for cell in row:
        if cell is None:
            out.append(_CELL_NULL)
        elif isinstance(cell, Ciphertext):
            out.append(_CELL_CIPHER)
            out += struct.pack(">I", len(cell.envelope))
            out += cell.envelope
        else:
            blob = serialize_value(cell)
            out.append(_CELL_PLAIN)
            out += struct.pack(">I", len(blob))
            out += blob
    return bytes(out)


def is_decoded_form(row: object) -> bool:
    """Whether ``row`` is, type for type, what decoding its record returns.
    A row the engine accepts need not be: VARBINARY takes a ``bytearray``,
    which decodes to ``bytes``."""
    return type(row) is tuple and _DECODED_TYPES.issuperset(map(type, row))


def deserialize_row(data: bytes) -> tuple:
    """Invert :func:`serialize_row`."""
    try:
        (arity,) = struct.unpack_from(">H", data, 0)
        offset = 2
        cells: list[object] = []
        for __ in range(arity):
            tag = data[offset]
            offset += 1
            if tag == _CELL_NULL:
                cells.append(None)
                continue
            (length,) = struct.unpack_from(">I", data, offset)
            offset += 4
            blob = data[offset : offset + length]
            offset += length
            if tag == _CELL_PLAIN:
                cells.append(deserialize_value(blob))
            elif tag == _CELL_CIPHER:
                cells.append(Ciphertext(blob))
            else:
                raise SqlError(f"unknown cell tag {tag}")
    except struct.error as exc:
        raise SqlError(f"malformed stored record: {exc}") from exc
    return tuple(cells)


_LENGTH = struct.Struct(">I").pack
_INT64 = struct.Struct(">q").pack   # struct.error outside 64 bits, where serialize_value refuses
_DOUBLE = struct.Struct(">d").pack
# What serialize_row writes before the value bytes of a cell.
_NULL, _CIPHER, _PLAIN = bytes([_CELL_NULL]), bytes([_CELL_CIPHER]), bytes([_CELL_PLAIN])
_INT_HEAD, _FLOAT_HEAD = serialize_row((0,))[2:-8], serialize_row((0.0,))[2:-8]
_STR_TAG = serialize_value("")


def _column_encoders(column) -> dict:
    """The exact cell types ``column`` takes, each to its cell encoder."""
    base, length = column.column_type.sql_type.base, column.column_type.sql_type.length
    encoders: dict = {type(None): lambda cell: _NULL} if column.nullable else {}
    if column.is_encrypted:
        encoders[Ciphertext] = lambda cell: _CIPHER + _LENGTH(len(cell.envelope)) + cell.envelope
    elif base in ("INT", "BIGINT", "FLOAT"):
        encoders[int] = lambda cell: _INT_HEAD + _INT64(cell)
        if base == "FLOAT":
            encoders[float] = lambda cell: _FLOAT_HEAD + _DOUBLE(cell)
    elif base in ("VARCHAR", "CHAR"):

        def string(cell: str) -> bytes:
            if length is not None and len(cell) > length:
                raise ValueError("over the column's length")
            blob = _STR_TAG + cell.encode("utf-8")
            return _PLAIN + _LENGTH(len(blob)) + blob

        encoders[str] = string
    return encoders


class RowCodec:
    """Checks and encodes rows of one schema in one pass: ``encode(row)`` is
    ``serialize_row(row)`` for a row the engine's full check accepts. It
    covers ``int`` (INT, BIGINT, FLOAT; 64 bits), ``float`` (FLOAT), ``str``
    within the length (VARCHAR, CHAR), ``Ciphertext`` (encrypted) and
    ``None`` (nullable); for any other cell or arity it returns None, and
    the full check runs: every error and the initial-encryption window."""

    def __init__(self, columns) -> None:
        self._head = struct.pack(">H", len(columns))
        self._columns = [_column_encoders(column) for column in columns]

    def encode(self, row: tuple) -> bytes | None:
        if len(row) != len(self._columns):
            return None
        try:
            cells = [encoders[type(cell)](cell) for encoders, cell in zip(self._columns, row)]
        except (KeyError, ValueError, struct.error):   # UnicodeEncodeError is a ValueError
            return None
        return self._head + b"".join(cells)
