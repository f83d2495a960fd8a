"""Row (record) serialization for on-page storage.

A stored row is a sequence of cells, each either NULL, a plaintext scalar,
or an opaque ciphertext envelope. The record format tags each cell so the
engine can move rows without consulting the schema — which is also what
makes the strong adversary's view of disk pages realistic: ciphertext
cells appear as opaque blobs, plaintext cells are readable.
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
