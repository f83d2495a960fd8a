"""Runtime representation of encrypted cells.

An encrypted cell travels through the engine as an opaque
:class:`Ciphertext` — storage, the buffer pool, the log, indexes, and the
wire all move it without interpreting it, which is precisely the
architectural observation the paper builds on (most of a database engine
moves values; only expression services computes on them).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Ciphertext:
    """An AEAD_AES_256_CBC_HMAC_SHA_256 cell envelope, opaque to the host."""

    envelope: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.envelope, bytes):
            if not isinstance(self.envelope, (bytearray, memoryview)):
                # bytes(n) would allocate n zero bytes: an integer arriving
                # off the wire in the envelope's place must not size a buffer.
                raise TypeError(f"envelope must be bytes, not {type(self.envelope).__name__}")
            object.__setattr__(self, "envelope", bytes(self.envelope))

    def __len__(self) -> int:
        return len(self.envelope)

    def __repr__(self) -> str:
        return f"Ciphertext(0x{self.envelope[:6].hex()}…, {len(self.envelope)}B)"


CellValue = object  # SqlScalar | Ciphertext | None — runtime cell contents.
