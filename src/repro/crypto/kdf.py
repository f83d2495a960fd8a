"""Key derivation helpers (HMAC-SHA-256 based).

AEAD_AES_256_CBC_HMAC_SHA_256 derives three sub-keys from the 32-byte column
encryption key so that the encryption, MAC, and deterministic-IV functions
never share key material directly.
"""

from __future__ import annotations

import hashlib
import hmac


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 of ``data`` under ``key``."""
    return hmac.digest(key, data, "sha256")


_BLOCK = 64  # SHA-256's input block: the width of HMAC's padded key
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


class HmacSha256:
    """HMAC-SHA-256 under one fixed key (RFC 2104): the inner and outer
    SHA-256 states of the padded key are hashed once, here, and each
    :meth:`digest` copies them. The bytes are :func:`hmac_sha256`'s.

    ``inner`` and ``outer`` are those states, for a caller that feeds the
    inner hash in pieces: copy them, never update them."""

    __slots__ = ("inner", "outer")

    def __init__(self, key: bytes):
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\x00")
        self.inner = hashlib.sha256(key.translate(_INNER_PAD))
        self.outer = hashlib.sha256(key.translate(_OUTER_PAD))

    def digest(self, data: bytes) -> bytes:
        inner = self.inner.copy()
        inner.update(data)
        outer = self.outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def derive_key(root_key: bytes, label: str) -> bytes:
    """Derive a 32-byte sub-key from ``root_key`` for the given label.

    Matches the production scheme's approach of HMACing a UTF-16LE salt
    string describing the key's purpose, algorithm, and length.
    """
    return hmac_sha256(root_key, label.encode("utf-16-le"))


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe byte comparison for MAC verification."""
    return hmac.compare_digest(a, b)
