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
