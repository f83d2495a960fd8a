"""Block-cipher modes of operation: CBC with PKCS#7 padding.

Always Encrypted's cell encryption (both DET and RND, Section 2.3 of the
paper) is AES in CBC mode; the schemes differ only in how the IV is chosen.
"""

from __future__ import annotations

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.errors import CryptoError


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` per PKCS#7."""
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Remove PKCS#7 padding, validating its structure."""
    if not data or len(data) % block_size != 0:
        raise CryptoError("padded data length is not a multiple of the block size")
    pad_len = data[-1]
    if pad_len < 1 or pad_len > block_size:
        raise CryptoError("invalid PKCS#7 padding length")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise CryptoError("invalid PKCS#7 padding bytes")
    return data[:-pad_len]


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt ``plaintext`` (already padded) under ``cipher``."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if len(plaintext) % BLOCK_SIZE != 0:
        raise CryptoError("CBC plaintext must be block-aligned; pad it first")
    encrypt = cipher.encrypt_state
    out = []
    prev = int.from_bytes(iv, "big")
    for offset in range(0, len(plaintext), BLOCK_SIZE):
        prev = encrypt(int.from_bytes(plaintext[offset : offset + BLOCK_SIZE], "big") ^ prev)
        out.append(prev.to_bytes(BLOCK_SIZE, "big"))
    return b"".join(out)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt ``ciphertext``; the caller removes padding."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE != 0:
        raise CryptoError("CBC ciphertext must be a non-empty multiple of 16 bytes")
    decrypt = cipher.decrypt_state
    out = []
    prev = int.from_bytes(iv, "big")
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = int.from_bytes(ciphertext[offset : offset + BLOCK_SIZE], "big")
        out.append((decrypt(block) ^ prev).to_bytes(BLOCK_SIZE, "big"))
        prev = block
    return b"".join(out)
