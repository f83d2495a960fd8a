"""AEAD_AES_256_CBC_HMAC_SHA_256 — the cell-encryption algorithm of AE.

This is the algorithm named in the paper's DDL (Figure 1) and described in
Section 2.3. A 32-byte column encryption key (CEK) is the root key; from it
we derive an AES-256 encryption key, an HMAC key, and (for deterministic
encryption) an IV key. The serialized ciphertext layout is::

    version (1 byte) || MAC (32 bytes) || IV (16 bytes) || AES-CBC ciphertext

* **Randomized (RND)** encryption draws a fresh random IV per cell, giving
  IND-CPA security: encrypting the same plaintext twice yields different
  ciphertexts.
* **Deterministic (DET)** encryption derives the IV as a truncated
  HMAC-SHA-256 of the plaintext under the IV key. As the paper notes, this
  preserves equality at the level of the *whole value* (unlike ECB, which
  would leak equality of individual 16-byte blocks), enabling point lookups,
  equi-joins, and equality grouping directly on ciphertext.

Both modes carry an HMAC over (version || IV || ciphertext || version-size).
The paper uses this as a usability feature — clients can distinguish
legitimate ciphertext from garbage — not as an integrity guarantee for the
overall system.
"""

from __future__ import annotations

import enum
import secrets

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.kdf import constant_time_equal, derive_key, hmac_sha256
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad
from repro.errors import CryptoError, IntegrityError

ALGORITHM_NAME = "AEAD_AES_256_CBC_HMAC_SHA_256"
ALGORITHM_VERSION = 0x01
MAC_SIZE = 32
KEY_SIZE = 32

_VERSION = bytes([ALGORITHM_VERSION])
_IV_OFFSET = 1 + MAC_SIZE
_BODY_OFFSET = _IV_OFFSET + BLOCK_SIZE

_ENC_KEY_SALT = (
    "Microsoft SQL Server cell encryption key with encryption algorithm:"
    f"{ALGORITHM_NAME} and key length:256"
)
_MAC_KEY_SALT = (
    "Microsoft SQL Server cell MAC key with encryption algorithm:"
    f"{ALGORITHM_NAME} and key length:256"
)
_IV_KEY_SALT = (
    "Microsoft SQL Server cell IV key with encryption algorithm:"
    f"{ALGORITHM_NAME} and key length:256"
)


class EncryptionScheme(enum.Enum):
    """The two cell-encryption schemes of Always Encrypted (Section 2.3)."""

    DETERMINISTIC = "Deterministic"
    RANDOMIZED = "Randomized"

    @property
    def short_name(self) -> str:
        return "DET" if self is EncryptionScheme.DETERMINISTIC else "RND"


class CellCipher:
    """Encrypts and decrypts individual cell values under one CEK.

    Instances are immutable: derived keys and the AES schedule are computed
    once, so repeated cell operations (the inner loop of query processing)
    avoid per-call key expansion.
    """

    def __init__(self, root_key: bytes):
        if len(root_key) != KEY_SIZE:
            raise CryptoError(f"CEK root key must be {KEY_SIZE} bytes, got {len(root_key)}")
        self._enc_key = derive_key(root_key, _ENC_KEY_SALT)
        self._mac_key = derive_key(root_key, _MAC_KEY_SALT)
        self._iv_key = derive_key(root_key, _IV_KEY_SALT)
        self._aes = AES(self._enc_key)

    # -- public API ---------------------------------------------------------

    def encrypt(self, plaintext: bytes, scheme: EncryptionScheme) -> bytes:
        """Encrypt a serialized cell value, returning the full envelope."""
        if scheme is EncryptionScheme.DETERMINISTIC:
            iv = hmac_sha256(self._iv_key, plaintext)[:BLOCK_SIZE]
        else:
            iv = secrets.token_bytes(BLOCK_SIZE)
        body = cbc_encrypt(self._aes, iv, pkcs7_pad(plaintext))
        mac = self._compute_mac(iv, body)
        return b"".join((_VERSION, mac, iv, body))

    def decrypt(self, envelope: bytes) -> bytes:
        """Decrypt a cell envelope, verifying version and MAC first."""
        mac, iv, body = self._parse(envelope)
        if not constant_time_equal(self._compute_mac(iv, body), mac):
            raise IntegrityError("cell MAC verification failed (tampered or wrong key)")
        return pkcs7_unpad(cbc_decrypt(self._aes, iv, body))

    def verify(self, envelope: bytes) -> bool:
        """Check the envelope's MAC without decrypting; never raises on bad MACs."""
        try:
            mac, iv, body = self._parse(envelope)
        except CryptoError:
            return False
        return constant_time_equal(self._compute_mac(iv, body), mac)

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _parse(envelope: bytes) -> tuple[bytes, bytes, bytes]:
        """Split an envelope into ``(mac, iv, body)`` after the length checks."""
        minimum = _BODY_OFFSET + BLOCK_SIZE
        if len(envelope) < minimum:
            raise CryptoError(f"cell envelope too short: {len(envelope)} < {minimum} bytes")
        if envelope[0] != ALGORITHM_VERSION:
            raise CryptoError(f"unsupported cell algorithm version {envelope[0]:#x}")
        if (len(envelope) - _BODY_OFFSET) % BLOCK_SIZE != 0:
            raise CryptoError("cell ciphertext body is not block-aligned")
        return envelope[1:_IV_OFFSET], envelope[_IV_OFFSET:_BODY_OFFSET], envelope[_BODY_OFFSET:]

    def _compute_mac(self, iv: bytes, body: bytes) -> bytes:
        return hmac_sha256(self._mac_key, b"".join((_VERSION, iv, body, b"\x01")))


def generate_cek_material() -> bytes:
    """Generate fresh 32-byte CEK root key material."""
    return secrets.token_bytes(KEY_SIZE)
