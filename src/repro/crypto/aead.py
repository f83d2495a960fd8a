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

:meth:`CellCipher.decrypt_many` opens many cells under one key at once. Its
one pass over the batch parses each envelope and checks its MAC, computed
from copies of the MAC key's hashed inner and outer SHA-256 states (the
bytes of ``_compute_mac``) and compared with :func:`hmac.compare_digest`.
The MAC-valid bodies then go through
:meth:`~repro.crypto.aes.AES.decrypt_blocks` as one byte-sliced batch (CBC
decryption of independent blocks is parallel), and each is unpadded once.
A malformed or forged envelope gets the error :meth:`CellCipher.decrypt`
would raise. A batch under ``BATCH_MIN_BLOCKS`` blocks is a loop over
:meth:`CellCipher.decrypt`.
"""

from __future__ import annotations

import enum
import hmac
import secrets
from typing import Callable, Sequence

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.kdf import HmacSha256, constant_time_equal, derive_key
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad
from repro.errors import CryptoError, IntegrityError

ALGORITHM_NAME = "AEAD_AES_256_CBC_HMAC_SHA_256"
ALGORITHM_VERSION = 0x01
MAC_SIZE = 32
KEY_SIZE = 32
#: Fewest blocks of bodies :meth:`CellCipher.decrypt_many` opens as one batch:
#: past the kernel's break-even (about 6), and between the benchmark's small
#: result columns (1-2 blocks) and its scan chunks and columns (64 and up).
BATCH_MIN_BLOCKS = 8

_VERSION = bytes([ALGORITHM_VERSION])
_IV_OFFSET = 1 + MAC_SIZE
_BODY_OFFSET = _IV_OFFSET + BLOCK_SIZE
_MIN_ENVELOPE = _BODY_OFFSET + BLOCK_SIZE
_MAC_TAIL = b"\x01"  # the version's size, last of the MAC's input
_MAC_FAILED = "cell MAC verification failed (tampered or wrong key)"

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

    Instances are immutable: derived keys, the AES schedule and the MAC
    and IV keys' HMAC states are computed once, so repeated cell operations
    (the inner loop of query processing) avoid per-call key expansion.
    """

    def __init__(self, root_key: bytes):
        if len(root_key) != KEY_SIZE:
            raise CryptoError(f"CEK root key must be {KEY_SIZE} bytes, got {len(root_key)}")
        self._aes = AES(derive_key(root_key, _ENC_KEY_SALT))
        self._mac = HmacSha256(derive_key(root_key, _MAC_KEY_SALT))
        self._iv = HmacSha256(derive_key(root_key, _IV_KEY_SALT))

    # -- public API ---------------------------------------------------------

    def encrypt(self, plaintext: bytes, scheme: EncryptionScheme) -> bytes:
        """Encrypt a serialized cell value, returning the full envelope."""
        if scheme is EncryptionScheme.DETERMINISTIC:
            iv = self._iv.digest(plaintext)[:BLOCK_SIZE]
        else:
            iv = secrets.token_bytes(BLOCK_SIZE)
        body = cbc_encrypt(self._aes, iv, pkcs7_pad(plaintext))
        mac = self._compute_mac(iv, body)
        return b"".join((_VERSION, mac, iv, body))

    def decrypt(self, envelope: bytes) -> bytes:
        """Decrypt a cell envelope, verifying version and MAC first."""
        iv, body = self._authenticate(envelope)
        return pkcs7_unpad(cbc_decrypt(self._aes, iv, body))

    def decrypt_many(self, envelopes: Sequence[bytes]) -> list[bytes | CryptoError]:
        """Per envelope, in order, what :meth:`decrypt` returns or raises."""
        if sum(map(len, envelopes)) - len(envelopes) * _BODY_OFFSET < BATCH_MIN_BLOCKS * BLOCK_SIZE:
            return [_or_error(self.decrypt, envelope) for envelope in envelopes]
        inner, outer = self._mac.inner, self._mac.outer
        opened: list = []  # the error, or the body length until it is unpadded
        bodies, chains = [], []  # chains: what each block is xored with (IV, then its predecessor)
        for envelope in envelopes:
            size = len(envelope)
            if size < _MIN_ENVELOPE or envelope[0] != ALGORITHM_VERSION or (size - _BODY_OFFSET) % BLOCK_SIZE:
                opened.append(_or_error(self._parse, envelope))
                continue
            # _compute_mac's bytes, from the MAC key's hashed pads.
            mac = inner.copy()
            mac.update(_VERSION)
            mac.update(envelope[_IV_OFFSET:])
            mac.update(_MAC_TAIL)
            tag = outer.copy()
            tag.update(mac.digest())
            if not hmac.compare_digest(tag.digest(), envelope[1:_IV_OFFSET]):
                opened.append(IntegrityError(_MAC_FAILED))
                continue
            opened.append(size - _BODY_OFFSET)
            bodies.append(envelope[_BODY_OFFSET:])
            chains.append(envelope[_IV_OFFSET:-BLOCK_SIZE])
        data = b"".join(bodies)
        padded = (
            int.from_bytes(self._aes.decrypt_blocks(data), "big")
            ^ int.from_bytes(b"".join(chains), "big")
        ).to_bytes(len(data), "big")
        offset = 0
        for i, length in enumerate(opened):
            if isinstance(length, int):
                try:
                    opened[i] = pkcs7_unpad(padded[offset : offset + length])
                except CryptoError as exc:
                    opened[i] = exc
                offset += length
        return opened

    def verify(self, envelope: bytes) -> bool:
        """Check the envelope's MAC without decrypting; never raises on bad MACs."""
        return not isinstance(_or_error(self._authenticate, envelope), CryptoError)

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _parse(envelope: bytes) -> tuple[bytes, bytes, bytes]:
        """Split an envelope into ``(mac, iv, body)`` after the length checks."""
        if len(envelope) < _MIN_ENVELOPE:
            raise CryptoError(f"cell envelope too short: {len(envelope)} < {_MIN_ENVELOPE} bytes")
        if envelope[0] != ALGORITHM_VERSION:
            raise CryptoError(f"unsupported cell algorithm version {envelope[0]:#x}")
        if (len(envelope) - _BODY_OFFSET) % BLOCK_SIZE != 0:
            raise CryptoError("cell ciphertext body is not block-aligned")
        return envelope[1:_IV_OFFSET], envelope[_IV_OFFSET:_BODY_OFFSET], envelope[_BODY_OFFSET:]

    def _authenticate(self, envelope: bytes) -> tuple[bytes, bytes]:
        """``(iv, body)`` of an envelope whose MAC checks out."""
        mac, iv, body = self._parse(envelope)
        if not constant_time_equal(self._compute_mac(iv, body), mac):
            raise IntegrityError(_MAC_FAILED)
        return iv, body

    def _compute_mac(self, iv: bytes, body: bytes) -> bytes:
        return self._mac.digest(b"".join((_VERSION, iv, body, _MAC_TAIL)))


def _or_error(function: Callable[[bytes], object], argument: bytes) -> object:
    try:
        return function(argument)
    except CryptoError as exc:
        return exc


def generate_cek_material() -> bytes:
    """Generate fresh 32-byte CEK root key material."""
    return secrets.token_bytes(KEY_SIZE)
