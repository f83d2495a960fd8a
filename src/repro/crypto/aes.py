"""AES block cipher implemented from scratch (FIPS 197).

The cell-encryption algorithm the paper names
(AEAD_AES_256_CBC_HMAC_SHA_256) is built on this implementation. Pure
Python is the reference by choice, not for want of a library: it keeps
the repository free of any crypto dependency (``pyproject.toml`` declares
numpy and scipy only) and its per-cell cost in plain view of the
benchmark. ``cryptography`` does import on the development host; offering
it as an optional backend behind ``CellCipher`` is ROADMAP items 3 and 5 —
the choice has to be recorded in the benchmark's ``host`` block before
numbers made with it mean anything. Correctness is pinned to the
FIPS 197 / NIST SP 800-38A vectors in ``tests/crypto/test_aes.py``.

The implementation is table-driven: the S-box is derived from the GF(2^8)
multiplicative inverse and the affine transform at import time, and four
encryption T-tables (and four decryption tables) are precomputed so each
round is eight table lookups and xors per column. This is the classic
software AES construction and is the fastest approach available in pure
Python.
"""

from __future__ import annotations

from repro.errors import CryptoError

BLOCK_SIZE = 16

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and S-box construction
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    # Multiplicative inverses via exponentiation tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(a: int) -> int:
        if a == 0:
            return 0
        return exp[255 - log[a]]

    sbox = [0] * 256
    inv_sbox = [0] * 256
    for value in range(256):
        b = inverse(value)
        s = b
        for __ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            s ^= b
        s ^= 0x63
        sbox[value] = s
        inv_sbox[s] = value
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()


def _build_enc_tables() -> list[list[int]]:
    t0 = [0] * 256
    for value in range(256):
        s = SBOX[value]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        t0[value] = (s2 << 24) | (s << 16) | (s << 8) | s3
    tables = [t0]
    for shift in (8, 16, 24):
        tables.append([((w >> shift) | (w << (32 - shift))) & 0xFFFFFFFF for w in t0])
    return tables


def _build_dec_tables() -> list[list[int]]:
    d0 = [0] * 256
    for value in range(256):
        s = INV_SBOX[value]
        d0[value] = (
            (_gf_mul(s, 14) << 24)
            | (_gf_mul(s, 9) << 16)
            | (_gf_mul(s, 13) << 8)
            | _gf_mul(s, 11)
        )
    tables = [d0]
    for shift in (8, 16, 24):
        tables.append([((w >> shift) | (w << (32 - shift))) & 0xFFFFFFFF for w in d0])
    return tables


TE0, TE1, TE2, TE3 = _build_enc_tables()
TD0, TD1, TD2, TD3 = _build_dec_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB]


class AES:
    """An AES cipher with a fixed key, usable for 128/192/256-bit keys.

    Instances are immutable and safe to share across threads; all state is
    computed in ``__init__``.
    """

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16, 24, or 32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        self._dec_round_keys = self._expand_decryption_key()

    # -- key schedule -------------------------------------------------------

    def _expand_key(self, key: bytes) -> list[int]:
        nk = len(key) // 4
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        total = 4 * (self.rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def _expand_decryption_key(self) -> list[int]:
        # Equivalent inverse cipher: round keys in reverse round order with
        # InvMixColumns applied to the middle rounds.
        rk = self._round_keys
        out: list[int] = []
        for rnd in range(self.rounds, -1, -1):
            for col in range(4):
                w = rk[4 * rnd + col]
                if 0 < rnd < self.rounds:
                    w = (
                        TD0[SBOX[(w >> 24) & 0xFF]]
                        ^ TD1[SBOX[(w >> 16) & 0xFF]]
                        ^ TD2[SBOX[(w >> 8) & 0xFF]]
                        ^ TD3[SBOX[w & 0xFF]]
                    )
                out.append(w)
        return out

    # -- block operations ---------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        rk = self._round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        i = 4
        for __ in range(self.rounds - 1):
            t0 = (
                TE0[(s0 >> 24) & 0xFF]
                ^ TE1[(s1 >> 16) & 0xFF]
                ^ TE2[(s2 >> 8) & 0xFF]
                ^ TE3[s3 & 0xFF]
                ^ rk[i]
            )
            t1 = (
                TE0[(s1 >> 24) & 0xFF]
                ^ TE1[(s2 >> 16) & 0xFF]
                ^ TE2[(s3 >> 8) & 0xFF]
                ^ TE3[s0 & 0xFF]
                ^ rk[i + 1]
            )
            t2 = (
                TE0[(s2 >> 24) & 0xFF]
                ^ TE1[(s3 >> 16) & 0xFF]
                ^ TE2[(s0 >> 8) & 0xFF]
                ^ TE3[s1 & 0xFF]
                ^ rk[i + 2]
            )
            t3 = (
                TE0[(s3 >> 24) & 0xFF]
                ^ TE1[(s0 >> 16) & 0xFF]
                ^ TE2[(s1 >> 8) & 0xFF]
                ^ TE3[s2 & 0xFF]
                ^ rk[i + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            i += 4
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        out = bytearray(16)
        for col, (a, b, c, d) in enumerate(
            ((s0, s1, s2, s3), (s1, s2, s3, s0), (s2, s3, s0, s1), (s3, s0, s1, s2))
        ):
            w = (
                (SBOX[(a >> 24) & 0xFF] << 24)
                | (SBOX[(b >> 16) & 0xFF] << 16)
                | (SBOX[(c >> 8) & 0xFF] << 8)
                | SBOX[d & 0xFF]
            ) ^ rk[i + col]
            out[4 * col : 4 * col + 4] = w.to_bytes(4, "big")
        return bytes(out)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        rk = self._dec_round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        i = 4
        for __ in range(self.rounds - 1):
            t0 = (
                TD0[(s0 >> 24) & 0xFF]
                ^ TD1[(s3 >> 16) & 0xFF]
                ^ TD2[(s2 >> 8) & 0xFF]
                ^ TD3[s1 & 0xFF]
                ^ rk[i]
            )
            t1 = (
                TD0[(s1 >> 24) & 0xFF]
                ^ TD1[(s0 >> 16) & 0xFF]
                ^ TD2[(s3 >> 8) & 0xFF]
                ^ TD3[s2 & 0xFF]
                ^ rk[i + 1]
            )
            t2 = (
                TD0[(s2 >> 24) & 0xFF]
                ^ TD1[(s1 >> 16) & 0xFF]
                ^ TD2[(s0 >> 8) & 0xFF]
                ^ TD3[s3 & 0xFF]
                ^ rk[i + 2]
            )
            t3 = (
                TD0[(s3 >> 24) & 0xFF]
                ^ TD1[(s2 >> 16) & 0xFF]
                ^ TD2[(s1 >> 8) & 0xFF]
                ^ TD3[s0 & 0xFF]
                ^ rk[i + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            i += 4
        out = bytearray(16)
        for col, (a, b, c, d) in enumerate(
            ((s0, s3, s2, s1), (s1, s0, s3, s2), (s2, s1, s0, s3), (s3, s2, s1, s0))
        ):
            w = (
                (INV_SBOX[(a >> 24) & 0xFF] << 24)
                | (INV_SBOX[(b >> 16) & 0xFF] << 16)
                | (INV_SBOX[(c >> 8) & 0xFF] << 8)
                | INV_SBOX[d & 0xFF]
            ) ^ rk[i + col]
            out[4 * col : 4 * col + 4] = w.to_bytes(4, "big")
        return bytes(out)
