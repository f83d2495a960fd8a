"""AES block cipher implemented from scratch (FIPS 197).

The cell-encryption algorithm the paper names
(AEAD_AES_256_CBC_HMAC_SHA_256) is built on this implementation. Pure
Python is the reference by choice, not for want of a library: it keeps
``src/`` free of any dependency (``pyproject.toml`` declares none) and
the per-cell cost in plain view of the benchmark. ``cryptography`` does
import on the development host and ``tests/crypto`` cross-checks against
it where it does; offering it as a backend behind ``CellCipher`` is
parked on the ROADMAP until item 6(e) records the AES backend in the
benchmark's ``host`` block. Correctness is pinned to the FIPS 197 / NIST
SP 800-38A vectors and a byte-wise reference cipher in ``tests/crypto/``.

The state is one 128-bit integer, big-endian over the block's 16 bytes
(byte ``4 * column + row``). The S-box is derived from the GF(2^8) inverse
and the affine transform at import time; from it come sixteen tables per
direction, one per state byte, whose entries are the classic T-table word
(SubBytes and MixColumns of that byte) already shifted to the column that
ShiftRows sends it to. A middle round is therefore sixteen lookups xored
with one 128-bit round key; the last round, which has no MixColumns, is
``bytes.translate`` for SubBytes and a strided slice for ShiftRows.
Decryption is the equivalent inverse cipher (FIPS 197 section 5.3.5): the
same kernel over the inverse tables and a transformed key schedule.

Many independent blocks (cells under one key; CBC chaining is a later
xor) decrypt as one byte-sliced state (:meth:`AES.decrypt_blocks`):
segment ``k`` holds one byte position of every block, InvShiftRows
permutes segments, and InvSubBytes with each InvMixColumns coefficient is
one ``bytes.translate``, so a round costs the same few operations however
many blocks there are. :class:`~repro.crypto.aead.CellCipher` picks a path.
"""

from __future__ import annotations

from repro.errors import CryptoError

BLOCK_SIZE = 16

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic, S-box and round tables
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


def _build_sbox() -> tuple[bytes, bytes]:
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
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

# ShiftRows as a stride: byte j of the shifted state is byte (5 * j) % 16 of
# the input, i.e. ``(state * 5)[::5]``. InvShiftRows is the inverse stride
# (5 * 13 = 65 = 1 mod 16).
_SHIFT_ROWS, _INV_SHIFT_ROWS = 5, 13


def _build_tables(sbox: bytes, coefficients: tuple[int, int, int, int], stride: int):
    """Sixteen 256-entry tables: state byte ``i`` -> its share of the next state.

    ``coefficients`` is the first column of the (Inv)MixColumns matrix; a
    byte in row ``r`` meets it rotated down by ``r``. ``stride`` is the row
    shift, which decides the column the byte's word lands in.
    """
    words = [
        [
            int.from_bytes(bytes(_gf_mul(s, coefficients[(out - row) % 4]) for out in range(4)), "big")
            for s in sbox
        ]
        for row in range(4)
    ]
    unstride = pow(stride, -1, 16)      # input byte i becomes output byte i * unstride
    tables = []
    for i in range(16):
        column = (i * unstride % 16) // 4
        tables.append([word << 32 * (3 - column) for word in words[i % 4]])
    return tuple(tables)


_ENC_TABLES = _build_tables(SBOX, (2, 1, 1, 3), _SHIFT_ROWS)
_DEC_TABLES = _build_tables(INV_SBOX, (14, 9, 13, 11), _INV_SHIFT_ROWS)

# The byte-sliced kernel's InvSubBytes with each InvMixColumns coefficient
# (the k-th meets the row k below), and its segments in row-major order.
_INV_MIX_TABLES = tuple(bytes(_gf_mul(s, c) for s in INV_SBOX) for c in (14, 11, 13, 9))
_SLICE_ORDER = tuple(4 * column + row for row in range(4) for column in range(4))

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB]


def _sub_word(word: int) -> int:
    return int.from_bytes(word.to_bytes(4, "big").translate(SBOX), "big")


def _cipher(state: int, keys: tuple[int, ...], tables, sbox: bytes, stride: int) -> int:
    """The one block kernel: either direction is a choice of arguments."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = tables
    s = (state ^ keys[0]).to_bytes(16, "big")
    for key in keys[1:-1]:
        a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = s
        s = (
            t0[a] ^ t1[b] ^ t2[c] ^ t3[d] ^ t4[e] ^ t5[f] ^ t6[g] ^ t7[h]
            ^ t8[i] ^ t9[j] ^ t10[k] ^ t11[l] ^ t12[m] ^ t13[n] ^ t14[o] ^ t15[p]
            ^ key
        ).to_bytes(16, "big")
    # Last round: SubBytes, ShiftRows, AddRoundKey (no MixColumns).
    return int.from_bytes((s.translate(sbox) * stride)[::stride], "big") ^ keys[-1]


def _decrypt_sliced(data: bytes, keys: tuple[bytes, ...]) -> bytes:
    """Decrypt ``n`` independent blocks as one state whose segment ``k``
    (bytes ``k * n`` on) holds byte ``_SLICE_ORDER[k]`` of every block.
    InvShiftRows lays the rows out twice, so row ``k`` below starts ``k``
    rows on; ``translate`` spreads each (256-byte padded) round key."""
    size, n = len(data), len(data) // BLOCK_SIZE
    row = 4 * n
    segments = b"".join([bytes([j]) * n for j in _SLICE_ORDER])
    spread = [int.from_bytes(segments.translate(key), "big") for key in keys]
    cuts = [(0, row)]
    for r in (1, 2, 3):
        start, turn = r * row, row - r * n
        cuts += [(start + turn, start + row), (start, start + turn)]
    cuts *= 2
    m14, m11, m13, m9 = _INV_MIX_TABLES
    frombytes = int.from_bytes
    state = frombytes(b"".join([data[j::16] for j in _SLICE_ORDER]), "big") ^ spread[0]
    for key in spread[1:-1]:
        s = state.to_bytes(size, "big")
        t = b"".join([s[i:j] for i, j in cuts])
        state = (
            frombytes(t[:size].translate(m14), "big")
            ^ frombytes(t[row : row + size].translate(m11), "big")
            ^ frombytes(t[2 * row : 2 * row + size].translate(m13), "big")
            ^ frombytes(t[3 * row : 3 * row + size].translate(m9), "big")
            ^ key
        )
    s = state.to_bytes(size, "big")
    s = b"".join([s[i:j] for i, j in cuts[:7]]).translate(INV_SBOX)
    s = (frombytes(s, "big") ^ spread[-1]).to_bytes(size, "big")
    out = bytearray(size)
    for k, j in enumerate(_SLICE_ORDER):
        out[j::16] = s[k * n : k * n + n]
    return bytes(out)


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
        self._enc_keys = self._expand_key(key)
        self._dec_keys = self._expand_decryption_key()
        self._dec_key_tables = tuple(key.to_bytes(16, "big") + bytes(240) for key in self._dec_keys)

    # -- key schedule -------------------------------------------------------

    def _expand_key(self, key: bytes) -> tuple[int, ...]:
        nk = len(key) // 4
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
                temp = _sub_word(temp) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return tuple(
            (words[i] << 96) | (words[i + 1] << 64) | (words[i + 2] << 32) | words[i + 3]
            for i in range(0, len(words), 4)
        )

    def _expand_decryption_key(self) -> tuple[int, ...]:
        # Equivalent inverse cipher: round keys in reverse round order with
        # InvMixColumns applied to the middle ones. The decryption tables
        # compute InvMixColumns(InvShiftRows(InvSubBytes(.))), so they are
        # fed ShiftRows(SubBytes(key)).
        first, *middle, last = self._enc_keys
        out = [last]
        for key in reversed(middle):
            shifted = (key.to_bytes(16, "big").translate(SBOX) * _SHIFT_ROWS)[::_SHIFT_ROWS]
            mixed = 0
            for table, value in zip(_DEC_TABLES, shifted):
                mixed ^= table[value]
            out.append(mixed)
        out.append(first)
        return tuple(out)

    # -- block operations ---------------------------------------------------

    def encrypt_state(self, state: int) -> int:
        """Encrypt one block held as a big-endian 128-bit integer."""
        return _cipher(state, self._enc_keys, _ENC_TABLES, SBOX, _SHIFT_ROWS)

    def decrypt_state(self, state: int) -> int:
        """Decrypt one block held as a big-endian 128-bit integer."""
        return _cipher(state, self._dec_keys, _DEC_TABLES, INV_SBOX, _INV_SHIFT_ROWS)

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        return self.encrypt_state(int.from_bytes(block, "big")).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        return self.decrypt_state(int.from_bytes(block, "big")).to_bytes(16, "big")

    def decrypt_blocks(self, data: bytes) -> bytes:
        """Decrypt a run of independent blocks with the byte-sliced kernel
        (the CBC chaining xor is the caller's)."""
        if len(data) % BLOCK_SIZE:
            raise CryptoError("AES batch must be a multiple of 16 bytes")
        return _decrypt_sliced(data, self._dec_key_tables)
