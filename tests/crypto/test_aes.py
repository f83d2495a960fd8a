"""AES correctness: FIPS 197 vectors, NIST CBC vectors, and properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES, BLOCK_SIZE, INV_SBOX, SBOX
from repro.errors import CryptoError

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

# FIPS 197 Appendix C: key bytes 00, 01, 02, ... of each size -> ciphertext.
FIPS_APPENDIX_C = {
    16: "69c4e0d86a7b0430d8cdb78070b4c55a",
    24: "dda97ca4864cdfe06eaf70a0ec0d7191",
    32: "8ea2b7ca516745bfeafc49904b496089",
}


# ---------------------------------------------------------------------------
# A byte-wise FIPS 197 cipher, written from the standard's pseudo-code with no
# tables shared with the implementation beyond the S-box (itself pinned to
# known values below). Slow on purpose; the kernel must equal it.
# ---------------------------------------------------------------------------


def _mul(a: int, b: int) -> int:
    product = 0
    for __ in range(8):
        if b & 1:
            product ^= a
        a = (a << 1) ^ (0x11B if a & 0x80 else 0)
        b >>= 1
    return product


def _reference_round_keys(key: bytes) -> list[bytes]:
    nk, rounds = len(key) // 4, len(key) // 4 + 6
    words = [key[4 * i : 4 * i + 4] for i in range(nk)]
    rcon = 1
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = bytes(SBOX[b] for b in temp[1:] + temp[:1])
            temp = bytes([temp[0] ^ rcon]) + temp[1:]
            rcon = _mul(rcon, 2)
        elif nk > 6 and i % nk == 4:
            temp = bytes(SBOX[b] for b in temp)
        words.append(bytes(a ^ b for a, b in zip(words[i - nk], temp)))
    return [b"".join(words[4 * r : 4 * r + 4]) for r in range(rounds + 1)]


def _mix(state: bytes, matrix_row: tuple[int, int, int, int]) -> bytes:
    out = bytearray(16)
    for col in range(4):
        for row in range(4):
            for k in range(4):
                out[4 * col + row] ^= _mul(state[4 * col + k], matrix_row[(k - row) % 4])
    return bytes(out)


def reference_encrypt(key: bytes, block: bytes) -> bytes:
    keys = _reference_round_keys(key)
    state = bytes(a ^ b for a, b in zip(block, keys[0]))
    for rnd in range(1, len(keys)):
        state = bytes(SBOX[b] for b in state)
        state = bytes(state[4 * ((col + row) % 4) + row] for col in range(4) for row in range(4))
        if rnd < len(keys) - 1:
            state = _mix(state, (2, 3, 1, 1))
        state = bytes(a ^ b for a, b in zip(state, keys[rnd]))
    return state


def reference_decrypt(key: bytes, block: bytes) -> bytes:
    keys = _reference_round_keys(key)
    state = bytes(a ^ b for a, b in zip(block, keys[-1]))
    for rnd in range(len(keys) - 2, -1, -1):
        state = bytes(state[4 * ((col - row) % 4) + row] for col in range(4) for row in range(4))
        state = bytes(INV_SBOX[b] for b in state)
        state = bytes(a ^ b for a, b in zip(state, keys[rnd]))
        if rnd > 0:
            state = _mix(state, (14, 11, 13, 9))
    return state


class TestFips197Vectors:
    def test_aes128_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        assert AES(key).encrypt_block(FIPS_PLAINTEXT).hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_aes192_appendix_c2(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        assert AES(key).encrypt_block(FIPS_PLAINTEXT).hex() == "dda97ca4864cdfe06eaf70a0ec0d7191"

    def test_aes256_appendix_c3(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        assert AES(key).encrypt_block(FIPS_PLAINTEXT).hex() == "8ea2b7ca516745bfeafc49904b496089"

    def test_decrypt_inverts_all_key_sizes(self):
        for size in (16, 24, 32):
            key = bytes(range(size))
            cipher = AES(key)
            ct = cipher.encrypt_block(FIPS_PLAINTEXT)
            assert cipher.decrypt_block(ct) == FIPS_PLAINTEXT

    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_appendix_c_decrypt(self, size):
        # The inverse cipher pinned on its own, not as "whatever undoes encrypt".
        ciphertext = bytes.fromhex(FIPS_APPENDIX_C[size])
        assert AES(bytes(range(size))).decrypt_block(ciphertext) == FIPS_PLAINTEXT

    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_reference_cipher_meets_appendix_c(self, size):
        key = bytes(range(size))
        assert reference_encrypt(key, FIPS_PLAINTEXT).hex() == FIPS_APPENDIX_C[size]
        assert reference_decrypt(key, bytes.fromhex(FIPS_APPENDIX_C[size])) == FIPS_PLAINTEXT

    def test_sp800_38a_ecb_block(self):
        # SP 800-38A F.1.5 ECB-AES256, first block.
        key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
        )
        pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert AES(key).encrypt_block(pt).hex() == "f3eed1bdb5d2a03c064b5a7e3db181f8"


class TestSbox:
    def test_sbox_known_values(self):
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_inverse_sbox_inverts(self):
        for value in range(256):
            assert INV_SBOX[SBOX[value]] == value

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestValidation:
    def test_bad_key_length_rejected(self):
        with pytest.raises(CryptoError):
            AES(b"short")

    @pytest.mark.parametrize("size", [0, 15, 17, 32])
    def test_bad_block_length_rejected(self, size):
        cipher = AES(bytes(32))
        with pytest.raises(CryptoError):
            cipher.encrypt_block(bytes(size))
        with pytest.raises(CryptoError):
            cipher.decrypt_block(bytes(size))


class TestProperties:
    @given(key=st.binary(min_size=32, max_size=32), block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(key=st.binary(min_size=32, max_size=32), block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_encryption_changes_data(self, key, block):
        # A block cipher is a permutation; a fixed point is astronomically
        # unlikely for random inputs.
        assert AES(key).encrypt_block(block) != block

    @given(block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_different_keys_differ(self, block):
        a = AES(bytes(32)).encrypt_block(block)
        b = AES(bytes([1]) + bytes(31)).encrypt_block(block)
        assert a != b

    def test_block_size_constant(self):
        assert BLOCK_SIZE == 16

    @pytest.mark.parametrize("size", [16, 24, 32])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_bytewise_reference(self, size, data):
        key = data.draw(st.binary(min_size=size, max_size=size))
        block = data.draw(st.binary(min_size=16, max_size=16))
        cipher = AES(key)
        assert cipher.encrypt_block(block) == reference_encrypt(key, block)
        assert cipher.decrypt_block(block) == reference_decrypt(key, block)

    def test_state_and_block_forms_agree(self):
        cipher = AES(bytes(range(32)))
        state = int.from_bytes(FIPS_PLAINTEXT, "big")
        assert cipher.encrypt_state(state).to_bytes(16, "big") == cipher.encrypt_block(FIPS_PLAINTEXT)
        assert cipher.decrypt_state(state).to_bytes(16, "big") == cipher.decrypt_block(FIPS_PLAINTEXT)
        # A state with leading zero bytes is still a 16-byte block.
        assert cipher.decrypt_state(cipher.encrypt_state(1)) == 1


class TestAgainstLibrary:
    """Cross-check with ``cryptography`` where it is importable (test-only)."""

    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_one_block(self, size):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        key, block = bytes(range(100, 100 + size)), bytes(range(200, 216))
        library = Cipher(algorithms.AES(key), modes.ECB())
        expected = library.encryptor().update(block)
        assert AES(key).encrypt_block(block) == expected
        assert AES(key).decrypt_block(expected) == block
        assert AES(key).decrypt_block(block) == library.decryptor().update(block)
