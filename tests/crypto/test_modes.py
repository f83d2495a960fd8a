"""CBC mode and PKCS#7 padding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, pkcs7_pad, pkcs7_unpad
from repro.errors import CryptoError

KEY = bytes(range(32))
IV = bytes(range(16))

SP800_38A_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_CBC = {
    "aes128": (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7",
    ),
    "aes192": (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "4f021db243bc633d7178183a9fa071e8"
        "b4d9ada9ad7dedf4e5e738763f69145a"
        "571b242012fb7ae07fa9baac3df102e0"
        "08b0e27988598881d920a9e64f5615cd",
    ),
}


class TestPkcs7:
    def test_pad_empty(self):
        assert pkcs7_pad(b"") == bytes([16]) * 16

    def test_pad_full_block_adds_block(self):
        padded = pkcs7_pad(b"x" * 16)
        assert len(padded) == 32
        assert padded[-1] == 16

    @pytest.mark.parametrize("n", range(0, 33))
    def test_roundtrip_all_lengths(self, n):
        data = b"a" * n
        assert pkcs7_unpad(pkcs7_pad(data)) == data

    def test_unpad_rejects_zero_padding(self):
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"x" * 15 + b"\x00")

    def test_unpad_rejects_oversized_padding(self):
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"x" * 15 + b"\x11")

    def test_unpad_rejects_inconsistent_bytes(self):
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"x" * 13 + b"\x01\x02\x03")

    def test_unpad_rejects_unaligned(self):
        with pytest.raises(CryptoError):
            pkcs7_unpad(b"x" * 15)


class TestCbc:
    def test_sp800_38a_cbc_aes256(self):
        # NIST SP 800-38A F.2.5 CBC-AES256.Encrypt, first two blocks.
        key = bytes.fromhex(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
        )
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
        )
        expected = (
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
            "9cfc4e967edb808d679f777bc6702c7d"
        )
        assert cbc_encrypt(AES(key), iv, pt).hex() == expected

    @pytest.mark.parametrize("key, expected", SP800_38A_CBC.values(), ids=SP800_38A_CBC)
    def test_sp800_38a_cbc_aes128_aes192(self, key, expected):
        # NIST SP 800-38A F.2.1-F.2.4, all four blocks, both directions.
        cipher = AES(bytes.fromhex(key))
        ciphertext = bytes.fromhex(expected)
        assert cbc_encrypt(cipher, SP800_38A_IV, SP800_38A_PLAINTEXT) == ciphertext
        assert cbc_decrypt(cipher, SP800_38A_IV, ciphertext) == SP800_38A_PLAINTEXT

    def test_roundtrip(self):
        cipher = AES(KEY)
        pt = pkcs7_pad(b"the quick brown fox")
        assert cbc_decrypt(cipher, IV, cbc_encrypt(cipher, IV, pt)) == pt

    def test_iv_changes_ciphertext(self):
        cipher = AES(KEY)
        pt = b"a" * 32
        iv2 = bytes(reversed(IV))
        assert cbc_encrypt(cipher, IV, pt) != cbc_encrypt(cipher, iv2, pt)

    def test_chaining_propagates(self):
        # Identical plaintext blocks produce different ciphertext blocks.
        cipher = AES(KEY)
        ct = cbc_encrypt(cipher, IV, b"b" * 32)
        assert ct[:16] != ct[16:]

    def test_rejects_bad_iv(self):
        with pytest.raises(CryptoError):
            cbc_encrypt(AES(KEY), b"short", b"a" * 16)

    def test_rejects_unaligned_plaintext(self):
        with pytest.raises(CryptoError):
            cbc_encrypt(AES(KEY), IV, b"a" * 15)

    def test_rejects_empty_ciphertext(self):
        with pytest.raises(CryptoError):
            cbc_decrypt(AES(KEY), IV, b"")

    def test_rejects_bad_iv_and_unaligned_ciphertext_on_decrypt(self):
        with pytest.raises(CryptoError):
            cbc_decrypt(AES(KEY), b"short", b"a" * 16)
        with pytest.raises(CryptoError):
            cbc_decrypt(AES(KEY), IV, b"a" * 17)

    def test_leading_zero_blocks_keep_their_width(self):
        # Blocks travel as integers; one that decrypts (or encrypts) to a
        # small number must still come back as sixteen bytes.
        cipher = AES(KEY)
        zero_ct = cbc_encrypt(cipher, bytes(16), bytes(32))
        assert len(zero_ct) == 32
        assert cbc_decrypt(cipher, bytes(16), zero_ct) == bytes(32)
        iv = cipher.decrypt_block(bytes(16))   # makes the first plaintext block all zero
        assert cbc_decrypt(cipher, iv, bytes(16)) == bytes(16)

    @given(data=st.binary(min_size=0, max_size=200), iv=st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, data, iv):
        cipher = AES(KEY)
        ct = cbc_encrypt(cipher, iv, pkcs7_pad(data))
        assert pkcs7_unpad(cbc_decrypt(cipher, iv, ct)) == data
