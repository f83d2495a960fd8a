"""AEAD_AES_256_CBC_HMAC_SHA_256 cell encryption (paper Section 2.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import (
    ALGORITHM_VERSION,
    MAC_SIZE,
    CellCipher,
    EncryptionScheme,
    generate_cek_material,
)
from repro.errors import CryptoError, IntegrityError

CEK = bytes(range(32))


@pytest.fixture()
def cipher() -> CellCipher:
    return CellCipher(CEK)


class TestDeterministic:
    def test_same_plaintext_same_ciphertext(self, cipher):
        a = cipher.encrypt(b"alice", EncryptionScheme.DETERMINISTIC)
        b = cipher.encrypt(b"alice", EncryptionScheme.DETERMINISTIC)
        assert a == b

    def test_different_plaintext_different_ciphertext(self, cipher):
        a = cipher.encrypt(b"alice", EncryptionScheme.DETERMINISTIC)
        b = cipher.encrypt(b"alicf", EncryptionScheme.DETERMINISTIC)
        assert a != b

    def test_whole_value_equality_not_blockwise(self, cipher):
        # Unlike ECB, repeating 16-byte blocks inside a value must NOT
        # produce repeating ciphertext blocks (the paper's ECB contrast).
        pt = b"B" * 16 + b"B" * 16
        envelope = cipher.encrypt(pt, EncryptionScheme.DETERMINISTIC)
        body = envelope[1 + MAC_SIZE + 16 :]
        assert body[:16] != body[16:32]

    def test_det_differs_across_keys(self):
        a = CellCipher(bytes(32)).encrypt(b"x", EncryptionScheme.DETERMINISTIC)
        b = CellCipher(bytes([9]) * 32).encrypt(b"x", EncryptionScheme.DETERMINISTIC)
        assert a != b


class TestRandomized:
    def test_same_plaintext_different_ciphertext(self, cipher):
        a = cipher.encrypt(b"alice", EncryptionScheme.RANDOMIZED)
        b = cipher.encrypt(b"alice", EncryptionScheme.RANDOMIZED)
        assert a != b

    def test_decrypts_correctly(self, cipher):
        envelope = cipher.encrypt(b"some value", EncryptionScheme.RANDOMIZED)
        assert cipher.decrypt(envelope) == b"some value"


class TestEnvelope:
    def test_version_byte(self, cipher):
        envelope = cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED)
        assert envelope[0] == ALGORITHM_VERSION

    def test_mac_tamper_detected(self, cipher):
        envelope = bytearray(cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED))
        envelope[1] ^= 0xFF  # flip a MAC byte
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(envelope))

    def test_body_tamper_detected(self, cipher):
        envelope = bytearray(cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED))
        envelope[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(envelope))

    def test_iv_tamper_detected(self, cipher):
        envelope = bytearray(cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED))
        envelope[1 + MAC_SIZE] ^= 0x01
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(envelope))

    def test_wrong_key_rejected(self, cipher):
        envelope = cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED)
        other = CellCipher(bytes([7]) * 32)
        with pytest.raises(IntegrityError):
            other.decrypt(envelope)

    def test_verify_distinguishes_garbage(self, cipher):
        # The paper's HMAC usability rationale: detect garbage ciphertext.
        envelope = cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED)
        assert cipher.verify(envelope)
        assert not cipher.verify(b"\x01" + b"\x00" * 80)
        assert not cipher.verify(b"")

    def test_wrong_version_rejected(self, cipher):
        envelope = bytearray(cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED))
        envelope[0] = 0x02
        with pytest.raises(CryptoError):
            cipher.decrypt(bytes(envelope))

    def test_truncated_envelope_rejected(self, cipher):
        envelope = cipher.encrypt(b"x", EncryptionScheme.RANDOMIZED)
        with pytest.raises(CryptoError):
            cipher.decrypt(envelope[:40])


class TestWireFormat:
    """The envelope bytes are a storage format: databases and WALs written
    by earlier commits must keep opening."""

    # CellCipher(bytes(range(32))).encrypt(..., DETERMINISTIC) as written by
    # the word-oriented kernel this one replaced.
    PINNED = {
        b"alice": (
            "015b730149689142853c27e5333db8c9d485e18054258482390af0a00ac944a960"
            "29f3e086df7b070a97069cc32d6e4d4aa08549734cc60dfa7960c8c56b1caf91"
        ),
        bytes(range(40)): (
            "011c6afd78a0fc5cf64347545af24eadfc9fb286f68084b45d1cae35528f17a6ce"
            "6449e7780c1f2f298853654b8559ed395a9f0ce4febbc20329bce1d76f3ec27e"
            "ec702062a0bf9d5c1ebca5c7e85d4d33cb3eb8df9f345d463f75bd0c7cd75f29"
        ),
    }

    @pytest.mark.parametrize("plaintext", PINNED, ids=["one_block", "three_blocks"])
    def test_det_envelope_bytes_are_pinned(self, cipher, plaintext):
        envelope = bytes.fromhex(self.PINNED[plaintext])
        assert cipher.encrypt(plaintext, EncryptionScheme.DETERMINISTIC) == envelope
        assert cipher.decrypt(envelope) == plaintext
        assert cipher.verify(envelope)

    def test_tampered_padding_fails_the_mac_not_the_unpad(self, cipher):
        # MAC before unpad: a flipped padding byte is an IntegrityError, never
        # a padding CryptoError an attacker could use as an oracle.
        envelope = bytearray(cipher.encrypt(b"x" * 20, EncryptionScheme.RANDOMIZED))
        envelope[-1] ^= 0x10
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(envelope))

    def test_unaligned_body_rejected(self, cipher):
        envelope = cipher.encrypt(b"x" * 20, EncryptionScheme.RANDOMIZED)
        with pytest.raises(CryptoError):
            cipher.decrypt(envelope + b"\x00")
        assert not cipher.verify(envelope + b"\x00")

    @pytest.mark.parametrize("size", [0, 15, 16, 17, 100])
    def test_envelope_matches_library_construction(self, cipher, size):
        """AES-256-CBC + PKCS#7 + HMAC-SHA-256 built from ``cryptography``
        yields the same DET envelope, and its RND envelopes open here."""
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes, hmac, padding
        from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

        def mac(key: bytes, data: bytes) -> bytes:
            h = hmac.HMAC(key, hashes.SHA256())
            h.update(data)
            return h.finalize()

        def derive(purpose: str) -> bytes:
            salt = (
                f"Microsoft SQL Server cell {purpose} key with encryption algorithm:"
                "AEAD_AES_256_CBC_HMAC_SHA_256 and key length:256"
            )
            return mac(CEK, salt.encode("utf-16-le"))

        def seal(plaintext: bytes, iv: bytes) -> bytes:
            padder = padding.PKCS7(128).padder()
            encryptor = Cipher(algorithms.AES(derive("encryption")), modes.CBC(iv)).encryptor()
            body = encryptor.update(padder.update(plaintext) + padder.finalize())
            return b"\x01" + mac(derive("MAC"), b"\x01" + iv + body + b"\x01") + iv + body

        plaintext = bytes(range(size))
        det_iv = mac(derive("IV"), plaintext)[:16]
        assert cipher.encrypt(plaintext, EncryptionScheme.DETERMINISTIC) == seal(plaintext, det_iv)
        assert cipher.decrypt(seal(plaintext, bytes(range(16, 32)))) == plaintext


class TestKeys:
    def test_bad_key_size_rejected(self):
        with pytest.raises(CryptoError):
            CellCipher(b"short")

    def test_generate_material(self):
        a = generate_cek_material()
        b = generate_cek_material()
        assert len(a) == 32 and len(b) == 32 and a != b


class TestProperties:
    @given(data=st.binary(min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_rnd(self, data):
        cipher = CellCipher(CEK)
        assert cipher.decrypt(cipher.encrypt(data, EncryptionScheme.RANDOMIZED)) == data

    @given(data=st.binary(min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_det(self, data):
        cipher = CellCipher(CEK)
        assert cipher.decrypt(cipher.encrypt(data, EncryptionScheme.DETERMINISTIC)) == data

    @given(a=st.binary(max_size=64), b=st.binary(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_det_equality_iff_plaintext_equality(self, a, b):
        cipher = CellCipher(CEK)
        ct_a = cipher.encrypt(a, EncryptionScheme.DETERMINISTIC)
        ct_b = cipher.encrypt(b, EncryptionScheme.DETERMINISTIC)
        assert (ct_a == ct_b) == (a == b)
