"""Cells opened as one batch: the byte-sliced kernel and ``decrypt_many``.

``AES.decrypt_blocks`` is the byte-sliced kernel at every size, so the
known answers run from one copy up. ``CellCipher.decrypt_many`` loops over
``decrypt`` under ``BATCH_MIN_BLOCKS`` blocks and batches from there; on
either path it must give, envelope by envelope, what ``decrypt`` returns
or raises — the MAC checked before anything is decrypted or unpadded.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.aead as aead
from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.crypto.aes import _SPREAD_MAX_BLOCKS, _SPREAD_WIDTHS, AES
from repro.crypto.modes import cbc_encrypt
from repro.errors import CryptoError, IntegrityError
from tests.crypto import test_aead
from tests.crypto.test_aead import CEK, library_envelope
from tests.crypto.test_aes import FIPS_APPENDIX_C, FIPS_PLAINTEXT

COPIES = [1, 15, 16, 17, 64]

# NIST SP 800-38A F.2.6 CBC-AES256.Decrypt.
SP800_38A_KEY = bytes.fromhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
SP800_38A_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
SP800_38A_CIPHERTEXT = bytes.fromhex(
    "f58c4c04d6e5f1ba779eabfb5f7bfbd6" "9cfc4e967edb808d679f777bc6702c7d"
    "39f23369a9d9bacfa530e26304231461" "b2eb05e2c39be9fcda6c19078c6a9d1b"
)
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a" "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef" "f69f2445df4f9b17ad2b417be66c3710"
)


class TestKnownAnswers:
    @pytest.mark.parametrize("copies", COPIES)
    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_fips197_appendix_c(self, size, copies):
        # C.3 is AES-256; C.1 and C.2 come along for the other key sizes.
        ciphertext = bytes.fromhex(FIPS_APPENDIX_C[size])
        cipher = AES(bytes(range(size)))
        assert cipher.decrypt_blocks(ciphertext * copies) == FIPS_PLAINTEXT * copies

    @pytest.mark.parametrize("copies", COPIES)
    def test_sp800_38a_cbc_aes256_decrypt(self, copies):
        # Each copy is its own CBC message: the batch decrypts every block
        # on its own, and the chaining xor is the IV, then the block before.
        blocks = AES(SP800_38A_KEY).decrypt_blocks(SP800_38A_CIPHERTEXT * copies)
        chain = SP800_38A_IV + SP800_38A_CIPHERTEXT[:-16]
        plaintext = int.from_bytes(blocks, "big") ^ int.from_bytes(chain * copies, "big")
        assert plaintext.to_bytes(len(blocks), "big") == SP800_38A_PLAINTEXT * copies

    @pytest.mark.parametrize("blocks", [1, 2, 15, 16, 100])
    def test_distinct_blocks_match_the_one_block_kernel(self, blocks):
        cipher = AES(bytes(range(32)))
        data = bytes((7 * i + i // 16) % 256 for i in range(16 * blocks))
        expected = b"".join(cipher.decrypt_block(data[o : o + 16]) for o in range(0, len(data), 16))
        assert cipher.decrypt_blocks(data) == expected

    def test_alternating_widths_on_one_key_match_the_one_block_kernel(self):
        # The round keys spread to a batch's width are kept per width: a
        # spread kept for 8 blocks must not serve 64, nor 64 serve 65.
        cipher = AES(bytes(range(32)))
        for blocks in (8, 64, 65, 8, 64, 65, 8):
            data = bytes((11 * i + blocks) % 256 for i in range(16 * blocks))
            expected = b"".join(cipher.decrypt_block(data[o : o + 16]) for o in range(0, len(data), 16))
            assert cipher.decrypt_blocks(data) == expected

    def test_the_spread_cache_is_bounded(self):
        cipher = AES(bytes(32))
        for blocks in range(1, 3 * _SPREAD_WIDTHS):
            cipher.decrypt_blocks(bytes(16 * blocks))
            assert len(cipher._spreads) <= _SPREAD_WIDTHS
        cipher.decrypt_blocks(bytes(16 * (_SPREAD_MAX_BLOCKS + 1)))
        assert _SPREAD_MAX_BLOCKS + 1 not in cipher._spreads

    def test_threads_sharing_one_key_get_their_own_width(self):
        # Gateway workers share a CEK's cipher, and so its spread cache:
        # more threads than cores, switching often, each alternating widths
        # past the cache's bound, must each decrypt every batch right.
        cipher = AES(bytes(range(32)))
        widths = [8 + 7 * k for k in range(_SPREAD_WIDTHS + 3)]
        batches = {n: bytes((5 * i + n) % 256 for i in range(16 * n)) for n in widths}
        expected = {
            n: b"".join(cipher.decrypt_block(data[o : o + 16]) for o in range(0, len(data), 16))
            for n, data in batches.items()
        }
        wrong: list[int] = []

        def work(offset):
            for step in range(60):
                n = widths[(offset + step) % len(widths)]
                if cipher.decrypt_blocks(batches[n]) != expected[n]:
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("length", [1, 15, 17, 16 * 16 + 1])
    def test_misaligned_batch_rejected(self, length):
        with pytest.raises(CryptoError):
            AES(bytes(32)).decrypt_blocks(bytes(length))

    def test_empty_batch(self):
        assert AES(bytes(32)).decrypt_blocks(b"") == b""


# -- decrypt_many ------------------------------------------------------------------


def _outcome(call):
    """What ``call`` returns, or the type and text of the CryptoError it raises."""
    try:
        return call()
    except CryptoError as exc:
        return type(exc), str(exc)


def _as_outcome(result):
    return (type(result), str(result)) if isinstance(result, CryptoError) else result


def _bad_padding(cipher: CellCipher, iv: bytes, padded: bytes) -> bytes:
    """An envelope whose MAC is valid but whose last block is not PKCS#7."""
    body = cbc_encrypt(cipher._aes, iv, padded)
    return b"\x01" + cipher._compute_mac(iv, body) + iv + body


@st.composite
def _envelopes(draw, cipher: CellCipher):
    plaintext = draw(st.binary(max_size=60))
    scheme = draw(st.sampled_from(EncryptionScheme))
    envelope = bytearray(cipher.encrypt(plaintext, scheme))
    kind = draw(st.sampled_from(
        ["valid", "valid", "valid", "tampered", "truncated", "version", "misaligned",
         "bad_padding", "bad_padding_tampered"]
    ))
    if kind == "tampered":
        envelope[draw(st.integers(1, len(envelope) - 1))] ^= 1 << draw(st.integers(0, 7))
    elif kind == "truncated":
        del envelope[draw(st.integers(0, 64)):]
    elif kind == "version":
        envelope[0] = draw(st.integers(2, 255))
    elif kind == "misaligned":
        envelope += bytes(draw(st.integers(1, 15)))
    elif kind.startswith("bad_padding"):
        padded = plaintext.ljust(16 * (len(plaintext) // 16 + 1), b"\x00")
        padded = padded[:-1] + bytes([draw(st.sampled_from([0, 17, 200]))])
        envelope = bytearray(_bad_padding(cipher, bytes(16), padded))
        if kind == "bad_padding_tampered":
            envelope[5] ^= 0x40
    return bytes(envelope)


CIPHER = CellCipher(CEK)


class TestDecryptMany:
    # Both sides of the threshold, whatever the drawn batch's size.
    @pytest.mark.parametrize("threshold", [10**9, 0], ids=["loop", "batch"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_decrypt_cell_by_cell(self, threshold, data):
        envelopes = data.draw(st.lists(_envelopes(CIPHER), max_size=40))
        expected = [_outcome(lambda e=e: CIPHER.decrypt(e)) for e in envelopes]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aead, "BATCH_MIN_BLOCKS", threshold)
            opened = CIPHER.decrypt_many(envelopes)
        assert [_as_outcome(r) for r in opened] == expected

    @pytest.mark.parametrize("threshold", [10**9, 0], ids=["loop", "batch"])
    def test_mac_before_padding(self, threshold, monkeypatch):
        # A bad padding byte under a valid MAC is the padding error; the same
        # envelope with its MAC broken is an IntegrityError, never the padding
        # error an attacker could use as an oracle.
        good = CIPHER.encrypt(b"y" * 40, EncryptionScheme.RANDOMIZED)
        bad_padding = _bad_padding(CIPHER, bytes(range(16)), b"z" * 31 + b"\x00")
        tampered = bytearray(bad_padding)
        tampered[1] ^= 1
        monkeypatch.setattr(aead, "BATCH_MIN_BLOCKS", threshold)
        opened = CIPHER.decrypt_many([good] * 3 + [bad_padding, bytes(tampered)])
        assert opened[:3] == [b"y" * 40] * 3
        assert type(opened[-2]) is CryptoError and "padding" in str(opened[-2])
        assert type(opened[-1]) is IntegrityError

    def test_nothing_unpadded_before_its_mac_passes(self, monkeypatch):
        unpadded = []
        unpad = aead.pkcs7_unpad
        monkeypatch.setattr(aead, "pkcs7_unpad", lambda data: unpadded.append(data) or unpad(data))
        envelopes = [CIPHER.encrypt(bytes([v]) * 20, EncryptionScheme.RANDOMIZED) for v in range(30)]
        forged = bytearray(envelopes[7])
        forged[-1] ^= 1
        opened = CIPHER.decrypt_many(envelopes[:7] + [bytes(forged)] + envelopes[8:])
        assert isinstance(opened[7], IntegrityError)
        assert len(unpadded) == 29

    def test_pinned_envelopes_open_in_a_batch(self):
        # Envelopes written before the batch kernel existed open through it.
        pinned = {bytes.fromhex(h): p for p, h in test_aead.TestWireFormat.PINNED.items()}
        envelopes = list(pinned) * 10
        assert CIPHER.decrypt_many(envelopes) == [pinned[e] for e in envelopes]

    def test_against_library_batch(self):
        """64 envelopes sealed with ``cryptography``'s primitives open here."""
        pytest.importorskip("cryptography")
        plaintexts = [bytes(range(i % 50)) * (1 + i % 3) for i in range(64)]
        envelopes = [library_envelope(p, bytes([i]) * 16) for i, p in enumerate(plaintexts)]
        assert CIPHER.decrypt_many(envelopes) == plaintexts
