"""Key derivation helpers."""

import hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.kdf import HmacSha256, constant_time_equal, derive_key, hmac_sha256, sha256


class TestHmac:
    def test_rfc4231_case_2(self):
        # RFC 4231 test case 2 for HMAC-SHA-256.
        digest = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert digest.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_different_keys_differ(self):
        assert hmac_sha256(b"a", b"m") != hmac_sha256(b"b", b"m")

    @given(st.binary(max_size=130), st.lists(st.binary(max_size=200), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_precomputed_states_give_hmac_digest_bytes(self, key, messages):
        # Keys shorter than, equal to and longer than SHA-256's 64-byte
        # block; one instance serves every message, so no digest may
        # disturb the states the next one copies.
        keyed = HmacSha256(key)
        for message in messages:
            assert keyed.digest(message) == hmac.digest(key, message, "sha256")


class TestDeriveKey:
    def test_distinct_labels_distinct_keys(self):
        root = bytes(32)
        enc = derive_key(root, "encryption")
        mac = derive_key(root, "mac")
        iv = derive_key(root, "iv")
        assert len({enc, mac, iv}) == 3

    def test_deterministic(self):
        assert derive_key(bytes(32), "x") == derive_key(bytes(32), "x")

    def test_output_is_32_bytes(self):
        assert len(derive_key(bytes(32), "label")) == 32


class TestHelpers:
    def test_sha256(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_constant_time_equal(self):
        assert constant_time_equal(b"same", b"same")
        assert not constant_time_equal(b"same", b"diff")
        assert not constant_time_equal(b"same", b"samelonger")
