"""Finite-field Diffie–Hellman key exchange (RFC 3526 group 14).

Section 4.2 of the paper folds a DH exchange into the attestation protocol:
the client sends its DH public key with the attestation request; the enclave
returns its own DH public key (signed by the enclave's RSA key), after which
both sides hold the shared secret used to protect CEKs in transit.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import CryptoError

# RFC 3526, 2048-bit MODP Group (id 14).
MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
MODP_2048_GENERATOR = 2


@dataclass
class DiffieHellman:
    """One party's half of a DH exchange over the 2048-bit MODP group."""

    prime: int = MODP_2048_PRIME
    generator: int = MODP_2048_GENERATOR
    _private: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not self._private:
            self._private = secrets.randbits(256) | 1

    @cached_property
    def public_key(self) -> int:
        """``generator ** private mod prime``: one 2048-bit ``pow`` per key pair."""
        return pow(self.generator, self._private, self.prime)

    def shared_secret(self, peer_public: int) -> bytes:
        """Derive the 32-byte shared secret from the peer's public key.

        The raw DH output is hashed with SHA-256 so the result is uniform
        and directly usable as an AES-256 key for the secure channel.
        """
        if not 2 <= peer_public <= self.prime - 2:
            raise CryptoError("DH peer public key out of range")
        z = pow(peer_public, self._private, self.prime)
        size = (self.prime.bit_length() + 7) // 8
        return hashlib.sha256(z.to_bytes(size, "big")).digest()


def public_key_bytes(public: int) -> bytes:
    """Serialize a DH public key for signing / transmission."""
    return public.to_bytes((MODP_2048_PRIME.bit_length() + 7) // 8, "big")
