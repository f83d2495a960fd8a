"""Driver-side caches (Section 4.1).

The paper calls out two caches, both shared across the client process:

* the **CEK cache** — decrypted CEK material, so repeated queries don't
  pay a key-provider round-trip (which for Azure Key Vault is a network
  call), and the cell cipher derived from it, so they don't pay a key
  schedule either; entries live for a client-controlled duration;
* the **attestation / shared-secret cache** — the outcome of the
  attestation protocol, so the handshake doesn't rerun per query.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.crypto.aead import CellCipher
from repro.enclave import NonceCounter
from repro.obs.metrics import StatsView


class _CekCacheStats(StatsView):
    """Per-cache view over the global driver cache counters."""

    FIELDS = {
        "hits": "driver.cek_cache_hits",
        "misses": "driver.cek_cache_misses",
        "evictions": "driver.cek_cache_evictions",
    }


@dataclass
class CachedCek:
    """One cache entry: unwrapped CEK material and the cipher keyed with it.

    The cipher (three key derivations and an AES-256 key schedule) is built
    on first use and lives exactly as long as the entry does.
    """

    material: bytes
    stored_at: float

    @cached_property
    def cipher(self) -> CellCipher:
        return CellCipher(self.material)


class CekCache:
    """Decrypted CEK material with a client-controlled TTL and LRU bound.

    ``max_entries`` caps resident key material: at fleet scale (one CEK
    per tenant, ~10k tenants) an unbounded cache would pin every tenant's
    plaintext key in client memory forever. The least-recently-*used*
    entry is evicted first — insertion order alone would evict a hot key
    under a cold scan.

    ``hits``/``misses``/``evictions`` keep their historical attribute API
    but are now views over the ``driver.cek_cache_*`` registry counters.
    """

    def __init__(
        self,
        ttl_s: float = 7200.0,
        clock=time.monotonic,
        max_entries: int | None = None,
    ):
        self.ttl_s = ttl_s
        self.max_entries = max_entries
        self._clock = clock
        # Insertion-ordered; a hit reinserts its key so the dict's order is
        # recency-of-use and eviction can pop the front.
        self._entries: dict[str, CachedCek] = {}
        self._stats = _CekCacheStats()
        # get() is check-then-act (lookup, then delete on expiry): without
        # the lock, two threads expiring the same entry race on the del.
        self._lock = threading.RLock()

    @property
    def hits(self) -> int:
        return self._stats.hits

    @property
    def misses(self) -> int:
        return self._stats.misses

    @property
    def evictions(self) -> int:
        return self._stats.evictions

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, cek_name: str) -> bool:
        with self._lock:
            return cek_name in self._entries

    def entry(self, cek_name: str) -> CachedCek | None:
        """The live entry for ``cek_name``; every call is one hit or one miss."""
        with self._lock:
            entry = self._entries.get(cek_name)
            if entry is None:
                self._stats.inc("misses")
                return None
            if self._clock() - entry.stored_at > self.ttl_s:
                del self._entries[cek_name]
                self._stats.inc("misses")
                return None
            # Move to the back: most recently used.
            del self._entries[cek_name]
            self._entries[cek_name] = entry
            self._stats.inc("hits")
            return entry

    def get(self, cek_name: str) -> bytes | None:
        entry = self.entry(cek_name)
        return None if entry is None else entry.material

    def put(self, cek_name: str, material: bytes) -> CachedCek:
        with self._lock:
            self._entries.pop(cek_name, None)
            entry = self._entries[cek_name] = CachedCek(material, self._clock())
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    evicted = next(iter(self._entries))
                    del self._entries[evicted]
                    self._stats.inc("evictions")
            return entry

    def invalidate(self, cek_name: str | None = None) -> None:
        with self._lock:
            if cek_name is None:
                self._entries.clear()
            else:
                self._entries.pop(cek_name, None)


@dataclass
class AttestationSession:
    """A cached attestation outcome: the shared secret plus session state."""

    enclave_session_id: int
    shared_secret: bytes
    nonces: NonceCounter = field(default_factory=NonceCounter)
    installed_ceks: set[str] = field(default_factory=set)
    authorized_query_hashes: set[bytes] = field(default_factory=set)
