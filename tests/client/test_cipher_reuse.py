"""One key schedule per cached CEK, one MAC per result cell.

The driver used to build a ``CellCipher`` (three HMAC derivations and an
AES-256 key schedule) per encrypted parameter and per result set, and to
MAC every result cell twice (``verify`` then ``decrypt``). The cipher now
lives in the CEK cache entry beside the material it was derived from, so it
is built once per entry and dropped by whatever drops the entry.
"""

import gc
import weakref

import pytest

from repro.client.caches import CekCache
from repro.crypto.aead import CellCipher
from repro.errors import IntegrityError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.storage.record import serialize_row
from tests.conftest import make_encrypted_table

MATERIAL = bytes(range(32))


@pytest.fixture()
def crypto_calls(monkeypatch) -> dict[str, int]:
    """Counts of cipher constructions and MAC computations, process-wide."""
    calls = {"inits": 0, "macs": 0}
    init, compute_mac = CellCipher.__init__, CellCipher._compute_mac

    def counting_init(self, root_key):
        calls["inits"] += 1
        init(self, root_key)

    def counting_mac(self, iv, body):
        calls["macs"] += 1
        return compute_mac(self, iv, body)

    monkeypatch.setattr(CellCipher, "__init__", counting_init)
    monkeypatch.setattr(CellCipher, "_compute_mac", counting_mac)
    return calls


class TestWarmConnection:
    def test_executes_build_no_cipher(self, encrypted_table, crypto_calls):
        conn = encrypted_table
        conn.execute("SELECT id FROM T WHERE value = @v", {"v": 10})    # warm
        conn.execute("SELECT value FROM T WHERE id >= @i", {"i": 0})
        crypto_calls["inits"] = 0
        for v in range(0, 100, 10):
            assert conn.execute("SELECT id FROM T WHERE value = @v", {"v": v}).rows
            assert len(conn.execute("SELECT value FROM T WHERE id >= @i", {"i": 5}).rows) == 5
        assert crypto_calls["inits"] == 0

    def test_one_mac_per_result_cell(self, encrypted_table, crypto_calls):
        # No encrypted parameter and no encrypted predicate: every MAC
        # computed by this statement is the driver opening a result cell.
        conn = encrypted_table
        conn.execute("SELECT value FROM T WHERE id >= @i", {"i": 0})
        crypto_calls["macs"] = 0
        result = conn.execute("SELECT value FROM T WHERE id >= @i", {"i": 3})
        assert len(result.rows) == 7
        assert crypto_calls["macs"] == 7

    def test_cache_counters_per_execute(self, ae_connection, crypto_calls):
        # What the parent read for the same calls: a lookup per encrypted
        # parameter, one per CEK shipped to the enclave, one per result CEK.
        conn = ae_connection
        make_encrypted_table(conn)
        cache = conn.cek_cache
        base = (cache.hits, cache.misses, cache.evictions)

        def moved() -> tuple[int, int, int]:
            return (cache.hits - base[0], cache.misses - base[1], cache.evictions - base[2])

        conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 10})
        assert moved() == (0, 1, 0)             # the parameter: unwrap, then cached
        assert crypto_calls["inits"] == 1
        conn.execute("SELECT value FROM T WHERE value = @v", {"v": 10})
        # parameter, CEK package for the enclave, result column
        assert moved() == (3, 1, 0)
        conn.execute("SELECT value FROM T WHERE value = @v", {"v": 10})
        assert moved() == (5, 1, 0)             # parameter and result column
        # One driver cipher for the entry; the enclave built its own (plus
        # the two ends of the sealed channel that carried the key there).
        assert crypto_calls["inits"] == 4


class TestCipherDiesWithItsEntry:
    @pytest.fixture()
    def clock(self) -> list[float]:
        return [0.0]

    @pytest.fixture()
    def cache(self, clock) -> CekCache:
        return CekCache(ttl_s=10, clock=lambda: clock[0], max_entries=2)

    def test_built_once_per_entry(self, cache, crypto_calls):
        entry = cache.put("K", MATERIAL)
        assert crypto_calls["inits"] == 0       # not built until someone encrypts
        assert cache.entry("K").cipher is entry.cipher
        assert cache.entry("K").cipher is entry.cipher
        assert crypto_calls["inits"] == 1
        assert cache.get("K") == MATERIAL
        assert (cache.hits, cache.misses) == (3, 0)

    @pytest.mark.parametrize("how", ["ttl", "lru", "invalidate_one", "invalidate_all", "put"])
    def test_dropped_with_the_entry(self, cache, clock, how):
        cipher = weakref.ref(cache.put("K", MATERIAL).cipher)
        assert cipher() is not None
        if how == "ttl":
            clock[0] = 11.0
            assert cache.entry("K") is None
        elif how == "lru":
            cache.put("B", MATERIAL)
            cache.put("C", MATERIAL)
            assert cache.evictions == 1 and "K" not in cache
        elif how == "invalidate_one":
            cache.invalidate("K")
        elif how == "invalidate_all":
            cache.invalidate()
        else:
            cache.put("K", bytes(32))           # re-keyed: the old cipher must not survive
        gc.collect()
        assert cipher() is None

    def test_expired_entry_rebuilds_through_the_driver(self, encrypted_table, crypto_calls):
        conn = encrypted_table
        clock = [0.0]
        conn.cek_cache = CekCache(ttl_s=10, clock=lambda: clock[0])
        query = "SELECT value FROM T WHERE id >= @i"
        conn.execute(query, {"i": 0})
        assert crypto_calls["inits"] == 1
        clock[0] = 5.0
        conn.execute(query, {"i": 0})
        assert crypto_calls["inits"] == 1
        clock[0] = 16.0
        provider_calls = conn.stats.key_provider_calls
        assert conn.execute(query, {"i": 8}).rows == [(80,), (90,)]
        assert crypto_calls["inits"] == 2
        assert conn.stats.key_provider_calls == provider_calls + 1


class TestTamperedResult:
    def test_mac_failure_not_padding_error(self, encrypted_table, server):
        """No rotation is live, so there is no partner key to try: the flipped
        padding byte surfaces as the MAC failure it is (MAC before unpad)."""
        table = server.engine.table("T")
        rid, row = next(table.heap.scan())
        envelope = bytearray(row[1].envelope)
        envelope[-1] ^= 0x10
        table.heap.update(rid, serialize_row((row[0], Ciphertext(bytes(envelope)))))
        with pytest.raises(IntegrityError) as raised:
            encrypted_table.execute("SELECT value FROM T WHERE id = @i", {"i": row[0]})
        assert raised.type is IntegrityError
