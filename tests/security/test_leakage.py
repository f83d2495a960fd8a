"""Figure 5 leakage rows, realized as measured attacks."""

import pytest

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import connect
from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.crypto.rsa import RsaKeyPair
from repro.enclave.runtime import Enclave, EnclaveBinary
from repro.keys.providers import default_registry
from repro.net.remote import RemoteServer
from repro.net.wireserver import WireServer
from repro.obs.leakage import get_leakage_accountant
from repro.security.adversary import StrongAdversary
from repro.security.leakage import (
    FIGURE5_ROWS,
    det_frequency_distribution,
    encryption_oracle_access,
    like_scan_predicate_bits,
    prefix_match_proximity,
    reconstruct_order,
)
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.server import SqlServer
from repro.sqlengine.values import serialize_value
from repro.tools.provisioning import provision_cek, provision_cmk
from repro.tools.rotation import rotate_cek_online
from tests.conftest import ALGO


class TestDetLeakage:
    def test_frequency_distribution_recovered(self, cek_material):
        # Row 1 of Figure 5: DET comparisons leak the frequency histogram.
        cipher = CellCipher(cek_material)
        values = ["a"] * 5 + ["b"] * 3 + ["c"] * 1
        cells = [
            Ciphertext(cipher.encrypt(serialize_value(v), EncryptionScheme.DETERMINISTIC))
            for v in values
        ]
        assert det_frequency_distribution(cells) == [5, 3, 1]

    def test_rnd_leaks_no_frequencies(self, cek_material):
        # Contrast: RND cells are all distinct ciphertexts.
        cipher = CellCipher(cek_material)
        cells = [
            Ciphertext(cipher.encrypt(serialize_value("same"), EncryptionScheme.RANDOMIZED))
            for __ in range(9)
        ]
        assert det_frequency_distribution(cells) == [1] * 9


@pytest.fixture()
def rnd_system(server, registry, attestation_policy, enclave_cmk, enclave_cek):
    adversary = StrongAdversary()
    adversary.attach(server)
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    conn = connect(server, registry, attestation_policy=attestation_policy)
    conn.execute_ddl(
        "CREATE TABLE L (k int PRIMARY KEY, "
        f"name varchar(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
        f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'))"
    )
    names = ["apple", "apricot", "banana", "cherry", "citrus", "date"]
    for k, name in enumerate(names):
        conn.execute("INSERT INTO L (k, name) VALUES (@k, @n)", {"k": k, "n": name})
    return adversary, conn, names


class TestRndOrderingLeakage:
    def test_index_build_reveals_total_order(self, rnd_system, server, cek_material):
        # Row 2 of Figure 5: the sort of an index build leaks the ordering.
        adversary, conn, names = rnd_system
        conn.execute_ddl("CREATE NONCLUSTERED INDEX L_NAME ON L(name)")
        reconstruction = reconstruct_order(adversary, "TestCEK")
        assert reconstruction.comparisons_used > 0

        # Decrypt (with the key the adversary does NOT have) to check the
        # attack recovered the true order.
        cipher = CellCipher(cek_material)
        recovered = [
            serialize_value_to_str(cipher.decrypt(env))
            for env in reconstruction.ordered_envelopes
        ]
        assert recovered == sorted(names)       # the full order, every key

    def test_prefix_match_leaks_proximity(self, rnd_system, server, cek_material):
        # Row 4: prefix matches reveal a contiguous run sharing a prefix.
        adversary, conn, names = rnd_system
        conn.execute_ddl("CREATE NONCLUSTERED INDEX L_NAME ON L(name)")
        order = reconstruct_order(adversary, "TestCEK")

        cipher = CellCipher(cek_material)
        matched = {
            env
            for env in order.ordered_envelopes
            if serialize_value_to_str(cipher.decrypt(env)).startswith("ap")
        }
        leak = prefix_match_proximity(order.ordered_envelopes, matched)
        assert leak.matched_run_length == 2      # apple, apricot
        assert leak.run_position == 0            # and they are adjacent, first


def serialize_value_to_str(blob: bytes) -> str:
    from repro.sqlengine.values import deserialize_value

    return deserialize_value(blob)  # type: ignore[return-value]


class TestLikeScanLeakage:
    def test_scan_reveals_predicate_bits(self, rnd_system):
        # Row 3: LIKE by scan leaks one unknown-predicate bit per row.
        adversary, conn, names = rnd_system
        conn.execute("SELECT k FROM L WHERE name LIKE @p", {"p": "ap%"})
        batches = like_scan_predicate_bits(adversary)
        flat = [bit for batch in batches for bit in batch]
        assert flat.count(True) == 2
        assert flat.count(False) == len(names) - 2


class TestEncryptionOracle:
    def test_oracle_gated_on_authorization(self, rnd_system, server):
        # Row 5: encryption oracle only with client authorization.
        adversary, conn, __ = rnd_system
        assert encryption_oracle_access(adversary)["authorized_uses"] == 0
        conn.execute_ddl(
            "ALTER TABLE L ALTER COLUMN name varchar(20)", authorize_enclave=True
        )
        assert encryption_oracle_access(adversary)["authorized_uses"] > 0

    def test_online_rotation_uses_the_oracle_once_per_batch(
        self, rnd_system, registry, enclave_cmk
    ):
        adversary, conn, names = rnd_system
        vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
        provision_cek(conn, vault, enclave_cmk, "TestCEK2")
        rotate_cek_online(conn, "L", "name", "TestCEK2", batch_size=2)
        assert encryption_oracle_access(adversary)["authorized_uses"] >= len(names) // 2


CITIES = ["seattle"] * 6 + ["zurich"] * 3 + ["portland"] * 1
NAMES = ["apple", "apricot", "avocado", "banana", "blueberry", "cherry",
         "citrus", "date", "elderberry", "fig"]


def build_leakage_experiment(request, over_wire: bool = False):
    """The Figure 5 workload against an attached strong adversary;
    ``over_wire=True`` runs it through a socket :class:`WireServer` with the
    adversary's byte-level frame tap attached (the sharded deployment's wire)."""
    binary = EnclaveBinary.build(RsaKeyPair.generate(1024))
    host = HostMachine()
    hgs = HostGuardianService()
    hgs.register_host(host.boot_and_measure())
    server = SqlServer(enclave=Enclave(binary), host_machine=host, hgs=hgs)
    adversary = StrongAdversary()
    adversary.attach(server)
    registry = default_registry()
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))
    endpoint = server
    if over_wire:
        wire = WireServer(server, name="leak-wire", tap=adversary.wire_tap()).start()
        endpoint = RemoteServer(wire.host, wire.port)
        request.addfinalizer(wire.stop)
        request.addfinalizer(endpoint.close)
    conn = connect(endpoint, registry, attestation_policy=policy)
    cmk = provision_cmk(conn, vault, "CMK", "https://vault.azure.net/keys/leak")
    provision_cek(conn, vault, cmk, "CEK")
    conn.execute_ddl(
        "CREATE TABLE F (k int PRIMARY KEY, "
        f"city varchar(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = Deterministic, ALGORITHM = '{ALGO}'), "
        f"name varchar(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'))"
    )
    for k, (city, name) in enumerate(zip(CITIES, NAMES)):
        conn.execute(
            "INSERT INTO F (k, city, name) VALUES (@k, @c, @n)",
            {"k": k, "c": city, "n": name},
        )
    # Exercise the operations whose leakage Figure 5 tabulates.
    conn.execute("SELECT k FROM F WHERE name LIKE @p", {"p": "ap%"})   # scan LIKE
    conn.execute_ddl("CREATE NONCLUSTERED INDEX F_NAME ON F(name)")    # index build
    return server, adversary


class TestFigure5Table:
    def test_leakage_accounting_unchanged_by_serialization(self, request):
        """Moving the client to the other side of a real socket changes *how*
        the adversary watches (raw frames instead of call interposition) but
        not *what* leaks: the accounted per-column leakage is byte-for-byte
        identical, every attack of the table recovers the same thing, and the
        plaintext of encrypted columns appears in no serialized frame."""
        accountant = get_leakage_accountant()
        accountant.reset()
        inproc_server, inproc = build_leakage_experiment(request, over_wire=False)
        inproc_leakage = inproc.leakage_summary()
        accountant.reset()
        wire_server, wire = build_leakage_experiment(request, over_wire=True)
        assert wire.leakage_summary() == inproc_leakage

        for server, adversary in ((inproc_server, inproc), (wire_server, wire)):
            # The table's rows, from what the server stored and the boundary showed.
            stored = [row[1] for __, row in server.engine.scan("F")]
            assert all(isinstance(cell, Ciphertext) for cell in stored)
            assert det_frequency_distribution(stored) == [6, 3, 1]
            order = reconstruct_order(adversary, "CEK").ordered_envelopes
            assert len(order) == len(NAMES)
            a_names = set(order[:3])        # apple, apricot, avocado sort first
            assert prefix_match_proximity(order, a_names).matched_run_length == 3
            bits = [b for batch in like_scan_predicate_bits(adversary) for b in batch]
            assert (bits.count(True), len(bits)) == (2, len(NAMES))

        # The frame tap actually saw the conversation ...
        assert len(wire.frame_events) > 0
        assert inproc.frame_events == []
        # ... and no encrypted-column plaintext ever crossed it. (The raw
        # utf-8 of the city/name values is what a sniffer would grep for.)
        values = set(CITIES) | set(NAMES)
        for event in wire.frame_events:
            assert not any(value.encode() in event.frame for value in values), (
                f"plaintext leaked in a serialized {event.direction} frame "
                f"(opcode {event.opcode:#x})"
            )
        for adversary in (inproc, wire):
            assert adversary.plaintext_exposures([serialize_value(v) for v in values]) == []

    def test_all_rows_present(self):
        operations = [op for op, __ in FIGURE5_ROWS]
        assert operations == [
            "Comparison (DET)",
            "Comparison (RND)",
            "LIKE predicate using scans",
            "LIKE predicate using an index (i.e. prefix matches)",
            "DDL to encrypt data",
        ]
