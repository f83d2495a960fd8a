"""Online key rotation and in-place initial encryption (Sections 1.1, 2.4.2).

Demonstrates the AEv2 usability win the paper leads with:

1. a table starts *unencrypted*; ``ALTER TABLE ALTER COLUMN`` encrypts it
   in place through the enclave — no client round-trip per row, gated on
   the client's signed authorization of the exact DDL text (Section 3.2);
2. a **CMK rotation** re-wraps only the CEK (no data touched), with the
   CEK temporarily encrypted under both CMKs so clients see no downtime;
3. a **CEK rotation** re-encrypts the data, again in place via the enclave;
4. for contrast, the AEv1-style client round-trip path encrypts a column
   the slow way (the one that took "as long as a week" at terabyte scale).

Run:  python examples/key_rotation.py
"""

from repro.attestation import HostGuardianService, HostMachine
from repro.attestation.hgs import AttestationPolicy
from repro.crypto.aead import EncryptionScheme
from repro.crypto.rsa import RsaKeyPair
from repro.enclave import Enclave, EnclaveBinary
from repro.keys import default_registry
from repro.client import connect
from repro.sqlengine import SqlServer
from repro.tools import client_side_initial_encryption, provision_cek, provision_cmk, rotate_cmk

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"


def main() -> None:
    author_key = RsaKeyPair.generate(1024)
    binary = EnclaveBinary.build(author_key)
    enclave = Enclave(binary)
    host = HostMachine()
    hgs = HostGuardianService()
    hgs.register_host(host.boot_and_measure())
    server = SqlServer(enclave=enclave, host_machine=host, hgs=hgs)

    registry = default_registry()
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))
    conn = connect(server, registry, attestation_policy=policy)

    cmk = provision_cmk(conn, vault, "CMK1", "https://vault.azure.net/keys/cmk-1")
    provision_cek(conn, vault, cmk, "CEK1")

    # A plaintext table with data already in it.
    conn.execute_ddl("CREATE TABLE PATIENT (pid int PRIMARY KEY, diagnosis varchar(40))")
    for pid, diagnosis in [(1, "hypertension"), (2, "arrhythmia"), (3, "asthma")]:
        conn.execute(
            "INSERT INTO PATIENT (pid, diagnosis) VALUES (@p, @d)",
            {"p": pid, "d": diagnosis},
        )

    # 1. In-place initial encryption through the enclave.
    encrypts_before = enclave.counters.cell_encrypts
    conn.execute_ddl(
        "ALTER TABLE PATIENT ALTER COLUMN diagnosis varchar(40) "
        f"ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK1, "
        f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}')",
        authorize_enclave=True,
    )
    print(f"initial encryption: {enclave.counters.cell_encrypts - encrypts_before} "
          "cells encrypted in place, zero client round-trips per row")

    # Queries keep working transparently.
    r = conn.execute("SELECT pid FROM PATIENT WHERE diagnosis = @d", {"d": "asthma"})
    assert r.rows == [(3,)]
    print("query after encryption:", r.rows)

    # 2. CMK rotation: re-wrap the CEK only; data untouched.
    new_cmk = provision_cmk(conn, vault, "CMK2", "https://vault.azure.net/keys/cmk-2")
    decrypts_before = enclave.counters.cell_decrypts
    rotate_cmk(conn, vault, "CEK1", old_cmk=cmk, new_cmk=new_cmk)
    print(f"CMK rotation: data decrypts performed = "
          f"{enclave.counters.cell_decrypts - decrypts_before} (expected 0)")
    assert server.catalog.cek("CEK1").cmk_names() == ["CMK2"]

    # 3. CEK rotation: re-encrypt the column in place via the enclave.
    provision_cek(conn, vault, new_cmk, "CEK2")
    conn.cek_cache.invalidate("CEK1")  # force re-fetch through the new CMK
    conn.execute_ddl(
        "ALTER TABLE PATIENT ALTER COLUMN diagnosis varchar(40) "
        f"ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK2, "
        f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}')",
        authorize_enclave=True,
    )
    r = conn.execute("SELECT pid FROM PATIENT WHERE diagnosis = @d", {"d": "arrhythmia"})
    assert r.rows == [(2,)]
    print("query after CEK rotation:", r.rows)

    # 4. The AEv1 contrast: client-side round-trip encryption.
    conn.execute_ddl("CREATE TABLE LEGACY (k int PRIMARY KEY, note varchar(30))")
    for k in range(5):
        conn.execute("INSERT INTO LEGACY (k, note) VALUES (@k, @n)",
                     {"k": k, "n": f"note-{k}"})
    cmk_legacy = provision_cmk(
        conn, vault, "LegacyCMK", "https://vault.azure.net/keys/legacy",
        allow_enclave_computations=False,
    )
    provision_cek(conn, vault, cmk_legacy, "LegacyCEK")
    cells = client_side_initial_encryption(
        conn, "LEGACY", "k", "note", "LegacyCEK", EncryptionScheme.DETERMINISTIC,
    )
    print(f"client-side (AEv1-style) initial encryption: {cells} cells, "
          "read through the driver and written back encrypted")
    r = conn.execute("SELECT k FROM LEGACY WHERE note = @n", {"n": "note-3"})
    assert r.rows == [(3,)]
    print("DET equality after client-side encryption:", r.rows)
    print("OK")


if __name__ == "__main__":
    main()
