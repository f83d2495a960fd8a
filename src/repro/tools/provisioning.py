"""Client-side key provisioning tools (Section 2.4.1).

The DDL expects clients to configure the CMK and compute the encrypted
value of CEKs; "in order to ease the burden for clients, we automate the
above steps in our tools." These helpers are that tooling: they create the
key in the provider (if needed), compute the signatures, emit the DDL of
Figure 1, and run it through a connection.
"""

from __future__ import annotations

from repro.client.driver import Connection
from repro.crypto.aead import generate_cek_material
from repro.keys.cek import CekEncryptedValue, ColumnEncryptionKey
from repro.keys.cmk import ColumnMasterKey
from repro.keys.providers import KeyProvider


def provision_cmk(
    connection: Connection,
    provider: KeyProvider,
    name: str,
    key_path: str,
    allow_enclave_computations: bool = True,
    create_key_bits: int = 1024,
) -> ColumnMasterKey:
    """Create (if needed) the provider key, sign the metadata, run the DDL."""
    try:
        provider.get_public_key(key_path)
    except Exception:
        provider.create_key(key_path, bits=create_key_bits)
    cmk = ColumnMasterKey.create(
        name, provider, key_path, allow_enclave_computations=allow_enclave_computations
    )
    enclave_clause = ""
    if allow_enclave_computations:
        enclave_clause = f",\n  ENCLAVE_COMPUTATIONS (SIGNATURE = 0x{cmk.signature.hex()})"
    ddl = (
        f"CREATE COLUMN MASTER KEY {name} WITH (\n"
        f"  KEY_STORE_PROVIDER_NAME = N'{provider.provider_name}',\n"
        f"  KEY_PATH = N'{key_path}'{enclave_clause})"
    )
    connection.execute_ddl(ddl)
    return cmk


def provision_cek(
    connection: Connection,
    provider: KeyProvider,
    cmk: ColumnMasterKey,
    name: str,
    key_material: bytes | None = None,
) -> bytes:
    """Generate CEK material, wrap + sign it under the CMK, run the DDL.

    Returns the raw material (client-side only; it never reaches SQL)."""
    material = key_material if key_material is not None else generate_cek_material()
    value = CekEncryptedValue.create(cmk, provider, material)
    ddl = (
        f"CREATE COLUMN ENCRYPTION KEY {name} WITH VALUES (\n"
        f"  COLUMN_MASTER_KEY = {cmk.name},\n"
        f"  ALGORITHM = 'RSA_OAEP',\n"
        f"  ENCRYPTED_VALUE = 0x{value.encrypted_value.hex()},\n"
        f"  SIGNATURE = 0x{value.signature.hex()})"
    )
    connection.execute_ddl(ddl)
    connection.cek_cache.put(name, material)
    return material


def rotate_cmk(
    connection: Connection,
    provider: KeyProvider,
    cek_name: str,
    old_cmk: ColumnMasterKey,
    new_cmk: ColumnMasterKey,
) -> None:
    """Rotate a CEK's CMK: re-wrap the CEK material under the new CMK.

    No data re-encryption is needed (Section 2.4.2). The CEK temporarily
    has two encrypted values; the old one is dropped to complete rotation.
    """
    metadata = connection.server.fetch_cek_metadata(cek_name)
    material = connection.unwrap_cek(metadata)
    new_value = CekEncryptedValue.create(new_cmk, provider, material)
    add_ddl = (
        f"ALTER COLUMN ENCRYPTION KEY {cek_name} ADD VALUE (\n"
        f"  COLUMN_MASTER_KEY = {new_cmk.name},\n"
        f"  ALGORITHM = 'RSA_OAEP',\n"
        f"  ENCRYPTED_VALUE = 0x{new_value.encrypted_value.hex()},\n"
        f"  SIGNATURE = 0x{new_value.signature.hex()})"
    )
    connection.execute_ddl(add_ddl)
    # ... clients holding either CMK keep working (no downtime) ...
    drop_ddl = (
        f"ALTER COLUMN ENCRYPTION KEY {cek_name} DROP VALUE (\n"
        f"  COLUMN_MASTER_KEY = {old_cmk.name})"
    )
    connection.execute_ddl(drop_ddl)
