"""Client-side initial encryption / rotation — the enclave-less round-trip.

This is the AEv1 path the paper contrasts against (Section 1.1): turning
encryption on for a column whose CEK is *not* enclave-enabled requires
pulling every value to the client, encrypting there, and writing it back —
"prohibitively expensive" at scale, motivating AEv2's in-place DDL. We
implement it anyway (the feature ships with client-side tools for exactly
this), and the A3 ablation bench measures the two paths against each other.
"""

from __future__ import annotations

from repro.client.driver import Connection
from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.errors import DriverError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.types import ColumnType, SqlType
from repro.sqlengine.values import serialize_value


def client_side_initial_encryption(
    connection: Connection,
    table: str,
    column: str,
    cek_name: str,
    cek_material: bytes,
    scheme: EncryptionScheme,
    roundtrip_latency_s: float = 0.0,
) -> int:
    """Encrypt a plaintext column by round-tripping rows through the client.

    ``roundtrip_latency_s`` models the client↔server network cost per
    batch; the A3 bench uses it to show why a week-long rotation was "a
    nonstarter" for terabyte databases. Returns the number of cells
    encrypted.
    """
    import time

    server = connection.server
    engine = server.engine
    schema = server.catalog.table(table)
    column_schema = schema.column(column)
    if column_schema.is_encrypted:
        raise DriverError(f"column {column!r} is already encrypted")
    slot = schema.column_index(column)
    cipher = CellCipher(cek_material)

    # Pull all rows to the client (round-trip #1), encrypt locally, then
    # write back (round-trip #2) — modelled per batch.
    rows = list(engine.table(table).heap.scan())
    if roundtrip_latency_s:
        time.sleep(roundtrip_latency_s)

    encryption = server.catalog.encryption_info(cek_name, scheme)
    new_type = ColumnType(sql_type=column_schema.column_type.sql_type, encryption=encryption)

    affected = [
        obj.schema
        for obj in engine.table(table).indexes.values()
        if slot in obj.key_slots
    ]
    for index_schema in affected:
        engine.drop_index(table, index_schema.name)

    server.catalog.set_column_type(table, column, new_type)
    txn = engine.begin()
    count = 0
    try:
        for rid, row in rows:
            cell = row[slot]
            if cell is None:
                continue
            new_row = list(row)
            new_row[slot] = Ciphertext(cipher.encrypt(serialize_value(cell), scheme))
            engine.update(txn, table, rid, tuple(new_row))
            count += 1
        if roundtrip_latency_s:
            time.sleep(roundtrip_latency_s)
        engine.commit(txn)
    except Exception:
        if txn.is_active:
            engine.abort(txn)
        server.catalog.set_column_type(
            table, column, ColumnType(sql_type=new_type.sql_type, encryption=None)
        )
        raise
    for index_schema in affected:
        if all(
            server.catalog.table(table).column(c).column_type.encryption is None
            or server.catalog.table(table).column(c).column_type.encryption.scheme
            is not EncryptionScheme.RANDOMIZED
            for c in index_schema.column_names
        ):
            engine.create_index(index_schema)
    connection.cek_cache.put(cek_name, cek_material)
    return count
