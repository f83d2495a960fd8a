"""Online key-lifecycle client tooling (Section 2.4.2, online variant).

The one-shot ``ALTER TABLE ... ALTER COLUMN`` DDL (``execute_ddl`` with
``authorize_enclave=True``) rewrites the whole column inside a single
statement — correct, but it holds every row lock at once and offers no
crash-resume. These helpers drive the *online* path instead: the server's
:class:`~repro.sqlengine.rotation.KeyRotationJob` re-encrypts the column
batch-at-a-time through the enclave while concurrent sessions keep
reading and writing, checkpointing progress to the WAL.

The client's part mirrors what it does for any enclave query: describe
the (canonical) rotation statement text, ship the keys the server names
for it, and authorize the text with the enclave so its Recrypt oracle
accepts the batches, then drive the job through the admin verbs —
which work identically against an in-process :class:`SqlServer` and a
:class:`~repro.net.remote.RemoteServer` (and, through the router, against
a sharded fleet, pinned to the affinity shard that owns the enclave
session).
"""

from __future__ import annotations

from repro.client.driver import Connection
from repro.crypto.aead import EncryptionScheme

__all__ = [
    "encrypt_column_online",
    "resume_rotation",
    "rotate_cek_online",
    "rotation_query_text",
]


def rotation_query_text(table: str, column: str, new_cek: str) -> str:
    """The canonical statement text a lifecycle job runs under.

    This is what the client authorizes with the enclave and what the
    server hashes at every recrypt batch — one text per (table, column,
    target CEK), so a resumed job after a crash re-authorizes the exact
    same statement. The server describes it like any DDL (naming the old
    and new keys) but refuses to execute it.
    """
    return (
        f"ALTER TABLE {table} ALTER COLUMN {column} "
        f"ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = {new_cek}) ONLINE"
    )


def rotate_cek_online(
    connection: Connection,
    table: str,
    column: str,
    new_cek: str,
    batch_size: int = 64,
    run: bool = True,
) -> str:
    """Start (and by default drive to completion) an online CEK rotation.

    Returns the rotation id. With ``run=False`` the job is started but
    not stepped — the caller drives it via ``connection.server
    .rotate_step`` to interleave with its own traffic (as the torture and
    differential suites do).
    """
    query_text = rotation_query_text(table, column, new_cek)
    connection.authorize_enclave_query(query_text)
    rotation_id = connection.server.rotate_start(
        table, column, new_cek, query_text, batch_size=batch_size
    )
    connection.invalidate_metadata_caches()
    if run:
        connection.server.rotate_run(rotation_id)
        connection.invalidate_metadata_caches()
    return rotation_id


def encrypt_column_online(
    connection: Connection,
    table: str,
    column: str,
    new_cek: str,
    scheme: EncryptionScheme = EncryptionScheme.RANDOMIZED,
    batch_size: int = 64,
    run: bool = True,
) -> str:
    """Start (and by default complete) online *initial* encryption of a
    plaintext column under ``new_cek``."""
    query_text = rotation_query_text(table, column, new_cek)
    connection.authorize_enclave_query(query_text)
    rotation_id = connection.server.rotate_start(
        table,
        column,
        new_cek,
        query_text,
        batch_size=batch_size,
        kind="encrypt",
        scheme=scheme,
    )
    connection.invalidate_metadata_caches()
    if run:
        connection.server.rotate_run(rotation_id)
        connection.invalidate_metadata_caches()
    return rotation_id


def resume_rotation(
    connection: Connection,
    rotation_id: str,
    table: str,
    column: str,
    new_cek: str,
    batch_size: int = 64,
    run: bool = True,
) -> str:
    """Re-adopt a recovery-reinstated rotation after a server crash.

    Enclave sessions don't survive a crash, so the client must attest
    afresh and re-authorize the *same* canonical statement text before
    the server's recrypt batches are accepted again. The server's describe
    of that text names both keys of the reinstated rotation.
    """
    query_text = rotation_query_text(table, column, new_cek)
    connection.authorize_enclave_query(query_text)
    connection.server.rotate_resume(rotation_id, query_text, batch_size=batch_size)
    connection.invalidate_metadata_caches()
    if run:
        connection.server.rotate_run(rotation_id)
        connection.invalidate_metadata_caches()
    return rotation_id
