"""Key-lifecycle client tooling: online rotation and initial encryption (§2.4.2).

The ``ALTER TABLE ... ALTER COLUMN`` DDL (``execute_ddl`` with
``authorize_enclave=True``) runs one of the server's online jobs
(:mod:`repro.sqlengine.rotation`) to completion inside the statement.
These tools start and drive the same jobs through the admin verbs, so the
caller chooses the batch size and may step a job between its own
statements. Either way the column converts batch by batch while other
sessions keep reading and writing, progress is checkpointed to the WAL,
and a crashed job resumes. The client describes the canonical job text
and ships the keys the server names for it with the text's hash (the
enclave's oracle accepts nothing else). The tools work alike against an
in-process :class:`SqlServer`, a :class:`~repro.net.remote.RemoteServer`
and, through the router, a sharded fleet.

:func:`client_side_initial_encryption` is the AEv1 contrast (§1.1): the
same job for a key the enclave may not use, the driver encrypting every
cell through ordinary statements, and no concurrent writers allowed.
"""

from __future__ import annotations

from repro.client.driver import Connection
from repro.crypto.aead import EncryptionScheme
from repro.errors import DriverError

__all__ = [
    "client_side_initial_encryption",
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


def _drive(connection: Connection, rotation_id: str, run: bool) -> str:
    """Drop describes the job made stale; with ``run``, finish the job."""
    connection.invalidate_metadata_caches()
    if run:
        connection.server.rotate_run(rotation_id)
        connection.invalidate_metadata_caches()
    return rotation_id


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
    return _drive(connection, rotation_id, run)


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
    return _drive(connection, rotation_id, run)


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
    return _drive(connection, rotation_id, run)


def client_side_initial_encryption(
    connection: Connection,
    table: str,
    key_column: str,
    column: str,
    cek_name: str,
    scheme: EncryptionScheme,
) -> int:
    """Encrypt a plaintext column through the client: the AEv1 path (§1.1).

    For a CEK the enclave may not use, only the driver can encrypt. The
    server's initial-encryption job flips the column without authorizing
    anything to the enclave, which converts nothing; the driver reads every
    row and writes each cell back encrypted in one transaction, keyed by
    ``key_column`` (unique and non-NULL, else the write-back rolls back); the
    job's sweep then finds no plaintext and ends with the CEK version bump.
    Run again after a failure mid write-back, the tool adopts the column's
    live job and finishes it. The read takes no locks: the column must have
    no other writers until the tool returns. Returns the cells written.
    """
    server = connection.server
    query_text = rotation_query_text(table, column, cek_name)
    target = (table.lower(), column.lower(), cek_name.lower(), "encrypt")
    live = [st.rotation_id for st in server.rotation_states() if st.active and target == (
        st.table.lower(), st.column.lower(), st.new_cek.lower(), st.kind)]
    if live:
        rotation_id = server.rotate_resume(live[0], query_text)
    else:
        rotation_id = server.rotate_start(
            table, column, cek_name, query_text, kind="encrypt", scheme=scheme
        )
    connection.invalidate_metadata_caches()
    rows = connection.execute(f"SELECT {key_column}, {column} FROM {table}").rows
    update = f"UPDATE {table} SET {column} = @v WHERE {key_column} = @k"
    written = 0
    connection.begin()
    try:
        for key, value in rows:
            if value is not None:
                changed = connection.execute(update, {"v": value, "k": key}).rowcount
                if changed != 1:
                    raise DriverError(f"{key_column} = {key!r} matched {changed} rows, not 1")
                written += 1
        connection.commit()
    except Exception:
        if connection.session.in_transaction:
            connection.rollback()
        raise
    _drive(connection, rotation_id, run=True)
    return written
