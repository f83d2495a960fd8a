"""Exception hierarchy for the Always Encrypted reproduction.

Every layer of the stack raises a subclass of :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations

import re


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """Raised when a cryptographic operation fails or an input is invalid."""


class IntegrityError(CryptoError):
    """Raised when an HMAC / signature check fails (tampered ciphertext)."""


class KeyError_(ReproError):
    """Raised for key-hierarchy problems (missing CEK/CMK, bad signature)."""


class KeyProviderError(KeyError_):
    """Raised when a key provider cannot serve a request for a key path."""


class AttestationError(ReproError):
    """Raised when the attestation chain of trust cannot be verified."""


class EnclaveError(ReproError):
    """Raised for failures inside or at the boundary of the enclave."""


class ReplayError(EnclaveError):
    """Raised when the enclave detects a replayed nonce on a CEK install."""


class KeysUnavailableError(EnclaveError):
    """Raised when an operation needs a CEK the client has not installed.

    Recovery turns this into a *deferred transaction* (Section 4.5): the
    client only sends keys when running queries, so crash recovery of an
    encrypted index may find the enclave keyless.
    """


class FaultInjected(ReproError):
    """Base class for errors raised by the deterministic fault injector.

    Raised only at registered fault sites (:mod:`repro.faults`) when a test
    has armed a fault there; production code paths never construct these.
    """

    def __init__(self, site: str, message: str | None = None):
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")

    @classmethod
    def from_wire(cls, message: str) -> "FaultInjected":
        """Rebuild from a marshalled error message, recovering the fault
        site when the message is the default format above. The wire only
        carries the message string, so a custom-message fault keeps its
        text but its site is marked as remote — not silently replaced by
        the whole message, which is what ``cls(message)`` would do.
        """
        match = re.fullmatch(r"injected fault at '([^']*)'", message)
        if match:
            return cls(match.group(1))
        return cls("<remote>", message)


class TransientFault(FaultInjected):
    """An injected failure the caller may safely retry (dropped channel
    message, flaky describe round-trip). The driver's error classifier
    maps this to bounded exponential-backoff retry."""


class FatalFault(FaultInjected):
    """An injected failure that must surface to the caller as an error —
    retrying cannot help (corrupted state, configuration problem)."""


class ForcedCrash(FaultInjected):
    """An injected process crash: all volatile state is gone.

    The crash-torture harness catches this, calls ``engine.crash()``, and
    runs recovery; anything else treating it as an ordinary error is a bug.
    """


class SqlError(ReproError):
    """Base class for SQL engine errors."""


class ParseError(SqlError):
    """Raised when a SQL statement cannot be tokenized or parsed."""


class BindError(SqlError):
    """Raised when names cannot be resolved against the catalog."""


class TypeDeductionError(SqlError):
    """Raised when encryption type constraints are unsatisfiable.

    This corresponds to operations the paper disallows, e.g. comparing a
    randomized-encrypted column without an enclave-enabled key, or mixing
    columns encrypted with different CEKs in one comparison.
    """


class ExecutionError(SqlError):
    """Raised when a query plan fails during execution."""


class ConstraintError(SqlError):
    """Raised on primary-key / uniqueness violations."""


class ServerBusyError(SqlError):
    """Raised when the server's ``max_sessions`` limit is reached."""


class TransactionError(SqlError):
    """Raised for transaction lifecycle misuse (commit twice, etc.)."""


class LockTimeoutError(TransactionError):
    """Raised when a lock cannot be acquired within the deadline."""


class RecoveryError(SqlError):
    """Raised when crash recovery cannot proceed."""


class StaleRestoreError(RecoveryError):
    """Raised when recovery detects a rolled-back (stale but internally
    consistent) database — the freshness violation authenticated encryption
    alone cannot catch.

    Every ciphertext in a restored old snapshot still verifies; only the
    enclave-held monotonic anchor (epoch counter + WAL hash chain + page
    version digests, :mod:`repro.enclave.anchor`) knows the disk is from
    the past. The server quarantines itself after raising this: queries
    are refused until the operator explicitly accepts the restored state.
    """


class PageCorruptError(SqlError):
    """Raised when a page image fails its checksum (torn/partial write).

    Recovery treats a corrupt page as lost and recreates its contents by
    physical redo from the WAL (Section 4.5: redo is physical and keyless).
    """


class WireError(ReproError):
    """Base class for byte-level wire protocol failures (:mod:`repro.net`)."""


class TruncatedFrameError(WireError):
    """Raised when a frame ends before its declared length (torn stream)."""


class CorruptFrameError(WireError):
    """Raised when a frame fails its magic or CRC check (bit rot, tamper)."""


class UnknownOpcodeError(WireError):
    """Raised when a frame carries an opcode byte the registry does not know."""


class VersionMismatchError(WireError):
    """Raised when a frame's protocol version differs from this endpoint's."""


class RemoteError(ReproError):
    """A server-side error whose concrete type could not be reconstructed
    client-side; carries the original type name for diagnostics."""

    def __init__(self, error_type: str, message: str):
        self.error_type = error_type
        self.remote_message = message
        super().__init__(f"{error_type}: {message}")


class DriverError(ReproError):
    """Raised by the client driver for protocol or configuration problems."""


class SecurityViolation(ReproError):
    """Raised when a client-side security control rejects server output.

    Examples: CMK key path outside the trusted list, parameter the
    application forced to be encrypted reported as plaintext, CMK metadata
    signature mismatch.
    """
