"""Analysis configuration: which packages play which trust role, the
declared lock order, taint sources/sinks, and where the baseline lives.

``default_config()`` returns the configuration for *this* repository —
host packages, the sanctioned ecall surface imported from
:data:`repro.enclave.ECALL_SURFACE` (one declaration, consumed by runtime
and analyzer alike), and the declared lock order. Tests build bespoke
configs pointing at fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass(frozen=True)
class LockOrderConfig:
    """The declared nested-acquisition order, outermost first.

    Each entry is an ``fnmatch`` pattern over fully-qualified lock ids
    (``module.Class.attr``). Acquiring a lock that matches an *earlier*
    pattern while holding one that matches a *later* pattern is an
    inversion. Locks matching the same pattern may nest freely (cycle
    detection still applies).
    """

    order: tuple[str, ...] = ()
    #: receiver-name → "module.Class" hints used to attribute a foreign
    #: lock (``with self.sqlos.state_lock``) or a held call
    #: (``self._wal.flush()``) to its owning class.
    receiver_aliases: dict = field(default_factory=dict)
    #: method names excluded from *name-based* callee resolution because
    #: they collide with builtin container methods (``dict.get`` is not
    #: ``TransactionManager.get``); alias-resolved calls are unaffected.
    fallback_ignore: tuple[str, ...] = (
        "acquire", "add", "append", "clear", "copy", "count", "discard",
        "extend", "get", "index", "insert", "items", "join", "keys",
        "notify", "notify_all", "pop", "popitem", "put", "release",
        "remove", "set", "setdefault", "sort", "update", "values", "wait",
        "write",
    )


@dataclass(frozen=True)
class TaintConfig:
    """Conservative plaintext-taint dataflow parameters."""

    #: callee final-name producing plaintext from ciphertext
    sources: tuple[str, ...] = (
        "decrypt", "decrypt_many", "decrypt_cell", "decrypt_for_ddl", "open_package",
    )
    #: calls that pass taint from arguments to their result
    propagators: tuple[str, ...] = (
        "deserialize_value", "str", "repr", "format", "bytes",
    )
    #: callee final-names that leak whatever reaches their arguments
    log_sinks: tuple[str, ...] = (
        "print", "log", "debug", "info", "warning", "error", "exception",
    )
    metric_sinks: tuple[str, ...] = ("inc", "set", "observe")
    trace_sinks: tuple[str, ...] = ("span", "ecall_span")
    #: wire egress sinks (everything feeding the frame codec/socket)
    wire_sinks: tuple[str, ...] = (
        "send_frame", "send_message", "encode_message", "encode_frame",
        "encode_value",
    )
    #: error-marshalling sinks (ErrorReply payloads cross in clear)
    error_reply_names: tuple[str, ...] = ("ErrorReply", "error_reply_for")
    #: final-names that cleanse even when the callee is resolved —
    #: re-encryption is the sanctioned way plaintext leaves a computation
    sanitizers: tuple[str, ...] = (
        "encrypt", "encrypt_cell", "encrypt_value", "seal", "seal_package",
    )
    #: container-packing methods: ``x.append(tainted)`` taints ``x``
    packing_methods: tuple[str, ...] = ("append", "add", "extend", "insert")
    #: packages whose functions get no taint signature (summary-opaque):
    #: the crypto layer is the sanctioned boundary — its internals must
    #: not propagate plaintext signatures outward
    opaque_packages: tuple[str, ...] = ()
    #: fids ("module:Qual.name") whose *return* signature is suppressed:
    #: sanctioned plaintext producers gated by a runtime context the
    #: analyzer cannot see (their own baselined findings still report)
    boundary_functions: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolConfig:
    """2PC write-ahead parameters (no engine modules → the ordering check
    is inert).

    ``engine_modules`` are where 2PC state transitions live; functions
    named in ``recovery_functions`` replay WAL records instead of writing
    them and are exempt from the write-ahead ordering check.
    """

    engine_modules: tuple[str, ...] = ()
    recovery_functions: tuple[str, ...] = ("recover",)


@dataclass(frozen=True)
class AnalysisConfig:
    root: Path                       # directory containing the package(s)
    packages: tuple[str, ...] = ("repro",)
    #: untrusted host packages: may not reach enclave internals
    host_packages: tuple[str, ...] = ()
    #: packages subject to the plaintext-taint rule (host minus the
    #: trusted client, which legitimately decrypts result sets)
    taint_packages: tuple[str, ...] = ()
    #: the enclave package (its submodules are enclave-internal)
    enclave_package: str = "repro.enclave"
    #: packages exempt from *all* rules (the enclave itself is exempt from
    #: host-side rules by construction; no need to list it here)
    exempt_packages: tuple[str, ...] = ()
    #: receiver final-names treated as "this is the enclave object"
    enclave_receivers: tuple[str, ...] = ("enclave", "_enclave")
    #: receiver final-names treated as "this is the call gateway"
    gateway_receivers: tuple[str, ...] = ("gateway", "_gateway", "enclave_gateway")
    #: receiver final-names treated as "this is a StackMachine"
    vm_receivers: tuple[str, ...] = ("vm", "_vm", "stack_machine", "machine")
    #: the sanctioned surface (EcallSurface); None → import the real one
    surface: object = None
    lock_order: LockOrderConfig = field(default_factory=LockOrderConfig)
    taint: TaintConfig = field(default_factory=TaintConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    #: modules exempt from the latch exception-safety rule (the lock
    #: implementations themselves: their acquire/release *are* the lock)
    latch_exempt: tuple[str, ...] = ()
    #: directory scanned for fault-site test coverage (None disables)
    tests_root: Path | None = None
    baseline_path: Path | None = None


#: Declared lock order for this repository, outermost → innermost. The
#: client connection's state lock is outermost (the driver holds it
#: across whole server round-trips); the server session/plan locks come
#: next; the txn lock manager sits above storage (it blocks); the
#: catalog and index latches sit above the
#: enclave because comparators call into the gateway while held; the
#: enclave's own locks sit above storage because ecalls never call back
#: into the host; heap latches nest into the buffer-pool latch, which
#: nests into WAL/disk (the write-back path); the fault-registry and
#: observability locks (latch profiler, leakage ledger, flight recorder,
#: metrics) are innermost leaves every layer may take while instrumented
#: — once per statement, at its settle, for everything a statement counts.
#: ``docs/CONCURRENCY.md`` documents this hierarchy — keep them in sync.
DEFAULT_LOCK_ORDER = (
    "repro.client.driver.Connection.*",
    "repro.client.caches.*",
    # The wire stub's control-channel lock is held across a whole remote
    # round trip (like the driver's state lock above it); the router's
    # locks guard the 2PC decision log and the frame server's its
    # connection bookkeeping, and neither nests into engine latches — the
    # serving thread releases them before dispatching into a SqlServer.
    "repro.net.remote.RemoteServer.*",
    "repro.net.router.*",
    "repro.net.frameserver.FrameServer.*",
    "repro.sqlengine.server.SqlServer.*",
    "repro.sqlengine.txn.locks.LockManager.*",
    "repro.sqlengine.txn.transaction.*",
    "repro.sqlengine.catalog.Catalog.*",
    "repro.sqlengine.index.btree.BPlusTree.*",
    "repro.enclave.runtime.Enclave.*",
    "repro.enclave.sqlos.SqlOs.*",
    "repro.sqlengine.storage.heap.HeapFile.*",
    "repro.sqlengine.storage.bufferpool.*",
    "repro.sqlengine.storage.wal.*",
    "repro.sqlengine.storage.disk.*",
    # The freshness anchor's latch is deliberately *below* all storage
    # latches: advances run under the pool latch (write-back) and inside
    # the WAL flush path, and the anchor never calls back into storage.
    "repro.enclave.anchor.*",
    "repro.keys.providers.*",
    "repro.faults.registry.*",
    "repro.obs.latchprof.*",
    "repro.obs.leakage.*",
    "repro.obs.flightrec.*",
    "repro.obs.metrics.*",
)

DEFAULT_RECEIVER_ALIASES = {
    "sqlos": "repro.enclave.sqlos.SqlOs",
    "wal": "repro.sqlengine.storage.wal.WriteAheadLog",
    "_wal": "repro.sqlengine.storage.wal.WriteAheadLog",
    "disk": "repro.sqlengine.storage.disk.Disk",
    "_disk": "repro.sqlengine.storage.disk.Disk",
    "locks": "repro.sqlengine.txn.locks.LockManager",
    "enclave": "repro.enclave.runtime.Enclave",
    "_enclave": "repro.enclave.runtime.Enclave",
    "registry": "repro.obs.metrics.MetricsRegistry",
    "pool": "repro.sqlengine.storage.bufferpool.BufferPool",
    "_pool": "repro.sqlengine.storage.bufferpool.BufferPool",
    "cek_cache": "repro.client.caches.CekCache",
}


def repo_root() -> Path:
    """The repository root, resolved from the installed package location."""
    import repro

    return Path(repro.__file__).resolve().parent.parent.parent


def default_config(
    root: Path | None = None,
    baseline_path: Path | None = None,
    tests_root: Path | None = None,
) -> AnalysisConfig:
    """The configuration for this repository's source tree."""
    from repro.enclave import ECALL_SURFACE

    top = repo_root()
    if root is None:
        root = top / "src"
    root = Path(root)
    if baseline_path is None:
        candidate = top / "analysis-baseline.txt"
        baseline_path = candidate
    if tests_root is None:
        candidate = top / "tests"
        tests_root = candidate if candidate.is_dir() else None
    return AnalysisConfig(
        root=root,
        packages=("repro",),
        host_packages=(
            "repro.sqlengine",
            "repro.client",
            "repro.workloads",
            "repro.harness",
            "repro.tools",
            "repro.security",
            # The wire layer runs host-side (router, wire server, client
            # stub): it marshals ciphertext and sealed packages but must
            # never reach enclave internals.
            "repro.net",
        ),
        taint_packages=(
            "repro.sqlengine",
            "repro.workloads",
            "repro.harness",
            "repro.tools",
            "repro.net",
        ),
        enclave_package="repro.enclave",
        surface=ECALL_SURFACE,
        taint=TaintConfig(
            opaque_packages=("repro.crypto",),
        ),
        protocol=ProtocolConfig(engine_modules=("repro.sqlengine.engine",)),
        latch_exempt=("repro.obs.latchprof",),
        lock_order=LockOrderConfig(
            order=DEFAULT_LOCK_ORDER,
            receiver_aliases=dict(DEFAULT_RECEIVER_ALIASES),
        ),
        tests_root=tests_root,
        baseline_path=baseline_path,
    )


def with_root(config: AnalysisConfig, root: Path) -> AnalysisConfig:
    return replace(config, root=Path(root))
