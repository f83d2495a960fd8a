"""The simulated VBS enclave and its boundary machinery.

* :class:`~repro.enclave.runtime.Enclave` — the enclave itself: sessions,
  CEK store, expression evaluation, gated encryption oracle.
* :class:`~repro.enclave.runtime.EnclaveBinary` — the signed "dll".
* :mod:`~repro.enclave.nonce` — replay protection with compact ranges.
* :mod:`~repro.enclave.channel` — the sealed CEK package format.
* :class:`~repro.enclave.worker.EnclaveCallGateway` — sync vs worker-queue
  call routing (the Section 4.6 optimization).
* :data:`ECALL_SURFACE` — the machine-readable declaration of the
  sanctioned host↔enclave surface, consumed by both the runtime and the
  trust-boundary static analyzer (:mod:`repro.analysis`).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class EcallSurface:
    """The sanctioned trust-boundary surface, declared once.

    The paper's security argument depends on the host interacting with the
    enclave only through a narrow, auditable ecall surface. This registry
    is that surface in machine-readable form. Three consumers keep it
    honest:

    * :meth:`Enclave._observe` refuses to record a boundary crossing whose
      ecall name is not in :attr:`ecalls` — an undeclared ecall cannot run;
    * :class:`EnclaveCallGateway` verifies at construction that everything
      declared in :attr:`gateway` actually exists on the gateway;
    * the :mod:`repro.analysis` trust-boundary rule flags any host code
      that imports or touches anything *outside* this surface.
    """

    #: Ecall methods on :class:`Enclave` that cross into the enclave. Every
    #: boundary observation must carry one of these names.
    ecalls: frozenset
    #: Host-visible observability/attestation reads on :class:`Enclave`
    #: (measurement, counters, the boundary-observer tap). These expose
    #: exactly what the paper's adversary model already grants the host.
    observable: frozenset
    #: The public surface of :class:`EnclaveCallGateway` hosts may use.
    gateway: frozenset
    #: Names host packages may import from the ``repro.enclave`` facade.
    #: Everything else in the package is enclave-internal.
    importable: frozenset


ECALL_SURFACE = EcallSurface(
    ecalls=frozenset({
        "start_session",
        "install_package",
        "installed_ceks",
        "register_program",
        "eval",
        "eval_batch",
        "compare",
        "compare_batch",
        "begin_rotation",
        "end_rotation",
        "encrypt_for_ddl",
        "recrypt_batch_for_ddl",
        "decrypt_for_ddl",
        "anchor_attach",
        "anchor_advance",
        "anchor_confirm",
        "anchor_cek_version",
        "anchor_verify",
        "anchor_truncate",
        "anchor_status",
    }),
    observable=frozenset({
        "measure",
        "public_key",
        "add_boundary_observer",
        "counters",
        "binary",
        "hypervisor_version",
    }),
    gateway=frozenset({
        "register_program",
        "eval",
        "eval_batch",
        "shutdown",
        "stats",
        "mode",
        "enclave",
        "n_threads",
        "transition_cost_s",
        "spin_duration_s",
    }),
    importable=frozenset({
        "ECALL_SURFACE",
        "EcallSurface",
        "ENCLAVE_VERSION",
        "CallMode",
        "CekPackage",
        "Enclave",
        "EnclaveBinary",
        "EnclaveCallGateway",
        "EnclaveCounters",
        "NonceCounter",
        "NonceRangeTracker",
        "SealedPackage",
        "WorkerStats",
        "seal_package",
    }),
)

from repro.enclave.channel import (
    CekPackage,
    SealedPackage,
    open_package,
    seal_package,
)
from repro.enclave.nonce import NonceCounter, NonceRangeTracker
from repro.enclave.runtime import (
    ENCLAVE_VERSION,
    Enclave,
    EnclaveBinary,
    EnclaveCounters,
)
from repro.enclave.sqlos import SqlOs
from repro.enclave.validate import validate_program
from repro.enclave.worker import CallMode, EnclaveCallGateway, WorkerStats

__all__ = [
    "ECALL_SURFACE",
    "EcallSurface",
    "CallMode",
    "CekPackage",
    "ENCLAVE_VERSION",
    "Enclave",
    "EnclaveBinary",
    "EnclaveCallGateway",
    "EnclaveCounters",
    "NonceCounter",
    "NonceRangeTracker",
    "SealedPackage",
    "SqlOs",
    "WorkerStats",
    "open_package",
    "seal_package",
    "validate_program",
]
