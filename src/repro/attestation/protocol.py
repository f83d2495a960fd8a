"""The end-to-end attestation + DH protocol (Section 4.2).

The flow, with SQL Server as the untrusted man-in-the-middle:

1. The client passes its DH public key with the
   ``sp_describe_parameter_encryption`` call.
2. SQL asks Windows to send the TCG log to HGS → *health certificate*
   (signed by the HGS key, embedding the host signing key).
3. SQL asks Windows to measure the enclave → *enclave report* (signed by
   the host signing key; contains author ID, binary hash, versions, and a
   hash of the enclave's RSA public key).
4. SQL ecalls the enclave with the client DH public key; the enclave
   returns its DH public key signed by its RSA key, and already holds the
   shared secret.
5. SQL returns (certificate, signed report, enclave RSA public key,
   signed enclave DH public key) to the client, which verifies the chain
   of trust and derives the shared secret.

The client-side checks 1–4 in the paper map to
:func:`verify_attestation_and_derive_secret` below, in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.attestation.hgs import AttestationPolicy, HealthCertificate, HostGuardianService
from repro.attestation.report import SignedReport
from repro.attestation.tpm import HostMachine
from repro.crypto.dh import DiffieHellman, public_key_bytes
from repro.crypto.rsa import RsaPublicKey, verify_signature
from repro.errors import AttestationError
from repro.faults.registry import fault_site

_VERIFY = fault_site("attestation.verify")

if TYPE_CHECKING:  # avoid a circular import: enclave.runtime uses our report
    from repro.enclave.runtime import Enclave


@dataclass(frozen=True)
class AttestationInfo:
    """What SQL Server returns to the driver (items 1–3 in Section 4.2)."""

    health_certificate: HealthCertificate
    signed_report: SignedReport
    enclave_rsa_public: RsaPublicKey
    enclave_dh_public: int
    dh_signature: bytes          # enclave RSA signature over both DH keys
    session_id: int              # the enclave session holding the secret


def server_attest(
    host: HostMachine,
    hgs: HostGuardianService,
    enclave: "Enclave",
    client_dh_public: int,
) -> AttestationInfo:
    """The server-side portion: gather certificate, report, and DH response.

    Run by (untrusted) SQL Server at query time on a signal from the
    client. Nothing here requires trusting SQL: every artifact is signed
    by a key SQL does not hold.
    """
    tcg_log = host.boot_and_measure()
    certificate = hgs.attest(tcg_log, host.host_signing_key.public)
    report = enclave.measure()
    signed_report = SignedReport.create(report, host.host_signing_key)
    session_id, enclave_dh_public, dh_signature = enclave.start_session(client_dh_public)
    return AttestationInfo(
        health_certificate=certificate,
        signed_report=signed_report,
        enclave_rsa_public=enclave.public_key,
        enclave_dh_public=enclave_dh_public,
        dh_signature=dh_signature,
        session_id=session_id,
    )


def verify_attestation_and_derive_secret(
    info: AttestationInfo,
    client_dh: DiffieHellman,
    hgs_public: RsaPublicKey,
    policy: AttestationPolicy,
) -> bytes:
    """Client-side chain-of-trust verification; returns the shared secret.

    Performs the paper's four checks in order and raises
    :class:`AttestationError` naming the failed link.
    """
    if _VERIFY.armed:
        _VERIFY.fire()
    # (1) Health certificate is signed by the HGS signing key.
    if not info.health_certificate.verify(hgs_public):
        raise AttestationError("health certificate is not signed by the HGS signing key")

    # (2) Enclave report is signed by the host signing key from the cert.
    if not info.signed_report.verify(info.health_certificate.host_signing_public):
        raise AttestationError("enclave report is not signed by the attested host")

    # (3) The enclave is healthy: author ID (or explicitly trusted binary
    #     hash) and minimum version numbers.
    report = info.signed_report.report
    author_ok = report.author_id in policy.trusted_author_ids
    hash_ok = report.binary_hash in policy.extra_trusted_binary_hashes
    if not (author_ok or hash_ok):
        raise AttestationError("enclave binary was not signed by a trusted author")
    if report.enclave_version < policy.min_enclave_version:
        raise AttestationError(
            f"enclave version {report.enclave_version} is below the required "
            f"minimum {policy.min_enclave_version}"
        )
    if report.hypervisor_version < policy.min_hypervisor_version:
        raise AttestationError(
            f"hypervisor version {report.hypervisor_version} is below the "
            f"required minimum {policy.min_hypervisor_version}"
        )

    # (4) The enclave public key matches the hash in the report, and the
    #     enclave DH public key is signed by the enclave public key.
    if info.enclave_rsa_public.fingerprint() != report.enclave_public_key_hash:
        raise AttestationError("enclave RSA public key does not match the report")
    message = (
        b"AE-DH-BINDING\x00"
        + public_key_bytes(info.enclave_dh_public)
        + public_key_bytes(client_dh.public_key)
    )
    if not verify_signature(info.enclave_rsa_public, message, info.dh_signature):
        raise AttestationError("enclave DH public key signature verification failed")

    return client_dh.shared_secret(info.enclave_dh_public)
