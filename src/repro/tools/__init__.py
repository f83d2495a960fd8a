"""Client-side tooling: provisioning, initial encryption, rotation."""

from repro.tools.provisioning import provision_cek, provision_cmk, rotate_cmk
from repro.tools.rotation import client_side_initial_encryption

__all__ = [
    "client_side_initial_encryption",
    "provision_cek",
    "provision_cmk",
    "rotate_cmk",
]
