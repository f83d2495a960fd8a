"""Client-side tooling: provisioning, initial encryption, rotation."""

from repro.tools.initial_encryption import client_side_initial_encryption
from repro.tools.provisioning import provision_cek, provision_cmk, rotate_cmk

__all__ = [
    "client_side_initial_encryption",
    "provision_cek",
    "provision_cmk",
    "rotate_cmk",
]
