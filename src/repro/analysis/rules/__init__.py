"""The rule families. Each rule is a callable object with a ``name`` and
``run(model, config) -> list[Finding]``; :data:`ALL_RULES` is the default
battery the engine and CLI load."""

from repro.analysis.rules.consistency import FaultSiteRule
from repro.analysis.rules.latch_safety import LatchSafetyRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.plaintext_taint import PlaintextTaintRule
from repro.analysis.rules.protocol_typestate import ProtocolTypestateRule
from repro.analysis.rules.trust_boundary import TrustBoundaryRule
from repro.analysis.rules.wire_egress import WireEgressRule

ALL_RULES = (
    TrustBoundaryRule(),
    PlaintextTaintRule(),
    WireEgressRule(),
    LockOrderRule(),
    LatchSafetyRule(),
    FaultSiteRule(),
    ProtocolTypestateRule(),
)

__all__ = [
    "ALL_RULES",
    "FaultSiteRule",
    "LatchSafetyRule",
    "LockOrderRule",
    "PlaintextTaintRule",
    "ProtocolTypestateRule",
    "TrustBoundaryRule",
    "WireEgressRule",
]
