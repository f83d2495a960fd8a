"""Deterministic fault injection for the Always Encrypted reproduction.

See ``docs/FAULTS.md``. The shape:

    from repro.faults import get_fault_registry, OnNth, RaiseTransient

    faults = get_fault_registry()
    armed = faults.arm("enclave.channel.send", OnNth(1), RaiseTransient())
    try:
        ...   # run the workload; the first channel send fails, is retried
    finally:
        faults.disarm(armed)
"""

from repro.faults.actions import (
    DropMessage,
    DropMessageDirective,
    DuplicateMessage,
    DuplicateMessageDirective,
    FaultAction,
    FaultDirective,
    ForceCrash,
    PartialFlush,
    PartialFlushDirective,
    RaiseFatal,
    RaiseTransient,
    TornWrite,
    TornWriteDirective,
)
from repro.faults.classify import ErrorClass, classify_error, is_transient
from repro.faults.rollback import (
    ROLLBACK_ACTIONS,
    ReplayPages,
    RestoreSnapshot,
    RevertBtreeNodes,
    RollbackAction,
    StaleCekVersion,
)
from repro.faults.registry import (
    ArmedFault,
    FaultRegistry,
    FaultSite,
    fault_site,
    get_fault_registry,
)
from repro.faults.schedules import (
    Always,
    EveryKth,
    Never,
    OnNth,
    Schedule,
    SeededProbability,
)

__all__ = [
    "ArmedFault",
    "Always",
    "DropMessage",
    "DropMessageDirective",
    "DuplicateMessage",
    "DuplicateMessageDirective",
    "ErrorClass",
    "EveryKth",
    "FaultAction",
    "FaultDirective",
    "FaultRegistry",
    "FaultSite",
    "ForceCrash",
    "Never",
    "OnNth",
    "PartialFlush",
    "PartialFlushDirective",
    "RaiseFatal",
    "RaiseTransient",
    "ReplayPages",
    "RestoreSnapshot",
    "RevertBtreeNodes",
    "RollbackAction",
    "ROLLBACK_ACTIONS",
    "Schedule",
    "StaleCekVersion",
    "SeededProbability",
    "TornWrite",
    "TornWriteDirective",
    "classify_error",
    "fault_site",
    "get_fault_registry",
    "is_transient",
]
