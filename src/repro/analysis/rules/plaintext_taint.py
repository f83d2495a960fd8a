"""Rule family 2: plaintext taint in host code (interprocedural).

Only the enclave (and the key-holding client) may see plaintext of
encrypted columns. Values produced by decrypting primitives
(``*.decrypt``, ``decrypt_cell``, ``decrypt_for_ddl``, ``open_package``)
are tracked by the shared flow engine (:mod:`repro.analysis.taintflow`)
through assignments, helper calls (call-graph-resolved function
signatures computed to a fixpoint), dataclass/constructor packing, and
containers, and flagged when they reach a host-side egress:

* a ``return`` (the value escapes to arbitrary host callers),
* a logging call (``print``, ``logger.info`` …),
* a metric mutation (``inc``/``set``/``observe`` arguments),
* a trace span payload (``span``/``ecall_span`` arguments),
* a *call into a helper whose parameter reaches any of the above*
  (``…-sink-via:<helper>`` keys — the leak is charged to the caller
  that supplied the plaintext).

Laundering is unchanged from the intra-procedural engine: unresolved
calls cleanse, re-encrypting (``encrypt_cell``) cleanses even when
resolved, and comparison *results* are deliberately untainted —
predicate verdicts are exactly the information the paper's adversary
model already concedes.

Wire-specific egress (frame sends, ``ErrorReply`` payloads) is the
``wire-egress`` family in :mod:`repro.analysis.rules.wire_egress`,
riding the same flow analysis.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.taintflow import get_taintflow

#: event kinds this family reports (wire kinds belong to wire-egress)
_KINDS = ("log", "metric", "trace")


class PlaintextTaintRule:
    name = "plaintext-taint"

    def run(self, model, config) -> list:
        findings: list[Finding] = []
        if not config.taint_packages:
            return findings
        flow = get_taintflow(model, config)
        for modname, info in model.modules.items():
            if not model.in_packages(modname, config.taint_packages):
                continue
            if model.in_packages(modname, config.exempt_packages):
                continue
            for event in flow.module_events(modname):
                if event.etype == "return":
                    findings.append(Finding(
                        rule=self.name, path=event.path, line=event.lineno,
                        symbol=event.scope,
                        key="return-plaintext",
                        message=(
                            "decrypted plaintext is returned from host code "
                            "without re-encryption"
                        ),
                    ))
                elif event.etype == "sink" and event.kind in _KINDS:
                    findings.append(Finding(
                        rule=self.name, path=event.path, line=event.lineno,
                        symbol=event.scope,
                        key=f"{event.kind}-sink:{event.name}",
                        message=(
                            f"decrypted plaintext flows into host-side "
                            f"{event.kind} call {event.name!r}"
                        ),
                    ))
                elif event.etype == "sink-via" and event.kind in _KINDS:
                    findings.append(Finding(
                        rule=self.name, path=event.path, line=event.lineno,
                        symbol=event.scope,
                        key=f"{event.kind}-sink-via:{event.name}",
                        message=(
                            f"decrypted plaintext passed to {event.name!r}, "
                            f"whose parameter reaches a host-side "
                            f"{event.kind} sink"
                        ),
                    ))
        return findings
