"""Rule family 1: the trust boundaries, host↔enclave and client↔server.

The paper's isolation claim holds only if the untrusted host interacts
with the enclave exclusively through the sanctioned ecall surface. Three
checks, all driven by :data:`repro.enclave.ECALL_SURFACE` (the same
registry the runtime enforces, so the allowlist cannot fork):

* **enclave-internal imports** — host packages may import only the
  ``repro.enclave`` facade, and only names the surface declares
  importable; reaching into ``repro.enclave.<submodule>`` is a finding;
* **private-attribute reaches** — ``enclave._sessions``, ``vm._stack``
  and friends from host code are findings regardless of spelling;
* **off-surface attribute access** — any attribute on an enclave-typed
  receiver that is neither a declared ecall nor declared observable
  (e.g. ``enclave.sqlos``) is a finding, as is any off-surface use of
  the call gateway.

The client reaches the server only through its messages. In the
:data:`SERVER_CLIENTS` packages, an attribute on a receiver named ``server``
must be a public name of :data:`SERVER_STUB`, the wire client stub, as
parsed from the tree: the stub is the allowlist, so it cannot fork
either. An in-process ``SqlServer`` answers the same names, so code
that passes this check runs unchanged against a remote server.

Receivers are recognized conservatively by name (``enclave``,
``_enclave``, ``gateway``, ``vm``, ``server`` …): syntactic, no type
inference, which is exactly what a lint-time boundary check should be —
cheap, total, and hard to fool by accident.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

#: The class whose public names are everything a client may ask of a server.
SERVER_STUB = "repro.net.remote.RemoteServer"
#: The packages that hold a server only as a client.
SERVER_CLIENTS = ("repro.client", "repro.tools", "repro.workloads")


def class_surface(model, qualname: str) -> frozenset[str]:
    """The public names of class ``qualname`` as parsed: its methods, its
    class attributes and the attributes its ``__init__`` binds on ``self``."""
    module, __, name = qualname.rpartition(".")
    info = model.modules.get(module)
    if info is None:
        return frozenset()
    names = {
        access.attr
        for access in info.attr_accesses
        if access.scope == f"{name}.__init__" and access.is_store
        and access.receiver == ("self",)
    }
    for node in info.tree.body:
        if not (isinstance(node, ast.ClassDef) and node.name == name):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return frozenset(n for n in names if not n.startswith("_"))


class TrustBoundaryRule:
    name = "trust-boundary"

    def run(self, model, config) -> list:
        surface = config.surface
        findings: list[Finding] = []
        internal_prefix = config.enclave_package + "."
        for modname, info in model.modules.items():
            if not model.in_packages(modname, config.host_packages):
                continue
            if model.in_packages(modname, config.exempt_packages):
                continue
            path = model.relpath(info)

            for imp in info.imports:
                # import repro.enclave.<submodule> — internal reach
                if imp.module.startswith(internal_prefix) or (
                    imp.name is not None
                    and imp.module == config.enclave_package
                    and surface is not None
                    and imp.name not in surface.importable
                    and imp.name != "*"
                ):
                    what = imp.module if imp.name is None else f"{imp.module}.{imp.name}"
                    findings.append(Finding(
                        rule=self.name, path=path, line=imp.lineno,
                        symbol="<module>",
                        key=f"import:{what}",
                        message=(
                            f"host module imports enclave-internal {what!r}; "
                            f"use the sanctioned names exported by "
                            f"{config.enclave_package!r} (see ECALL_SURFACE.importable)"
                        ),
                    ))

            for access in info.attr_accesses:
                receiver_tail = access.receiver[-1] if access.receiver else ""
                is_enclave = receiver_tail in config.enclave_receivers
                is_gateway = receiver_tail in config.gateway_receivers
                is_vm = receiver_tail in config.vm_receivers
                if not (is_enclave or is_gateway or is_vm):
                    continue
                attr = access.attr
                if attr.startswith("__") and attr.endswith("__"):
                    continue  # dunder protocol (context managers etc.)
                if attr.startswith("_"):
                    findings.append(Finding(
                        rule=self.name, path=path, line=access.lineno,
                        symbol=access.scope,
                        key=f"private:{receiver_tail}.{attr}",
                        message=(
                            f"host code reaches private enclave state "
                            f"{'.'.join(access.receiver)}.{attr}"
                        ),
                    ))
                    continue
                if access.is_store:
                    # Binding `self.enclave = ...` etc. is construction
                    # plumbing, not a boundary crossing.
                    continue
                if surface is None:
                    continue
                if is_enclave:
                    allowed = surface.ecalls | surface.observable
                    kind = "ecall surface"
                elif is_gateway:
                    allowed = surface.gateway
                    kind = "gateway surface"
                else:
                    continue  # vm receivers: only the private-attr check
                if attr not in allowed:
                    findings.append(Finding(
                        rule=self.name, path=path, line=access.lineno,
                        symbol=access.scope,
                        key=f"off-surface:{receiver_tail}.{attr}",
                        message=(
                            f"{'.'.join(access.receiver)}.{attr} is outside the "
                            f"sanctioned {kind} declared in ECALL_SURFACE"
                        ),
                    ))
        return findings + self._server_reaches(model)

    def _server_reaches(self, model) -> list:
        allowed = class_surface(model, SERVER_STUB)
        findings: list[Finding] = []
        for modname, info in model.modules.items():
            if not model.in_packages(modname, SERVER_CLIENTS):
                continue
            for access in info.attr_accesses:
                attr = access.attr
                if access.receiver[-1:] != ("server",) or attr in allowed:
                    continue
                if attr.startswith("__") and attr.endswith("__"):
                    continue
                findings.append(Finding(
                    rule=self.name, path=model.relpath(info), line=access.lineno,
                    symbol=access.scope,
                    key=f"off-surface:server.{attr}",
                    message=(
                        f"{'.'.join(access.receiver)}.{attr} is not a message the "
                        f"server answers (a public name of {SERVER_STUB})"
                    ),
                ))
        return findings
