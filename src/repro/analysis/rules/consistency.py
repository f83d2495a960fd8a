"""Rule family 4: fault-site consistency.

Fault sites are a stringly-typed contract between production code and
the fault-injection tests; a typo fails silently (a fault that never
fires, and the test that armed it passes anyway). The sites are the
``FaultSite("…")`` rows of one table; a module binds a row with
``fault_site("…")``. Checks:

* every ``fault_site("…")`` literal names a declared row;
* every row is bound by some module — an arming of an unbound row can
  never fire;
* every row is exercised — its name appears as a string literal
  somewhere under the tests root (arming a site you never test is an
  untested failure path);
* site names passed to ``FaultSite``/``fault_site`` must be literals — a
  dynamic name can't be audited.

Metric names and kinds and flight-recorder event kinds are left to
runtime: the registry
and the recorder refuse bad ones, and every such call site runs at
import or under a named test (``docs/ANALYSIS.md``, "Deleted checks").
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import CALL_MARK

_SITE_DECLARE_FN = "FaultSite"
_SITE_BIND_FN = "fault_site"


class FaultSiteRule:
    name = "fault-site"

    def run(self, model, config) -> list:
        findings: list[Finding] = []
        declared: dict[str, tuple] = {}     # site -> (path, line)
        bound: list[tuple] = []             # (site, path, line, scope)

        for modname, info in model.modules.items():
            if not model.in_packages(modname, config.packages):
                continue
            path = model.relpath(info)
            for call in info.calls:
                parts = tuple(p for p in call.parts if p != CALL_MARK)
                if not parts or parts[-1] not in (_SITE_DECLARE_FN, _SITE_BIND_FN):
                    continue
                fn = parts[-1]
                literal = call.str_args[0] if call.str_args else None
                if literal is None:
                    findings.append(Finding(
                        rule=self.name, path=path, line=call.lineno,
                        symbol=call.scope,
                        key=f"dynamic-site:{fn}",
                        message=(
                            f"{fn}() called with a non-literal site "
                            "name; fault sites must be auditable "
                            "string literals"
                        ),
                    ))
                elif fn == _SITE_DECLARE_FN:
                    declared.setdefault(literal, (path, call.lineno))
                else:
                    bound.append((literal, path, call.lineno, call.scope))

        # -- cross-checks ---------------------------------------------------
        for site, path, line, scope in bound:
            if site not in declared:
                findings.append(Finding(
                    rule=self.name, path=path, line=line, symbol=scope,
                    key=f"unregistered-site:{site}",
                    message=(
                        f"fault_site({site!r}) names a fault site that no "
                        "FaultSite row declares"
                    ),
                ))
        bound_names = {site for site, *__ in bound}
        for site, (path, line) in sorted(declared.items()):
            if site not in bound_names:
                findings.append(Finding(
                    rule=self.name, path=path, line=line, symbol="<module>",
                    key=f"unused-site:{site}",
                    message=(
                        f"fault site {site!r} is declared but no module binds "
                        "it with fault_site() — arming it can never fire"
                    ),
                ))

        if config.tests_root is not None and config.tests_root.is_dir():
            corpus = "\n".join(
                p.read_text(encoding="utf-8", errors="replace")
                for p in sorted(config.tests_root.rglob("*.py"))
            )
            for site, (path, line) in sorted(declared.items()):
                if f'"{site}"' not in corpus and f"'{site}'" not in corpus:
                    findings.append(Finding(
                        rule=self.name, path=path, line=line, symbol="<module>",
                        key=f"untested-site:{site}",
                        message=(
                            f"fault site {site!r} is declared but appears "
                            f"in no test under {config.tests_root.name}/ — "
                            "its failure path is untested"
                        ),
                    ))
        return findings
