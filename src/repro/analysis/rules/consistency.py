"""Rule family 4: fault-site consistency.

Fault sites are a stringly-typed contract between production code and
the fault-injection tests; a typo fails silently (a fault that never
fires, and the test that armed it passes anyway). Checks:

* every ``fault_point("…")`` literal names a site that some
  ``register_fault_site("…")`` declares;
* every registered fault site is exercised — its name appears as a
  string literal somewhere under the tests root (arming a site you never
  test is an untested failure path);
* site names passed to ``fault_point``/``register_fault_site`` must be
  literals outside the registry implementation itself — a dynamic name
  can't be audited.

Metric names and kinds and flight-recorder event kinds are left to
runtime: the registry
and the recorder refuse bad ones, and every such call site runs at
import or under a named test (``docs/ANALYSIS.md``, "Deleted checks").
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.model import CALL_MARK

_SITE_REGISTER_FNS = ("register_fault_site", "register_site")
_SITE_USE_FNS = ("fault_point",)


class FaultSiteRule:
    name = "fault-site"

    def run(self, model, config) -> list:
        findings: list[Finding] = []
        registered: dict[str, tuple] = {}   # site -> (path, line)
        used: list[tuple] = []              # (site, path, line, scope)

        for modname, info in model.modules.items():
            if not model.in_packages(modname, config.packages):
                continue
            path = model.relpath(info)
            exempt = model.in_packages(modname, config.consistency_exempt)
            for call in info.calls:
                parts = tuple(p for p in call.parts if p != CALL_MARK)
                if not parts:
                    continue
                fn = parts[-1]
                if fn in _SITE_REGISTER_FNS or fn in _SITE_USE_FNS:
                    literal = call.str_args[0] if call.str_args else None
                    if literal is None:
                        if not exempt:
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
                    elif fn in _SITE_REGISTER_FNS:
                        registered.setdefault(literal, (path, call.lineno))
                    else:
                        used.append((literal, path, call.lineno, call.scope))

        # -- cross-checks ---------------------------------------------------
        for site, path, line, scope in used:
            if site not in registered:
                findings.append(Finding(
                    rule=self.name, path=path, line=line, symbol=scope,
                    key=f"unregistered-site:{site}",
                    message=(
                        f"fault_point({site!r}) names a fault site that is "
                        "never registered with register_fault_site()"
                    ),
                ))

        if config.tests_root is not None and config.tests_root.is_dir():
            corpus = "\n".join(
                p.read_text(encoding="utf-8", errors="replace")
                for p in sorted(config.tests_root.rglob("*.py"))
            )
            for site, (path, line) in sorted(registered.items()):
                if f'"{site}"' not in corpus and f"'{site}'" not in corpus:
                    findings.append(Finding(
                        rule=self.name, path=path, line=line, symbol="<module>",
                        key=f"untested-site:{site}",
                        message=(
                            f"fault site {site!r} is registered but appears "
                            f"in no test under {config.tests_root.name}/ — "
                            "its failure path is untested"
                        ),
                    ))
        return findings
