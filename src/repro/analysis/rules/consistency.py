"""Rule family 4: fault-site and metric-name consistency.

Fault sites and metric names are stringly-typed contracts between
production code, tests, and dashboards; typos fail silently (a fault that
never fires, a counter nobody aggregates). Checks:

* every ``fault_point("…")`` literal names a site that some
  ``register_fault_site("…")`` declares;
* every registered fault site is exercised — its name appears as a
  string literal somewhere under the tests root (arming a site you never
  test is an untested failure path);
* site names passed to ``fault_point``/``register_fault_site`` must be
  literals outside the registry implementation itself — a dynamic name
  can't be audited;
* every metric name — ``registry.counter/gauge/histogram("…")`` literals
  and ``FIELDS``-style StatsView maps — follows the ``component.noun_verb``
  convention (the static half of the metrics lint; the runtime half is
  :mod:`repro.analysis.dynamic_metrics`);
* no metric name is registered under two different kinds;
* every ``record_event("…")`` literal names a flight-recorder event kind
  registered in :data:`repro.obs.flightrec.EVENT_KINDS` and follows the
  same naming convention — an unregistered kind would raise at runtime,
  but only on the instrumented path actually executing.
"""

from __future__ import annotations

import re

from repro.analysis.findings import Finding
from repro.analysis.model import CALL_MARK

#: Mirrors repro.obs.metrics.METRIC_NAME_RE; asserted identical by the
#: analyzer's test suite so the two cannot drift.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

_SITE_REGISTER_FNS = ("register_fault_site", "register_site")
_SITE_USE_FNS = ("fault_point",)
_METRIC_FNS = ("counter", "gauge", "histogram")
_EVENT_FNS = ("record_event",)


class SiteMetricConsistencyRule:
    name = "site-metric"

    def run(self, model, config) -> list:
        findings: list[Finding] = []
        registered: dict[str, tuple] = {}   # site -> (path, line)
        used: list[tuple] = []              # (site, path, line, scope)
        metric_kinds: dict[str, tuple] = {} # name -> (kind, path, line)

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
                        continue
                    if fn in _SITE_REGISTER_FNS:
                        registered.setdefault(literal, (path, call.lineno))
                    else:
                        used.append((literal, path, call.lineno, call.scope))
                elif fn in _EVENT_FNS:
                    literal = call.str_args[0] if call.str_args else None
                    if literal is None:
                        if not exempt:
                            findings.append(Finding(
                                rule=self.name, path=path, line=call.lineno,
                                symbol=call.scope,
                                key=f"dynamic-event:{fn}",
                                message=(
                                    f"{fn}() called with a non-literal event "
                                    "kind; flight-recorder events must be "
                                    "auditable string literals"
                                ),
                            ))
                        continue
                    if not METRIC_NAME_RE.match(literal):
                        findings.append(Finding(
                            rule=self.name, path=path, line=call.lineno,
                            symbol=call.scope,
                            key=f"event-name:{literal}",
                            message=(
                                f"event kind {literal!r} violates the "
                                "component.noun_verb convention (lowercase "
                                "dot-separated segments, >= 2)"
                            ),
                        ))
                    elif config.event_kinds and literal not in config.event_kinds:
                        findings.append(Finding(
                            rule=self.name, path=path, line=call.lineno,
                            symbol=call.scope,
                            key=f"unregistered-event:{literal}",
                            message=(
                                f"record_event({literal!r}) names an event "
                                "kind not registered in "
                                "repro.obs.flightrec.EVENT_KINDS"
                            ),
                        ))
                elif fn in _METRIC_FNS and len(parts) >= 2:
                    literal = call.str_args[0] if call.str_args else None
                    if literal is None:
                        continue  # registry APIs validate dynamic names at runtime
                    self._check_metric_name(
                        findings, literal, path, call.lineno, call.scope
                    )
                    previous = metric_kinds.get(literal)
                    if previous is not None and previous[0] != fn:
                        findings.append(Finding(
                            rule=self.name, path=path, line=call.lineno,
                            symbol=call.scope,
                            key=f"metric-kind-conflict:{literal}",
                            message=(
                                f"metric {literal!r} registered as {fn} here "
                                f"but as {previous[0]} at "
                                f"{previous[1]}:{previous[2]}"
                            ),
                        ))
                    else:
                        metric_kinds.setdefault(literal, (fn, path, call.lineno))
            for cls in info.classes.values():
                for map_name, mapping in cls.fields_literal.items():
                    if map_name != "FIELDS":
                        continue
                    for metric_name, (value, lineno) in mapping.items():
                        self._check_metric_name(
                            findings, value, path, lineno, cls.name
                        )

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

    def _check_metric_name(self, findings, name, path, lineno, scope) -> None:
        if not METRIC_NAME_RE.match(name):
            findings.append(Finding(
                rule=self.name, path=path, line=lineno, symbol=scope,
                key=f"metric-name:{name}",
                message=(
                    f"metric name {name!r} violates the component.noun_verb "
                    "convention (lowercase dot-separated segments, >= 2)"
                ),
            ))
