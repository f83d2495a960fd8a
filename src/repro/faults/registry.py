"""The process-global fault-injection registry.

Every layer of the stack declares named *fault sites* — the host↔enclave
channel, the WAL flush path, the disk write path, the driver's describe
round-trip — by calling :func:`register_fault_site` at import time and
:func:`fault_point` on the hot path. Tests *arm* a site with a
deterministic :mod:`schedule <repro.faults.schedules>` deciding *when* to
fire and a typed :mod:`action <repro.faults.actions>` deciding *what*
happens: raise a :class:`~repro.errors.TransientFault`, tear the page
image being written, drop the channel message, force a crash.

Design rules:

* **Disarmed sites are near-free**: one truth test per ``fault_point``
  while nothing is armed anywhere, one dict lookup while anything is, no
  lock — the instrumentation can stay in production code permanently.
* **Determinism**: schedules are counters or seeded RNGs; the same
  (workload seed, site, schedule) triple replays the same failure.
* **Observability**: every fired fault increments the ``faults.injected``
  counter in the :mod:`repro.obs` registry, so EXPLAIN STATS and test
  assertions can see exactly how many faults a statement absorbed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.faults.actions import FaultAction, FaultDirective
from repro.faults.schedules import Schedule
from repro.obs.flightrec import record_event
from repro.obs.metrics import get_registry


@dataclass
class FaultSite:
    """A named place in the code where faults can be injected."""

    name: str
    description: str = ""


@dataclass
class ArmedFault:
    """One (site, schedule, action) arming; ``hits``/``fired`` are its
    private counters, so re-arming always starts a fresh deterministic
    sequence."""

    site: str
    schedule: Schedule
    action: FaultAction
    hits: int = 0
    fired: int = 0
    disarmed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class FaultRegistry:
    """Named fault sites plus the currently armed faults at each."""

    def __init__(self) -> None:
        self._sites: dict[str, FaultSite] = {}
        self._armed: dict[str, list[ArmedFault]] = {}
        self._lock = threading.Lock()

    # -- site registration ---------------------------------------------------

    def register_site(self, name: str, description: str = "") -> FaultSite:
        """Get-or-create a named site (idempotent, import-time safe)."""
        with self._lock:
            site = self._sites.get(name)
            if site is None:
                site = FaultSite(name=name, description=description)
                self._sites[name] = site
            elif description and not site.description:
                site.description = description
            return site

    def sites(self) -> list[str]:
        with self._lock:
            return sorted(self._sites)

    def site(self, name: str) -> FaultSite:
        with self._lock:
            try:
                return self._sites[name]
            except KeyError:
                raise KeyError(f"unknown fault site {name!r}") from None

    # -- arming ----------------------------------------------------------------

    def arm(self, site: str, schedule: Schedule, action: FaultAction) -> ArmedFault:
        """Arm ``action`` at ``site``, firing when ``schedule`` says so.

        The site must have been registered (importing the instrumented
        module registers it) — arming a typo'd name raises immediately
        instead of silently never firing.
        """
        with self._lock:
            if site not in self._sites:
                known = ", ".join(sorted(self._sites)) or "<none>"
                raise KeyError(
                    f"cannot arm unknown fault site {site!r}; registered sites: {known}"
                )
            armed = ArmedFault(site=site, schedule=schedule, action=action)
            self._armed.setdefault(site, []).append(armed)
            return armed

    def disarm(self, armed: ArmedFault) -> None:
        armed.disarmed = True
        with self._lock:
            faults = self._armed.get(armed.site)
            if faults and armed in faults:
                faults.remove(armed)
                if not faults:
                    del self._armed[armed.site]

    def disarm_all(self) -> None:
        with self._lock:
            for faults in self._armed.values():
                for armed in faults:
                    armed.disarmed = True
            self._armed.clear()

    def armed_at(self, site: str) -> list[ArmedFault]:
        with self._lock:
            return list(self._armed.get(site, ()))

    # -- the hot path ------------------------------------------------------------

    def fire(self, site: str, **ctx) -> FaultDirective | None:
        """Evaluate the armed faults at ``site``; called by ``fault_point``.

        Returns a directive for the instrumented code to apply (torn
        write, partial flush, dropped message, ...), or ``None``. Raising
        actions raise directly. At most one directive fires per hit; the
        first armed fault whose schedule matches wins.
        """
        faults = self._armed.get(site)
        if not faults:
            return None
        for armed in list(faults):
            if armed.disarmed:
                continue
            with armed._lock:
                armed.hits += 1
                should = armed.schedule.should_fire(armed.hits)
                if should:
                    armed.fired += 1
            if should:
                get_registry().counter(
                    "faults.injected", help="faults fired by the injection registry"
                ).inc()
                record_event("fault.injected", site=site)
                return armed.action.trigger(site, ctx)
        return None


_global_fault_registry = FaultRegistry()


def get_fault_registry() -> FaultRegistry:
    """The process-global fault registry every component reports into."""
    return _global_fault_registry


def register_fault_site(name: str, description: str = "") -> FaultSite:
    """Module-level helper: declare a site at import time."""
    return _global_fault_registry.register_site(name, description)


def fault_point(name: str, **ctx) -> FaultDirective | None:
    """The instrumentation hook: evaluate armed faults at ``name``.

    Disarmed cost: one truth test while nothing is armed anywhere. ``ctx``
    keyword arguments go to the action (e.g. ``image=...`` at
    ``disk.write_page``, so a torn write corrupts the bytes in flight).
    """
    if not _global_fault_registry._armed:
        return None
    return _global_fault_registry.fire(name, **ctx)
