"""The fault-site table and the process-global fault-injection registry.

Every place in the stack where a fault can be injected — the host↔enclave
channel, the WAL flush path, the disk write path, the driver's describe
round-trip — is one :class:`FaultSite` row of :data:`FAULT_SITES`, the
only place a site is declared. An instrumented module binds its row once
at import (``_FLUSH = fault_site("wal.flush")``) and guards each hit with
one attribute test (``if _FLUSH.armed: _FLUSH.fire(...)``). Tests *arm* a
site by name with a deterministic :mod:`schedule <repro.faults.schedules>`
deciding *when* to fire and a typed :mod:`action <repro.faults.actions>`
deciding *what* happens: raise a :class:`~repro.errors.TransientFault`,
tear the page image being written, drop the channel message, force a
crash.

Design rules:

* **A disarmed site makes no call**: its ``armed`` tuple is empty, so the
  guard is one attribute test and no lock — the instrumentation can stay
  in production code permanently.
* **Determinism**: schedules are counters or seeded RNGs; the same
  (workload seed, site, schedule) triple replays the same failure.
* **Observability**: every fired fault increments the ``faults.injected``
  counter in the :mod:`repro.obs` registry, so EXPLAIN STATS and test
  assertions can see exactly how many faults a statement absorbed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.faults.actions import FaultAction, FaultDirective
from repro.faults.schedules import Schedule
from repro.obs.flightrec import record_event
from repro.obs.metrics import get_registry


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


class FaultSite:
    """One row of the fault-site table: a named place in the code where
    faults can be injected, what it fires on, and the directives it
    applies (any other directive armed there is a no-op)."""

    __slots__ = ("name", "fires_on", "directives", "armed")

    def __init__(self, name: str, fires_on: str, directives: tuple[str, ...] = ()):
        self.name = name
        self.fires_on = fires_on
        self.directives = directives
        #: The armings, first match wins; empty while disarmed. Arming and
        #: disarming replace the tuple, so :meth:`fire` walks a snapshot.
        self.armed: tuple[ArmedFault, ...] = ()

    def fire(self, **ctx) -> FaultDirective | None:
        """Evaluate the armed faults at this site (the caller tested ``armed``).

        Returns a directive for the instrumented code to apply (torn
        write, partial flush, dropped message, ...), or ``None``. Raising
        actions raise directly. At most one directive fires per hit; the
        first armed fault whose schedule matches wins. ``ctx`` keyword
        arguments go to the action (e.g. ``image=...`` at
        ``disk.write_page``, so a torn write corrupts the bytes in flight).
        """
        for armed in self.armed:
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
                record_event("fault.injected", site=self.name)
                return armed.action.trigger(self.name, ctx)
        return None


#: Every fault site in the stack, one row each, by layer. docs/FAULTS.md
#: renders its "Fault sites" table from these rows (:func:`site_table`).
FAULT_SITES = (
    FaultSite(
        "driver.describe_parameter_encryption",
        "the sp_describe_parameter_encryption round-trip (Section 4.1)",
    ),
    FaultSite(
        "enclave.channel.send", "a sealed CEK package leaving the driver", ("drop", "duplicate")
    ),
    FaultSite("attestation.verify", "client-side verification of the attestation chain of trust"),
    FaultSite("enclave.channel.recv", "a sealed CEK package arriving at the install ecall"),
    FaultSite("enclave.eval_batch", "each row of a batched eval ecall (mid-batch failures)"),
    FaultSite("enclave.recrypt_batch", "each row of a batched recrypt ecall (rotation)"),
    FaultSite("net.send_frame", "outbound wire frame about to be written", ("drop",)),
    FaultSite("net.recv_frame", "inbound wire frame about to be read", ("drop",)),
    FaultSite(
        "router.commit_decision",
        "2PC coordinator about to make the commit decision durable "
        "(all participants prepared; crash here means presumed abort)",
    ),
    FaultSite("engine.commit", "transaction commit entry (before the COMMIT record lands)"),
    FaultSite("engine.prepare", "2PC prepare entry (before the PREPARE record lands)"),
    FaultSite("engine.index_insert", "index maintenance for one inserted/updated row"),
    FaultSite("wal.append", "one log record appended"),
    FaultSite("wal.flush", "the log forced to disk (commit durability point)", ("partial flush",)),
    FaultSite("disk.write_page", "one page image written to durable storage", ("torn write",)),
    FaultSite("disk.read_page", "one page image read from durable storage"),
    FaultSite("bufferpool.evict", "one page evicted (dirty pages write back to disk)"),
    FaultSite("freshness.advance", "one anchor advance into the trust root (WAL head, page, CEK)"),
    FaultSite("freshness.verify", "recovery's freshness verification against the anchor"),
    FaultSite("rotation.begin", "a lifecycle job about to flush its ROTATE_BEGIN record"),
    FaultSite("rotation.batch", "one rotation batch about to lock/recrypt/commit"),
    FaultSite("rotation.checkpoint", "a ROTATE_PROGRESS record about to flush (batch committed)"),
    FaultSite("rotation.end", "before ROTATE_END flushes (all rows converted)"),
)


def site_table() -> str:
    """The rows as docs/FAULTS.md's markdown table."""
    lines = ["| site | fires on | directives applied |", "|---|---|---|"]
    lines += [
        f"| `{site.name}` | {site.fires_on} | {', '.join(site.directives) or '—'} |"
        for site in FAULT_SITES
    ]
    return "\n".join(lines)


class FaultRegistry:
    """The fault sites by name, armed and disarmed by name."""

    def __init__(self, sites: Iterable[FaultSite]) -> None:
        self._sites = {site.name: site for site in sites}
        self._lock = threading.Lock()

    def sites(self) -> list[str]:
        return sorted(self._sites)

    def site(self, name: str) -> FaultSite:
        try:
            return self._sites[name]
        except KeyError:
            known = ", ".join(sorted(self._sites)) or "<none>"
            raise KeyError(f"unknown fault site {name!r}; known sites: {known}") from None

    # -- arming ----------------------------------------------------------------

    def arm(self, site: str, schedule: Schedule, action: FaultAction) -> ArmedFault:
        """Arm ``action`` at ``site``, firing when ``schedule`` says so.

        Arming a name the table lacks raises ``KeyError`` at once instead
        of silently never firing.
        """
        target = self.site(site)
        armed = ArmedFault(site=site, schedule=schedule, action=action)
        with self._lock:
            target.armed += (armed,)
        return armed

    def disarm(self, armed: ArmedFault) -> None:
        armed.disarmed = True
        with self._lock:
            site = self._sites[armed.site]
            site.armed = tuple(a for a in site.armed if a is not armed)

    def disarm_all(self) -> None:
        with self._lock:
            for site in self._sites.values():
                for armed in site.armed:
                    armed.disarmed = True
                site.armed = ()

    def armed_at(self, site: str) -> list[ArmedFault]:
        target = self._sites.get(site)
        return list(target.armed) if target is not None else []


_global_fault_registry = FaultRegistry(FAULT_SITES)


def get_fault_registry() -> FaultRegistry:
    """The process-global fault registry every component reports into."""
    return _global_fault_registry


def fault_site(name: str) -> FaultSite:
    """The global registry's row ``name``, for a module to bind at import;
    ``KeyError`` naming the known sites if the table has no such row."""
    return _global_fault_registry.site(name)
