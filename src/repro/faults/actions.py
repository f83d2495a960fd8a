"""Typed fault actions: *what* happens when an armed fault fires.

Two shapes:

* **Raising actions** (`RaiseTransient`, `RaiseFatal`, `ForceCrash`)
  raise the matching :mod:`repro.errors` exception straight out of the
  ``FaultSite.fire`` call — the instrumented code needs no special
  handling.
* **Directive actions** (`TornWrite`, `PartialFlush`, `DropMessage`,
  `DuplicateMessage`) return a :class:`FaultDirective` that only the
  site that understands it applies (the disk tears the in-flight page
  image; the WAL stops the flush short; the driver's channel send drops
  or duplicates the sealed package). A site that receives a directive it
  cannot interpret ignores it — arming `TornWrite` at `engine.commit`
  is a no-op, not an error.

Torn writes and partial flushes model *power loss mid-I/O*, so their
directives carry ``then_crash=True`` and the applying site raises
:class:`~repro.errors.ForcedCrash` after corrupting state: a flush that
returned success must never have lied about durability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.errors import FatalFault, ForcedCrash, TransientFault


@dataclass(frozen=True)
class FaultDirective:
    """Base class for instructions handed back to the instrumented site."""

    kind: str = "noop"


@dataclass(frozen=True)
class TornWriteDirective(FaultDirective):
    """Tear the page image being written: keep a prefix of the new bytes,
    leave the rest as whatever was there before (old image or zeros)."""

    kind: str = "torn_write"
    keep_fraction: float = 0.5
    then_crash: bool = True

    def tear(self, new_image: bytes, old_image: bytes | None) -> bytes:
        keep = max(1, int(len(new_image) * self.keep_fraction))
        tail_source = old_image if old_image is not None else b"\x00" * len(new_image)
        tail = tail_source[keep:].ljust(len(new_image) - keep, b"\x00")
        return new_image[:keep] + tail[: len(new_image) - keep]


@dataclass(frozen=True)
class PartialFlushDirective(FaultDirective):
    """Stop a WAL flush short of the tail: the last ``drop_last`` appended
    records do not become durable. Models a crash mid-fsync — the torn
    log tail of Section 4.5."""

    kind: str = "partial_flush"
    drop_last: int = 1
    then_crash: bool = True


@dataclass(frozen=True)
class DropMessageDirective(FaultDirective):
    """Silently drop a channel message before delivery. The sender sees a
    transient error (a real dropped request manifests as a timeout)."""

    kind: str = "drop_message"


@dataclass(frozen=True)
class DuplicateMessageDirective(FaultDirective):
    """Deliver a channel message twice — the replay the enclave's nonce
    range tracker (Section 4.2) must reject on the second delivery."""

    kind: str = "duplicate_message"


class FaultAction(Protocol):
    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        """Raise an injected error or return a directive for the site."""
        ...


class RaiseTransient:
    """Raise a retryable :class:`~repro.errors.TransientFault`."""

    def __init__(self, message: str | None = None):
        self.message = message

    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        raise TransientFault(site, self.message)


class RaiseFatal:
    """Raise a non-retryable :class:`~repro.errors.FatalFault`."""

    def __init__(self, message: str | None = None):
        self.message = message

    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        raise FatalFault(site, self.message)


class ForceCrash:
    """Raise :class:`~repro.errors.ForcedCrash`: volatile state is gone."""

    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        raise ForcedCrash(site)


class TornWrite:
    """Tear the last page image written, then crash (power loss mid-write)."""

    def __init__(self, keep_fraction: float = 0.5, then_crash: bool = True):
        if not 0.0 < keep_fraction < 1.0:
            raise ValueError("keep_fraction must be in (0, 1): some bytes land, some don't")
        self.directive = TornWriteDirective(
            keep_fraction=keep_fraction, then_crash=then_crash
        )

    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        return self.directive


class PartialFlush:
    """Stop the WAL flush ``drop_last`` records short of the tail, then crash."""

    def __init__(self, drop_last: int = 1, then_crash: bool = True):
        if drop_last < 1:
            raise ValueError("drop_last must be >= 1 (otherwise the flush completed)")
        self.directive = PartialFlushDirective(drop_last=drop_last, then_crash=then_crash)

    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        return self.directive


class DropMessage:
    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        return DropMessageDirective()


class DuplicateMessage:
    def trigger(self, site: str, ctx: dict) -> FaultDirective | None:
        return DuplicateMessageDirective()
