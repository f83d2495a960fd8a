"""The server's statement gate.

A statement runs start-to-finish on the thread that brought it: the
client's own thread in-process, the connection thread behind a
``WireServer``. The statement's telemetry record
(:class:`~repro.obs.metrics.StatementRecord`: counts, events, open spans)
therefore lives on the thread doing the work, with no hand-off to adopt.

There is deliberately no cap on concurrent statements. Locks are held
across statements, so a per-statement cap lets lock waiters occupy every
slot while the holders' next statements queue behind them until
``lock_timeout`` fires (docs/CONCURRENCY.md has the numbers);
``SqlServer(max_sessions=…)`` is the admission bound. The gate only
counts statements and refuses them once the server is shut down.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SqlError
from repro.obs.metrics import get_registry


class StatementScheduler:
    """Runs statement closures on the calling thread until shut down."""

    def __init__(self) -> None:
        self._shutdown = False
        self._inline = get_registry().counter(
            "scheduler.statements_inline",
            help="statements executed on the thread that submitted them",
        )

    def submit(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` here and return its result; errors propagate as raised."""
        if self._shutdown:
            raise SqlError("server is shut down")
        self._inline.inc()
        return fn()

    def shutdown(self) -> None:
        """Refuse every later statement."""
        self._shutdown = True
