"""Host-speed calibration: report times as the reference host would see them.

Measured on this sandbox at the seed commit, with nothing else running in
the VM: the time of *any* pure-Python code swings by up to 1.8x for
stretches of 5 to 30 seconds (a neighbour on the physical core), so the
same commit reads 70 or 125 txn/s depending on when it ran. Rounds, runs
and medians do not help against a phase that outlasts the whole run.

What does help: a fixed kernel of generic interpreter work (object
churn, dict and bytes traffic; no code of the system under test) is
timed next to every op, and the op's times are scaled by
``REFERENCE_NS / kernel time``. Over 150 s covering several slow phases
this took the spread of a fixed TPC-C op pair from sd 9.6% to 3.8%, and
of a wire op pair from 15.5% to 4.8%; a tight integer loop, a pointer
chase over 25 MB and a large dict tracked no better or worse.

So every time the benchmark reports is in *reference milliseconds*: equal
to wall milliseconds on an undisturbed reference host, and to fewer when
the host is slow. Raw throughput is kept as ``host.raw_ops_per_s``.
"""

from __future__ import annotations

from time import perf_counter_ns

#: The kernel's duration on the reference host (this sandbox, undisturbed).
REFERENCE_NS = 1_080_000


class _Record:
    __slots__ = ("key", "payload")

    def __init__(self, key: int, payload: bytes):
        self.key = key
        self.payload = payload

    def weight(self) -> int:
        return self.key + len(self.payload)


def kernel() -> int:
    """Time one run of the calibration kernel, in ns (about 1 ms)."""
    start = perf_counter_ns()
    table: dict[int, _Record] = {}
    total = 0
    for i in range(1500):
        table[i % 257] = _Record(i, b"x" * (i % 64))
        probe = (i * 7) % 257
        total += table[probe if probe in table else i % 257].weight()
        total += (bytes(bytearray(16)) + i.to_bytes(4, "big"))[3]
    return perf_counter_ns() - start


def speed_factors(kernel_ns: list[int]) -> list[float]:
    """Scale factor for each op from the kernel runs before and after it."""
    return [
        2.0 * REFERENCE_NS / (before + after)
        for before, after in zip(kernel_ns, kernel_ns[1:])
    ]
