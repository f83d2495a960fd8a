"""Key comparators for B+-trees over plaintext and encrypted columns.

The paper's two index flavours (Section 3.1) differ only in how keys are
ordered:

* **Equality indexes (DET)** order keys by *ciphertext* bytes. Because
  deterministic encryption is one-to-one at whole-value granularity,
  equality lookups through ciphertext order are exact — but the order
  itself is meaningless, so range lookups are unsupported.
* **Range indexes (RND)** order keys by *plaintext* value, obtained by
  routing every comparison to the enclave, which decrypts and returns the
  ordering in the clear.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.enclave import Enclave
from repro.errors import SqlError
from repro.obs.leakage import record_leak
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.values import compare_values


class KeyComparator(Protocol):
    """Three-way comparison over index key values.

    ``supports_range`` — the comparator defines a consistent total order,
    so ordered B+-tree scans are well-defined. ``semantic_order`` — that
    order matches *plaintext* order, so value-range predicates (<, >,
    BETWEEN) may use it. DET ciphertext order is consistent but not
    semantic: equal values cluster (prefix-equality seeks work), yet byte
    order says nothing about plaintext order.
    """

    def compare(self, left: object, right: object) -> int: ...

    def compare_one_to_many(self, probe: object, keys: list[object]) -> list[int]:
        """The outcome of ``compare(probe, k)`` for every ``k`` in keys."""
        ...

    @property
    def supports_range(self) -> bool: ...

    @property
    def semantic_order(self) -> bool: ...


#: Comparators may additionally expose
#:   batch_capable: bool — probing one key against many through
#:       ``compare_one_to_many`` amortizes real per-comparison cost
#:       (an enclave boundary crossing), so B+-tree descents should
#:       prefer a node-level batched probe over binary search.
#: Wrappers (CellComparator etc.) propagate batch capability from their
#: inner comparator; plain comparators default to batch_capable=False.


class PlaintextComparator:
    """Orders plaintext keys by value; supports ranges."""

    supports_range = True
    semantic_order = True
    batch_capable = False  # comparisons are free; binary search wins

    def compare(self, left: object, right: object) -> int:
        return compare_values(left, right)  # type: ignore[arg-type]

    def compare_one_to_many(self, probe: object, keys: list[object]) -> list[int]:
        return [self.compare(probe, key) for key in keys]


class CiphertextBinaryComparator:
    """Orders DET ciphertexts by envelope bytes; equality-only semantics.

    Byte order of ciphertexts is a *consistent* total order (so B+-tree
    scans and prefix-equality seeks are fine) but has no relation to
    plaintext order — ``semantic_order`` is False and the planner must
    never emit value-range scans through this comparator.
    """

    supports_range = True
    semantic_order = False
    batch_capable = False  # byte comparisons are free

    def __init__(self, column: str | None = None):
        # When labelled with a column, every comparison is charged to the
        # leakage ledger: DET byte comparison reveals an equality verdict.
        self._column = column

    def compare(self, left: object, right: object) -> int:
        left_bytes = self._envelope(left)
        right_bytes = self._envelope(right)
        if self._column is not None:
            record_leak(self._column, "det_equality")
        return (left_bytes > right_bytes) - (left_bytes < right_bytes)

    def compare_one_to_many(self, probe: object, keys: list[object]) -> list[int]:
        probe_bytes = self._envelope(probe)
        if self._column is not None and keys:
            record_leak(self._column, "det_equality", count=len(keys))
        return [
            (probe_bytes > kb) - (probe_bytes < kb)
            for kb in (self._envelope(key) for key in keys)
        ]

    @staticmethod
    def _envelope(value: object) -> bytes:
        if isinstance(value, Ciphertext):
            return value.envelope
        raise SqlError(
            f"DET index comparator expects ciphertext keys, got {type(value).__name__}"
        )


class EnclaveComparator:
    """Routes comparisons to the enclave (Figure 4); supports ranges.

    Raises :class:`~repro.errors.KeysUnavailableError` (from inside the
    enclave) when the CEK is not installed — the trigger for deferred
    transactions during recovery.
    """

    supports_range = True
    semantic_order = True

    def __init__(
        self,
        enclave: Enclave,
        cek_name: str,
        batch_probes: bool = True,
        column: str | None = None,
    ):
        self._enclave = enclave
        self._cek_name = cek_name
        self._batch_probes = batch_probes
        # When labelled, each comparison verdict (an ordering bit the host
        # observes in the clear) is charged to the leakage ledger.
        self._column = column

    @property
    def cek_name(self) -> str:
        return self._cek_name

    def rebind_cek(self, cek_name: str) -> None:
        """Follow an online rotation's metadata flip to the new CEK.

        Mid-rotation the tree still holds envelopes under the old key;
        those decrypt through the enclave's rotation-partner window until
        the job's final sweep has rewritten every entry.
        """
        self._cek_name = cek_name

    @property
    def batch_capable(self) -> bool:
        # Every comparison is an ecall; probing a whole node in one
        # compare_batch ecall amortizes the boundary crossing and decrypts
        # the probe once instead of once per separator. batch_probes=False
        # pins the paper's row-at-a-time behaviour (one compare per step).
        return self._batch_probes

    def compare(self, left: object, right: object) -> int:
        if not isinstance(left, Ciphertext) or not isinstance(right, Ciphertext):
            raise SqlError("enclave comparator expects ciphertext keys on both sides")
        if self._column is not None:
            record_leak(self._column, "rnd_comparison")
        return self._enclave.compare(self._cek_name, left, right)

    def compare_one_to_many(self, probe: object, keys: list[object]) -> list[int]:
        if not isinstance(probe, Ciphertext) or not all(
            isinstance(key, Ciphertext) for key in keys
        ):
            raise SqlError("enclave comparator expects ciphertext keys on both sides")
        if not keys:
            return []
        if self._column is not None:
            record_leak(self._column, "rnd_comparison", count=len(keys))
        if not self.batch_capable:
            return [self._enclave.compare(self._cek_name, probe, key) for key in keys]
        return self._enclave.compare_batch(self._cek_name, probe, list(keys))


class _Sentinel:
    """A key cell ordered by its rank alone; every value has rank 0.

    The rich comparisons let Python's own tuple order place it (a
    plaintext :class:`~repro.sqlengine.index.btree.BPlusTree` sorts with
    ``bisect``); equality stays identity.
    """

    __slots__ = ("name", "rank")

    def __init__(self, name: str, rank: int):
        self.name = name
        self.rank = rank

    def __repr__(self) -> str:
        return self.name

    def __lt__(self, other: object) -> bool:
        return self.rank < _rank(other)

    def __le__(self, other: object) -> bool:
        return self.rank <= _rank(other)

    def __gt__(self, other: object) -> bool:
        return self.rank > _rank(other)

    def __ge__(self, other: object) -> bool:
        return self.rank >= _rank(other)


def _rank(cell: object) -> int:
    if isinstance(cell, _Sentinel):
        return cell.rank
    return -1 if cell is None else 0


# Open-interval markers for prefix scans over composite keys.
MIN_KEY = _Sentinel("MIN_KEY", -2)
MAX_KEY = _Sentinel("MAX_KEY", +1)
#: What a plaintext tree stores for a NULL cell: Python cannot order
#: ``None``, this sorts where SQL index order puts NULL (after MIN_KEY,
#: before every value).
NULL_CELL = _Sentinel("NULL", -1)


class CellComparator:
    """Wraps a value comparator with NULL and sentinel ordering.

    SQL index order: NULL sorts first; MIN_KEY/MAX_KEY bound everything.
    """

    def __init__(self, inner: KeyComparator):
        self._inner = inner

    @property
    def supports_range(self) -> bool:
        return self._inner.supports_range

    @property
    def semantic_order(self) -> bool:
        return getattr(self._inner, "semantic_order", True)

    @property
    def inner(self) -> KeyComparator:
        return self._inner

    @property
    def batch_capable(self) -> bool:
        return bool(getattr(self._inner, "batch_capable", False))

    def compare(self, left: object, right: object) -> int:
        if (
            isinstance(left, _Sentinel)
            or isinstance(right, _Sentinel)
            or left is None
            or right is None
        ):
            left_rank, right_rank = _rank(left), _rank(right)
            return (left_rank > right_rank) - (left_rank < right_rank)
        return self._inner.compare(left, right)

    def compare_one_to_many(self, probe: object, keys: list[object]) -> list[int]:
        """Batched probe with identical NULL/sentinel semantics.

        Sentinel and NULL pairs are decided host-side (their order never
        depends on plaintext); only real value pairs reach the inner
        comparator, as one batched call when it supports that.
        """
        results: list[int] = [0] * len(keys)
        pending_indexes: list[int] = []
        pending_keys: list[object] = []
        for i, key in enumerate(keys):
            if (
                isinstance(probe, _Sentinel)
                or isinstance(key, _Sentinel)
                or probe is None
                or key is None
            ):
                results[i] = self.compare(probe, key)
            else:
                pending_indexes.append(i)
                pending_keys.append(key)
        if pending_keys:
            outcomes = self._inner.compare_one_to_many(probe, pending_keys)
            for i, outcome in zip(pending_indexes, outcomes):
                results[i] = outcome
        return results


#: Cell types whose same-type pairs ``compare_values`` orders with ``<`` and
#: ``>`` alone (``bool`` is not among them: it takes the BIT check).
_INLINE_TYPES = frozenset((int, str, float, bytes))


class CompositeComparator:
    """Lexicographic comparison of tuple keys, one comparator per column.

    A shorter tuple that is a prefix of a longer one compares *less*, so a
    bare prefix works directly as a lower bound, and prefix + ``MAX_KEY``
    as an upper bound.
    """

    def __init__(self, cells: list[CellComparator]):
        if not cells:
            raise SqlError("composite comparator needs at least one column")
        self._cells = cells
        # Columns :meth:`compare` may decide inline: exactly a
        # CellComparator over exactly a PlaintextComparator, so a wrapped
        # or subclassed comparator still sees every comparison.
        self._plain = [
            type(cell) is CellComparator and type(cell.inner) is PlaintextComparator
            for cell in cells
        ]

    @property
    def supports_range(self) -> bool:
        return all(cell.supports_range for cell in self._cells)

    @property
    def semantic_order(self) -> bool:
        return all(cell.semantic_order for cell in self._cells)

    @property
    def cells(self) -> list[CellComparator]:
        return list(self._cells)

    @property
    def batch_capable(self) -> bool:
        return any(getattr(cell, "batch_capable", False) for cell in self._cells)

    def compare(self, left: object, right: object) -> int:
        if not isinstance(left, tuple) or not isinstance(right, tuple):
            raise SqlError("composite comparator expects tuple keys")
        cells, plain = self._cells, self._plain
        last = len(cells) - 1
        for i in range(min(len(left), len(right))):
            column = i if i < last else last
            a, b = left[i], right[i]
            kind = type(a)
            if kind is type(b) and kind in _INLINE_TYPES and plain[column]:
                # Two plaintext cells of one orderable type: the verdict
                # compare_values would reach, without the three calls
                # (cell, plaintext, compare_values) that lead to it.
                if a < b:
                    return -1
                if a > b:
                    return 1
                continue
            c = cells[column].compare(a, b)
            if c != 0:
                return c
        return (len(left) > len(right)) - (len(left) < len(right))

    def compare_one_to_many(self, probe: object, keys: list[object]) -> list[int]:
        """Batched lexicographic probe, column depth by column depth.

        At each depth, keys still tied (all earlier columns equal) batch
        their column cell against the probe's in one call; a key whose
        length (or the probe's) is exhausted gets the length comparison,
        exactly like :meth:`compare`.
        """
        if not isinstance(probe, tuple) or not all(
            isinstance(key, tuple) for key in keys
        ):
            raise SqlError("composite comparator expects tuple keys")
        results: list[int] = [0] * len(keys)
        active = list(range(len(keys)))
        depth = 0
        while active:
            tied: list[int] = []
            batch_indexes: list[int] = []
            batch_cells: list[object] = []
            for i in active:
                key = keys[i]
                if depth >= len(probe) or depth >= len(key):
                    results[i] = (len(probe) > len(key)) - (len(probe) < len(key))
                else:
                    batch_indexes.append(i)
                    batch_cells.append(key[depth])
            if batch_indexes:
                cell = self._cells[depth] if depth < len(self._cells) else self._cells[-1]
                outcomes = cell.compare_one_to_many(probe[depth], batch_cells)
                for i, outcome in zip(batch_indexes, outcomes):
                    if outcome != 0:
                        results[i] = outcome
                    else:
                        tied.append(i)
            active = tied
            depth += 1
        return results


def orders_like_python(comparator: KeyComparator) -> bool:
    """Whether Python's tuple order may stand in for ``comparator``.

    True for exactly a :class:`CompositeComparator` whose every column is
    exactly a :class:`CellComparator` over exactly a
    :class:`PlaintextComparator`: no encrypted cell, and no wrapped or
    subclassed comparator that must see each comparison.
    """
    return type(comparator) is CompositeComparator and all(comparator._plain)


#: Cells Python orders as such a comparator does. Not ``bool`` (an int to
#: Python, BIT to SQL), ``float`` (NaN ties with everything), ``bytes``
#: (a ``bytearray`` equals it) or anything else.
_PYTHON_ORDERED = frozenset((int, str, _Sentinel))


def python_key(key: object) -> tuple[object, bool]:
    """``key`` as a plaintext tree holds it, and whether Python may order it.

    NULL cells become :data:`NULL_CELL`. Between two keys Python may order,
    Python's tuple order gives the comparator's verdict, except that where
    the comparator raises (int against str) Python raises ``TypeError``.
    Every other key must go through the comparator.
    """
    if type(key) is not tuple:
        return key, False
    if None in key:
        key = tuple(NULL_CELL if cell is None else cell for cell in key)
    return key, _PYTHON_ORDERED.issuperset(map(type, key))


class CountingComparator:
    """Wraps any comparator and counts invocations (tests / Figure 4)."""

    def __init__(self, inner: KeyComparator, on_compare: Callable[[object, object, int], None] | None = None):
        self._inner = inner
        self.count = 0
        self._on_compare = on_compare

    @property
    def supports_range(self) -> bool:
        return self._inner.supports_range

    @property
    def semantic_order(self) -> bool:
        return getattr(self._inner, "semantic_order", True)

    @property
    def batch_capable(self) -> bool:
        return bool(getattr(self._inner, "batch_capable", False))

    def compare(self, left: object, right: object) -> int:
        result = self._inner.compare(left, right)
        self.count += 1
        if self._on_compare is not None:
            self._on_compare(left, right, result)
        return result

    def compare_one_to_many(self, probe: object, keys: list[object]) -> list[int]:
        outcomes = self._inner.compare_one_to_many(probe, keys)
        self.count += len(keys)
        if self._on_compare is not None:
            for key, result in zip(keys, outcomes):
                self._on_compare(probe, key, result)
        return outcomes
