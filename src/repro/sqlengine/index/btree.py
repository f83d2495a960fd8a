"""A B+-tree with a pluggable key comparator.

One tree class serves all three index flavours — plaintext, DET equality,
and RND range — because, as the paper stresses, "the vast majority of
index processing ... remains unaffected by encryption": only the
comparator changes. Keys may be plaintext scalars or ciphertext envelopes;
values are heap :class:`~repro.sqlengine.storage.heap.RowId`s. Duplicate
keys are allowed (non-unique indexes) unless ``unique`` is set.

A tree whose every key column is plaintext does not call its comparator
at all for keys of exact ints, strings and NULLs: Python's own tuple order
is the comparator's order there (``comparators.python_key``), so descents,
seeks, range ends and the unique check are ``bisect`` calls — C code. It
stores NULL cells as ``NULL_CELL`` and hands back the keys it was given.
Any other key or probe, and every key of a tree with an encrypted or
wrapped cell comparator, goes through the comparator as before: the same
comparisons, the same enclave calls, the same leakage ledger.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConstraintError, SqlError
from repro.obs.latchprof import TimedLatch
from repro.obs.leakage import record_leak
from repro.obs.metrics import get_registry
from repro.sqlengine.index.comparators import (
    NULL_CELL,
    KeyComparator,
    orders_like_python,
    python_key,
)
from repro.sqlengine.storage.heap import RowId

DEFAULT_ORDER = 32

# Shared across all trees: root-to-leaf node touches. Batched one inc per
# descent, so the hot search path pays a single counter update.
_nodes_visited = get_registry().counter(
    "index.nodes_visited", help="B+-tree nodes touched during descents"
)


@dataclass
class _Leaf:
    keys: list[object] = field(default_factory=list)
    rids: list[RowId] = field(default_factory=list)
    next: "_Leaf | None" = None

    is_leaf = True


@dataclass
class _Internal:
    # children[i] covers keys < keys[i]; children[-1] covers the rest.
    keys: list[object] = field(default_factory=list)
    children: list[object] = field(default_factory=list)

    is_leaf = False


class BPlusTree:
    """B+-tree keyed through an injected comparator."""

    def __init__(
        self,
        comparator: KeyComparator,
        order: int = DEFAULT_ORDER,
        unique: bool = False,
        leak_column: str | None = None,
    ):
        if order < 4:
            raise SqlError("B+-tree order must be at least 4")
        self.comparator = comparator
        self.order = order
        self.unique = unique
        # For indexes over encrypted columns: each descent's node touches
        # are an adversary-observable access pattern, charged per column.
        self._leak_column = leak_column
        # Batch-capable comparators (enclave-backed) pay a boundary crossing
        # per comparison: probe a whole node's keys in one compare_batch
        # ecall instead of O(log n) single-compare ecalls per node.
        self._batch_probe = bool(getattr(comparator, "batch_capable", False))
        # Every key column plaintext: keys are held with NULL_CELL for None,
        # and bisect places them until the tree stores a key Python would
        # order differently (a BIT or FLOAT column's), for good.
        self._plain = orders_like_python(comparator)
        self._native = self._plain
        self._holds_null = False
        self._root: _Leaf | _Internal = _Leaf()
        self._size = 0
        # Whole-tree latch: structure modifications (splits) invalidate
        # concurrent descents, so readers and writers both take it. The
        # comparator may call into the enclave gateway while held, which
        # is why the declared latch order puts btree above Enclave.
        self._latch = TimedLatch("repro.sqlengine.index.btree.BPlusTree._latch")

    def __len__(self) -> int:
        return self._size

    def _prepare(self, key: object) -> tuple[object, bool]:
        """``key`` as this tree holds it, and whether bisect may place it."""
        if not self._plain:
            return key, False
        key, orderable = python_key(key)
        return key, orderable and self._native

    def _as_given(self, entries: list[tuple[object, RowId]]) -> list[tuple[object, RowId]]:
        """``entries`` with the NULL cells their keys were inserted with."""
        if not self._holds_null:
            return entries
        return [(_with_nulls(key), rid) for key, rid in entries]

    # -- search ------------------------------------------------------------

    def _find_leaf_for_search(self, key: object) -> _Leaf:
        # Descend via lower bound: a separator equal to the key may have
        # equal keys remaining in the left subtree (duplicates split across
        # leaves), so search starts at the leftmost candidate leaf and
        # walks right through the leaf chain.
        node = self._root
        visited = 1
        while not node.is_leaf:
            idx = self._lower_bound(node.keys, key)
            node = node.children[idx]
            visited += 1
        self._count_descent(visited)
        return node  # type: ignore[return-value]

    def _count_descent(self, visited: int) -> None:
        _nodes_visited.inc(visited)
        if self._leak_column is not None:
            record_leak(self._leak_column, "index_touch", count=visited)

    def _native_leaf(self, key: object) -> tuple[_Leaf, int]:
        """:meth:`_find_leaf_for_search` by bisect, leaving the count to the
        caller: a ``TypeError`` before it retries through the comparator."""
        node = self._root
        visited = 1
        while not node.is_leaf:
            node = node.children[bisect_left(node.keys, key)]
            visited += 1
        return node, visited  # type: ignore[return-value]

    def _lower_bound(self, keys: list[object], key: object) -> int:
        """First index i with keys[i] >= key."""
        if self._batch_probe and len(keys) > 1:
            # One batched probe against the whole node. outcome[i] is
            # compare(key, keys[i]); keys[i] >= key ⇔ outcome[i] <= 0.
            # The extra outcomes this reveals are already determined by
            # binary-search leakage plus the build-time total order
            # (see docs/PERF.md), so the adversary learns nothing new.
            outcomes = self.comparator.compare_one_to_many(key, keys)
            for i, outcome in enumerate(outcomes):
                if outcome <= 0:
                    return i
            return len(keys)
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.comparator.compare(keys[mid], key) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _upper_bound(self, keys: list[object], key: object) -> int:
        """First index i with keys[i] > key."""
        if self._batch_probe and len(keys) > 1:
            # keys[i] > key ⇔ compare(key, keys[i]) < 0.
            outcomes = self.comparator.compare_one_to_many(key, keys)
            for i, outcome in enumerate(outcomes):
                if outcome < 0:
                    return i
            return len(keys)
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.comparator.compare(keys[mid], key) <= 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def search_eq(self, key: object) -> list[RowId]:
        """All rids whose key equals ``key``."""
        with self._latch:
            key, native = self._prepare(key)
            if native:
                try:
                    return self._search_eq_native(key)
                except TypeError:
                    pass  # cells Python cannot order: the comparator says which
            leaf = self._find_leaf_for_search(key)
            results: list[RowId] = []
            idx = self._lower_bound(leaf.keys, key)
            while True:
                while idx < len(leaf.keys):
                    c = self.comparator.compare(leaf.keys[idx], key)
                    if c == 0:
                        results.append(leaf.rids[idx])
                        idx += 1
                    elif c > 0:
                        return results
                    else:  # pragma: no cover - lower_bound guarantees >= key
                        idx += 1
                if leaf.next is None:
                    return results
                leaf = leaf.next
                idx = 0

    def _search_eq_native(self, key: object) -> list[RowId]:
        leaf, visited = self._native_leaf(key)
        results: list[RowId] = []
        idx = bisect_left(leaf.keys, key)
        while True:
            end = bisect_right(leaf.keys, key, idx)
            results += leaf.rids[idx:end]
            if end < len(leaf.keys) or leaf.next is None:
                self._count_descent(visited)
                return results
            leaf = leaf.next
            idx = 0

    def range_scan(
        self,
        low: object | None = None,
        high: object | None = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[object, RowId]]:
        """Yield (key, rid) pairs in key order within [low, high]."""
        if not self.comparator.supports_range:
            raise SqlError(
                "range scans are not supported on this index "
                "(ciphertext order is not plaintext order)"
            )
        # Materialize under the latch, yield outside: leaf-chain walks must
        # not interleave with splits, but consumers may be slow.
        with self._latch:
            native = self._native
            if low is not None:
                low, low_native = self._prepare(low)
                native = native and low_native
            if high is not None:
                high, high_native = self._prepare(high)
                native = native and high_native
            results = None
            if native:
                try:
                    results = self._range_native(low, high, low_inclusive, high_inclusive)
                except TypeError:
                    pass  # cells Python cannot order: the comparator says which
            if results is None:
                results = self._range_compare(low, high, low_inclusive, high_inclusive)
            results = self._as_given(results)
        yield from results

    def _range_compare(
        self, low: object, high: object, low_inclusive: bool, high_inclusive: bool
    ) -> list[tuple[object, RowId]]:
        results: list[tuple[object, RowId]] = []
        if low is None:
            leaf = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf_for_search(low)
            idx = (
                self._lower_bound(leaf.keys, low)
                if low_inclusive
                else self._upper_bound(leaf.keys, low)
            )
        while leaf is not None:
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None:
                    c = self.comparator.compare(key, high)
                    if c > 0 or (c == 0 and not high_inclusive):
                        leaf = None
                        break
                results.append((key, leaf.rids[idx]))
                idx += 1
            else:
                leaf = leaf.next
                idx = 0
        return results

    def _range_native(
        self, low: object, high: object, low_inclusive: bool, high_inclusive: bool
    ) -> list[tuple[object, RowId]]:
        visited = 0
        if low is None:
            leaf = self._leftmost_leaf()
            idx = 0
        else:
            leaf, visited = self._native_leaf(low)
            idx = (bisect_left if low_inclusive else bisect_right)(leaf.keys, low)
        end_of = bisect_right if high_inclusive else bisect_left
        results: list[tuple[object, RowId]] = []
        while leaf is not None:
            keys = leaf.keys
            end = len(keys) if high is None else end_of(keys, high, idx)
            results += zip(keys[idx:end], leaf.rids[idx:end])
            if end < len(keys):
                break
            leaf = leaf.next
            idx = 0
        if visited:
            self._count_descent(visited)
        return results

    def scan_all(self) -> Iterator[tuple[object, RowId]]:
        """Every (key, rid) in comparator order (works for any comparator)."""
        results: list[tuple[object, RowId]] = []
        with self._latch:
            leaf = self._leftmost_leaf()
            while leaf is not None:
                results.extend(zip(leaf.keys, leaf.rids))
                leaf = leaf.next
            results = self._as_given(results)
        yield from results

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node  # type: ignore[return-value]

    # -- insert --------------------------------------------------------------

    def insert(self, key: object, rid: RowId) -> None:
        """Insert one entry; enforces uniqueness if configured."""
        with self._latch:
            self._insert_locked(key, rid)

    def _insert_locked(self, key: object, rid: RowId) -> None:
        stored, native = self._prepare(key)
        try:
            split = self._insert_into(self._root, stored, rid, 1, native)
        except TypeError:
            if not native:
                raise
            # Cells Python cannot order: the comparator says which.
            split = self._insert_into(self._root, stored, rid, 1, False)
        if split is not None:
            sep_key, right = split
            self._root = _Internal(keys=[sep_key], children=[self._root, right])
        self._size += 1
        if self._plain:
            self._native = native
            self._holds_null = self._holds_null or stored is not key

    def _insert_into(self, node, key: object, rid: RowId, depth: int, native: bool):
        if native:
            idx = bisect_right(node.keys, key)
        else:
            idx = self._upper_bound(node.keys, key)
        if node.is_leaf:
            if self.unique:
                # A unique tree holds at most one entry per key, and the
                # upper-bound descent reaches the leaf that would hold an
                # equal one, just left of the insert position: one
                # comparison there is the whole uniqueness check, made
                # before anything is mutated. The descent is counted as
                # the search it stands in for; a non-unique insert makes
                # no search and counts none.
                self._count_descent(depth)
                if idx and (
                    node.keys[idx - 1] == key
                    if native
                    else self.comparator.compare(node.keys[idx - 1], key) == 0
                ):
                    raise ConstraintError("duplicate key in unique index")
            node.keys.insert(idx, key)
            node.rids.insert(idx, rid)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        split = self._insert_into(node.children[idx], key, rid, depth + 1, native)
        if split is not None:
            sep_key, right = split
            node.keys.insert(idx, sep_key)
            node.children.insert(idx + 1, right)
            if len(node.children) > self.order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf(keys=leaf.keys[mid:], rids=leaf.rids[mid:], next=leaf.next)
        leaf.keys = leaf.keys[:mid]
        leaf.rids = leaf.rids[:mid]
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Internal(keys=node.keys[mid + 1 :], children=node.children[mid + 1 :])
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep_key, right

    # -- delete --------------------------------------------------------------

    def delete(self, key: object, rid: RowId) -> bool:
        """Remove the entry (key, rid); returns False if absent.

        Underflowed leaves are left sparse rather than rebalanced — search
        correctness is unaffected, and the simulation does not model page
        occupancy.
        """
        with self._latch:
            key, native = self._prepare(key)
            if native:
                try:
                    return self._delete_native(key, rid)
                except TypeError:
                    pass  # cells Python cannot order: the comparator says which
            leaf = self._find_leaf_for_search(key)
            idx = self._lower_bound(leaf.keys, key)
            while True:
                while idx < len(leaf.keys):
                    c = self.comparator.compare(leaf.keys[idx], key)
                    if c > 0:
                        return False
                    if c == 0 and leaf.rids[idx] == rid:
                        del leaf.keys[idx]
                        del leaf.rids[idx]
                        self._size -= 1
                        return True
                    idx += 1
                if leaf.next is None:
                    return False
                leaf = leaf.next
                idx = 0

    def _delete_native(self, key: object, rid: RowId) -> bool:
        leaf, visited = self._native_leaf(key)
        idx = bisect_left(leaf.keys, key)
        while True:
            end = bisect_right(leaf.keys, key, idx)
            if rid in leaf.rids[idx:end]:
                self._count_descent(visited)
                idx = leaf.rids.index(rid, idx, end)
                del leaf.keys[idx]
                del leaf.rids[idx]
                self._size -= 1
                return True
            if end < len(leaf.keys) or leaf.next is None:
                self._count_descent(visited)
                return False
            leaf = leaf.next
            idx = 0

    # -- bulk build ------------------------------------------------------------

    def bulk_build(self, entries: list[tuple[object, RowId]]) -> None:
        """Build from scratch by sorted insertion (index build = sort;
        the data-ordering leakage the paper notes for index builds)."""
        with self._latch:
            if self._size:
                raise SqlError("bulk_build requires an empty tree")
            ordered = None
            if all(self._prepare(key)[1] for key, __ in entries):
                try:
                    ordered = sorted(entries, key=lambda entry: python_key(entry[0])[0])
                except TypeError:
                    pass  # cells Python cannot order: the comparator says which
            if ordered is None:
                ordered = sorted(
                    entries,
                    key=functools.cmp_to_key(
                        lambda a, b: self.comparator.compare(a[0], b[0])
                    ),
                )
            for key, rid in ordered:
                # Entries are pre-sorted; plain inserts keep costs low and the
                # comparator count realistic for a build-by-sort.
                self._insert_locked(key, rid)

    # -- structural introspection (Figure 4 style walkthroughs) -----------------

    def leaf_keys(self) -> list[list[object]]:
        """Keys per leaf, left to right."""
        with self._latch:
            out: list[list[object]] = []
            leaf = self._leftmost_leaf()
            while leaf is not None:
                keys = leaf.keys
                out.append([_with_nulls(key) for key in keys] if self._holds_null else list(keys))
                leaf = leaf.next
            return out

    def height(self) -> int:
        with self._latch:
            height = 1
            node = self._root
            while not node.is_leaf:
                height += 1
                node = node.children[0]
            return height


def _with_nulls(key: tuple) -> tuple:
    return tuple(None if cell is NULL_CELL else cell for cell in key)
