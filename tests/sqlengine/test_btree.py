"""B+-tree correctness over all comparator flavours, incl. Figure 4."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.errors import ConstraintError, SqlError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.index.btree import BPlusTree
from repro.sqlengine.index.comparators import (
    MAX_KEY,
    MIN_KEY,
    CellComparator,
    CiphertextBinaryComparator,
    CompositeComparator,
    CountingComparator,
    EnclaveComparator,
    PlaintextComparator,
    orders_like_python,
)
from repro.sqlengine.storage.heap import RowId
from repro.sqlengine.values import serialize_value


def plain_tree(order=8, unique=False):
    return BPlusTree(
        CompositeComparator([CellComparator(PlaintextComparator())]),
        order=order,
        unique=unique,
    )


def rid(n):
    return RowId(0, n)


class TestPlaintextTree:
    def test_insert_search(self):
        tree = plain_tree()
        data = list(range(200))
        random.Random(3).shuffle(data)
        for v in data:
            tree.insert((v,), rid(v))
        for v in (0, 57, 199):
            assert [r.slot for r in tree.search_eq((v,))] == [v]
        assert tree.search_eq((1000,)) == []

    def test_range_scan(self):
        tree = plain_tree()
        for v in range(100):
            tree.insert((v,), rid(v))
        got = [k[0] for k, __ in tree.range_scan((20,), (30,))]
        assert got == list(range(20, 31))

    def test_exclusive_bounds(self):
        tree = plain_tree()
        for v in range(10):
            tree.insert((v,), rid(v))
        got = [k[0] for k, __ in tree.range_scan((2,), (8,), low_inclusive=False, high_inclusive=False)]
        assert got == [3, 4, 5, 6, 7]

    def test_unbounded_scans(self):
        tree = plain_tree()
        for v in range(20):
            tree.insert((v,), rid(v))
        assert len(list(tree.range_scan())) == 20
        assert [k[0] for k, __ in tree.range_scan(low=(15,))] == [15, 16, 17, 18, 19]
        assert [k[0] for k, __ in tree.range_scan(high=(4,))] == [0, 1, 2, 3, 4]

    def test_duplicates_across_splits(self):
        tree = plain_tree(order=4)
        for i in range(30):
            tree.insert((7,), rid(i))
        assert len(tree.search_eq((7,))) == 30

    def test_delete(self):
        tree = plain_tree()
        for v in range(50):
            tree.insert((v,), rid(v))
        assert tree.delete((25,), rid(25))
        assert tree.search_eq((25,)) == []
        assert not tree.delete((25,), rid(25))
        assert len(tree) == 49

    def test_delete_specific_duplicate(self):
        tree = plain_tree()
        tree.insert((1,), rid(10))
        tree.insert((1,), rid(11))
        assert tree.delete((1,), rid(10))
        assert [r.slot for r in tree.search_eq((1,))] == [11]

    def test_unique_constraint(self):
        tree = plain_tree(unique=True)
        tree.insert((1,), rid(0))
        with pytest.raises(ConstraintError):
            tree.insert((1,), rid(1))

    def test_null_keys_sort_first(self):
        tree = plain_tree()
        tree.insert((5,), rid(5))
        tree.insert((None,), rid(99))
        keys = [k[0] for k, __ in tree.scan_all()]
        assert keys == [None, 5]

    def test_bulk_build_equals_incremental(self):
        entries = [((v,), rid(v)) for v in range(100)]
        random.Random(5).shuffle(entries)
        bulk = plain_tree()
        bulk.bulk_build(entries)
        assert [k[0] for k, __ in bulk.scan_all()] == list(range(100))

    def test_bulk_build_requires_empty(self):
        tree = plain_tree()
        tree.insert((1,), rid(1))
        with pytest.raises(SqlError):
            tree.bulk_build([])

    @given(st.lists(st.integers(-50, 50), max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_property_scan_is_sorted_multiset(self, values):
        tree = plain_tree(order=6)
        for i, v in enumerate(values):
            tree.insert((v,), rid(i))
        scanned = [k[0] for k, __ in tree.scan_all()]
        assert scanned == sorted(values)

    @given(st.sets(st.integers(0, 200), max_size=80), st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_property_range_scan_matches_filter(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = plain_tree(order=6)
        for v in values:
            tree.insert((v,), rid(v))
        got = [k[0] for k, __ in tree.range_scan((lo,), (hi,))]
        assert got == sorted(v for v in values if lo <= v <= hi)


class TestDetTree:
    def _cell(self, cipher, value):
        return Ciphertext(cipher.encrypt(serialize_value(value), EncryptionScheme.DETERMINISTIC))

    def test_equality_through_ciphertext_order(self, cek_material):
        cipher = CellCipher(cek_material)
        tree = BPlusTree(
            CompositeComparator([CellComparator(CiphertextBinaryComparator())]), order=6
        )
        for i, value in enumerate(["red", "blue", "red", "green", "red"]):
            tree.insert((self._cell(cipher, value),), rid(i))
        probe = (self._cell(cipher, "red"),)
        assert sorted(r.slot for r in tree.search_eq(probe)) == [0, 2, 4]

    def test_semantic_range_blocked_by_planner_contract(self, cek_material):
        comparator = CompositeComparator([CellComparator(CiphertextBinaryComparator())])
        assert comparator.supports_range        # scans are well-defined...
        assert not comparator.semantic_order    # ...but order is not plaintext order


class TestEnclaveTree:
    def test_figure4_walkthrough(self, enclave, cek_material):
        """Figure 4: inserting (encrypted) key 7 into a range index routes
        comparisons to the enclave and lands between 6 and 8."""
        enclave.sqlos.install_key("TestCEK", cek_material)
        cipher = CellCipher(cek_material)

        def cell(v):
            return Ciphertext(cipher.encrypt(serialize_value(v), EncryptionScheme.RANDOMIZED))

        inner = EnclaveComparator(enclave, "TestCEK")
        counter = CountingComparator(inner)
        tree = BPlusTree(
            CompositeComparator([CellComparator(counter)]), order=4
        )
        for v in [1, 2, 3, 4, 5, 6, 8, 9]:
            tree.insert((cell(v),), rid(v))

        comparisons_before = enclave.counters.comparisons
        tree.insert((cell(7),), rid(7))
        assert enclave.counters.comparisons > comparisons_before

        # The index stores only ciphertexts, ordered by plaintext.
        decrypted_order = [
            int.from_bytes(cipher.decrypt(k[0].envelope)[1:], "big", signed=True)
            for k, __ in tree.scan_all()
        ]
        assert decrypted_order == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_range_scan_by_plaintext_order(self, enclave, cek_material):
        enclave.sqlos.install_key("TestCEK", cek_material)
        cipher = CellCipher(cek_material)

        def cell(v):
            return Ciphertext(cipher.encrypt(serialize_value(v), EncryptionScheme.RANDOMIZED))

        tree = BPlusTree(
            CompositeComparator([CellComparator(EnclaveComparator(enclave, "TestCEK"))]),
            order=4,
        )
        for v in range(0, 100, 10):
            tree.insert((cell(v),), rid(v))
        got = [r.slot for __, r in tree.range_scan((cell(25),), (cell(65),))]
        assert got == [30, 40, 50, 60]


class TestCompositeTree:
    def test_prefix_scan(self):
        tree = BPlusTree(
            CompositeComparator([
                CellComparator(PlaintextComparator()),
                CellComparator(PlaintextComparator()),
            ]),
            order=4,
        )
        n = 0
        for a in range(3):
            for b in range(5):
                tree.insert((a, b), rid(n))
                n += 1
        got = [k for k, __ in tree.range_scan((1,), (1, MAX_KEY))]
        assert got == [(1, b) for b in range(5)]

    def test_full_key_seek(self):
        tree = BPlusTree(
            CompositeComparator([
                CellComparator(PlaintextComparator()),
                CellComparator(PlaintextComparator()),
            ]),
        )
        tree.insert((1, "x"), rid(1))
        tree.insert((1, "y"), rid(2))
        assert [r.slot for r in tree.search_eq((1, "y"))] == [2]

    def test_mixed_plain_and_det_components(self, cek_material):
        cipher = CellCipher(cek_material)

        def det(v):
            return Ciphertext(cipher.encrypt(serialize_value(v), EncryptionScheme.DETERMINISTIC))

        tree = BPlusTree(
            CompositeComparator([
                CellComparator(PlaintextComparator()),
                CellComparator(CiphertextBinaryComparator()),
            ]),
        )
        tree.insert((1, det("smith")), rid(1))
        tree.insert((1, det("jones")), rid(2))
        tree.insert((2, det("smith")), rid(3))
        assert [r.slot for r in tree.search_eq((1, det("smith")))] == [1]
        # Prefix-equality scan over (w) works even with a DET component.
        got = sorted(r.slot for __, r in tree.range_scan((1,), (1, MAX_KEY)))
        assert got == [1, 2]


class TestUniqueInsertDescendsOnce:
    """The uniqueness check rides the insert's own descent: one comparison
    against the left neighbour at the leaf, before anything is mutated."""

    def counting_tree(self, order=4):
        counter = CountingComparator(PlaintextComparator())
        tree = BPlusTree(
            CompositeComparator([CellComparator(counter)]), order=order, unique=True
        )
        return tree, counter

    def test_one_descent_and_one_extra_comparison(self):
        from repro.obs.metrics import get_registry

        tree, counter = self.counting_tree()
        for v in range(0, 400, 2):
            tree.insert((v,), rid(v))
        visited = get_registry().counter("index.nodes_visited")
        before_nodes, before_compares = visited.value, counter.count
        tree.insert((201,), rid(201))
        assert visited.value - before_nodes == tree.height()
        # Binary search per node (<= 3 comparisons at order 4) plus the
        # neighbour check; a search_eq first would roughly double it.
        assert counter.count - before_compares <= 3 * tree.height() + 1
        # A non-unique insert makes no search, and counts none.
        plain = BPlusTree(CompositeComparator([CellComparator(PlaintextComparator())]))
        before_nodes = visited.value
        plain.insert((1,), rid(1))
        assert visited.value == before_nodes

    def test_duplicate_rejected_before_any_mutation(self):
        tree, __ = self.counting_tree()
        for v in range(60):
            tree.insert((v,), rid(v))
        leaves = tree.leaf_keys()
        separators = {leaf[0] for leaf in leaves[1:]}
        # Every key, including those equal to a separator (first in their
        # leaf) and the last key of a leaf.
        for v in range(60):
            with pytest.raises(ConstraintError):
                tree.insert((v,), rid(1000 + v))
        assert separators and tree.leaf_keys() == leaves and len(tree) == 60

    def test_bulk_build_rejects_duplicates(self):
        tree, __ = self.counting_tree()
        with pytest.raises(ConstraintError):
            tree.bulk_build([((v % 7,), rid(v)) for v in range(20)])

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 25)), max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_property_unique_tree_matches_a_dict(self, ops):
        tree, __ = self.counting_tree()
        model: dict[int, RowId] = {}
        for n, (is_insert, v) in enumerate(ops):
            if is_insert:
                if v in model:
                    with pytest.raises(ConstraintError):
                        tree.insert((v,), rid(n))
                else:
                    tree.insert((v,), rid(n))
                    model[v] = rid(n)
            else:
                assert tree.delete((v,), model.get(v, rid(n))) == (v in model)
                model.pop(v, None)
        assert list(tree.scan_all()) == [((v,), model[v]) for v in sorted(model)]


# Small domains, so same-typed pairs (the inline route) and ties (the next
# column decides) are common; NaN and -0.0 because ``<``/``>`` treat them
# specially; bool because it is an int to isinstance but not to SQL.
_CELLS = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.5, -1.5, float("inf"), float("nan")]),
    st.sampled_from(["", "a", "ab", "b"]),
    st.sampled_from([b"", b"a", b"ab", b"b"]),
    st.booleans(),
    st.none(),
    st.sampled_from([MIN_KEY, MAX_KEY]),
)
_KEYS = st.lists(_CELLS, max_size=4).map(tuple)


def _reference_compare(cells, left, right):
    """CompositeComparator.compare as the plain column loop."""
    for i in range(min(len(left), len(right))):
        cell = cells[i] if i < len(cells) else cells[-1]
        c = cell.compare(left[i], right[i])
        if c != 0:
            return c
    return (len(left) > len(right)) - (len(left) < len(right))


def _outcome(compare):
    try:
        return compare()
    except SqlError as exc:
        return ("SqlError", str(exc))


class TestFusedCompositeCompare:
    @given(
        wrapped=st.lists(st.booleans(), min_size=1, max_size=3),
        pairs=st.lists(st.tuples(_KEYS, _KEYS), min_size=1, max_size=20),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_equals_the_column_loop(self, wrapped, pairs):
        def build():
            counters = [
                CountingComparator(PlaintextComparator()) if wrap else None
                for wrap in wrapped
            ]
            cells = [
                CellComparator(counter or PlaintextComparator()) for counter in counters
            ]
            return cells, [c for c in counters if c is not None]

        fused_cells, fused_counters = build()
        reference_cells, reference_counters = build()
        fused = CompositeComparator(fused_cells)
        for left, right in pairs:
            assert _outcome(lambda: fused.compare(left, right)) == _outcome(
                lambda: _reference_compare(reference_cells, left, right)
            )
        # A wrapped column is never decided inline: it saw every comparison.
        assert [c.count for c in fused_counters] == [
            c.count for c in reference_counters
        ]

    def test_non_tuple_keys_still_rejected(self):
        fused = CompositeComparator([CellComparator(PlaintextComparator())])
        with pytest.raises(SqlError):
            fused.compare(1, (1,))
        with pytest.raises(SqlError):
            fused.compare((1,), [1])


# Keys as the engine stores them: one cell per column, of the column's type
# or NULL. Probes of every other shape and type, besides.
_STORED = st.tuples(
    st.one_of(st.none(), st.integers(-2, 2)),
    st.one_of(st.none(), st.sampled_from(["", "a", "b"])),
)
_PROBE_CELLS = st.one_of(_CELLS, st.sampled_from([bytearray(b""), bytearray(b"a")]))
_PROBES = st.one_of(
    st.lists(_PROBE_CELLS, max_size=3).map(tuple),
    _STORED,
    _STORED.map(lambda key: key[:1] + (MAX_KEY,)),
)
_BOUNDS = st.one_of(st.none(), _PROBES)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _STORED),
        st.tuples(st.just("insert_any"), _KEYS),
        st.tuples(st.just("delete"), st.integers(0, 100), _PROBES),
        st.tuples(st.just("search_eq"), _PROBES),
        st.tuples(st.just("range_scan"), _BOUNDS, _BOUNDS, st.booleans(), st.booleans()),
    ),
    max_size=80,
)


def _twin_trees(unique):
    """A plaintext tree Python orders, and the same cells through the comparator."""
    native = BPlusTree(
        CompositeComparator([CellComparator(PlaintextComparator()) for __ in range(2)]),
        order=4,
        unique=unique,
    )
    twin = BPlusTree(
        CompositeComparator(
            [CellComparator(CountingComparator(PlaintextComparator())) for __ in range(2)]
        ),
        order=4,
        unique=unique,
    )
    assert orders_like_python(native.comparator)
    assert not orders_like_python(twin.comparator)
    return native, twin


def _result(call):
    try:
        return call()
    except SqlError as exc:  # ConstraintError included
        return (type(exc).__name__, str(exc))


class TestPythonOrder:
    """A plaintext tree orders by Python's tuple order, with NULL as
    ``NULL_CELL``; the comparator twin of every operation must agree on
    rids, keys and errors, through splits, NULLs, sentinels and probes of
    other types (bool, NaN, -0.0, str against int, bytearray)."""

    @given(unique=st.booleans(), odd_inserts=st.booleans(), ops=_OPS)
    @settings(max_examples=300, deadline=None)
    def test_property_native_tree_equals_its_comparator_twin(self, unique, odd_inserts, ops):
        native, twin = _twin_trees(unique)
        inserted: list[tuple[tuple, RowId]] = []
        for n, (kind, *args) in enumerate(ops):
            if kind in ("insert", "insert_any"):
                if kind == "insert_any" and not odd_inserts:
                    continue
                (key,) = args
                outcomes = [_result(lambda t=t: t.insert(key, rid(n))) for t in (native, twin)]
                if outcomes[0] is None:
                    inserted.append((key, rid(n)))
            elif kind == "delete":
                pick, probe = args
                key, row = inserted[pick % len(inserted)] if inserted and pick % 2 else (probe, rid(pick))
                outcomes = [_result(lambda t=t: t.delete(key, row)) for t in (native, twin)]
            elif kind == "search_eq":
                (probe,) = args
                outcomes = [_result(lambda t=t: t.search_eq(probe)) for t in (native, twin)]
            else:
                low, high, low_inclusive, high_inclusive = args
                outcomes = [
                    _result(lambda t=t: list(t.range_scan(low, high, low_inclusive, high_inclusive)))
                    for t in (native, twin)
                ]
            assert outcomes[0] == outcomes[1], (kind, args)
        assert len(native) == len(twin)
        assert list(native.scan_all()) == list(twin.scan_all())
        assert native.leaf_keys() == twin.leaf_keys()

    def test_engine_shaped_keys_never_call_the_comparator(self):
        tree = BPlusTree(
            CompositeComparator([CellComparator(PlaintextComparator()) for __ in range(2)]),
            order=4,
            unique=True,
        )
        with mock.patch.object(
            CompositeComparator, "compare", autospec=True, side_effect=CompositeComparator.compare
        ) as compare:
            tree.bulk_build([((v % 5, str(v)), rid(v)) for v in range(30)])
            for v in range(30, 60):
                tree.insert((v % 5, None if v % 7 == 0 else str(v)), rid(v))
            assert [r.slot for r in tree.search_eq((3, "33"))] == [33]
            got = [k for k, __ in tree.range_scan((0,), (0, MAX_KEY))]
            assert got[0] == (0, None) and len(got) == 12
            assert tree.delete((0, None), rid(35))
            with pytest.raises(ConstraintError):
                tree.insert((3, "33"), rid(99))
        assert compare.call_count == 0
        # A probe Python would order differently goes to the comparator.
        with mock.patch.object(
            CompositeComparator, "compare", autospec=True, side_effect=CompositeComparator.compare
        ) as compare:
            assert tree.search_eq((3.0, "33")) == [rid(33)]
        assert compare.call_count > 0

    def test_comparator_errors_survive(self):
        tree = plain_tree()
        for v in range(20):
            tree.insert((v,), rid(v))
        with pytest.raises(SqlError, match="cannot compare int with str"):
            tree.search_eq(("a",))
        with pytest.raises(SqlError, match="cannot compare BIT with non-BIT value"):
            tree.insert((True,), rid(99))
        assert len(tree) == 20

    @pytest.mark.parametrize(
        "stored, probe",
        [
            ((True,), (1,)),  # Python: 1 == True; SQL refuses BIT against INT
            ((b"a",), (bytearray(b"a"),)),  # Python: equal; SQL refuses
            ((float("nan"), 1), (5, 0)),  # Python: NaN decides; SQL: NaN ties
        ],
    )
    def test_a_stored_key_python_orders_otherwise_hands_over_the_tree(self, stored, probe):
        native, twin = _twin_trees(unique=False)
        for tree in (native, twin):
            tree.insert(stored, rid(1))
        assert _result(lambda: native.search_eq(probe)) == _result(lambda: twin.search_eq(probe))
        assert _result(lambda: list(native.range_scan(probe))) == _result(
            lambda: list(twin.range_scan(probe))
        )
