"""Leakage equivalence: batching amortizes cost, not information.

The ISSUE-level security contract for batched enclave calls: for every
call mode, the adversary's scan-batch reconstruction must recover the
*identical* per-row verdict sequence whether a predicate ran row-at-a-time
or chunked, and batched index/sort comparisons must reveal the same
ordering information as single compares. Only the *shape* of the
boundary observations may differ (fewer, larger events).

Every statement of the example-based tests goes through
:class:`tests.conftest.ThreeWay`: what their assertions see is the
execution of a *cached* plan, and the same statement's cold execution and
its execution on an always-cold twin stack must show the adversary the
identical trace. ``TestLeakageEquivalence`` at the end is the generated
form of the same contract: the trace is a function of the declared leakage
and of nothing else — not of the chunk size, not of the plaintexts.
"""

import itertools
import operator
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.driver import connect
from repro.crypto.aead import CellCipher
from repro.enclave.runtime import Enclave
from repro.enclave.worker import CallMode
from repro.security.adversary import StrongAdversary
from repro.security.leakage import like_scan_predicate_bits, reconstruct_order
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.server import SqlServer
from repro.sqlengine.values import deserialize_value, serialize_value
from tests.conftest import ALGO, ThreeWay

NAMES = ["apple", "apricot", "banana", "cherry", "citrus", "date"]

ALL_MODES = [CallMode.SYNCHRONOUS, CallMode.QUEUED]


#: The twin stacks build_system made; the tests only stop the main one.
_TWIN_SERVERS: list[SqlServer] = []


@pytest.fixture(autouse=True)
def stop_twin_servers():
    yield
    while _TWIN_SERVERS:
        _TWIN_SERVERS.pop().shutdown()


def build_system(enclave_binary, host_machine, hgs, registry, attestation_policy,
                 enclave_cmk, enclave_cek, mode, batch_size):
    stacks = []
    for __ in range(2):
        adversary = StrongAdversary()
        server = SqlServer(
            enclave=Enclave(enclave_binary),
            host_machine=host_machine,
            hgs=hgs,
            lock_timeout_s=0.3,
            enclave_call_mode=mode,
            eval_batch_size=batch_size,
        )
        adversary.attach(server)
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(
            server, registry, attestation_policy=attestation_policy,
            cache_describe_results=batch_size > 1,
        )
        stacks.append((adversary, server, conn))
    (adversary, server, main), (twin_adversary, twin_server, twin) = stacks
    _TWIN_SERVERS.append(twin_server)
    conn = ThreeWay(main, twin, adversary, twin_adversary)
    conn.execute_ddl(
        "CREATE TABLE L (k int PRIMARY KEY, "
        f"name varchar(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
        f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'))"
    )
    for k, name in enumerate(NAMES):
        conn.execute("INSERT INTO L (k, name) VALUES (@k, @n)", {"k": k, "n": name})
    return adversary, server, conn


class TestScanVerdictEquivalence:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
    def test_per_row_verdicts_identical(
        self, mode, enclave_binary, host_machine, hgs, registry,
        attestation_policy, enclave_cmk, enclave_cek,
    ):
        observed = {}
        for batch_size in (1, 64):
            adversary, server, conn = build_system(
                enclave_binary, host_machine, hgs, registry, attestation_policy,
                enclave_cmk, enclave_cek, mode, batch_size,
            )
            result = conn.execute("SELECT k FROM L WHERE name LIKE @p", {"p": "ap%"})
            flat = [
                bit
                for batch in like_scan_predicate_bits(adversary)
                for bit in batch
            ]
            observed[batch_size] = (sorted(row[0] for row in result.rows), flat)
            if server.gateway is not None:
                server.gateway.shutdown()
        # Same query answer, and the adversary reconstructs the exact same
        # per-row verdict sequence from the batched trace.
        assert observed[1] == observed[64]
        assert observed[64][1].count(True) == 2  # apple, apricot

    @pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
    def test_batching_changes_only_the_event_shape(
        self, mode, enclave_binary, host_machine, hgs, registry,
        attestation_policy, enclave_cmk, enclave_cek,
    ):
        adversary, server, conn = build_system(
            enclave_binary, host_machine, hgs, registry, attestation_policy,
            enclave_cmk, enclave_cek, mode, 64,
        )
        conn.execute("SELECT k FROM L WHERE name LIKE @p", {"p": "ap%"})
        evals = [e for e in adversary.boundary_events if e.ecall == "eval"]
        batches = [e for e in adversary.boundary_events if e.ecall == "eval_batch"]
        # The scan shipped one chunk, not one ecall per row ...
        assert len(batches) == 1
        assert len(evals) == 0
        # ... yet every per-row verdict is still individually visible.
        assert len(adversary.observed_eval_results()) == len(NAMES)
        if server.gateway is not None:
            server.gateway.shutdown()


class TestOrderReconstructionEquivalence:
    def test_batched_index_build_leaks_same_total_order(
        self, enclave_binary, host_machine, hgs, registry, attestation_policy,
        enclave_cmk, enclave_cek, cek_material,
    ):
        # The batched node probe compares the key against every separator
        # of a node in one compare_batch ecall. The adversary's order
        # reconstruction over the expanded per-pair outcomes must recover
        # the same (true) total order as the binary-search trace did.
        adversary, server, conn = build_system(
            enclave_binary, host_machine, hgs, registry, attestation_policy,
            enclave_cmk, enclave_cek, CallMode.SYNCHRONOUS, 64,
        )
        conn.execute_ddl("CREATE NONCLUSTERED INDEX L_NAME ON L(name)")
        reconstruction = reconstruct_order(adversary, "TestCEK")
        assert reconstruction.comparisons_used > 0
        cipher = CellCipher(cek_material)
        recovered = [
            deserialize_value(cipher.decrypt(env))
            for env in reconstruction.ordered_envelopes
        ]
        assert recovered == [n for n in sorted(NAMES) if n in recovered]
        if server.gateway is not None:
            server.gateway.shutdown()


def decoded_evals(events, cek_material):
    """The eval-path boundary events with ciphertext inputs decrypted.

    Returns ``(ecall, program, inputs, outputs)`` per event, where
    ``program`` numbers the registered handles by first appearance and a
    batch event's inputs/outputs are tuples of per-row tuples.
    """
    cipher = CellCipher(cek_material)
    programs: dict[int, int] = {}

    def plain(cells):
        return tuple(deserialize_value(cipher.decrypt(c.envelope)) for c in cells)

    out = []
    for event in events:
        if event.ecall not in ("eval", "eval_batch"):
            continue
        handle, inputs = event.visible_inputs
        program = programs.setdefault(handle, len(programs))
        if event.ecall == "eval_batch":
            inputs = tuple(plain(row) for row in inputs)
        else:
            inputs = plain(inputs)
        out.append((event.ecall, program, inputs, event.visible_output))
    return out


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
class TestChunkOfOne:
    """eval_batch_size=1 is the degenerate chunk of the one qualification
    path, not a second implementation: every site must cross the boundary
    exactly as the paper's row-at-a-time evaluation does — one plain
    ``eval`` per row (or pair), in row order, and never a batch ecall."""

    def paper_mode_evals(self, statement, mode, fixtures, cek_material):
        adversary, server, conn = build_system(*fixtures, mode, 1)
        conn.execute_ddl(
            "CREATE TABLE M (j int PRIMARY KEY, "
            f"name varchar(20) ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
            f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}'))"
        )
        for j, name in enumerate(["banana", "apple"]):
            conn.execute("INSERT INTO M (j, name) VALUES (@j, @n)", {"j": j, "n": name})
        start = len(adversary.boundary_events)
        result = statement(conn)
        events = adversary.boundary_events[start:]
        server.gateway.shutdown()
        assert [e.ecall for e in events if e.ecall.endswith("_batch")] == []
        return result, decoded_evals(events, cek_material)

    @pytest.fixture()
    def fixtures(self, enclave_binary, host_machine, hgs, registry,
                 attestation_policy, enclave_cmk, enclave_cek):
        return (enclave_binary, host_machine, hgs, registry, attestation_policy,
                enclave_cmk, enclave_cek)

    def test_filter(self, mode, fixtures, cek_material):
        result, evals = self.paper_mode_evals(
            lambda conn: conn.execute("SELECT k FROM L WHERE name LIKE @p", {"p": "ap%"}),
            mode, fixtures, cek_material,
        )
        assert "BatchedFilter" not in result.plan_info
        assert evals == [
            ("eval", 0, (name, "ap%"), (name.startswith("ap"),)) for name in NAMES
        ]

    def test_rnd_nested_loop_join(self, mode, fixtures, cek_material):
        result, evals = self.paper_mode_evals(
            lambda conn: conn.execute(
                "SELECT L.k, M.j FROM L JOIN M ON L.name = M.name", {}
            ),
            mode, fixtures, cek_material,
        )
        assert result.plan_info.endswith("NestedLoopJoin")
        assert sorted(result.rows) == [(0, 1), (2, 0)]
        assert evals == [
            ("eval", 0, (left, right), (left == right,))
            for left in NAMES
            for right in ("banana", "apple")
        ]

    def test_update(self, mode, fixtures, cek_material):
        result, evals = self.paper_mode_evals(
            lambda conn: conn.execute(
                "UPDATE L SET name = @new WHERE name LIKE @p", {"new": "fig", "p": "c%"}
            ),
            mode, fixtures, cek_material,
        )
        assert result.rowcount == 2
        # Unlocked qualification over every row, then the re-check of each
        # match under its row lock.
        assert evals == [
            ("eval", 0, (name, "c%"), (name.startswith("c"),)) for name in NAMES
        ] + [("eval", 0, (name, "c%"), (True,)) for name in ("cherry", "citrus")]

    def test_delete(self, mode, fixtures, cek_material):
        result, evals = self.paper_mode_evals(
            lambda conn: conn.execute("DELETE FROM L WHERE name LIKE @p", {"p": "%a%"}),
            mode, fixtures, cek_material,
        )
        hits = [name for name in NAMES if "a" in name]
        assert result.rowcount == len(hits) == 4
        assert evals == [
            ("eval", 0, (name, "%a%"), (name in hits,)) for name in NAMES
        ] + [("eval", 0, (name, "%a%"), (True,)) for name in hits]


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
def test_partial_last_chunk_of_one_is_a_plain_eval(
    mode, enclave_binary, host_machine, hgs, registry, attestation_policy,
    enclave_cmk, enclave_cek, cek_material,
):
    # 65 rows at chunk size 64: one full eval_batch, then the remainder —
    # a chunk of one — as a plain eval. Same rule, both modes.
    adversary, server, conn = build_system(
        enclave_binary, host_machine, hgs, registry, attestation_policy,
        enclave_cmk, enclave_cek, mode, 64,
    )
    names = NAMES + [f"row{k:02d}" for k in range(len(NAMES), 65)]
    for k in range(len(NAMES), 65):
        conn.execute("INSERT INTO L (k, name) VALUES (@k, @n)", {"k": k, "n": names[k]})
    start = len(adversary.boundary_events)
    result = conn.execute("SELECT k FROM L WHERE name LIKE @p", {"p": "ap%"})
    events = adversary.boundary_events[start:]
    server.gateway.shutdown()
    assert sorted(row[0] for row in result.rows) == [0, 1]
    batch, single = decoded_evals(events, cek_material)
    assert batch == (
        "eval_batch", 0,
        tuple((name, "ap%") for name in names[:64]),
        tuple((name.startswith("ap"),) for name in names[:64]),
    )
    assert single == ("eval", 0, (names[64], "ap%"), (False,))
    # The adversary's per-row verdict reconstruction is what row-at-a-time
    # evaluation would have shown it (nothing before the scan evaluated).
    assert like_scan_predicate_bits(adversary) == [
        [name.startswith("ap") for name in names]
    ]


# -- the leakage claim, executed ----------------------------------------------
#
# Equivalence-based security (PAPERS.md) in executable form. The declared
# leakage of an enclave-evaluated scan is L(table, predicate) = (row count,
# ciphertext lengths, the verdict of every comparison on every row). The
# property checks both directions: chunking an ecall changes nothing the
# adversary can read (the batched trace, transposed chunk by chunk, IS the
# row-at-a-time trace), and two tables with equal L are indistinguishable
# (their traces are equal up to the random bytes of each envelope). Whatever
# the enclave does between reading its inputs and writing its verdicts —
# such as opening a repeated envelope once — has nowhere to show.

CHUNK_SIZES = (1, 2, 7, 64)
INTS = list(range(-3, 6))
#: Short and long strings: two AES-CBC body lengths, so length is a live
#: component of the leakage function and not a constant.
TEXTS = ["", "a", "b", "ab", "ba", "bb", "a" * 15, "ab" * 8, "b" * 17]
COMPARE = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "=": operator.eq}

_int_leaf = st.tuples(
    st.just("n"), st.sampled_from([">", "<", ">=", "="]), st.sampled_from(INTS)
)
_text_leaf = st.one_of(
    st.tuples(st.just("s"), st.just("LIKE"), st.sampled_from(["a%", "%b", "%a%", "a_", "%"])),
    st.tuples(st.just("s"), st.just("="), st.sampled_from(TEXTS)),
)
predicates = st.recursive(
    st.one_of(_int_leaf, _text_leaf),
    lambda inner: st.one_of(
        st.tuples(st.just("AND"), inner, inner),
        st.tuples(st.just("OR"), inner, inner),
        st.tuples(st.just("NOT"), inner),
    ),
    max_leaves=3,
)
tables = st.lists(
    st.tuples(st.sampled_from(TEXTS), st.sampled_from(INTS)), min_size=1, max_size=10
)


def leaves(tree) -> list[tuple]:
    if tree[0] in ("AND", "OR", "NOT"):
        return [leaf for child in tree[1:] for leaf in leaves(child)]
    return [tree]


def cell_read(leaf, row):
    """The cell of ``row`` — an ``(s, n)`` pair — that ``leaf`` compares."""
    return row["sn".index(leaf[0])]


def leaf_holds(leaf, row) -> bool:
    __, op, operand = leaf
    value = cell_read(leaf, row)
    if op == "LIKE":
        pattern = re.escape(operand).replace("%", ".*").replace("_", ".")
        return re.fullmatch(pattern, value, re.DOTALL) is not None
    return COMPARE[op](value, operand)


def holds(tree, row) -> bool:
    if tree[0] == "AND":
        return holds(tree[1], row) and holds(tree[2], row)
    if tree[0] == "OR":
        return holds(tree[1], row) or holds(tree[2], row)
    if tree[0] == "NOT":
        return not holds(tree[1], row)
    return leaf_holds(tree, row)


def render(tree, names) -> str:
    """SQL for ``tree``; each leaf takes the next parameter name."""
    if tree[0] == "NOT":
        return f"NOT ({render(tree[1], names)})"
    if tree[0] in ("AND", "OR"):
        return f"({render(tree[1], names)} {tree[0]} {render(tree[2], names)})"
    return f"{tree[0]} {tree[1]} @{next(names)}"


def leakage(table, tree) -> list[tuple]:
    """L(table, predicate): per row, the AES-CBC block count of each cell
    and the verdict of each comparison. The row count is the length."""
    return [
        tuple(len(serialize_value(value)) // 16 for value in row)
        + tuple(leaf_holds(leaf, row) for leaf in leaves(tree))
        for row in table
    ]


def per_row_trace(evals, n_sites) -> list[tuple]:
    """``decoded_evals`` flattened to one ``(program, inputs, outputs)`` per
    (row, comparison) in the order row-at-a-time evaluation produces them:
    a chunk's ``n_sites`` consecutive events are transposed."""
    flat = []
    for start in range(0, len(evals), n_sites):
        lanes = [
            [(program, inputs, outputs)] if ecall == "eval"
            else [(program, *row) for row in zip(inputs, outputs)]
            for ecall, program, inputs, outputs in evals[start : start + n_sites]
        ]
        for row in zip(*lanes, strict=True):
            flat.extend(row)
    return flat


def envelope_shapes(events) -> list[tuple]:
    """The eval-path events as an adversary can compare two databases:
    every envelope replaced by (its length, index of its first occurrence)."""
    seen: dict[bytes, int] = {}

    def shape(value):
        if isinstance(value, Ciphertext):
            return (len(value.envelope), seen.setdefault(value.envelope, len(seen)))
        if isinstance(value, tuple):
            return tuple(shape(item) for item in value)
        return value

    return [
        (event.ecall, shape(event.visible_inputs), event.visible_output)
        for event in events
        if event.ecall in ("eval", "eval_batch")
    ]


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
class TestLeakageEquivalence:
    @pytest.fixture()
    def stack(self, mode, enclave, host_machine, hgs, registry, attestation_policy,
              enclave_cmk, enclave_cek):
        adversary = StrongAdversary()
        server = SqlServer(
            enclave=enclave, host_machine=host_machine, hgs=hgs, lock_timeout_s=0.3,
            enclave_call_mode=mode,
        )
        adversary.attach(server)
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn = connect(server, registry, attestation_policy=attestation_policy)
        yield adversary, server, conn, itertools.count()
        server.shutdown()

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(table=tables, tree=predicates, data=st.data())
    def test_trace_is_a_function_of_the_declared_leakage(
        self, stack, cek_material, table, tree, data
    ):
        adversary, server, conn, sequence = stack
        # A second table with the same L: per cell, any value of the domain
        # with the same block count and the same verdict under every
        # comparison that reads it.
        domains = (TEXTS, INTS)
        twin = [
            tuple(
                data.draw(st.sampled_from([
                    other for other in domains[column]
                    if leakage([row[:column] + (other,) + row[column + 1 :]], tree)
                    == leakage([row], tree)
                ]))
                for column in (0, 1)
            )
            for row in table
        ]
        assert leakage(twin, tree) == leakage(table, tree)

        params = {f"p{i}": leaf[2] for i, leaf in enumerate(leaves(tree))}
        where = render(tree, iter(params))
        n_sites = len(params)
        enc = (
            "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = TestCEK, "
            f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{ALGO}')"
        )
        traces = []
        for rows in (table, twin):
            name = f"E{next(sequence)}"
            conn.execute_ddl(
                f"CREATE TABLE {name} (id int PRIMARY KEY, s varchar(20) {enc}, n int {enc})"
            )
            for i, (s, n) in enumerate(rows):
                conn.execute(
                    f"INSERT INTO {name} (id, s, n) VALUES (@i, @s, @n)",
                    {"i": i, "s": s, "n": n},
                )
            per_chunk_size = []
            for chunk_size in CHUNK_SIZES:
                server.executor.eval_batch_size = chunk_size
                start = len(adversary.boundary_events)
                result = conn.execute(f"SELECT id FROM {name} WHERE {where}", params)
                events = adversary.boundary_events[start:]
                assert sorted(row[0] for row in result.rows) == [
                    i for i, row in enumerate(rows) if holds(tree, row)
                ]
                per_chunk_size.append(events)
            conn.execute_ddl(f"DROP TABLE {name}")
            # Chunking is invisible: every chunk size decodes to the one
            # per-row trace, which is the plaintext rows and their verdicts.
            flat = [
                per_row_trace(decoded_evals(events, cek_material), n_sites)
                for events in per_chunk_size
            ]
            assert flat[1:] == flat[:-1]
            assert [(inputs, outputs) for __, inputs, outputs in flat[0]] == [
                ((cell_read(leaf, row), leaf[2]), (leaf_holds(leaf, row),))
                for row in rows
                for leaf in leaves(tree)
            ]
            traces.append([envelope_shapes(events) for events in per_chunk_size])
        # Equal leakage, indistinguishable traces — at every chunk size.
        assert traces[0] == traces[1]
