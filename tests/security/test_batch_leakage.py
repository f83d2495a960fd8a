"""Leakage equivalence: batching amortizes cost, not information.

The ISSUE-level security contract for batched enclave calls: for every
call mode, the adversary's scan-batch reconstruction must recover the
*identical* per-row verdict sequence whether a predicate ran row-at-a-time
or chunked, and batched index/sort comparisons must reveal the same
ordering information as single compares. Only the *shape* of the
boundary observations may differ (fewer, larger events).

Every statement here goes through :class:`tests.conftest.ThreeWay`: what
the assertions below see is the execution of a *cached* plan, and the same
statement's cold execution and its execution on an always-cold twin stack
must show the adversary the identical trace.
"""

import pytest

from repro.client.driver import connect
from repro.crypto.aead import CellCipher
from repro.enclave.runtime import Enclave
from repro.enclave.worker import CallMode
from repro.security.adversary import StrongAdversary
from repro.security.leakage import like_scan_predicate_bits, reconstruct_order
from repro.sqlengine.server import SqlServer
from repro.sqlengine.values import deserialize_value
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
