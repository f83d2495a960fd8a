"""The telemetry budget, as counts.

What a statement pays for being observed is stated here in things that
repeat exactly — lock acquisitions and clock reads — not in milliseconds:
a counting lock stands in for every lock the ``repro.obs`` singletons own,
and ``time.perf_counter`` is counted inside the ``repro.obs`` modules.

* a warm plaintext point SELECT through ``Connection.execute`` takes at
  most three telemetry locks — the counter settle, the ring append, the
  leakage ledger — and reads the clock for no span;
* the same statement through ``explain_analyze`` gets its full tree;
* a QUEUED-gateway statement takes no telemetry lock on the worker thread;
* and settling once never changes the leakage ledger: it is a security
  output (access patterns are what encryption does not hide), so it may
  be batched per statement but never dropped or merged across columns.

Beside the ledger pin, the same deck pins two things a warm statement no
longer does at all: decode a record its page already holds the row of, and
lower a stack program; and that only the index with an encrypted key cell
calls its comparator.
"""

from __future__ import annotations

import random
import re
import threading
from unittest import mock

import pytest

from repro.client.driver import connect
from repro.crypto.aead import CellCipher
from repro.obs import flightrec, latchprof, tracing
from repro.obs.flightrec import get_recorder
from repro.obs.latchprof import get_latch_profiler
from repro.obs.leakage import get_leakage_accountant
from repro.obs.metrics import get_registry
from repro.obs.transition_cost import get_transition_cost_model
from repro.sqlengine.expression.vm import StackMachine
from repro.sqlengine.index.comparators import CompositeComparator
from repro.sqlengine.server import SqlServer
from repro.sqlengine.storage import page as page_module
from repro.sqlengine.storage.record import deserialize_row
from repro.workloads.tpcc import TRANSACTION_MIX, EncryptionMode, TpccConfig, build_system
from tests.conftest import make_encrypted_table


class CountingLock:
    """Delegates to the lock it replaces and logs (owner, acquiring thread)."""

    def __init__(self, inner, owner: str, log: list):
        self._inner, self._owner, self._log = inner, owner, log

    def acquire(self, *args, **kwargs):
        self._log.append((self._owner, threading.current_thread().name))
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info):
        self.release()


class CountingClock:
    """Stands in for the ``time`` module inside one ``repro.obs`` module."""

    def __init__(self, real):
        self._real, self.reads = real, 0

    def perf_counter(self) -> float:
        self.reads += 1
        return self._real.perf_counter()


@pytest.fixture()
def telemetry_locks(monkeypatch) -> list[tuple[str, str]]:
    """Every lock acquisition on a ``repro.obs`` singleton, as it happens."""
    log: list[tuple[str, str]] = []
    for owner, holder in (
        ("counters", get_registry()),
        ("ring", get_recorder()),
        ("ledger", get_leakage_accountant()),
        ("latch_profiler", get_latch_profiler()),
        ("transition_costs", get_transition_cost_model()),
    ):
        monkeypatch.setattr(holder, "_lock", CountingLock(holder._lock, owner, log))
    return log


@pytest.fixture()
def clocks(monkeypatch) -> dict[str, CountingClock]:
    """``perf_counter`` reads per ``repro.obs`` module that reads it."""
    out = {}
    for module in (tracing, flightrec, latchprof):
        out[module.__name__] = clock = CountingClock(module.time)
        monkeypatch.setattr(module, "time", clock)
    return out


POINT_SELECT = "SELECT v FROM P WHERE id = @id"


@pytest.fixture()
def plain_connection(registry):
    server = SqlServer(lock_timeout_s=1.0)
    conn = connect(server, registry, column_encryption=False)
    conn.execute_ddl("CREATE TABLE P(id int PRIMARY KEY, v int)")
    for i in range(8):
        conn.execute("INSERT INTO P (id, v) VALUES (@id, @v)", {"id": i, "v": i * i})
    conn.execute(POINT_SELECT, {"id": 3})      # warm: the plan is cached
    return conn


def test_plain_point_select_takes_three_locks_and_times_no_span(
    plain_connection, telemetry_locks, clocks
):
    result = plain_connection.execute(POINT_SELECT, {"id": 3})
    assert result.rows == [(9,)]
    owners = [owner for owner, __ in telemetry_locks]
    assert len(owners) <= 3, owners
    assert owners.count("counters") == 1       # every count of the statement: one settle
    assert owners.count("ring") == 1           # stmt.begin and stmt.end: one append
    assert set(owners) <= {"counters", "ring", "ledger"}
    assert clocks["repro.obs.tracing"].reads == 0
    assert clocks["repro.obs.latchprof"].reads == 0
    assert clocks["repro.obs.flightrec"].reads == 2    # the two events keep their own stamps
    assert result.stats.root_span is None
    assert result.stats.rows_scanned == 1 and result.stats.page_hits >= 1


def test_the_same_statement_asked_through_explain_gets_its_tree(
    plain_connection, clocks
):
    text = plain_connection.explain_analyze(POINT_SELECT, {"id": 3})
    timeline = text[text.index("timeline:"):text.index("waits:")]
    spans = re.findall(r"ms\s+(\S+) \(", timeline)
    assert spans == ["server.statement", "exec.select", "exec.index_seek"]
    assert clocks["repro.obs.tracing"].reads == 2 * (len(spans) + 1)   # + the explain root
    # ... and the next plain execute is back to paying for none of it.
    before = clocks["repro.obs.tracing"].reads
    assert plain_connection.execute(POINT_SELECT, {"id": 3}).stats.root_span is None
    assert clocks["repro.obs.tracing"].reads == before


def test_queued_gateway_statement_takes_no_telemetry_lock_on_the_worker(
    ae_connection, telemetry_locks
):
    """The worker writes into the submitter's record; the record settles
    on the submitter's thread."""
    conn = ae_connection
    make_encrypted_table(conn)
    conn.execute_ddl("CREATE INDEX T_VALUE ON T(value)", authorize_enclave=True)
    for i in range(6):
        conn.execute("INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10})
    seek = "SELECT id FROM T WHERE value = @v"
    conn.execute(seek, {"v": 30})               # warm: describe, attestation, CEKs
    recorder = get_recorder()
    recorder.clear()
    del telemetry_locks[:]

    result = conn.execute(seek, {"v": 30})

    assert result.rows == [(3,)]
    assert "IndexSeek" in result.stats.plan_info
    ecalls = [e for e in recorder.events() if e.kind == "enclave.ecall"]
    on_worker = [e for e in ecalls if e.thread.startswith("enclave-worker")]
    assert on_worker, "the residual predicate should have crossed the QUEUED gateway"
    assert {e.statement_id for e in ecalls} == {result.stats.statement_id}
    assert result.stats.ecalls == len(ecalls)
    threads = {thread for __, thread in telemetry_locks}
    assert threads == {threading.current_thread().name}, telemetry_locks


#: Captured on the parent commits (40c78f4; the decrypts on 9e837b2; the
#: node visits and enclave comparisons on 9c63354) with this very function.
PARENT_LEDGER = {"CUSTOMER.C_LAST": {"index_touch": 16, "rnd_comparison": 61}}
PARENT_CELL_DECRYPTS = 138
PARENT_NODES_VISITED = 1699
PARENT_ENCLAVE_COMPARISONS = 61


@pytest.fixture(scope="module")
def tpcc_rnd_deck() -> dict[str, object]:
    """30 ``tpcc_rnd`` transactions at seed 20200614 on a loaded (so warm)
    system: the leakage ledger, the cells the enclave opened, the B+-tree
    nodes visited, the enclave comparisons, the ``CellCipher`` objects
    anyone built meanwhile and the indexes whose comparator was called.
    Then the deck once more, now that every plan it runs is cached: the
    records decoded and the stack programs lowered meanwhile."""
    seed = 20200614
    system = build_system(
        TpccConfig(mode=EncryptionMode.RND, enclave_threads=4, eval_batch_size=1, seed=seed)
    )
    try:
        deck = [kind for kind, weight in TRANSACTION_MIX
                for __ in range(max(1, round(weight * 30)))][:30]
        random.Random(f"ledger:{seed}").shuffle(deck)
        index_of = {
            id(obj.tree.comparator): name
            for table in system.server.engine.tables.values()
            for name, obj in table.indexes.items()
        }
        get_leakage_accountant().reset()
        registry = get_registry()
        counters = {
            name: registry.counter(name)
            for name in ("enclave.cell_decrypts", "index.nodes_visited", "enclave.comparisons")
        }
        before = {name: counter.value for name, counter in counters.items()}
        with mock.patch.object(
            CellCipher, "__init__", autospec=True, side_effect=CellCipher.__init__
        ) as built, mock.patch.object(
            CompositeComparator, "compare", autospec=True,
            side_effect=CompositeComparator.compare,
        ) as compared:
            for kind in deck:
                system.transactions.run_one(kind)
        out = {name: counter.value - before[name] for name, counter in counters.items()}
        out["ledger"] = get_leakage_accountant().snapshot()
        out["ciphers_built"] = built.call_count
        out["compared_on"] = {index_of[id(call.args[0])] for call in compared.call_args_list}
        with mock.patch.object(
            page_module, "deserialize_row", side_effect=deserialize_row
        ) as decoded, mock.patch.object(
            StackMachine, "lower", side_effect=StackMachine.lower
        ) as lowered:
            for kind in deck:
                system.transactions.run_one(kind)
        out["records_decoded"] = decoded.call_count
        out["programs_lowered"] = lowered.call_count
        return out
    finally:
        system.server.shutdown()
        get_leakage_accountant().reset()


def test_leakage_ledger_of_a_tpcc_rnd_mix_is_the_parents(tpcc_rnd_deck):
    assert tpcc_rnd_deck["ledger"] == PARENT_LEDGER


def test_a_tpcc_rnd_mix_opens_the_parents_cells_and_builds_no_cipher(tpcc_rnd_deck):
    """A cheaper cell changes what a cell costs, not how many are opened; and
    a warm driver keeps the ciphers it has (the parent built 36 here: one
    per encrypted parameter and one per encrypted result)."""
    assert tpcc_rnd_deck["enclave.cell_decrypts"] == PARENT_CELL_DECRYPTS
    assert tpcc_rnd_deck["ciphers_built"] == 0


def test_only_an_encrypted_key_calls_the_comparator(tpcc_rnd_deck):
    """A tree whose key cells are all plaintext is ordered by Python's own
    tuple order (the parent called the comparator 7,579 times here, on all
    nine indexes); the one tree with an RND key cell keeps its comparator,
    and with it the parent's descents and enclave comparisons."""
    assert tpcc_rnd_deck["compared_on"] == {"CUSTOMER_NC1"}
    assert tpcc_rnd_deck["index.nodes_visited"] == PARENT_NODES_VISITED
    assert tpcc_rnd_deck["enclave.comparisons"] == PARENT_ENCLAVE_COMPARISONS


def test_a_warm_tpcc_rnd_mix_decodes_no_resident_record_and_lowers_no_program(tpcc_rnd_deck):
    """A page slot keeps the row its record decodes to — only a slot written
    from bytes alone (a rollback's restore) is decoded again; the parent
    decoded ~45 records per transaction here — and a stack program is
    lowered when its plan is built or its handle registered, never per
    statement and never per ecall."""
    assert tpcc_rnd_deck["records_decoded"] < 30
    assert tpcc_rnd_deck["programs_lowered"] == 0
