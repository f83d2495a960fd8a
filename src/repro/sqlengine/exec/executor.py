"""Query execution: the iterator pipeline and DML over a physical plan.

Planning (:mod:`repro.sqlengine.exec.plan`) bound the statement, chose the
access path and compiled every predicate to a stack program (Section 4.4);
the executor binds parameter values and pulls rows. Comparisons over
enclave-required encrypted operands run behind ``TM_EVAL`` through the
enclave gateway, everything else runs on the host VM. Encrypted cells are
only ever *moved* here — never interpreted — except through the enclave.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import ExecutionError
from repro.obs.metrics import get_registry
from repro.obs.querystats import QueryStats
from repro.obs.tracing import OPERATOR, get_tracer
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.engine import StorageEngine
from repro.sqlengine.exec.plan import (
    Access,
    Aggregation,
    DeletePlan,
    InsertPlan,
    JoinStep,
    Plan,
    ResultColumn,
    Scalar,
    SelectPlan,
    SortKey,
    UpdatePlan,
)
from repro.sqlengine.expression.compiler import CompiledExpression
from repro.sqlengine.expression.vm import EnclaveConnector, StackMachine
from repro.sqlengine.index.comparators import MAX_KEY
from repro.sqlengine.storage.heap import RowId
from repro.sqlengine.txn.transaction import Transaction
from repro.sqlengine.values import compare_values


#: Chunk size for predicates that never leave the host (see Executor._chunk_size).
_HOST_CHUNK_ROWS = 64


@dataclass
class QueryResult:
    columns: list[ResultColumn] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    plan_info: str = ""
    # Per-statement telemetry, attached by the server session (None for
    # DDL/transaction-control statements and when telemetry is disabled).
    stats: "QueryStats | None" = None


class Executor:
    """Runs physical plans against a storage engine."""

    def __init__(
        self,
        engine: StorageEngine,
        enclave_gateway: EnclaveConnector | None = None,
        eval_batch_size: int = 64,
    ):
        self.engine = engine
        self.gateway = enclave_gateway
        # Rows per enclave round-trip for enclave-requiring predicates; at 1
        # (or less) every chunk is one row: the paper's row-at-a-time mode.
        # Read at execution time, never planned: it may be re-set on a live
        # server between two executions of one cached plan.
        self.eval_batch_size = eval_batch_size
        self._vm = StackMachine(enclave=enclave_gateway)
        registry = get_registry()
        self._tracer = get_tracer()
        self._rows_scanned = registry.counter("executor.rows_scanned")
        self._rows_returned = registry.counter("executor.rows_returned")
        self._table_scans = registry.counter("executor.table_scans")
        self._index_seeks = registry.counter("executor.index_seeks")
        self._index_range_scans = registry.counter("executor.index_range_scans")

    # ------------------------------------------------------------- entry point

    def execute(
        self,
        plan: Plan,
        params: dict[str, object] | None = None,
        txn: Transaction | None = None,
    ) -> QueryResult:
        """Bind ``params`` to the plan's parameter slots and run it."""
        span_name, run = _HANDLERS[type(plan)]
        lowered = {k.lower(): v for k, v in params.items()} if params else {}
        try:
            values = tuple([lowered[name] for name in plan.params])
        except KeyError as missing:
            raise ExecutionError(
                f"missing value for parameter @{missing.args[0]}"
            ) from None
        with self._tracer.span(span_name, kind=OPERATOR):
            result = run(self, plan, values, txn)
        self._rows_returned.inc(result.rowcount)
        return result

    def _value(self, scalar: Scalar, inputs: tuple) -> object:
        if scalar.program is not None:
            return self._vm.eval(scalar.program, inputs)[0]
        return scalar.const if scalar.slot is None else inputs[scalar.slot]

    # ------------------------------------------------------------------- SELECT

    def _select(
        self, plan: SelectPlan, params: tuple, txn: Transaction | None
    ) -> QueryResult:
        where = plan.where
        if where is not None and where.uses_enclave and self.gateway is None:
            raise ExecutionError(
                "query requires enclave computations but no enclave gateway is attached"
            )
        info = ""
        rows: Iterator[tuple] = iter(((),))
        if plan.access is not None:
            rows = (row for __, row in self._access(plan.access, params))
            info = plan.access.info
        # Joins (hash join on hashable equality keys, else nested loop).
        for join in plan.joins:
            rows, strategy = self._join(rows, join, params)
            info += " -> " + strategy
        # Residual filter: the full WHERE (re-checks sargs; harmless).
        if where is not None:
            rows = self._qualify(rows, where, params)
            if note := self._batch_note(where):
                info += f" -> BatchedFilter{note}"

        if plan.aggregate is not None:
            out = self._aggregate(plan.aggregate, rows, params)
        else:
            outputs = plan.outputs
            out = [
                tuple([self._value(scalar, inputs) for scalar in outputs])
                for inputs in (row + params for row in rows)
            ]
        if plan.distinct:
            out = _distinct(out)
        if plan.order:
            out = self._order(plan.order, out)
        if plan.hidden:
            out = [row[: -plan.hidden] for row in out]
        if plan.limit is not None:
            out = out[: plan.limit]
        return QueryResult(
            columns=list(plan.columns), rows=out, rowcount=len(out), plan_info=info
        )

    # -- chunked predicate evaluation -------------------------------------------

    def _chunk_size(self, compiled: CompiledExpression) -> int:
        """Rows per VM call for ``compiled``.

        A program that crosses the enclave boundary ships eval_batch_size
        rows per ``TM_EVAL``; at 1 that is the paper's row-at-a-time mode
        (see :meth:`StackMachine._tm_eval`). A host-only program crosses
        nothing, so its chunk size is not a knob: chunks only spread the
        interpreter's per-call overhead over more rows.
        """
        if compiled.uses_enclave and self.gateway is not None:
            return max(1, self.eval_batch_size)
        return _HOST_CHUNK_ROWS

    def _batch_note(self, compiled: CompiledExpression) -> str:
        """The ``plan_info`` suffix of an operator evaluating ``compiled``:
        ``(batch=N)`` when N > 1 rows share one enclave round-trip."""
        size = self._chunk_size(compiled)
        return f"(batch={size})" if compiled.uses_enclave and size > 1 else ""

    def _qualify(
        self,
        candidates: Iterable,
        compiled: CompiledExpression,
        params: tuple,
        row_of: Callable[[object], tuple] = lambda candidate: candidate,
    ) -> Iterator:
        """Yield the candidates whose row satisfies ``compiled``.

        The one place predicates meet rows: the residual WHERE, nested-loop
        join conditions and DML qualification all evaluate here, a chunk
        (see :meth:`_chunk_size`) per VM call.
        """
        size = self._chunk_size(compiled)
        candidates = iter(candidates)
        while chunk := list(itertools.islice(candidates, size)):
            verdicts = self._vm.eval_predicate_batch(
                compiled.lowered,
                [row_of(candidate) + params for candidate in chunk],
            )
            for candidate, verdict in zip(chunk, verdicts):
                if verdict is True:
                    yield candidate

    # -- access paths ------------------------------------------------------------

    def _access(self, access: Access, params: tuple) -> Iterator[tuple[RowId, tuple]]:
        """Yield ``(rid, row)`` along ``access``: heap scan, seek or range scan."""
        table, index = access.table, access.index
        if index is None:
            self._table_scans.inc()
            with self._tracer.span(
                "exec.table_scan", kind=OPERATOR, table=table.schema.name
            ):
                scanned = 0
                try:
                    for entry in table.heap.scan():
                        scanned += 1
                        yield entry
                finally:
                    self._rows_scanned.inc(scanned)
            return

        prefix = tuple([self._value(operand, params) for operand in access.eq])
        if len(prefix) == len(index.key_slots):
            self._index_seeks.inc()
            with self._tracer.span(
                "exec.index_seek",
                kind=OPERATOR,
                table=table.schema.name,
                index=index.schema.name,
            ):
                rids = index.tree.search_eq(prefix)
        else:
            low: tuple = prefix
            high: tuple = prefix + (MAX_KEY,)
            high_inclusive = True
            if access.low is not None:
                operand, inclusive = access.low
                low = prefix + (self._value(operand, params),)
                if not inclusive:
                    low = low + (MAX_KEY,)
            if access.high is not None:
                operand, high_inclusive = access.high
                high = prefix + (self._value(operand, params),)
                if high_inclusive:
                    high = high + (MAX_KEY,)
            self._index_range_scans.inc()
            with self._tracer.span(
                "exec.index_range_scan",
                kind=OPERATOR,
                table=table.schema.name,
                index=index.schema.name,
            ):
                # ``< v`` stops at a key equal to ``prefix + (v,)`` rather
                # than reading that row for the residual to drop.
                rids = [
                    rid for __, rid in index.tree.range_scan(low, high, True, high_inclusive)
                ]
        fetched = [
            (rid, row)
            for rid in rids
            if (row := table.heap.read_or_none(rid)) is not None
        ]
        self._rows_scanned.inc(len(fetched))
        yield from fetched

    # -- joins ----------------------------------------------------------------------

    def _join(
        self, left_rows: Iterator[tuple], join: JoinStep, params: tuple
    ) -> tuple[Iterator[tuple], str]:
        if join.hash_slots is not None:
            left_slot, right_slot = join.hash_slots
            build: dict[object, list[tuple]] = {}
            for __, row in join.table.heap.scan():
                key = row[right_slot]
                if key is None:
                    continue
                build.setdefault(_hash_key(key), []).append(row)

            def hash_generator() -> Iterator[tuple]:
                for left in left_rows:
                    key = left[left_slot]
                    if key is None:
                        continue
                    for right in build.get(_hash_key(key), []):
                        yield left + right

            return hash_generator(), "HashJoin"

        # Nested loop with the join condition evaluated per pair (this is
        # the path for RND-encrypted join keys: per-pair enclave equality).
        condition = join.condition
        inner_rows = [row for __, row in join.table.heap.scan()]
        # Slots between the joined prefix and the parameters belong to tables
        # joined later; they are NULL while this condition is evaluated.
        padded_params = join.pad + params

        def nl_generator() -> Iterator[tuple]:
            # Chunks never span left rows: one enclave round-trip per
            # chunk of inner rows of each left row.
            for left in left_rows:
                yield from self._qualify(
                    (left + right for right in inner_rows), condition, padded_params
                )

        return nl_generator(), "NestedLoopJoin" + self._batch_note(condition)

    # -- aggregation -------------------------------------------------------------------

    def _aggregate(
        self, spec: Aggregation, rows: Iterator[tuple], params: tuple
    ) -> list[tuple]:
        aggregates = spec.aggregates
        groups: dict[tuple, list[list[object]]] = {}
        key_values: dict[tuple, tuple] = {}
        for row in rows:
            inputs = row + params
            key_raw = tuple([self._value(key, inputs) for key in spec.keys])
            key = tuple([_hash_key(k) for k in key_raw])
            state = groups.get(key)
            if state is None:
                state = [[] for __ in aggregates]
                groups[key] = state
                key_values[key] = key_raw
            for i, (__, argument) in enumerate(aggregates):
                if argument is None:  # COUNT(*)
                    state[i].append(1)
                else:
                    value = self._value(argument, inputs)
                    if value is not None:
                        state[i].append(value)

        if not spec.keys and not groups:
            groups[()] = [[] for __ in aggregates]
            key_values[()] = ()

        return [
            tuple(
                _fold(aggregates[index][0], state[index])
                if is_aggregate
                else key_values[key][index]
                for is_aggregate, index in spec.items
            )
            for key, state in groups.items()
        ]

    # -- ordering ---------------------------------------------------------------------------

    def _order(self, keys: tuple[SortKey, ...], rows: list[tuple]) -> list[tuple]:
        enclave = self.engine.enclave

        # Batched extension path: pre-rank every distinct ciphertext of each
        # enclave sort column with decrypt-probe-once compare_batch ecalls —
        # k probe ecalls for k distinct cells instead of O(n log n) compare
        # ecalls inside the sort. The full pairwise outcome matrix this
        # reveals is the transitive closure of the sort's comparison
        # outcomes (a sort determines the total order), so the adversary
        # learns the same order information either way (see docs/PERF.md).
        rank_maps: dict[int, dict[object, int]] = {}
        if self.eval_batch_size > 1:
            for key in keys:
                if key.enc is not None and key.position not in rank_maps:
                    rank_maps[key.position] = self._enclave_rank_map(
                        rows, key.position, key.enc, enclave
                    )

        def cell_compare(av: object, bv: object, key: SortKey) -> int:
            if av is None and bv is None:
                return 0
            if av is None:
                return -1
            if bv is None:
                return 1
            if key.enc is not None:
                ranks = rank_maps.get(key.position)
                if ranks is not None:
                    return compare_values(ranks[_hash_key(av)], ranks[_hash_key(bv)])
                # Extension path: the comparison — and hence the row
                # ordering — crosses the enclave boundary in the clear,
                # the same leakage as a range index build.
                return enclave.compare(key.enc.cek_name, av, bv)
            return compare_values(av, bv)

        def cmp(a: tuple, b: tuple) -> int:
            for key in keys:
                c = cell_compare(a[key.position], b[key.position], key)
                if c:
                    return c if key.ascending else -c
            return 0

        return sorted(rows, key=functools.cmp_to_key(cmp))

    def _enclave_rank_map(
        self, rows: list[tuple], position: int, enc, enclave
    ) -> dict[object, int]:
        """Rank each distinct ciphertext of a sort column via batch compares.

        A cell's rank is the number of cells ordered strictly below it;
        equal plaintexts (distinct RND ciphertexts) get equal ranks, so
        comparing ranks is exactly comparing plaintexts.
        """
        cells: list[object] = []
        seen: set = set()
        for row in rows:
            cell = row[position]
            if cell is None:
                continue
            key = _hash_key(cell)
            if key not in seen:
                seen.add(key)
                cells.append(cell)
        ranks: dict[object, int] = {}
        for cell in cells:
            outcomes: list[int] = []
            for start in range(0, len(cells), self.eval_batch_size):
                outcomes.extend(
                    enclave.compare_batch(
                        enc.cek_name, cell, cells[start : start + self.eval_batch_size]
                    )
                )
            ranks[_hash_key(cell)] = sum(1 for c in outcomes if c > 0)
        return ranks

    # ---------------------------------------------------------------------- DML

    def _insert(
        self, plan: InsertPlan, params: tuple, txn: Transaction | None
    ) -> QueryResult:
        if txn is None:
            raise ExecutionError("INSERT requires a transaction")
        inputs = plan.blank + params
        for template in plan.rows:
            row = tuple([self._value(scalar, inputs) for scalar in template])
            self.engine.insert(txn, plan.table, row)
        return QueryResult(rowcount=len(plan.rows))

    def _qualified_under_lock(
        self, plan: DeletePlan, txn: Transaction, params: tuple
    ) -> Iterator[tuple[RowId, tuple]]:
        """Yield ``(rid, row)`` for each row an UPDATE/DELETE must change.

        Two-phase qualification: lock, re-read, re-check. Scanning reads are
        unlocked, so assignment expressions (e.g. the D_NEXT_O_ID increment
        of TPC-C NewOrder) must be evaluated against the row as it exists
        *under the lock* — the one yielded here — or concurrent
        read-modify-writes lose updates.
        """
        predicate = plan.where
        candidates = self._access(plan.access, params)
        if predicate is not None:
            candidates = self._qualify(
                candidates, predicate, params, row_of=operator.itemgetter(1)
            )
        # Materialize the first phase before the caller's first write, so
        # the scan never meets rows this statement has already changed.
        for rid, __ in list(candidates):
            self.engine.lock_row(txn, plan.table, rid)
            row = self.engine.read(plan.table, rid)
            if row is None:
                continue
            # The re-check re-reads single rows, so it is a chunk of one.
            if predicate is not None and not list(
                self._qualify([row], predicate, params)
            ):
                continue
            yield rid, row

    def _update(
        self, plan: UpdatePlan, params: tuple, txn: Transaction | None
    ) -> QueryResult:
        if txn is None:
            raise ExecutionError("UPDATE requires a transaction")
        count = 0
        for rid, row in self._qualified_under_lock(plan, txn, params):
            inputs = row + params
            new_row = list(row)
            for slot, scalar in plan.assignments:
                new_row[slot] = self._value(scalar, inputs)
            self.engine.update(txn, plan.table, rid, tuple(new_row))
            count += 1
        return QueryResult(rowcount=count)

    def _delete(
        self, plan: DeletePlan, params: tuple, txn: Transaction | None
    ) -> QueryResult:
        if txn is None:
            raise ExecutionError("DELETE requires a transaction")
        count = 0
        for rid, __ in self._qualified_under_lock(plan, txn, params):
            self.engine.delete(txn, plan.table, rid)
            count += 1
        return QueryResult(rowcount=count)


#: Plan type -> (operator span name, the method that runs it).
_HANDLERS = {
    SelectPlan: ("exec.select", Executor._select),
    InsertPlan: ("exec.insert", Executor._insert),
    UpdatePlan: ("exec.update", Executor._update),
    DeletePlan: ("exec.delete", Executor._delete),
}


def _hash_key(value: object) -> object:
    if isinstance(value, Ciphertext):
        return ("ct", value.envelope)
    return value


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    out: list[tuple] = []
    for row in rows:
        key = tuple(_hash_key(cell) for cell in row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _fold(func: str, values: list[object]) -> object:
    if func == "COUNT":
        return len(values)
    if not values:
        return None
    if func == "SUM":
        return sum(values)  # type: ignore[arg-type]
    if func == "AVG":
        return sum(values) / len(values)  # type: ignore[arg-type]
    if func == "MIN":
        return min(values)  # type: ignore[type-var]
    if func == "MAX":
        return max(values)  # type: ignore[type-var]
    raise ExecutionError(f"unknown aggregate {func!r}")
