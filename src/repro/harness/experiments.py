"""Every experiment of EXPERIMENTS.md, each a definition over :func:`paired`.

An experiment is a function of a :class:`Run` (the scale switch plus the
one shared calibration) returning one result in the schema of
:mod:`repro.harness.result`. The pipeline behind Figures 8 and 9 —
calibrate the four TPC-C configurations once, interleaved, as time and as
counts; solve the closed queueing network of
:mod:`repro.harness.perfmodel`; state the paper's attribution as claims —
is DESIGN.md Section 5. A claim is asserted only on a count, or on the
model given one set of demands; anything that rests on timing is a
``paired`` claim whose verdict is reported and never fails a run.
"""

from __future__ import annotations

import functools
import itertools
import statistics
from dataclasses import dataclass, replace
from typing import Callable

from repro.attestation.hgs import AttestationPolicy
from repro.client.driver import Connection, connect
from repro.crypto.aead import EncryptionScheme
from repro.enclave import CallMode
from repro.harness.measured import (
    MEASURED_CLIENT_COUNTS,
    MEASURED_RTT_S,
    default_sharded_scale,
    measure_curve,
)
from repro.harness.paired import Arm, Paired, paired
from repro.harness.perfmodel import (
    ModelConfig,
    NormalizedFigure,
    ServiceDemands,
    ThroughputCurve,
    sweep,
)
from repro.harness.result import claim, result, row
from repro.keys import default_registry
from repro.obs.flightrec import get_recorder
from repro.obs.metrics import get_registry
from repro.sqlengine.server import SqlServer
from repro.tools.initial_encryption import client_side_initial_encryption
from repro.tools.provisioning import provision_cek, provision_cmk
from repro.tools.rotation import rotate_cek_online
from repro.workloads.tpcc.config import TRANSACTION_MIX, EncryptionMode, TpccConfig
from repro.workloads.tpcc.driver import TpccSystem, build_server, build_system
from repro.workloads.tpcc.transactions import TpccTransactions

PT, AECONN, DET, RND = EncryptionMode
FIGURE8_CLIENTS = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

#: Counted demands per transaction: name -> the registry counters it sums.
DEMAND_COUNTERS = {
    "statements": ("driver.executes",),
    "describe round trips": ("driver.describe_roundtrips",),
    "round trips": (
        "driver.describe_roundtrips", "driver.execute_roundtrips", "driver.package_roundtrips",
    ),
    "driver cell ops": ("driver.params_encrypted", "driver.results_decrypted"),
    "ecalls": ("enclave.ecalls",),
    "enclave comparisons": ("enclave.comparisons",),
    "enclave cell opens": ("enclave.cell_decrypts",),
}
_ENCLAVE_CPU = "enclave.cpu_seconds"


def seeded(txns: TpccTransactions, work: Callable[[], object]) -> Arm:
    """An arm over a TPC-C client: reseed its RNG untimed, then time ``work``."""
    def arm(seed: int) -> Callable[[], object]:
        txns.rng.seed(seed)
        return work
    return arm


def warm(system: TpccSystem, kind: str | None = None) -> TpccTransactions:
    """Fill the plan and CEK caches (paper mode caches no describe) before timing."""
    txns = system.transactions
    txns.rng.seed(0)
    txns.run_mix(10, [(kind, 1.0)] if kind else TRANSACTION_MIX)
    return txns


# -- the one calibration -------------------------------------------------------


@dataclass
class Demands:
    """One configuration's per-transaction demands, as time and as counts."""

    label: str
    wall_s: float
    enclave_s: float
    counts: dict[str, float]
    wall_ms: list[float] | None = None

    def service(self) -> ServiceDemands:
        return ServiceDemands(self.label, host_cpu_s=max(self.wall_s - self.enclave_s, 1e-9),
                              enclave_cpu_s=self.enclave_s, roundtrips=self.counts["round trips"])


@dataclass
class Calibration:
    sample: Paired
    demands: dict[EncryptionMode, Demands]

    def curve(self, mode: EncryptionMode, model: ModelConfig, clients) -> ThroughputCurve:
        """``mode``'s demands solved by ``model`` at each of ``clients``, labelled
        as the configuration with the model's enclave thread count."""
        label = TpccConfig(mode=mode, enclave_threads=model.enclave_threads).label
        return sweep(replace(self.demands[mode].service(), label=label), model, list(clients))

    def bar(self, text: str, paper: str, bar: str, mode: EncryptionMode,
            after: EncryptionMode) -> dict:
        """A modeled bar beside the paper's number. What a step *counts* is
        its own claim; this verdict judges what it *times*: that ``mode``'s
        transactions take longer than those of the step before it."""
        ratio = self.sample.ratio(mode.value, after.value)
        return self.sample.claim(
            text, paper, f"{bar}; a transaction takes {ratio:.2f}x {self.demands[after].label}'s "
            "time", after.value, mode.value)


def _demand_totals(delta: dict[str, float]) -> dict[str, int]:
    """One arm's counted demands over the whole sample: the raw integers a
    count claim compares (``Demands.counts`` is per transaction, rounded)."""
    return {name: sum(delta[c] for c in counters) for name, counters in DEMAND_COUNTERS.items()}


def calibrate(config: TpccConfig, pairs: int, txns_per_pair: int) -> Calibration:
    """Build the four configurations once and sample them interleaved.

    SQL-PT's demand is its median time; every other configuration's is
    SQL-PT's scaled by its median per-pair ratio to SQL-PT. One RND system
    serves both SQL-AE-RND-1 and SQL-AE-RND-4: the enclave thread count is a
    parameter of the model, not of the demand.
    """
    systems = {mode: build_system(replace(config, mode=mode)) for mode in EncryptionMode}
    counters = {c for cs in DEMAND_COUNTERS.values() for c in cs} | {_ENCLAVE_CPU}
    try:
        arms = {mode.value: seeded(warm(system), functools.partial(
                    system.transactions.run_mix, txns_per_pair, TRANSACTION_MIX))
                for mode, system in systems.items()}
        sample = paired(arms, pairs, 8000, sorted(counters))
    finally:
        for system in systems.values():
            system.shutdown()
    txns = pairs * txns_per_pair
    pt_wall_s = statistics.median(sample.times[PT.value]) / txns_per_pair
    demands = {}
    for mode, system in systems.items():
        delta = sample.counts[mode.value]
        wall_s = pt_wall_s * sample.ratio(mode.value, PT.value)
        demands[mode] = Demands(
            label=system.config.label,
            wall_s=wall_s,
            # The enclave's share of the arm's own wall time.
            enclave_s=wall_s * delta[_ENCLAVE_CPU] / sum(sample.times[mode.value]),
            counts={name: round(v / txns, 4) for name, v in _demand_totals(delta).items()},
            wall_ms=sample.wall_ms(mode.value, per=txns_per_pair),
        )
    return Calibration(sample, demands)


@dataclass
class Run:
    """One invocation: the scale switch and what its experiments share."""

    smoke: bool = False

    def pick(self, full, smoke):
        return smoke if self.smoke else full

    @functools.cached_property
    def calibration(self) -> Calibration:
        return calibrate(self.pick(TpccConfig(1, 2, 20, 40), TpccConfig(1, 1, 8, 12)),
                         pairs=self.pick(100, 4), txns_per_pair=self.pick(10, 3))

    def params(self, value: str, x: str | None = None, **more) -> dict:
        return {"scale": self.pick("full", "smoke"), "value": value, "x": x, **more}


def _calibration_params(run: Run, cal: Calibration, value: str, x: str | None) -> dict:
    model = ModelConfig()
    return run.params(
        value, x, pairs=cal.sample.pairs,
        model=f"closed MVA: {model.server_cores} server cores, 1/4 enclave threads, "
              f"{model.rtt_s * 1e3:g} ms RTT",
    )


def _step_claims(cal: Calibration) -> list[dict]:
    """The paper's attribution, one counted step per claim: judged on the raw
    counter totals of the sample, displayed per transaction."""
    pt, aeconn, det, rnd = (_demand_totals(cal.sample.counts[m.value]) for m in EncryptionMode)
    shown = {mode: cal.demands[mode].counts for mode in EncryptionMode}
    return [
        claim(
            "PT → AEConn adds one describe round trip per statement and nothing else",
            "\"the bulk of the drop\"",
            f"describes/txn 0 → {shown[AECONN]['describe round trips']:g} of "
            f"{shown[AECONN]['statements']:g} statements; round trips "
            f"{shown[PT]['round trips']:g} → {shown[AECONN]['round trips']:g}; "
            "cell ops 0, ecalls 0",
            "count",
            pt["describe round trips"] == 0 and pt["statements"] == aeconn["statements"]
            and aeconn["describe round trips"] == aeconn["statements"]
            and aeconn["round trips"] == pt["round trips"] + aeconn["statements"]
            and aeconn["driver cell ops"] == aeconn["ecalls"] == 0,
        ),
        claim(
            "AEConn → DET adds driver cell crypto and nothing else",
            "DET just below AEConn",
            f"driver cell ops/txn 0 → {shown[DET]['driver cell ops']:g}; round trips "
            f"{shown[DET]['round trips']:g}; ecalls 0",
            "count",
            det["driver cell ops"] > 0 and det["ecalls"] == 0
            and det["round trips"] == aeconn["round trips"],
        ),
        claim(
            "DET → RND adds enclave work and nothing else",
            "enclave computation",
            f"ecalls/txn 0 → {shown[RND]['ecalls']:g}; "
            f"{shown[RND]['enclave comparisons']:g} comparisons, "
            f"{shown[RND]['enclave cell opens']:g} cells opened in the enclave; driver cell ops "
            f"{shown[RND]['driver cell ops']:g}",
            "count",
            rnd["ecalls"] > 0 and rnd["enclave comparisons"] > 0
            and rnd["driver cell ops"] == det["driver cell ops"],
        ),
    ]


def figure8(run: Run) -> dict:
    """Normalized throughput vs client threads: PT, AEConn, AE (RND-4)."""
    cal = run.calibration
    curves = [cal.curve(mode, ModelConfig(), FIGURE8_CLIENTS) for mode in (PT, AECONN, RND)]
    figure = NormalizedFigure(curves, baseline_label=curves[0].label)
    rows = [
        row(d.label, value, x=n, counts=d.counts, wall_ms=d.wall_ms)
        for d in (cal.demands[mode] for mode in (PT, AECONN, RND))
        for n, value in zip(FIGURE8_CLIENTS, figure.normalized[d.label])
    ]
    at_100 = {label: values[-1] for label, values in figure.normalized.items()}
    rising = all(b >= a for c in curves for a, b in zip(c.throughput, c.throughput[1:]))
    claims = [
        claim("throughput rises toward saturation at 100 threads, every configuration",
              "yes", "non-decreasing in clients" if rising else "not monotone", "model", rising),
        _step_claims(cal)[0],
        cal.bar("AEConn at 100 threads", "64% of PT",
                f"{at_100[cal.demands[AECONN].label]:.1%} of PT", AECONN, PT),
        cal.bar("AE (RND-4) at 100 threads, at or below AEConn", "~50% of PT",
                f"{at_100[cal.demands[RND].label]:.1%} of PT", RND, AECONN),
    ]
    return result("figure8", _calibration_params(run, cal, "normalized throughput", "clients"),
                  rows, claims)


def figure9(run: Run) -> dict:
    """The paper's steps at 100 threads: PT → AEConn → DET → RND-4, RND-1."""
    cal = run.calibration
    bars = [(PT, 4), (AECONN, 4), (DET, 4), (RND, 1), (RND, 4)]
    curves = [cal.curve(mode, ModelConfig(enclave_threads=k), [100]) for mode, k in bars]
    figure = NormalizedFigure(curves, baseline_label=curves[0].label)
    rows = [
        row(label, value, counts=cal.demands[mode].counts, wall_ms=cal.demands[mode].wall_ms)
        for (mode, __), (label, (value,)) in zip(bars, figure.normalized.items())
    ]
    __, aeconn, det, rnd1, rnd4 = (r["value"] for r in rows)
    rnd = cal.demands[RND]
    claims = _step_claims(cal) + [
        cal.bar("AEConn below PT", "64% of PT", f"{aeconn:.1%} of PT", AECONN, PT),
        cal.bar("DET at or just below AEConn", "between AEConn and RND",
                f"{det:.3f} vs {aeconn:.3f}", DET, AECONN),
        cal.bar("RND-4 below DET", "12.3% below DET",
                f"{(det - rnd4) / det:.1%} below DET (enclave CPU {rnd.enclave_s * 1e3:.2f} "
                f"of {rnd.wall_s * 1e3:.2f} ms/txn)", RND, DET),
        claim("RND-1 below RND-4, from one set of demands", "RND-1 well below RND-4",
              "holds" if rnd1 < rnd4 else "violated", "model", rnd1 < rnd4),
    ]
    return result("figure9", _calibration_params(run, cal, "normalized throughput", None),
                  rows, claims)


# -- measured sweeps -----------------------------------------------------------


def _swept(run: Run, name: str, scale: TpccConfig, sweeps: list, per_client: int,
           overlay: bool = False) -> dict:
    """Measure each ``(mode, n_shards, client_counts)`` curve, build to
    shutdown, one after another; the quiesce audit is the asserted claim."""
    rows, violations = [], []
    for mode, n_shards, clients in sweeps:
        config = replace(scale, mode=mode)
        curve, bad = measure_curve(config, n_shards, clients, per_client)
        rows += curve
        violations += [f"{curve[0]['label']}: {v}" for v in bad]
        if overlay:
            # The model with one server core (the GIL) and the sweep's RTT:
            # the curve the measured one should track in shape.
            model = ModelConfig(1, config.enclave_threads, MEASURED_RTT_S)
            modeled = run.calibration.curve(mode, model, clients)
            rows += [row(f"{modeled.label} (model)", value, x=n)
                     for n, value in zip(modeled.clients, modeled.throughput)]
    audit = claim(
        "TPC-C invariants hold at quiesce on every shard of every curve",
        "(serializable)", f"{len(violations)} violations over {len(sweeps)} curves"
        + "".join(f"; {v}" for v in violations[:3]), "count", not violations,
    )
    params = run.params("txn/s", "clients", warehouses=scale.warehouses, rtt_s=MEASURED_RTT_S,
                        transactions_per_client=per_client)
    return result(name, params, rows, [audit])


def figure8_measured(run: Run) -> dict:
    """Figure 8 with real client threads in-process, the model overlaid."""
    scale = run.pick(TpccConfig(8, 2, 15, 40), TpccConfig(2, 2, 6, 20))
    clients = run.pick(MEASURED_CLIENT_COUNTS, (1, 2))
    return _swept(run, "figure8-measured", scale, [(m, 0, clients) for m in (PT, AECONN, RND)],
                  run.pick(16, 2), overlay=True)


def figure8_sharded(run: Run) -> dict:
    """The same sweep over forked shard processes behind the router."""
    scale = run.pick(default_sharded_scale(), TpccConfig(2, 2, 6, 20))
    clients = run.pick(MEASURED_CLIENT_COUNTS, (1, 2))
    sweeps = [(PT, n, clients) for n in run.pick((1, 2, 4, 8), (1,))]
    sweeps += [(RND, n, (clients[0], clients[-1])) for n in run.pick((1, 4), (1,))]
    # Measured LAST: the reference runs a full engine in *this* process,
    # which no sharded measurement should share a core with.
    sweeps += [(PT, 0, clients[-1:])]
    return _swept(run, "figure8-sharded", scale, sweeps, run.pick(16, 2))


# -- overheads and ablations -----------------------------------------------------


def _arm_rows(sample: Paired, per_run: dict[str, dict] | None = None) -> list[dict]:
    """One row per arm: median ms as the value, its counts, its quartiles."""
    counts = per_run or sample.counts
    return [row(arm, sample.wall_ms(arm)[1], counts=counts[arm], wall_ms=sample.wall_ms(arm))
            for arm in sample.times]


def anchor(run: Run) -> dict:
    """The freshness anchor's tax on the TPC-C write path (DET, TPM NV anchor)."""
    config = TpccConfig(1, 1, 10, 20, mode=DET)
    systems = {"anchored": build_system(config, freshness_anchor=True),
               "plain": build_system(config)}
    try:
        arms = {arm: seeded(warm(system, "payment"), system.transactions.payment)
                for arm, system in systems.items()}
        sample = paired(arms, run.pick(200, 10), 20_000, ["wal.flushes", "anchor.advances"])
    finally:
        for system in systems.values():
            system.shutdown()
    on, off = sample.counts["anchored"], sample.counts["plain"]
    claims = [
        # The page side (advance + confirm per write-back at a checkpoint)
        # is pinned by tests/sqlengine/test_freshness.py.
        claim("one anchor advance per WAL flush; none without the anchor", "(design)",
              f"{on['anchor.advances']} advances over {on['wal.flushes']} flushes; "
              f"plain {off['anchor.advances']}", "count",
              on["anchor.advances"] == on["wal.flushes"] > 0 == off["anchor.advances"]),
        sample.claim("anchored payment under 1.05x plain", "(our bound: 5%)",
                     f"{sample.ratio('anchored', 'plain') - 1:+.1%}", "anchored", "plain", 1.05),
    ]
    return result("anchor", run.params("payment ms (median)", pairs=sample.pairs, label="arm"),
                  _arm_rows(sample), claims)


NEW_CEK = "TpccCEK2"


def open_mixed_window(system: TpccSystem, rows: int) -> str:
    """Start an online C_FIRST rotation to ``NEW_CEK`` and sweep ``rows`` rows,
    leaving ``CUSTOMER_NC1`` part old-key, part new-key. Returns the rotation id."""
    provider = system.registry.get("AZURE_KEY_VAULT_PROVIDER")
    provision_cek(system.connection, provider, system.server.catalog.cmk("TpccCMK"), NEW_CEK)
    rid = rotate_cek_online(system.connection, "CUSTOMER", "C_FIRST", NEW_CEK,
                            batch_size=1, run=False)
    while rows > 0:
        rows -= system.server.rotate_step(rid)[1]
    return rid


#: An index probe that compares ``C_FIRST`` keys: with last names distinct in
#: a district, against exactly the entry of the customer it names.
PROBE = ("SELECT C_ID FROM CUSTOMER WHERE C_W_ID = 1 AND C_D_ID = 1 "
         "AND C_LAST = @last AND C_FIRST = @first")


def _probe_arm(system: TpccSystem) -> Arm:
    """Warm ``PROBE`` for every customer of the district (its plan, and
    ``NEW_CEK``'s install after a metadata flip); pair i probes customer i mod n."""
    execute = system.connection.execute
    people = [{"last": last, "first": first} for last, first in execute(
        "SELECT C_LAST, C_FIRST FROM CUSTOMER WHERE C_W_ID = 1 AND C_D_ID = 1").rows]
    for person in people:
        execute(PROBE, person)
    return lambda seed: functools.partial(execute, PROBE, people[seed % len(people)])


def rotation(run: Run) -> dict:
    """Live-traffic tax of the mixed-key window of an online CEK rotation."""
    config = TpccConfig(1, 1, 10, 20, mode=RND)
    systems = {"rotating": build_system(config), "idle": build_system(config)}
    server, half = systems["rotating"].server, config.customers_per_district // 2
    try:
        rid = open_mixed_window(systems["rotating"], half)
        arms = {name: _probe_arm(system) for name, system in systems.items()}
        sample = paired(arms, run.pick(120, 10), 30_000,
                        ["enclave.ecalls", "enclave.cell_decrypts"])
        held_open = [(state.active, state.rows_rotated) for state in server.rotation_states()]
        while server.rotate_step(rid)[0]:
            pass
        ended = (server.cek_versions(), [state.active for state in server.rotation_states()])
    finally:
        for system in systems.values():
            system.shutdown()
    counts = sample.counts
    claims = [
        claim("the window stays open, half-swept, through every timed probe; the job then lands "
              "terminal", "(design)", f"(active, rows rotated) {held_open} of "
              f"{config.customers_per_district} → versions {ended[0]}, active {ended[1]}", "count",
              held_open == [(True, half)] and ended == ({NEW_CEK: 2}, [False])),
        # The enclave retries an old-key cell under the partner inside the one
        # open it counts; which probes retry is tests/keys/test_rotation_lifecycle.py's.
        claim("the window costs a probe no ecall and no counted open: the partner retry for an "
              "old-key cell happens inside the open", "(design)",
              f"rotating {counts['rotating']}, idle {counts['idle']}", "count",
              counts["rotating"] == counts["idle"] and counts["idle"]["enclave.ecalls"] > 0),
        sample.claim("probe in the window under 1.10x idle", "(our bound: 10%)",
                     f"{sample.ratio('rotating', 'idle') - 1:+.1%}", "rotating", "idle", 1.10),
    ]
    return result("rotation", run.params("probe ms (median)", pairs=sample.pairs, label="arm"),
                  _arm_rows(sample), claims)


def telemetry(run: Run) -> dict:
    """What counters, QueryStats, flight recorder and leakage ledger cost together."""
    system = build_system(TpccConfig(1, 1, 10, 20, mode=RND, enclave_threads=2),
                          enclave_call_mode=CallMode.SYNCHRONOUS)
    registry, recorder, pairs = get_registry(), get_recorder(), run.pick(200, 10)
    # order_status: read-only, and its by-last-name path crosses the
    # instrumented enclave boundary.
    txns = warm(system, "order_status")

    def switched(on: bool) -> Arm:
        def arm(seed: int) -> Callable[[], object]:
            registry.enabled = on       # the global kill switch
            txns.rng.seed(seed)
            return txns.order_status
        return arm

    def recorded(**arms: Arm) -> tuple[Paired, int]:
        recorder.clear()
        sample = paired(arms, pairs, seed_base=10_000)
        return sample, len(recorder) + recorder.dropped

    try:
        sample, events = recorded(on=switched(True), off=switched(False))
        silent = recorded(off=switched(False))[1]
        replayed = recorded(on=switched(True))[1]
    finally:
        registry.enabled = True
        system.shutdown()
    claims = [
        claim("the kill switch silences the recorder", "(design)",
              f"{silent} events over {pairs} transactions", "count", silent == 0),
        claim("the events a transaction records are a function of its seed", "(design)",
              f"{events} recorded, {replayed} on replay of the same seeds", "count",
              events == replayed > 0),
        sample.claim("telemetry off is faster than on", "(reported)",
                     f"on costs {sample.ratio('on', 'off') - 1:+.1%}", "off", "on"),
    ]
    rows = _arm_rows(sample, {"on": {"events per transaction": events / pairs}, "off": {}})
    return result("telemetry", run.params("order_status ms (median)", pairs=pairs, label="arm"),
                  rows, claims)


def _enclave_stack(allow_enclave: bool = True, **build) -> tuple[SqlServer, Connection, bytes]:
    """An enclave-backed server, an attested connection, CMK and ``CEK`` provisioned."""
    server, author = build_server(TpccConfig(mode=RND, eval_batch_size=64), **build)
    registry = default_registry()
    policy = AttestationPolicy(trusted_author_ids=frozenset({author}))
    conn = connect(server, registry, attestation_policy=policy)
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    cmk = provision_cmk(conn, vault, "CMK", "https://vault.azure.net/keys/harness",
                        allow_enclave_computations=allow_enclave)
    return server, conn, provision_cek(conn, vault, cmk, "CEK")


def _table_of(conn: Connection, table: str, column: str, values, encrypted: str = "") -> None:
    """``table(k int PRIMARY KEY, column)`` holding ``values`` under keys 0, 1, …"""
    if encrypted:
        column += _encrypted_with(encrypted)
    conn.execute_ddl(f"CREATE TABLE {table} (k int PRIMARY KEY, {column})")
    for k, value in enumerate(values):
        conn.execute(f"INSERT INTO {table} VALUES (@k, @v)", {"k": k, "v": value})


def _encrypted_with(scheme: str) -> str:
    return (f" ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = CEK, ENCRYPTION_TYPE = {scheme}, "
            "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')")


def eval_batch(run: Run) -> dict:
    """Batched ecalls: boundary transitions and scan time per batch size."""
    n, pairs, batches = run.pick(192, 48), run.pick(5, 2), (1, 8, 64)
    query, cutoff = "SELECT k FROM L WHERE v >= @x", {"x": n - n // 10}     # ~10% qualify
    counters = ["worker.boundary_transitions", "enclave.ecalls", "enclave.cell_decrypts"]
    rows, claims = [], []
    for mode, cost_s in itertools.product((CallMode.SYNCHRONOUS, CallMode.QUEUED), (0.0, 0.0002)):
        server, conn, __ = _enclave_stack(enclave_call_mode=mode)
        server.gateway.transition_cost_s = cost_s
        # No spinning: every queue item is a sleep→hot wakeup, so QUEUED
        # transition counts repeat exactly.
        server.gateway.spin_duration_s = 0.0
        _table_of(conn, "L", "v int", ((k * 61) % n for k in range(n)), "Randomized")

        def scan(batch: int, seed: int) -> Callable[[], object]:
            server.executor.eval_batch_size = batch
            return lambda: conn.execute(query, cutoff)

        try:
            arms = {str(batch): functools.partial(scan, batch) for batch in batches}
            for arm in arms.values():       # plan, program registration, CEK install
                arm(0)()
            sample = paired(arms, pairs, 0, counters)
        finally:
            server.shutdown()
        label, per = f"{mode.value}, {cost_s * 1e6:g} µs/transition", sample.per_pair()
        rows += [{**r, "label": label, "x": int(r["label"])} for r in _arm_rows(sample, per)]
        one, many = (per[arm][counters[0]] for arm in ("1", "64"))
        opens = [(c["enclave.cell_decrypts"], c["enclave.ecalls"]) for c in per.values()]
        if cost_s:      # the counts do not depend on the cost: claim them once per mode
            claims += [
                claim(f"{mode.value}: batch 1 crosses the boundary >= 5x as often as batch 64",
                      ">= 5x", f"{one:g} vs {many:g} transitions", "count",
                      one >= 5 * max(1, many)),
                claim(f"{mode.value}: each cell opened once, the parameter once per ecall",
                      "rows + ecalls", "; ".join(f"{o:g} = {n} + {e:g}" for o, e in opens), "count",
                      all(o == n + e for o, e in opens)),
                sample.claim(f"{label}: batch 64 is faster than batch 1", "(batching wins)",
                             f"{sample.ratio('64', '1'):.2f}x the time", "64", "1"),
            ]
    return result("eval-batch", run.params("scan ms (median)", "batch size", rows=n, pairs=pairs),
                  rows, claims)


def initial_encryption(run: Run) -> dict:
    """A3: encrypting a column in place via the enclave vs through the client."""
    n, pairs = run.pick(200, 20), run.pick(5, 2)
    latency_s = n * 0.0005      # the client path ships the column both ways: 0.5 ms/row
    stacks = {"in place": _enclave_stack(), "client": _enclave_stack(allow_enclave=False)}

    def fresh_table(conn: Connection, seed: int) -> str:
        _table_of(conn, f"big{seed}", "s varchar(40)", (f"pii-value-{k}" for k in range(n)))
        return f"big{seed}"

    def in_place(seed: int) -> Callable[[], object]:
        conn = stacks["in place"][1]
        ddl = (f"ALTER TABLE {fresh_table(conn, seed)} ALTER COLUMN s varchar(40)"
               + _encrypted_with("Randomized"))
        return lambda: conn.execute_ddl(ddl, authorize_enclave=True)

    def client(seed: int) -> Callable[[], object]:
        __, conn, material = stacks["client"]
        return functools.partial(
            client_side_initial_encryption, conn, fresh_table(conn, seed), "s", "CEK", material,
            EncryptionScheme.DETERMINISTIC, roundtrip_latency_s=latency_s)

    try:
        sample = paired({"in place": in_place, "client": client}, pairs, 0,
                        ["enclave.cell_encrypts"])
        found = [conn.execute("SELECT k FROM big0 WHERE s = @s", {"s": "pii-value-7"}).rows
                 for __, conn, __ in stacks.values()]
    finally:
        for server, __, __ in stacks.values():
            server.shutdown()
    encrypts = [c["enclave.cell_encrypts"] for c in sample.per_pair().values()]
    claims = [
        claim("in place the enclave encrypts every cell and none leaves the server; the client "
              "path pulls the column out and writes it back", "§1.1",
              f"enclave encrypts per run of {n} rows: {encrypts[0]:g} in place, {encrypts[1]:g} "
              "on the client path", "count", encrypts == [n, 0]),
        claim("an equality lookup over the encrypted column finds its row on both paths",
              "(correctness)", f"{found}", "count", found == [[(7,)], [(7,)]]),
        sample.claim(f"in place beats the client path with {latency_s * 1e3:g} ms of simulated "
                     "network each way", "\"as long as a week\" per TB",
                     f"{sample.ratio('in place', 'client'):.2f}x the time", "in place", "client"),
    ]
    return result("initial-encryption",
                  run.params("encrypt column ms (median)", rows=n, pairs=pairs, label="path"),
                  _arm_rows(sample, sample.per_pair()), claims)


def order_by(run: Run) -> dict:
    """A7: ORDER BY over an RND column — client-side sort vs enclave sort."""
    n, pairs = run.pick(120, 24), run.pick(10, 2)
    query, everything = "SELECT k, name FROM O WHERE name LIKE @p", {"p": "%"}
    (client_server, client, __), (sorting_server, sorting, __) = _enclave_stack(), _enclave_stack()
    sorting_server.allow_enclave_order_by = True    # the opt-in extension; off everywhere else
    for conn in (client, sorting):
        _table_of(conn, "O", "name varchar(24)",
                  (f"name-{(k * 37) % n:04d}" for k in range(n)), "Randomized")
    work = {
        "client sort": lambda: sorted(client.execute(query, everything).rows, key=lambda r: r[1]),
        "enclave sort": lambda: sorting.execute(query + " ORDER BY name", everything).rows,
    }
    try:
        names = [[r[1] for r in w()] for w in work.values()]       # also warms both plans
        sample = paired({arm: (lambda seed, w=w: w) for arm, w in work.items()}, pairs, 0,
                        ["enclave.comparisons"])
    finally:
        client_server.shutdown()
        sorting_server.shutdown()
    leaked = [c["enclave.comparisons"] for c in sample.per_pair().values()]
    claims = [
        claim("both strategies return every row in name order", "(correctness)",
              f"{[len(o) for o in names]} rows, sorted {[o == sorted(o) for o in names]}",
              "count", all(len(o) == n and o == sorted(o) for o in names)),
        claim("client sort leaks no ordering; enclave sort reveals the pairwise outcomes (the "
              "closure of a sort's n log n) across the boundary", "§5.3 / future work",
              f"comparison results per query: {leaked[0]:g} vs {leaked[1]:g} for {n} rows", "count",
              leaked[0] == 0 < leaked[1] <= n * n),
        sample.claim("the enclave sort costs more than the client sort", "(not in the paper)",
                     f"{sample.ratio('enclave sort', 'client sort'):.2f}x the time",
                     "client sort", "enclave sort"),
    ]
    return result("order-by",
                  run.params("query ms (median)", rows=n, pairs=pairs, label="strategy"),
                  _arm_rows(sample, sample.per_pair()), claims)


EXPERIMENTS: dict[str, Callable[[Run], dict]] = {
    "figure8": figure8,
    "figure9": figure9,
    "figure8-measured": figure8_measured,
    "figure8-sharded": figure8_sharded,
    "eval-batch": eval_batch,
    "anchor": anchor,
    "rotation": rotation,
    "telemetry": telemetry,
    "initial-encryption": initial_encryption,
    "order-by": order_by,
}
