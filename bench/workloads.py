"""The four named workloads, driven through public entry points only.

Every workload is one closed-loop client on one connection. ``--seed``
reaches the system only as generated inputs: the TPC-C loader and client
random streams, the order of the transaction deck, and the scan table's
contents and predicates.

A workload object is used in this order: :meth:`build` (timed as set-up),
:meth:`plan` (the seed-determined op sequence), :meth:`run` per op
(timed), then :meth:`check` once, outside the timed window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import connect
from repro.crypto.rsa import RsaKeyPair
from repro.enclave import Enclave, EnclaveBinary
from repro.errors import LockTimeoutError
from repro.keys import default_registry
from repro.net.remote import RemoteServer
from repro.sqlengine.server import SqlServer
from repro.tools.provisioning import provision_cek, provision_cmk
from repro.workloads.tpcc import TRANSACTION_MIX, EncryptionMode, TpccConfig, build_system
from repro.workloads.tpcc.invariants import check_invariants
from repro.workloads.tpcc.sharded import start_sharded_inprocess
from repro.workloads.tpcc.transactions import TpccTransactions

#: The wire client's home warehouse: every statement routes to one shard.
HOME_WAREHOUSE = 1
#: Attempts per transaction before a lock-timeout victim counts as failed
#: (the same budget as ``TpccTransactions.run_one_with_retry``).
LOCK_ATTEMPTS = 3


def _apportion(n: int, mix: list[tuple[str, float]]) -> list[str]:
    """``n`` op kinds in the mix's proportions, every kind at least once.

    Largest-remainder rounding instead of sampling: with a few hundred
    ops per round, sampling the 4% types would move throughput by several
    percent from seed to seed for no reason a user would care about.
    """
    if n < len(mix):
        raise ValueError(f"need at least {len(mix)} ops to cover the mix, got {n}")
    counts = {kind: int(weight * n) for kind, weight in mix}
    by_remainder = sorted(mix, key=lambda kw: kw[1] * n - int(kw[1] * n), reverse=True)
    for kind, _ in by_remainder[: n - sum(counts.values())]:
        counts[kind] += 1
    for kind in counts:
        if counts[kind] == 0:
            counts[max(counts, key=counts.get)] -= 1
            counts[kind] = 1
    return [kind for kind, _ in mix for _ in range(counts[kind])]


def _shuffled(kinds: list[str], *seed_parts) -> list[str]:
    random.Random(":".join(map(str, seed_parts))).shuffle(kinds)
    return kinds


class TpccWorkload:
    """TPC-C standard mix at W=2 D=2 C=30 items=100, paper mode."""

    warmup_ops = 25

    def __init__(self, name: str, mode: EncryptionMode, wire: bool = False):
        self.name = name
        self.mode = mode
        self.wire = wire

    def build(self, seed: int) -> None:
        config = TpccConfig(mode=self.mode, enclave_threads=4, eval_batch_size=1, seed=seed)
        if self.wire:
            self.system, _servers, _router = start_sharded_inprocess(config, n_shards=2)
            # ``ShardedTpccSystem.new_client`` caches describe results; paper
            # mode pays the describe round trip on every execute, so the
            # pinned client is assembled from the same public parts by hand.
            self.remote = RemoteServer(*self.system.router_address, affinity=HOME_WAREHOUSE)
            connection = connect(
                self.remote,
                self.system.registry,
                column_encryption=config.ae_connection,
                attestation_policy=self.system.attestation_policy,
                cache_describe_results=False,
            )
            self.txns = TpccTransactions(
                connection=connection, config=config, rng=random.Random(seed + 1),
                home_warehouse=HOME_WAREHOUSE,
            )
        else:
            self.system = build_system(config)
            self.txns = self.system.transactions
        self.retries = 0

    def plan(self, seed: int, n: int, phase: str) -> list[tuple[str, None]]:
        kinds = _shuffled(_apportion(n, TRANSACTION_MIX), self.name, seed, phase)
        return [(kind, None) for kind in kinds]

    def run(self, kind: str, _payload: None) -> None:
        for _attempt in range(LOCK_ATTEMPTS):
            try:
                self.txns.run_one(kind)
                return None
            except LockTimeoutError:
                self.retries += 1
        raise LockTimeoutError(f"{kind}: {LOCK_ATTEMPTS} lock-timeout attempts exhausted")

    def check(self, _plan, _results) -> list[str]:
        if self.wire:
            return self.system.audit()
        violations = check_invariants(self.system)
        # Acknowledged commits must survive losing the unflushed WAL tail.
        before = self._fingerprint()
        self.system.server.crash()
        self.system.server.recover()
        if self._fingerprint() != before:
            violations.append("after crash+recover: committed state changed")
        violations += [f"after crash+recover: {v}" for v in check_invariants(self.system)]
        return violations

    def _fingerprint(self) -> list:
        conn = self.system.connection
        return [
            sorted(conn.execute(query).rows)
            for query in (
                "SELECT W_ID, W_YTD FROM WAREHOUSE",
                "SELECT D_W_ID, D_ID, D_NEXT_O_ID, D_YTD FROM DISTRICT",
                "SELECT O_W_ID, O_D_ID, O_ID, O_CARRIER_ID FROM ORDERS",
                "SELECT NO_W_ID, NO_D_ID, NO_O_ID FROM NEW_ORDER",
                "SELECT OL_W_ID, OL_D_ID, OL_O_ID, OL_NUMBER FROM ORDER_LINE",
                "SELECT H_W_ID, H_D_ID, H_C_ID, H_AMOUNT FROM HISTORY",
            )
        ]

    def close(self) -> None:
        if self.wire:
            self.txns.connection.close()
            self.remote.close()
            self.system.shutdown()


SCAN_MIX = [("range", 0.4), ("like", 0.2), ("fetch", 0.4)]
SCAN_ROWS = 256
SCAN_FETCH_ROWS = 64
SCAN_VALUE_SPACE = 10_000
SCAN_RANGE_WIDTH = 500          # ~5% of the value space
SCAN_ALPHABET = "abcdefghij"
_SCAN_ENC = (
    "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = ScanCEK, ENCRYPTION_TYPE = Randomized, "
    "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')"
)
_SCAN_QUERIES = {
    "range": "SELECT id FROM SCAN_T WHERE value > @lo AND value < @hi",
    "like": "SELECT id FROM SCAN_T WHERE name LIKE @pfx",
    "fetch": "SELECT id, value, name FROM SCAN_T WHERE id >= @lo AND id < @hi",
}


class ScanWorkload:
    """Read-only scans of one 256-row table with two RND columns, on a
    default ``SqlServer`` (``eval_batch_size=64``, QUEUED gateway)."""

    name = "rnd_scan"
    warmup_ops = 6

    def build(self, seed: int) -> None:
        binary = EnclaveBinary.build(RsaKeyPair.generate(1024))
        host, hgs = HostMachine(), HostGuardianService()
        hgs.register_host(host.boot_and_measure())
        policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))
        registry = default_registry()
        self.server = SqlServer(enclave=Enclave(binary), host_machine=host, hgs=hgs)
        self.conn = connect(self.server, registry, attestation_policy=policy)
        vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
        cmk = provision_cmk(self.conn, vault, "ScanCMK", "https://vault.azure.net/keys/scan")
        provision_cek(self.conn, vault, cmk, "ScanCEK")
        self.conn.execute_ddl(
            f"CREATE TABLE SCAN_T (id int PRIMARY KEY, value int {_SCAN_ENC}, "
            f"name varchar(20) {_SCAN_ENC}, pad varchar(60))"
        )
        rng = random.Random(f"{self.name}:{seed}:rows")
        self.rows = [
            (
                i,
                rng.randrange(SCAN_VALUE_SPACE),
                "".join(rng.choice(SCAN_ALPHABET) for _ in range(8)),
                "".join(rng.choice(SCAN_ALPHABET) for _ in range(60)),
            )
            for i in range(SCAN_ROWS)
        ]
        for row_id, value, name, pad in self.rows:
            self.conn.execute(
                "INSERT INTO SCAN_T (id, value, name, pad) VALUES (@id, @value, @name, @pad)",
                {"id": row_id, "value": value, "name": name, "pad": pad},
            )
        self.retries = 0

    def plan(self, seed: int, n: int, phase: str) -> list[tuple[str, dict]]:
        rng = random.Random(f"{self.name}:{seed}:{phase}:params")
        ops = []
        for kind in _shuffled(_apportion(n, SCAN_MIX), self.name, seed, phase):
            if kind == "range":
                lo = rng.randrange(SCAN_VALUE_SPACE - SCAN_RANGE_WIDTH)
                params = {"lo": lo, "hi": lo + SCAN_RANGE_WIDTH}
            elif kind == "like":
                params = {"pfx": rng.choice(SCAN_ALPHABET) + "%"}
            else:
                lo = rng.randrange(SCAN_ROWS - SCAN_FETCH_ROWS + 1)
                params = {"lo": lo, "hi": lo + SCAN_FETCH_ROWS}
            ops.append((kind, params))
        return ops

    def run(self, kind: str, params: dict) -> list[tuple]:
        return self.conn.execute(_SCAN_QUERIES[kind], params).rows

    def _oracle(self, kind: str, params: dict) -> list[tuple]:
        if kind == "range":
            return [(r[0],) for r in self.rows if params["lo"] < r[1] < params["hi"]]
        if kind == "like":
            return [(r[0],) for r in self.rows if r[2].startswith(params["pfx"][:-1])]
        return [r[:3] for r in self.rows if params["lo"] <= r[0] < params["hi"]]

    def check(self, plan, results) -> list[str]:
        violations = []
        for i, ((kind, params), rows) in enumerate(zip(plan, results)):
            if rows is not None and sorted(rows) != self._oracle(kind, params):
                violations.append(f"op {i} ({kind} {params}): result differs from the oracle")
        return violations

    def close(self) -> None:
        self.conn.close()


@dataclass(frozen=True)
class Spec:
    """One named workload: how to make it and how much of it is a round."""

    name: str
    #: ops per round at the reference ``--seconds 10`` (scaled linearly),
    #: sized at the seed commit so the rounds together measure about that.
    round_ops: int
    make: Callable[[], "TpccWorkload | ScanWorkload"]
    mix: list[tuple[str, float]]


SPECS = {
    spec.name: spec
    for spec in (
        Spec("tpcc_pt", 200,
             lambda: TpccWorkload("tpcc_pt", EncryptionMode.PLAINTEXT), TRANSACTION_MIX),
        Spec("tpcc_rnd", 200,
             lambda: TpccWorkload("tpcc_rnd", EncryptionMode.RND), TRANSACTION_MIX),
        Spec("tpcc_rnd_wire", 80,
             lambda: TpccWorkload("tpcc_rnd_wire", EncryptionMode.RND, wire=True),
             TRANSACTION_MIX),
        Spec("rnd_scan", 64, ScanWorkload, SCAN_MIX),
    )
}
