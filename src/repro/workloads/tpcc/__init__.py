"""TPC-C (Section 5): schema, generator, transactions, driver, configs."""

from repro.workloads.tpcc.config import (
    PII_COLUMNS,
    TRANSACTION_MIX,
    EncryptionMode,
    TpccConfig,
)
from repro.workloads.tpcc.driver import TpccSystem, build_system, run_multi_client
from repro.workloads.tpcc.generator import TpccLoader, c_last_name, nurand
from repro.workloads.tpcc.transactions import TpccTransactions, TxnCounts

__all__ = [
    "EncryptionMode",
    "PII_COLUMNS",
    "TRANSACTION_MIX",
    "TpccConfig",
    "TpccLoader",
    "TpccSystem",
    "TpccTransactions",
    "TxnCounts",
    "build_system",
    "c_last_name",
    "nurand",
    "run_multi_client",
]
