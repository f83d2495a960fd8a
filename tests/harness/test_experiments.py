"""Experiment calibration plumbing (tiny-scale smoke of the Figure 8/9 path)."""

import pytest

from repro.harness.experiments import (
    Calibration,
    TpccScale,
    calibrate_system,
    run_figure9,
)
from repro.workloads.tpcc import EncryptionMode, TpccConfig, build_system

TINY = TpccScale(warehouses=1, districts_per_warehouse=1, customers_per_district=8, items=12)


class TestCalibration:
    def test_calibration_measures_demands(self):
        system = build_system(
            TpccConfig(
                warehouses=1, districts_per_warehouse=1,
                customers_per_district=8, items=12,
                mode=EncryptionMode.PLAINTEXT,
            )
        )
        calibration = calibrate_system(system, n_transactions=10)
        assert calibration.wall_s_per_txn > 0
        assert calibration.enclave_s_per_txn == 0.0
        assert calibration.roundtrips_per_txn > 1  # several statements/txn

    def test_rnd_calibration_includes_enclave_time(self):
        system = build_system(
            TpccConfig(
                warehouses=1, districts_per_warehouse=1,
                customers_per_district=8, items=12,
                mode=EncryptionMode.RND,
            )
        )
        calibration = calibrate_system(system, n_transactions=10)
        assert calibration.enclave_s_per_txn > 0
        assert calibration.enclave_s_per_txn < calibration.wall_s_per_txn

    def test_demands_split_host_and_enclave(self):
        c = Calibration(
            label="X", wall_s_per_txn=0.010, enclave_s_per_txn=0.002,
            roundtrips_per_txn=30, transactions_run=10,
        )
        d = c.demands()
        assert d.host_cpu_s == pytest.approx(0.008)
        assert d.enclave_cpu_s == pytest.approx(0.002)


class TestFigure9Smoke:
    def test_orderings_hold_at_tiny_scale(self):
        result = run_figure9(scale=TINY, n_transactions=10)
        n = result.normalized
        assert n["SQL-PT"] == 1.0
        # One set of measured demands solved at 1 and at 4 enclave threads:
        # the model alone orders these two.
        assert n["SQL-AE-RND-1"] < n["SQL-AE-RND-4"]
        # Every other normalized figure divides two separate 10-transaction
        # wall-clock samples, and this host's speed swings 1.8x between
        # them — so what separates the configurations is asserted on the
        # counted demands: AEConn's describe per execute, RND's enclave time.
        c = result.calibrations
        assert c["SQL-PT-AEConn"].roundtrips_per_txn > 1.5 * c["SQL-PT"].roundtrips_per_txn
        assert c["SQL-AE-DET"].roundtrips_per_txn == c["SQL-PT-AEConn"].roundtrips_per_txn
        assert c["SQL-PT"].enclave_s_per_txn == c["SQL-AE-DET"].enclave_s_per_txn == 0.0
        assert c["SQL-AE-RND-4"].enclave_s_per_txn > 0.0
