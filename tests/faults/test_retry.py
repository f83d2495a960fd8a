"""Driver retry/backoff acceptance: transients absorbed, fatals surfaced.

The classifier decides; the driver retries only classified-transient
failures of idempotent control-plane round-trips (describe, attest, CEK
package delivery), with bounded exponential backoff. Fatal faults and
exhausted budgets surface the classified error immediately — never a
hang, never a silent wrong answer.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import FatalFault, TransientFault
from repro.faults import (
    Always,
    DropMessage,
    OnNth,
    RaiseFatal,
    RaiseTransient,
    get_fault_registry,
)
from repro.obs.metrics import get_registry
from tests.conftest import make_encrypted_table


def arm(site, schedule, action):
    return get_fault_registry().arm(site, schedule, action)


class TestTransparentRetry:
    def test_describe_transient_is_retried_transparently(self, ae_connection):
        make_encrypted_table(ae_connection)
        armed = arm("driver.describe_parameter_encryption", OnNth(1), RaiseTransient())
        try:
            ae_connection.execute(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 42}
            )
            result = ae_connection.execute(
                "SELECT id, value FROM T WHERE value < @m", {"m": 100}
            )
        finally:
            get_fault_registry().disarm(armed)
        assert result.rows == [(1, 42)]
        assert ae_connection.stats.retries > 0

    def test_channel_send_drop_is_retried_transparently(self, ae_connection):
        baseline_injected = get_registry().value("faults.injected")
        armed = arm("enclave.channel.send", OnNth(1), DropMessage())
        try:
            make_encrypted_table(ae_connection)
            ae_connection.execute(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 7, "v": 3}
            )
            result = ae_connection.execute(
                "SELECT id FROM T WHERE value < @m", {"m": 10}
            )
        finally:
            get_fault_registry().disarm(armed)
        assert result.rows == [(7,)]
        assert ae_connection.stats.retries > 0
        assert get_registry().value("faults.injected") > baseline_injected

    def test_retried_send_never_replays_a_consumed_nonce(self, ae_connection):
        # The drop fires *before* delivery, so the retry reuses the nonce
        # the enclave never saw — it must not be rejected as a replay.
        baseline_rejected = get_registry().value("enclave.replays_rejected")
        armed = arm("enclave.channel.send", OnNth(1), DropMessage())
        try:
            make_encrypted_table(ae_connection)
            ae_connection.execute(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 1}
            )
            ae_connection.execute("SELECT id FROM T WHERE value < @m", {"m": 10})
        finally:
            get_fault_registry().disarm(armed)
        assert get_registry().value("enclave.replays_rejected") == baseline_rejected

    def test_retry_stats_visible_in_explain(self, ae_connection):
        make_encrypted_table(ae_connection)
        armed = arm("driver.describe_parameter_encryption", OnNth(1), RaiseTransient())
        try:
            text = ae_connection.explain_stats(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 2}
            )
        finally:
            get_fault_registry().disarm(armed)
        assert "retries" in text
        assert "faults_injected" in text


class TestBoundedBackoff:
    def test_exhausted_budget_raises_the_transient(self, ae_connection):
        make_encrypted_table(ae_connection)
        armed = arm("driver.describe_parameter_encryption", Always(), RaiseTransient())
        baseline_retries = ae_connection.stats.retries
        try:
            with pytest.raises(TransientFault):
                ae_connection.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 2}
                )
        finally:
            get_fault_registry().disarm(armed)
        # max_attempts tries, so max_attempts - 1 recorded retries.
        expected = ae_connection.options.retry_max_attempts - 1
        assert ae_connection.stats.retries - baseline_retries == expected

    def test_backoff_is_bounded_not_a_hang(self, ae_connection):
        make_encrypted_table(ae_connection)
        armed = arm("driver.describe_parameter_encryption", Always(), RaiseTransient())
        try:
            started = time.monotonic()
            with pytest.raises(TransientFault):
                ae_connection.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 2}
                )
            elapsed = time.monotonic() - started
        finally:
            get_fault_registry().disarm(armed)
        # 3 backoffs capped at 0.05s each — far under a second even with
        # scheduler noise.
        assert elapsed < 2.0

    def test_retry_budget_is_configurable(
        self, server, registry, attestation_policy, enclave_cmk, enclave_cek
    ):
        from repro.client.driver import connect

        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        connection = connect(
            server,
            registry,
            attestation_policy=attestation_policy,
            retry_max_attempts=2,
            retry_backoff_base_s=0.0,
            retry_backoff_cap_s=0.0,
        )
        make_encrypted_table(connection)
        armed = arm("driver.describe_parameter_encryption", Always(), RaiseTransient())
        baseline = connection.stats.retries
        try:
            with pytest.raises(TransientFault):
                connection.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 2}
                )
        finally:
            get_fault_registry().disarm(armed)
        assert connection.stats.retries - baseline == 1


class TestFatalClassification:
    def test_fatal_fault_surfaces_immediately(self, ae_connection):
        make_encrypted_table(ae_connection)
        armed = arm("driver.describe_parameter_encryption", Always(), RaiseFatal())
        baseline_retries = ae_connection.stats.retries
        try:
            with pytest.raises(FatalFault):
                ae_connection.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 2}
                )
        finally:
            get_fault_registry().disarm(armed)
        assert ae_connection.stats.retries == baseline_retries  # no retry

    def test_fatal_fault_in_engine_commit_is_classified_not_hung(self, ae_connection):
        make_encrypted_table(ae_connection)
        armed = arm("engine.commit", Always(), RaiseFatal())
        try:
            with pytest.raises(FatalFault) as excinfo:
                ae_connection.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 2}
                )
        finally:
            get_fault_registry().disarm(armed)
        assert excinfo.value.site == "engine.commit"

    def test_dml_is_never_silently_retried(self, ae_connection):
        # A transient fault during commit of a DML statement must surface:
        # re-executing DML behind the application's back is not idempotent.
        make_encrypted_table(ae_connection)
        armed = arm("engine.commit", OnNth(1), RaiseTransient())
        baseline_retries = ae_connection.stats.retries
        try:
            with pytest.raises(TransientFault):
                ae_connection.execute(
                    "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": 1, "v": 2}
                )
        finally:
            get_fault_registry().disarm(armed)
        assert ae_connection.stats.retries == baseline_retries
