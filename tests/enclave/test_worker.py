"""The enclave worker-queue optimization (Section 4.6)."""

import threading
import time

import pytest

from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.crypto.dh import DiffieHellman
from repro.enclave.channel import CekPackage, seal_package
from repro.enclave.worker import CallMode, EnclaveCallGateway
from repro.errors import EnclaveError
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import serialize_value

ENC = EncryptionInfo(
    scheme=EncryptionScheme.RANDOMIZED, cek_name="TestCEK", enclave_enabled=True
)


@pytest.fixture()
def ready_enclave(enclave, cek_material):
    client_dh = DiffieHellman()
    session_id, enclave_dh, __ = enclave.start_session(client_dh.public_key)
    secret = client_dh.shared_secret(enclave_dh)
    enclave.install_package(
        session_id, seal_package(secret, CekPackage(nonce=0, ceks=(("TestCEK", cek_material),)))
    )
    return enclave


def comparison_blob() -> bytes:
    return StackProgram([
        Instruction(Opcode.GET_DATA, (0, ENC)),
        Instruction(Opcode.GET_DATA, (1, ENC)),
        Instruction(Opcode.COMP, "<"),
        Instruction(Opcode.SET_DATA, (0, None)),
    ]).serialize()


def cell(material, value) -> Ciphertext:
    return Ciphertext(
        CellCipher(material).encrypt(serialize_value(value), EncryptionScheme.RANDOMIZED)
    )


class TestSynchronous:
    def test_sync_eval(self, ready_enclave, cek_material):
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.SYNCHRONOUS)
        handle = gateway.register_program(comparison_blob())
        result = gateway.eval(handle, [cell(cek_material, 1), cell(cek_material, 2)])
        assert result == [True]

    def test_sync_charges_transition_per_call(self, ready_enclave, cek_material):
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.SYNCHRONOUS)
        handle = gateway.register_program(comparison_blob())
        for __ in range(5):
            gateway.eval(handle, [cell(cek_material, 1), cell(cek_material, 2)])
        assert gateway.stats.boundary_transitions == 5
        assert gateway.stats.calls == 5


class TestQueued:
    def test_queued_eval(self, ready_enclave, cek_material):
        with EnclaveCallGateway(ready_enclave, mode=CallMode.QUEUED, n_threads=2) as gateway:
            handle = gateway.register_program(comparison_blob())
            result = gateway.eval(handle, [cell(cek_material, 3), cell(cek_material, 2)])
            assert result == [False]

    def test_hot_worker_amortizes_transitions(self, ready_enclave, cek_material):
        with EnclaveCallGateway(
            ready_enclave, mode=CallMode.QUEUED, n_threads=1, spin_duration_s=0.05
        ) as gateway:
            handle = gateway.register_program(comparison_blob())
            a, b = cell(cek_material, 1), cell(cek_material, 2)
            for __ in range(20):
                gateway.eval(handle, [a, b])
            # Back-to-back calls should mostly be picked up by the spinning
            # (hot) worker, far fewer transitions than calls.
            assert gateway.stats.boundary_transitions < gateway.stats.calls
            assert gateway.stats.spin_hits > 0

    def test_errors_propagate_to_submitter(self, ready_enclave):
        with EnclaveCallGateway(ready_enclave, mode=CallMode.QUEUED, n_threads=1) as gateway:
            with pytest.raises(EnclaveError):
                gateway.eval(987654, [])

    def test_submit_after_shutdown_raises(self, ready_enclave, cek_material):
        # Regression: the call used to enqueue an item no worker would ever
        # take and block forever; run it on a thread so a hang fails.
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.QUEUED, n_threads=1)
        handle = gateway.register_program(comparison_blob())
        row = [cell(cek_material, 1), cell(cek_material, 2)]
        gateway.shutdown()
        outcomes = []

        def submit(call, payload):
            try:
                outcomes.append(call(handle, payload))
            except EnclaveError as exc:
                outcomes.append(exc)

        for call, payload in ((gateway.eval, row), (gateway.eval_batch, [row, row])):
            thread = threading.Thread(target=submit, args=(call, payload), daemon=True)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert [type(outcome) for outcome in outcomes] == [EnclaveError, EnclaveError]

    def test_shutdown_fails_calls_still_queued(self, ready_enclave, cek_material, monkeypatch):
        # The only worker is stuck inside an ecall for the whole shutdown,
        # so the second call is still in the queue when the workers are
        # told to stop: it must fail, not wait forever.
        entered, release = threading.Event(), threading.Event()

        def stuck_eval(handle, inputs):
            entered.set()
            release.wait(timeout=10.0)
            return [True]

        monkeypatch.setattr(ready_enclave, "eval", stuck_eval)
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.QUEUED, n_threads=1)
        outcomes = {}

        def submit(name):
            try:
                outcomes[name] = gateway.eval(1, [])
            except EnclaveError as exc:
                outcomes[name] = exc

        running = threading.Thread(target=submit, args=("running",), daemon=True)
        running.start()
        assert entered.wait(timeout=5.0)
        queued = threading.Thread(target=submit, args=("queued",), daemon=True)
        queued.start()
        deadline = time.monotonic() + 5.0
        while gateway.stats.calls < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.05)  # submitted; give it time to reach the queue
        gateway.shutdown()
        queued.join(timeout=5.0)
        assert not queued.is_alive()
        assert isinstance(outcomes["queued"], EnclaveError)
        release.set()
        running.join(timeout=5.0)
        assert outcomes["running"] == [True]

    def test_concurrent_submitters(self, ready_enclave, cek_material):
        with EnclaveCallGateway(ready_enclave, mode=CallMode.QUEUED, n_threads=4) as gateway:
            handle = gateway.register_program(comparison_blob())
            a, b = cell(cek_material, 1), cell(cek_material, 2)
            results = []
            lock = threading.Lock()

            def worker():
                for __ in range(10):
                    r = gateway.eval(handle, [a, b])
                    with lock:
                        results.append(r[0])

            threads = [threading.Thread(target=worker) for __ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == [True] * 40

    def test_needs_at_least_one_thread(self, ready_enclave):
        with pytest.raises(EnclaveError):
            EnclaveCallGateway(ready_enclave, n_threads=0)


class TestBatchedCalls:
    def test_sync_batch_one_transition_per_chunk(self, ready_enclave, cek_material):
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.SYNCHRONOUS)
        handle = gateway.register_program(comparison_blob())
        rows = [
            [cell(cek_material, i), cell(cek_material, 5)] for i in range(10)
        ]
        results = gateway.eval_batch(handle, rows)
        assert [r[0] for r in results] == [i < 5 for i in range(10)]
        # 10 rows, one call, one transition.
        assert gateway.stats.calls == 1
        assert gateway.stats.boundary_transitions == 1

    def test_queued_batch_one_item_per_chunk(self, ready_enclave, cek_material):
        with EnclaveCallGateway(
            ready_enclave, mode=CallMode.QUEUED, n_threads=1, spin_duration_s=0.0
        ) as gateway:
            handle = gateway.register_program(comparison_blob())
            rows = [
                [cell(cek_material, i), cell(cek_material, 3)] for i in range(8)
            ]
            results = gateway.eval_batch(handle, rows)
            assert [r[0] for r in results] == [i < 3 for i in range(8)]
            # With spinning disabled every queue item is a wakeup + one
            # transition — the whole chunk was one item.
            assert gateway.stats.boundary_transitions == 1
            assert gateway.stats.calls == 1

    def test_batch_matches_row_at_a_time(self, ready_enclave, cek_material):
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.SYNCHRONOUS)
        handle = gateway.register_program(comparison_blob())
        rows = [
            [cell(cek_material, i), cell(cek_material, 4)] for i in range(9)
        ]
        assert gateway.eval_batch(handle, rows) == [
            gateway.eval(handle, row) for row in rows
        ]

    def test_empty_batch_is_free(self, ready_enclave):
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.SYNCHRONOUS)
        before = gateway.stats.calls
        assert gateway.eval_batch(1, []) == []
        assert gateway.stats.calls == before

    def test_batch_size_histogram_observed(self, ready_enclave, cek_material):
        from repro.obs.metrics import get_registry

        histogram = get_registry().get("worker.batch_size")
        before = histogram.snapshot()
        gateway = EnclaveCallGateway(ready_enclave, mode=CallMode.SYNCHRONOUS)
        handle = gateway.register_program(comparison_blob())
        gateway.eval_batch(
            handle, [[cell(cek_material, 1), cell(cek_material, 2)]] * 6
        )
        gateway.eval(handle, [cell(cek_material, 1), cell(cek_material, 2)])
        after = histogram.snapshot()
        assert after["count"] - before["count"] == 2  # one batch, one single
        assert after["sum"] - before["sum"] == 7      # 6 rows + 1 row

    def test_queued_batch_errors_propagate(self, ready_enclave, cek_material):
        with EnclaveCallGateway(ready_enclave, mode=CallMode.QUEUED, n_threads=1) as gateway:
            with pytest.raises(EnclaveError):
                gateway.eval_batch(
                    987654, [[cell(cek_material, 1), cell(cek_material, 2)]]
                )
