"""The enclave runtime: sessions, CEK install, eval, gated oracles."""

import hashlib
import threading
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.aead import CellCipher, EncryptionScheme
from repro.crypto.dh import DiffieHellman, public_key_bytes
from repro.crypto.rsa import verify_signature
from repro.enclave.channel import CekPackage, SealedPackage, seal_package
from repro.enclave.runtime import _MEMO_CAPACITY, _EcallCrypto
from repro.errors import (
    CryptoError, EnclaveError, IntegrityError, KeysUnavailableError, ReplayError, SqlError,
    TransientFault,
)
from repro.faults import Always, OnNth, RaiseTransient, get_fault_registry
from repro.faults.registry import fault_site
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
from repro.sqlengine.expression.vm import StackMachine
from repro.sqlengine.types import EncryptionInfo
from repro.sqlengine.values import serialize_value

ENC = EncryptionInfo(
    scheme=EncryptionScheme.RANDOMIZED, cek_name="TestCEK", enclave_enabled=True
)


@pytest.fixture()
def session(enclave, cek_material):
    """An enclave with an attested session and TestCEK installed."""
    client_dh = DiffieHellman()
    session_id, enclave_dh_public, __ = enclave.start_session(client_dh.public_key)
    secret = client_dh.shared_secret(enclave_dh_public)
    package = CekPackage(nonce=0, ceks=(("TestCEK", cek_material),))
    enclave.install_package(session_id, seal_package(secret, package))
    return session_id, secret


def rnd_cell(cek_material, value) -> Ciphertext:
    cipher = CellCipher(cek_material)
    return Ciphertext(cipher.encrypt(serialize_value(value), EncryptionScheme.RANDOMIZED))


class TestSession:
    def test_dh_binding_signature_valid(self, enclave):
        client_dh = DiffieHellman()
        __, enclave_dh_public, signature = enclave.start_session(client_dh.public_key)
        message = (
            b"AE-DH-BINDING\x00"
            + public_key_bytes(enclave_dh_public)
            + public_key_bytes(client_dh.public_key)
        )
        assert verify_signature(enclave.public_key, message, signature)

    def test_unknown_session_rejected(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.install_package(9999, SealedPackage(blob=b"x" * 100))

    def test_replayed_package_rejected(self, enclave, session, cek_material):
        session_id, secret = session
        package = CekPackage(nonce=0, ceks=(("TestCEK", cek_material),))
        with pytest.raises(ReplayError):
            enclave.install_package(session_id, seal_package(secret, package))

    def test_garbage_package_rejected(self, enclave, session):
        session_id, __ = session
        with pytest.raises(EnclaveError):
            enclave.install_package(session_id, SealedPackage(blob=b"\x01" + b"\x00" * 100))

    def test_report_reflects_binary(self, enclave, enclave_binary):
        report = enclave.measure()
        assert report.binary_hash == enclave_binary.binary_hash
        assert report.author_id == enclave_binary.author_id
        assert report.enclave_public_key_hash == enclave.public_key.fingerprint()


class TestEval:
    def _comparison_handle(self, enclave, op="<"):
        prog = StackProgram([
            Instruction(Opcode.GET_DATA, (0, ENC)),
            Instruction(Opcode.GET_DATA, (1, ENC)),
            Instruction(Opcode.COMP, op),
            Instruction(Opcode.SET_DATA, (0, None)),
        ])
        return enclave.register_program(prog.serialize())

    def test_comparison_result_in_clear(self, enclave, session, cek_material):
        handle = self._comparison_handle(enclave)
        a, b = rnd_cell(cek_material, 5), rnd_cell(cek_material, 9)
        assert enclave.eval(handle, [a, b]) == [True]
        assert enclave.eval(handle, [b, a]) == [False]

    def test_null_propagates(self, enclave, session, cek_material):
        handle = self._comparison_handle(enclave)
        assert enclave.eval(handle, [None, rnd_cell(cek_material, 1)]) == [None]

    def test_registration_idempotent(self, enclave, session):
        prog = StackProgram([
            Instruction(Opcode.GET_DATA, (0, ENC)),
            Instruction(Opcode.GET_DATA, (1, ENC)),
            Instruction(Opcode.COMP, "="),
            Instruction(Opcode.SET_DATA, (0, None)),
        ]).serialize()
        assert enclave.register_program(prog) == enclave.register_program(prog)

    def test_unknown_handle_rejected(self, enclave, session):
        with pytest.raises(EnclaveError):
            enclave.eval(424242, [])

    def test_registration_requires_installed_keys(self, enclave):
        # No session/keys installed on this fresh enclave.
        prog = StackProgram([
            Instruction(Opcode.GET_DATA, (0, ENC)),
            Instruction(Opcode.GET_DATA, (1, ENC)),
            Instruction(Opcode.COMP, "="),
            Instruction(Opcode.SET_DATA, (0, None)),
        ]).serialize()
        with pytest.raises(EnclaveError):
            enclave.register_program(prog)

    def test_counters_track_work(self, enclave, session, cek_material):
        handle = self._comparison_handle(enclave)
        before = enclave.counters.evals
        enclave.eval(handle, [rnd_cell(cek_material, 1), rnd_cell(cek_material, 2)])
        assert enclave.counters.evals == before + 1
        assert enclave.counters.cpu_seconds > 0


class TestCompare:
    def test_three_way(self, enclave, session, cek_material):
        a, b = rnd_cell(cek_material, 10), rnd_cell(cek_material, 20)
        assert enclave.compare("TestCEK", a, b) == -1
        assert enclave.compare("TestCEK", b, a) == 1
        assert enclave.compare("TestCEK", a, rnd_cell(cek_material, 10)) == 0

    def test_missing_key_raises_keys_unavailable(self, enclave, cek_material):
        a = rnd_cell(cek_material, 1)
        with pytest.raises(KeysUnavailableError):
            enclave.compare("TestCEK", a, a)


OTHER_MATERIAL = bytes([7]) * 32
OTHER_ENC = EncryptionInfo(
    scheme=EncryptionScheme.RANDOMIZED, cek_name="OtherCEK", enclave_enabled=True
)


class TestOpenOncePerEcall:
    """A computation ecall opens each distinct (CEK, envelope) once; the
    memo is the ecall's own and is gone when it returns or raises."""

    @pytest.fixture()
    def two_keys(self, enclave, session):
        """``session`` plus a second CEK under different material."""
        session_id, secret = session
        package = CekPackage(nonce=1, ceks=(("OtherCEK", OTHER_MATERIAL),))
        enclave.install_package(session_id, seal_package(secret, package))

    @staticmethod
    def handle(enclave, left=ENC, right=ENC):
        prog = StackProgram([
            Instruction(Opcode.GET_DATA, (0, left)),
            Instruction(Opcode.GET_DATA, (1, right)),
            Instruction(Opcode.COMP, ">"),
            Instruction(Opcode.SET_DATA, (0, None)),
        ])
        return enclave.register_program(prog.serialize())

    @staticmethod
    def opens(enclave, ecall):
        """(what the ecall returned, how many cells it opened)."""
        before = enclave.counters.cell_decrypts
        result = ecall()
        return result, enclave.counters.cell_decrypts - before

    def test_eval_batch_opens_a_shared_parameter_once(self, enclave, session, cek_material):
        handle = self.handle(enclave)
        lo = rnd_cell(cek_material, 31)
        rows = [[rnd_cell(cek_material, v), lo] for v in range(64)]
        expected = [[v > 31] for v in range(64)]
        assert self.opens(enclave, lambda: enclave.eval_batch(handle, rows)) == (expected, 65)
        # Nothing outlives the ecall: the same chunk pays in full again.
        assert self.opens(enclave, lambda: enclave.eval_batch(handle, rows)) == (expected, 65)
        # A plain eval has two distinct operands and nothing to share.
        assert self.opens(enclave, lambda: enclave.eval(handle, rows[40])) == ([True], 2)

    def test_compare_with_itself_opens_once(self, enclave, session, cek_material):
        x, y = rnd_cell(cek_material, 10), rnd_cell(cek_material, 10)
        assert self.opens(enclave, lambda: enclave.compare("TestCEK", x, x)) == (0, 1)
        assert self.opens(enclave, lambda: enclave.compare("TestCEK", x, y)) == (0, 2)

    def test_compare_batch_opens_each_distinct_envelope_once(
        self, enclave, session, cek_material
    ):
        probe, low, high = (rnd_cell(cek_material, v) for v in (5, 1, 9))
        candidates = [low, probe, high, low, probe]
        assert self.opens(
            enclave, lambda: enclave.compare_batch("TestCEK", probe, candidates)
        ) == ([1, 0, -1, 1, 0], 3)

    def test_a_hit_never_answers_for_another_cek(self, enclave, two_keys, cek_material):
        # Slots 0-1 read under TestCEK, slots 2-3 under OtherCEK. An
        # envelope already opened under TestCEK must still fail OtherCEK's
        # MAC check in slot 2 — a memo keyed on the envelope alone would
        # hand that slot the first key's plaintext.
        prog = StackProgram([
            Instruction(Opcode.GET_DATA, (0, ENC)),
            Instruction(Opcode.GET_DATA, (1, ENC)),
            Instruction(Opcode.COMP, ">"),
            Instruction(Opcode.GET_DATA, (2, OTHER_ENC)),
            Instruction(Opcode.GET_DATA, (3, OTHER_ENC)),
            Instruction(Opcode.COMP, ">"),
            Instruction(Opcode.AND),
            Instruction(Opcode.SET_DATA, (0, None)),
        ])
        handle = enclave.register_program(prog.serialize())
        five, two = rnd_cell(cek_material, 5), rnd_cell(cek_material, 2)
        other_five, other_two = rnd_cell(OTHER_MATERIAL, 5), rnd_cell(OTHER_MATERIAL, 2)
        good = [five, two, other_five, other_two]
        assert enclave.eval(handle, good) == [True]
        with pytest.raises(IntegrityError):
            enclave.eval(handle, [five, two, five, other_two])
        with pytest.raises(IntegrityError):
            enclave.eval_batch(handle, [good, [five, two, five, other_two]])

    def test_a_failing_envelope_fails_every_time(self, enclave, session, cek_material):
        handle = self.handle(enclave)
        lo = rnd_cell(cek_material, 31)
        good = rnd_cell(cek_material, 50)
        envelope = bytearray(good.envelope)
        envelope[-1] ^= 1
        tampered = Ciphertext(bytes(envelope))
        rows = [[rnd_cell(cek_material, v), lo] for v in range(64)]
        rows[3] = rows[40] = [tampered, lo]
        before = enclave.counters.cell_decrypts
        with pytest.raises(IntegrityError):
            enclave.eval_batch(handle, rows)
        # Rows 0-2, the parameter and the failed attempt: the opens of an
        # ecall that raises mid-chunk are still booked.
        assert enclave.counters.cell_decrypts - before == 5
        # The next ecall starts from nothing: the valid twin succeeds, the
        # tampered envelope still raises, on its own and behind other rows.
        assert enclave.eval_batch(handle, [[good, lo], [good, lo]]) == [[True], [True]]
        with pytest.raises(IntegrityError):
            enclave.eval(handle, [tampered, lo])
        with pytest.raises(IntegrityError):
            enclave.eval_batch(handle, rows[38:])

    def test_concurrent_ecalls_share_nothing(self, enclave, session, cek_material):
        handle = self.handle(enclave)
        chunks, expected = [], []
        for t in range(4):
            lo = rnd_cell(cek_material, 10 * t)
            chunks.append([[rnd_cell(cek_material, v), lo] for v in range(20 + t)])
            expected.append([[v > 10 * t] for v in range(20 + t)])
        distinct = sum(len(chunk) + 1 for chunk in chunks)

        class Rendezvous:
            """Hold every ecall at row 10 until all four are inside."""

            barrier = threading.Barrier(4, timeout=10)

            def trigger(self, site, ctx):
                if ctx["index"] == 10:
                    self.barrier.wait()

        results: list = [None] * 4

        def run(t):
            results[t] = enclave.eval_batch(handle, chunks[t])

        armed = get_fault_registry().arm("enclave.eval_batch", Always(), Rendezvous())
        before = enclave.counters.cell_decrypts
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
        finally:
            get_fault_registry().disarm(armed)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected
        assert enclave.counters.cell_decrypts - before == distinct

    def test_mixed_key_chunk_opens_each_cell_once_through_the_partner(
        self, enclave, two_keys, cek_material
    ):
        class CountingReads(dict):
            reads = 0

            def get(self, *args):
                self.reads += 1
                return super().get(*args)

        enclave.begin_rotation("TestCEK", "OtherCEK")
        enclave._rotation_partners = partners = CountingReads(enclave._rotation_partners)
        handle = self.handle(enclave)  # the column still names TestCEK
        lo = rnd_cell(cek_material, 4)
        # Odd rows are already swept to the new key.
        rows = [
            [rnd_cell(OTHER_MATERIAL if v % 2 else cek_material, v), lo] for v in range(10)
        ]
        assert self.opens(enclave, lambda: enclave.eval_batch(handle, rows + rows)) == (
            [[v > 4] for v in range(10)] * 2, 11
        )
        # One read of the partner table per (ecall, CEK), not one per cell.
        assert partners.reads == 1
        enclave.end_rotation("TestCEK", "OtherCEK")
        with pytest.raises(IntegrityError):
            enclave.eval_batch(handle, rows)

    def test_the_host_cannot_make_the_enclave_hold_a_whole_chunk(
        self, enclave, session, cek_material
    ):
        # The chunk size is the host's choice. Ship one with more distinct
        # cells than the memo may hold, every cell twice: verdicts are
        # right, and exactly the cells that did not fit are opened again.
        handle = self.handle(enclave)
        lo = rnd_cell(cek_material, 100)
        n = _MEMO_CAPACITY + 44
        rows = [[rnd_cell(cek_material, v), lo] for v in range(n)]
        held_cells = _MEMO_CAPACITY - 1  # the parameter holds one place
        used = enclave.sqlos.memory_used
        assert self.opens(enclave, lambda: enclave.eval_batch(handle, rows + rows)) == (
            [[v > 100] for v in range(n)] * 2, n + 1 + (n - held_cells)
        )
        assert enclave.sqlos.memory_used == used
        rows[n // 2] = [Ciphertext(lo.envelope[:-1] + b"\x00"), lo]
        with pytest.raises(IntegrityError):
            enclave.eval_batch(handle, rows)
        assert enclave.sqlos.memory_used == used


class TestChunkOpenedAtOnce:
    """``eval_batch`` opens its chunk's operands with one ``decrypt_many`` per
    CEK; an operand is booked as opened when the row loop takes it."""

    @pytest.fixture()
    def batches(self, monkeypatch) -> list[int]:
        """The size of every ``decrypt_many`` batch, process-wide."""
        sizes: list[int] = []
        decrypt_many = CellCipher.decrypt_many

        def spy(self, envelopes):
            sizes.append(len(envelopes))
            return decrypt_many(self, envelopes)

        monkeypatch.setattr(CellCipher, "decrypt_many", spy)
        return sizes

    def test_one_batch_per_cek_and_every_open_booked(self, enclave, session, cek_material, batches):
        handle = TestOpenOncePerEcall.handle(enclave)
        lo = rnd_cell(cek_material, 31)
        rows = [[rnd_cell(cek_material, v), lo] for v in range(64)]
        assert TestOpenOncePerEcall.opens(enclave, lambda: enclave.eval_batch(handle, rows)) == (
            [[v > 31] for v in range(64)], 64 + 1
        )
        assert batches == [65]

    def test_two_keys_two_batches(self, enclave, session, cek_material, batches):
        package = CekPackage(nonce=1, ceks=(("OtherCEK", OTHER_MATERIAL),))
        enclave.install_package(session[0], seal_package(session[1], package))
        handle = enclave.register_program(StackProgram([
            Instruction(Opcode.GET_DATA, (0, ENC)),
            Instruction(Opcode.GET_DATA, (1, ENC)),
            Instruction(Opcode.COMP, ">"),
            Instruction(Opcode.GET_DATA, (2, OTHER_ENC)),
            Instruction(Opcode.GET_DATA, (3, OTHER_ENC)),
            Instruction(Opcode.COMP, "<"),
            Instruction(Opcode.AND),
            Instruction(Opcode.SET_DATA, (0, None)),
        ]).serialize())
        lo, hi = rnd_cell(cek_material, 10), rnd_cell(OTHER_MATERIAL, 30)
        rows = [
            [rnd_cell(cek_material, v), lo, rnd_cell(OTHER_MATERIAL, v), hi] for v in range(40)
        ]
        assert TestOpenOncePerEcall.opens(enclave, lambda: enclave.eval_batch(handle, rows)) == (
            [[10 < v < 30] for v in range(40)], 82
        )
        assert batches == [41, 41]

    def test_decrypt_for_ddl_raises_the_first_failure_in_cell_order(
        self, enclave, session, cek_material, batches
    ):
        package = CekPackage(nonce=1, authorized_query_hashes=(hashlib.sha256(b"ddl").digest(),))
        enclave.install_package(session[0], seal_package(session[1], package))
        cells = [rnd_cell(cek_material, v) for v in range(30)]
        before = enclave.counters.cell_decrypts
        assert enclave.decrypt_for_ddl("ddl", "TestCEK", cells) == [
            serialize_value(v) for v in range(30)
        ]
        assert enclave.counters.cell_decrypts - before == 30
        tampered = bytearray(cells[9].envelope)
        tampered[-1] ^= 1
        cells[9] = Ciphertext(bytes(tampered))
        cells[20] = Ciphertext(cells[20].envelope[:-1])
        with pytest.raises(CryptoError) as raised:
            enclave.decrypt_for_ddl("ddl", "TestCEK", cells)
        assert raised.type is IntegrityError
        assert enclave.counters.cell_decrypts - before == 30
        assert batches == [30, 30]


class TestCompareBatchOpenedAtOnce:
    """``compare_batch`` decrypts its probe and candidates like an
    ``eval_batch`` chunk: one ``decrypt_many``, and each distinct envelope
    booked once, when it is used."""

    batches = TestChunkOpenedAtOnce.batches

    def test_one_batch_and_distinct_opens(self, enclave, session, cek_material, batches):
        probe = rnd_cell(cek_material, 50)
        distinct = [rnd_cell(cek_material, v) for v in (10, 90, 50, 70, 30, 60, 20, 80)]
        candidates = distinct + [distinct[0], probe, distinct[3], probe]
        assert TestOpenOncePerEcall.opens(
            enclave, lambda: enclave.compare_batch("TestCEK", probe, candidates)
        ) == ([1, -1, 0, -1, 1, -1, 1, -1, 1, 0, -1, 0], 9)
        assert batches == [9]

    def test_a_tampered_candidate_raises_and_books_the_opens_before_it(
        self, enclave, session, cek_material, batches
    ):
        probe = rnd_cell(cek_material, 50)
        candidates = [rnd_cell(cek_material, v) for v in range(10)]
        envelope = bytearray(candidates[6].envelope)
        envelope[-1] ^= 1
        candidates[6] = Ciphertext(bytes(envelope))
        before = enclave.counters.cell_decrypts
        with pytest.raises(IntegrityError):
            enclave.compare_batch("TestCEK", probe, candidates)
        # The probe, candidates 0-5 and the failed attempt.
        assert enclave.counters.cell_decrypts - before == 8
        assert batches == [11]


def _parent_row_loop(enclave, handle, rows):
    """The chunk loop ``Enclave.eval_batch`` replaced: the chunk decrypted
    up front, then per row the fault site and ``StackMachine.eval``, every
    operand opened through ``decrypt_cell`` under one ``_EcallCrypto``."""
    program = enclave._programs[handle]
    site = fault_site("enclave.eval_batch")
    with _EcallCrypto(enclave) as crypto:
        crypto.prefetch(
            (enc.cek_name, cell.envelope)
            for inputs in rows
            for slot, enc in program.decrypts
            if slot < len(inputs) and isinstance(cell := inputs[slot], Ciphertext)
        )
        vm = StackMachine(crypto=crypto)
        outputs = []
        for index, inputs in enumerate(rows):
            if site.armed:
                site.fire(handle=handle, index=index, total=len(rows))
            outputs.append(vm.eval(program, inputs, n_outputs=1))
    return outputs


@lru_cache(maxsize=4)
def _cell_pool(material: bytes) -> dict[str, list[Ciphertext]]:
    """Per cell kind, a few envelopes: few enough that rows share them."""
    good = {
        "TestCEK": [rnd_cell(material, v) for v in range(4)],
        "OtherCEK": [rnd_cell(OTHER_MATERIAL, v) for v in range(4)],
    }
    tampered = []
    for cell in good["TestCEK"][:2] + good["OtherCEK"][:2]:
        envelope = bytearray(cell.envelope)
        envelope[-1] ^= 1
        tampered.append(Ciphertext(bytes(envelope)))
    return {**good, "tampered": tampered}


#: What one slot of a row holds: a good cell under the slot's CEK, NULL, a
#: cell under the other CEK, a tampered cell, or a plaintext. A clean chunk
#: draws from the first three only, so that whole chunks succeed too.
CLEAN_KINDS = ["own"] * 6 + ["null", "other"]
ANY_KINDS = CLEAN_KINDS + ["tampered", "plain"]


@st.composite
def loop_cases(draw):
    """``(rows, rotating, fault_row)``: a chunk of four-slot rows, some
    short (an out-of-range slot), whether TestCEK and OtherCEK are a live
    rotation pair, and the row at which ``enclave.eval_batch`` raises."""
    n = draw(st.integers(1, 12))
    rotating, clean = draw(st.booleans()), draw(st.booleans())
    slot_cells = st.tuples(
        st.sampled_from(CLEAN_KINDS if clean else ANY_KINDS), st.integers(0, 3)
    )
    rows = []
    for __ in range(n):
        row = draw(st.lists(slot_cells, min_size=4, max_size=4))
        if not clean and draw(st.integers(0, 15)) == 0:
            del row[draw(st.integers(0, 3)):]
        rows.append(row)
    return rows, rotating, draw(st.none() | st.integers(0, n - 1))


class TestChunkLoop:
    """``Enclave.eval_batch`` judges a chunk in one loop; it agrees with the
    row loop it replaced on the outputs, the opens booked and the first
    error's type and message."""

    two_keys = TestOpenOncePerEcall.two_keys

    #: Slots 0-1 read under TestCEK, slots 2-3 under OtherCEK.
    PROGRAM = StackProgram([
        Instruction(Opcode.GET_DATA, (0, ENC)),
        Instruction(Opcode.GET_DATA, (1, ENC)),
        Instruction(Opcode.COMP, ">"),
        Instruction(Opcode.GET_DATA, (2, OTHER_ENC)),
        Instruction(Opcode.GET_DATA, (3, OTHER_ENC)),
        Instruction(Opcode.COMP, "<="),
        Instruction(Opcode.OR),
        Instruction(Opcode.SET_DATA, (0, None)),
    ])

    @staticmethod
    def outcome(enclave, ecall, fault_row):
        """(outputs or the error's type and message, cells booked as opened)."""
        armed = None
        if fault_row is not None:
            armed = get_fault_registry().arm(
                "enclave.eval_batch", OnNth(fault_row + 1), RaiseTransient(f"row {fault_row}")
            )
        before = enclave.counters.cell_decrypts
        try:
            result = ecall()
        except (SqlError, CryptoError, TransientFault) as error:
            result = (type(error), str(error))
        finally:
            if armed is not None:
                get_fault_registry().disarm(armed)
        return result, enclave.counters.cell_decrypts - before

    @given(case=loop_cases())
    @settings(
        max_examples=120, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_agrees_with_the_row_loop(self, enclave, two_keys, cek_material, case):
        specs, rotating, fault_row = case
        pool = _cell_pool(cek_material)
        owners = ("TestCEK", "TestCEK", "OtherCEK", "OtherCEK")
        others = {"TestCEK": "OtherCEK", "OtherCEK": "TestCEK"}
        kinds = {
            "own": lambda owner, i: pool[owner][i],
            "other": lambda owner, i: pool[others[owner]][i],
            "tampered": lambda owner, i: pool["tampered"][i],
            "null": lambda owner, i: None,
            "plain": lambda owner, i: i,
        }
        rows = [
            [kinds[kind](owner, i) for (kind, i), owner in zip(row, owners)] for row in specs
        ]
        handle = enclave.register_program(self.PROGRAM.serialize())
        if rotating:
            enclave.begin_rotation("TestCEK", "OtherCEK")
        try:
            expected = self.outcome(
                enclave, lambda: _parent_row_loop(enclave, handle, rows), fault_row
            )
            actual = self.outcome(enclave, lambda: enclave.eval_batch(handle, rows), fault_row)
        finally:
            enclave.end_rotation("TestCEK", "OtherCEK")
        assert actual == expected


class TestGatedOracles:
    DDL = "ALTER TABLE T ALTER COLUMN v int ENCRYPTED WITH (...)"

    def _authorize(self, enclave, session, query_text):
        import hashlib

        session_id, secret = session
        package = CekPackage(
            nonce=1,
            authorized_query_hashes=(hashlib.sha256(query_text.encode()).digest(),),
        )
        enclave.install_package(session_id, seal_package(secret, package))

    def test_encrypt_requires_authorization(self, enclave, session):
        with pytest.raises(EnclaveError, match="refused"):
            enclave.encrypt_for_ddl(
                self.DDL, "TestCEK", [serialize_value(1)], EncryptionScheme.RANDOMIZED
            )

    @pytest.mark.parametrize("oracle", ["encrypt", "recrypt", "decrypt"])
    def test_an_empty_batch_under_an_unauthorized_text_still_raises(
        self, enclave, session, oracle
    ):
        """A lifecycle job's begin sends an empty batch to prove its text
        is authorized, so the empty batch must be checked too."""
        calls = {
            "encrypt": lambda: enclave.encrypt_for_ddl(
                self.DDL, "TestCEK", [], EncryptionScheme.RANDOMIZED
            ),
            "recrypt": lambda: enclave.recrypt_batch_for_ddl(
                self.DDL, "TestCEK", "TestCEK", [], EncryptionScheme.RANDOMIZED
            ),
            "decrypt": lambda: enclave.decrypt_for_ddl(self.DDL, "TestCEK", []),
        }
        with pytest.raises(EnclaveError, match="refused"):
            calls[oracle]()
        self._authorize(enclave, session, self.DDL)
        assert calls[oracle]() == []

    def test_encrypt_after_authorization(self, enclave, session, cek_material):
        self._authorize(enclave, session, self.DDL)
        cells = enclave.encrypt_for_ddl(
            self.DDL, "TestCEK", [serialize_value(7), serialize_value(8)],
            EncryptionScheme.RANDOMIZED,
        )
        assert [CellCipher(cek_material).decrypt(c.envelope) for c in cells] == [
            serialize_value(7), serialize_value(8)]

    def test_different_query_text_not_authorized(self, enclave, session):
        self._authorize(enclave, session, self.DDL)
        with pytest.raises(EnclaveError, match="refused"):
            enclave.encrypt_for_ddl(
                self.DDL + " ", "TestCEK", [serialize_value(1)], EncryptionScheme.RANDOMIZED
            )

    def test_recrypt_gated_and_works(self, enclave, session, cek_material):
        old_cell = rnd_cell(cek_material, 99)
        with pytest.raises(EnclaveError, match="refused"):
            enclave.recrypt_batch_for_ddl(
                self.DDL, "TestCEK", "NewCEK", [old_cell], EncryptionScheme.RANDOMIZED
            )
        self._authorize(enclave, session, self.DDL)
        session_id, secret = session
        new_material = bytes([5]) * 32
        enclave.install_package(
            session_id,
            seal_package(secret, CekPackage(nonce=2, ceks=(("NewCEK", new_material),))),
        )
        [new_cell] = enclave.recrypt_batch_for_ddl(
            self.DDL, "TestCEK", "NewCEK", [old_cell], EncryptionScheme.RANDOMIZED
        )
        assert CellCipher(new_material).decrypt(new_cell.envelope) == serialize_value(99)

    def test_decrypt_gated(self, enclave, session, cek_material):
        cells = [rnd_cell(cek_material, 3), rnd_cell(cek_material, 4)]
        with pytest.raises(EnclaveError, match="refused"):
            enclave.decrypt_for_ddl("some ddl", "TestCEK", cells)
        self._authorize(enclave, session, "some ddl")
        assert enclave.decrypt_for_ddl("some ddl", "TestCEK", cells) == [
            serialize_value(3), serialize_value(4)]
