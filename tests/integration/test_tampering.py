"""Active-adversary scenarios: tampering the paper's design must survive.

The strong adversary of Section 2.6 can *modify* server state, not just
read it. AE promises confidentiality, not integrity — but several
mechanisms still catch specific tampering: per-cell HMACs (the usability
feature of Section 2.3), CMK metadata signatures, sealed-package MACs,
and the enclave's program validation.
"""

import dataclasses

import pytest

from repro.client.driver import connect
from repro.errors import DriverError, EnclaveError, IntegrityError, SecurityViolation
from repro.sqlengine.cells import Ciphertext
from repro.sqlengine.storage.record import serialize_row
from tests.conftest import make_encrypted_table


class TestCellTampering:
    def test_corrupted_stored_cell_detected_at_decrypt(self, encrypted_table, server):
        # The adversary flips bits in a stored ciphertext. The driver's
        # decryption MAC check catches it — "absent HMACs, there is no way
        # for a client to tell apart legitimate ciphertext from garbage".
        table = server.engine.table("T")
        rid, row = next(table.heap.scan())
        envelope = bytearray(row[1].envelope)
        envelope[-1] ^= 0x01
        tampered = list(row)
        tampered[1] = Ciphertext(bytes(envelope))
        table.heap.update(rid, serialize_row(tuple(tampered)))

        target_id = row[0]
        with pytest.raises(IntegrityError):
            encrypted_table.execute(
                "SELECT value FROM T WHERE id = @i", {"i": target_id}
            )

    def test_garbage_ciphertext_detected(self, encrypted_table, server):
        # An erroneous client (or adversary) stored random bytes.
        table = server.engine.table("T")
        rid, row = next(table.heap.scan())
        garbage = list(row)
        garbage[1] = Ciphertext(b"\x01" + b"\x99" * 80)
        table.heap.update(rid, serialize_row(tuple(garbage)))
        with pytest.raises(Exception):
            encrypted_table.execute("SELECT value FROM T WHERE id = @i", {"i": row[0]})

    def test_enclave_detects_tampered_comparison_input(self, encrypted_table, server,
                                                       enclave):
        # Tampered cells also fail inside the enclave during predicate
        # evaluation (decryption MAC check at GetData).
        table = server.engine.table("T")
        rid, row = next(table.heap.scan())
        envelope = bytearray(row[1].envelope)
        envelope[10] ^= 0xFF
        tampered = list(row)
        tampered[1] = Ciphertext(bytes(envelope))
        table.heap.update(rid, serialize_row(tuple(tampered)))
        with pytest.raises(IntegrityError):
            encrypted_table.execute("SELECT id FROM T WHERE value = @v", {"v": 50})


class TestMetadataTampering:
    def test_server_swapping_cek_metadata_detected(self, encrypted_table, server,
                                                   registry):
        # SQL substitutes a CEK wrapped under a key it controls; the value
        # signature (made with the real CMK) no longer verifies.
        cek = server.catalog.cek("TestCEK")
        original = cek.encrypted_values[0]
        cek.encrypted_values[0] = dataclasses.replace(
            original, encrypted_value=bytes(len(original.encrypted_value))
        )
        encrypted_table.cek_cache.invalidate()
        encrypted_table.invalidate_metadata_caches()
        with pytest.raises((SecurityViolation, DriverError)):
            encrypted_table.execute(
                "INSERT INTO T (id, value) VALUES (@i, @v)", {"i": 100, "v": 1}
            )
        cek.encrypted_values[0] = original

    def test_rogue_program_registration_rejected(self, encrypted_table, server, enclave):
        # The adversary (controlling SQL) registers a hand-crafted program
        # comparing a decrypted column against its own plaintext — the
        # comparison-oracle attack the enclave's validator blocks.
        from repro.crypto.aead import EncryptionScheme
        from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
        from repro.sqlengine.types import EncryptionInfo

        # Ensure keys are installed (a legitimate query ran).
        encrypted_table.execute("SELECT id FROM T WHERE value = @v", {"v": 10})
        enc = EncryptionInfo(
            scheme=EncryptionScheme.RANDOMIZED, cek_name="TestCEK", enclave_enabled=True
        )
        oracle = StackProgram([
            Instruction(Opcode.GET_DATA, (0, enc)),
            Instruction(Opcode.PUSH_CONST, 42),
            Instruction(Opcode.COMP, "<"),
            Instruction(Opcode.SET_DATA, (0, None)),
        ])
        with pytest.raises(EnclaveError, match="oracle"):
            enclave.register_program(oracle.serialize())

    def test_replayed_cek_package_rejected(self, encrypted_table, server, enclave):
        # SQL records and replays the driver's sealed package.
        encrypted_table.execute("SELECT id FROM T WHERE value = @v", {"v": 10})
        from repro.enclave.channel import SealedPackage
        from repro.security.adversary import StrongAdversary

        # Reconstruct what SQL saw: the last install_package blob.
        # (Here we simply replay via the captured session id + blob.)
        session = encrypted_table._attestation
        assert session is not None
        package_blob = None

        def observer(name, inputs, output):
            pass

        # Force another install to capture a blob via a boundary observer.
        captured = []
        enclave.add_boundary_observer(
            lambda name, inputs, output: captured.append(inputs)
            if name == "install_package" else None
        )
        encrypted_table.execute_ddl(
            "ALTER TABLE T ALTER COLUMN value int ENCRYPTED WITH ("
            "COLUMN_ENCRYPTION_KEY = TestCEK, ENCRYPTION_TYPE = Randomized, "
            "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256')",
            authorize_enclave=True,
        )
        assert captured, "expected an install to observe"
        session_id, blob = captured[-1]
        from repro.errors import ReplayError

        with pytest.raises((ReplayError, EnclaveError)):
            enclave.install_package(session_id, SealedPackage(blob=blob))
