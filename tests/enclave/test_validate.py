"""Static security validation of enclave programs (Section 4.4.1)."""

import pytest

from repro.crypto.aead import EncryptionScheme
from repro.enclave.validate import validate_program
from repro.errors import EnclaveError
from repro.sqlengine.expression.program import Instruction, Opcode, StackProgram
from repro.sqlengine.types import EncryptionInfo

ENC = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="K", enclave_enabled=True)
ENC2 = EncryptionInfo(scheme=EncryptionScheme.RANDOMIZED, cek_name="K2", enclave_enabled=True)
INSTALLED = frozenset({"K", "K2"})


def program(*instructions) -> StackProgram:
    return StackProgram(list(instructions))


class TestAccepted:
    def test_encrypted_comparison(self):
        used = validate_program(
            program(
                Instruction(Opcode.GET_DATA, (0, ENC)),
                Instruction(Opcode.GET_DATA, (1, ENC)),
                Instruction(Opcode.COMP, "<"),
                Instruction(Opcode.SET_DATA, (0, None)),
            ),
            INSTALLED,
        )
        assert used == {"K"}

    def test_plaintext_only_program(self):
        used = validate_program(
            program(
                Instruction(Opcode.PUSH_CONST, 1),
                Instruction(Opcode.PUSH_CONST, 2),
                Instruction(Opcode.COMP, "="),
                Instruction(Opcode.SET_DATA, (0, None)),
            ),
            INSTALLED,
        )
        assert used == set()

    def test_like_on_same_cek(self):
        validate_program(
            program(
                Instruction(Opcode.GET_DATA, (0, ENC)),
                Instruction(Opcode.GET_DATA, (1, ENC)),
                Instruction(Opcode.LIKE),
                Instruction(Opcode.SET_DATA, (0, None)),
            ),
            INSTALLED,
        )

    def test_boolean_combination_of_results(self):
        validate_program(
            program(
                Instruction(Opcode.GET_DATA, (0, ENC)),
                Instruction(Opcode.GET_DATA, (1, ENC)),
                Instruction(Opcode.COMP, "="),
                Instruction(Opcode.NOT),
                Instruction(Opcode.SET_DATA, (0, None)),
            ),
            INSTALLED,
        )


class TestRejected:
    def test_comparison_oracle_rejected(self):
        # Host plaintext vs decrypted column = a comparison oracle.
        with pytest.raises(EnclaveError, match="oracle"):
            validate_program(
                program(
                    Instruction(Opcode.GET_DATA, (0, ENC)),
                    Instruction(Opcode.PUSH_CONST, 42),
                    Instruction(Opcode.COMP, "<"),
                    Instruction(Opcode.SET_DATA, (0, None)),
                ),
                INSTALLED,
            )

    def test_cross_cek_comparison_rejected(self):
        with pytest.raises(EnclaveError, match="different CEKs"):
            validate_program(
                program(
                    Instruction(Opcode.GET_DATA, (0, ENC)),
                    Instruction(Opcode.GET_DATA, (1, ENC2)),
                    Instruction(Opcode.COMP, "="),
                    Instruction(Opcode.SET_DATA, (0, None)),
                ),
                INSTALLED,
            )

    def test_uninstalled_cek_rejected(self):
        missing = EncryptionInfo(
            scheme=EncryptionScheme.RANDOMIZED, cek_name="GHOST", enclave_enabled=True
        )
        with pytest.raises(EnclaveError, match="not installed"):
            validate_program(
                program(Instruction(Opcode.GET_DATA, (0, missing))),
                INSTALLED,
            )

    def test_arithmetic_on_decrypted_rejected(self):
        with pytest.raises(EnclaveError, match="arithmetic"):
            validate_program(
                program(
                    Instruction(Opcode.GET_DATA, (0, ENC)),
                    Instruction(Opcode.GET_DATA, (1, ENC)),
                    Instruction(Opcode.ARITH, "+"),
                ),
                INSTALLED,
            )

    def test_nested_tm_eval_rejected(self):
        with pytest.raises(EnclaveError, match="nested"):
            validate_program(
                program(Instruction(Opcode.TM_EVAL, (b"", 0))),
                INSTALLED,
            )

    @pytest.mark.parametrize("second", [None, ENC2], ids=["in_the_clear", "other_cek"])
    def test_a_slot_read_two_ways_rejected(self, second):
        # The VM opens slot 0 once per row, before any node runs: a second,
        # plaintext read of it would compare the opened value with host
        # plaintext (an oracle the provenance check cannot see).
        with pytest.raises(EnclaveError, match="slot 0 is read"):
            validate_program(
                program(
                    Instruction(Opcode.GET_DATA, (0, ENC)),
                    Instruction(Opcode.GET_DATA, (1, ENC)),
                    Instruction(Opcode.COMP, "<"),
                    Instruction(Opcode.GET_DATA, (0, second)),
                    Instruction(Opcode.IS_NULL, False),
                    Instruction(Opcode.AND),
                    Instruction(Opcode.SET_DATA, (0, None)),
                ),
                INSTALLED,
            )

    def test_stack_underflow_rejected(self):
        with pytest.raises(EnclaveError, match="underflow"):
            validate_program(program(Instruction(Opcode.COMP, "=")), INSTALLED)

    def test_encrypted_output_cek_must_be_installed(self):
        missing = EncryptionInfo(
            scheme=EncryptionScheme.RANDOMIZED, cek_name="GHOST", enclave_enabled=True
        )
        with pytest.raises(EnclaveError, match="not installed"):
            validate_program(
                program(
                    Instruction(Opcode.PUSH_CONST, 1),
                    Instruction(Opcode.SET_DATA, (0, missing)),
                ),
                INSTALLED,
            )
