"""Both registries: opcode names and the codec's struct/enum ids."""

OPCODES = {"ping": 0x01, "pong": 0x02}

WIRE_IDS: dict[str, int] = {
    "Colour": 0x10,
    "Point": 0x11,
    "Box": 0x12,
    "Ping": 0x40,
    "Pong": 0x41,
}
