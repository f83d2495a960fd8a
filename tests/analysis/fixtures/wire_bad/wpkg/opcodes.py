"""An id table with every defect the rule names."""

OPCODES = {"ping": 0x01}

FIRST = 0x10

WIRE_IDS = {
    "Colour": 0x10,
    "Point": 0x11,
    "Box": 0x11,      # two names, one id: whichever registers second loses
    "Point": 0x13,    # one name twice: the literal silently keeps the last
    "Ping": FIRST,    # not auditable
}
