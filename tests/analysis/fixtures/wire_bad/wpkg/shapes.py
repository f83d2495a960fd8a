"""Registrations the id table does not cover."""

from wpkg import codec
from wpkg.codec import register_enum, register_struct


class Colour:
    RED = 1


class Point:
    pass


class Loose:
    pass


class Looped:
    pass


register_enum(Colour)
register_struct(Loose)              # direct, no id
for _cls in (Point, Looped):        # Looped: through the loop, no id
    codec.register_struct(_cls)
register_struct(type("Anon", (), {}))   # a shape the table cannot even name


def _message(cls):
    register_struct(cls)
    return cls


@_message
class Decorated:                    # through the decorator, no id
    OP = "ping"
