"""Every way a shape gets registered, each with an id in the table."""

from wpkg.codec import register_enum, register_struct


class Colour:
    RED = 1


class Point:
    pass


class Box:
    pass


register_enum(Colour)
for _cls in (Point, Box):
    register_struct(_cls)


def _message(cls):
    register_struct(cls)
    return cls


@_message
class Ping:
    OP = "ping"


@_message
class Pong:
    OP = "pong"
