"""A total dispatcher: one arm per request, catch-all raise, error path."""

from ppkg.messages import (
    Audit,
    AuditReply,
    Close,
    Exec,
    ExecReply,
    Open,
    OpenReply,
    Ping,
    Pong,
    Relayed,
    error_reply_for,
)


class Server:
    #: relayed as raw frames, never decoded: no isinstance arm sees these,
    #: the opcode set derived from the tuple routes them
    _FORWARDED = (Relayed,)
    _RELAYED = frozenset(cls.OP for cls in _FORWARDED)

    def serve(self, channel, request, sessions):
        try:
            reply = self.dispatch(request, sessions)
        except Exception as exc:
            reply = error_reply_for(exc)
        channel.send(reply)

    def dispatch(self, request, sessions):
        if isinstance(request, Ping):
            return Pong()
        if isinstance(request, Open):
            return OpenReply()
        if isinstance(request, Close):
            sessions.pop(request, None)
            return Pong()
        if isinstance(request, Exec):
            return ExecReply()
        if isinstance(request, Audit):
            return AuditReply()
        raise ValueError(f"unhandled message {type(request).__name__!r}")
