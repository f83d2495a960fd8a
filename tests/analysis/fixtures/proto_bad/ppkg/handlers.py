"""Dispatcher with a duplicate arm, no catch-all raise, and no error
marshalling path."""

from ppkg.messages import Close, Exec, ExecReply, Open, OpenReply, Orphaned, Ping, Pong


class Server:
    #: a forwarding tuple nothing reads routes nothing: Orphaned stays unrouted
    _FORWARDED = (Orphaned,)

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
        if isinstance(request, Ping):
            # dead arm: shadowed by the first Ping check
            return Pong()
        return None
