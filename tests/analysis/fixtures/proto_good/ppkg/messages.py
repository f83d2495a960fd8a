"""Total protocol: every opcode has one class, every class is routed."""


class Ping:
    OP = "ping"


class Pong:
    OP = "pong"


class Open:
    OP = "open"


class OpenReply:
    OP = "open_reply"


class Close:
    OP = "close"


class Exec:
    OP = "exec"


class ExecReply:
    OP = "exec_reply"


class Audit:
    OP = "audit"


class AuditReply:
    OP = "audit_reply"


class Relayed:
    OP = "relayed"


class ErrorReply:
    OP = "error"


def error_reply_for(exc):
    return ErrorReply()


# WideError genuinely takes two args (see errors.py) — acknowledged here
NONRECONSTRUCTIBLE_ERRORS = ("WideError",)
