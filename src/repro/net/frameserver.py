"""The one frame-server loop: listener, accept thread, request loop.

:class:`~repro.net.wireserver.WireServer` (one engine) and
:class:`~repro.net.router.Router` (N shards) are the two things that
*answer* frames; everything about being a socket server is the same for
both and lives here: one accept-loop thread plus one handler thread per
connection, ``Hello`` → ``HelloReply``, then request → reply until the
peer leaves or sends ``AdminShutdown``.

Each connection owns its sessions: a dropped socket aborts and closes
every session it opened (the usual connection-loss contract), so a client
crash never leaks session slots or row locks.

Every exception a handler raises is marshalled as an :class:`ErrorReply`
with the concrete type name — ``StaleRestoreError`` quarantine refusals,
``LockTimeoutError``, injected faults — so typed client handling works
identically to the in-process seam. Only wire-level failures (a peer
speaking garbage) terminate the connection.

A subclass supplies exactly what differs:

* ``_thread_prefix`` — names the serving threads;
* :meth:`_handshake` — fills ``HelloReply`` and returns the connection's
  dispatch and relay callables (the router binds its affinity shard there);
* ``_RELAYED`` — the opcodes whose frames go to that relay undecoded.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Callable

from repro.errors import FaultInjected, WireError
from repro.net import messages as msg
from repro.net.frames import PROTOCOL_VERSION
from repro.net.transport import FrameChannel, FrameTap

__all__ = ["FrameServer"]

#: ``dispatch(request, sessions) -> reply`` for one connection; the reply is
#: a message, or ``bytes`` when it already is a frame (a shard's, verbatim).
Dispatch = Callable[[object, dict], object]
#: ``relay(request_frame) -> (opcode, payload, reply_frame)`` for one connection.
Relay = Callable[[bytes], tuple[int, bytes, bytes]]


class FrameServer:
    """A TCP endpoint speaking the framed request/reply protocol."""

    _thread_prefix = "frame"
    #: opcode bytes answered by the connection's relay, frame for frame.
    _RELAYED: frozenset[int] = frozenset()

    def __init__(self, host: str, port: int, name: str, tap: FrameTap | None):
        self.name = name
        #: observes every serialized frame on every connection (adversary).
        self.tap = tap
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._channels_lock = threading.Lock()
        self._channels: set[FrameChannel] = set()

    # --------------------------------------------------------------- lifecycle

    def start(self):
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"{self._thread_prefix}-accept-{self.name}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and drop every live connection."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        try:
            # close() alone leaves a thread blocked in accept() blocked.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self._channels_lock:
            channels = list(self._channels)
        for channel in channels:
            channel.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def wait_stopped(self, timeout_s: float | None = None) -> bool:
        """Block until :meth:`stop` has begun (``AdminShutdown`` calls it)."""
        return self._stopping.wait(timeout_s)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ accept loop

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channel = FrameChannel(sock, tap=self.tap)
            with self._channels_lock:
                self._channels.add(channel)
            threading.Thread(
                target=self._serve_connection,
                args=(channel,),
                name=f"{self._thread_prefix}-conn-{self.name}",
                daemon=True,
            ).start()

    # ------------------------------------------------------------- connection

    def _handshake(self, hello: msg.Hello) -> tuple[msg.HelloReply, Dispatch, Relay | None]:
        raise NotImplementedError

    def _hello_reply(self, shard_count: int, hgs_public) -> msg.HelloReply:
        return msg.HelloReply(
            protocol_version=PROTOCOL_VERSION,
            server_name=self.name,
            shard_count=shard_count,
            hgs_public=hgs_public,
        )

    def _serve_connection(self, channel: FrameChannel) -> None:
        sessions: dict[int, Any] = {}
        try:
            hello = channel.recv_message()
            if not isinstance(hello, msg.Hello):
                return
            hello_reply, dispatch, relay = self._handshake(hello)
            channel.send_message(hello_reply)
            while True:
                raw = channel.recv_frame()
                if raw is None:
                    return
                opcode, payload, frame = raw
                relayed = opcode in self._RELAYED
                request = None if relayed else msg.decode_message(opcode, payload)
                if isinstance(request, msg.AdminShutdown):
                    channel.send_message(msg.Ok())
                    threading.Thread(target=self.stop, daemon=True).start()
                    return
                try:
                    if relayed:
                        # Frame for frame, payload undecoded: try_decode has
                        # checked header and CRC on both legs, and the two
                        # ends that read the payload validate it themselves.
                        reply = relay(frame)[2]
                    else:
                        reply = dispatch(request, sessions)
                        if not isinstance(reply, bytes):
                            reply = msg.encode_message(reply)
                except WireError:
                    raise  # protocol violation: drop the connection
                except Exception as exc:  # marshalled to the client, typed
                    in_txn = None
                    if isinstance(request, msg.Execute):
                        session = sessions.get(request.session_id)
                        if session is not None:
                            in_txn = session.in_transaction
                    reply = msg.encode_message(msg.error_reply_for(exc, in_transaction=in_txn))
                channel.send_frame(reply)
        except (ConnectionError, WireError, OSError, FaultInjected):
            pass  # peer vanished, spoke garbage, or an armed net.* fault
            # fired on our side of the socket: tear the connection down
        finally:
            for session in sessions.values():
                try:
                    session.close()
                except Exception:
                    pass  # a crashed engine may refuse the closing abort
            with self._channels_lock:
                self._channels.discard(channel)
            channel.close()

    @staticmethod
    def _session(sessions: dict, session_id: int):
        try:
            return sessions[session_id]
        except KeyError:
            raise WireError(f"unknown session id {session_id}") from None
