"""Socket transport: one framed message channel per connection.

:class:`FrameChannel` wraps a connected stream socket and speaks whole
messages (:mod:`repro.net.messages`): ``send_message`` writes one frame,
``recv_message`` buffers bytes until :func:`repro.net.frames.try_decode`
yields a complete frame. The channel is intentionally dumb — no retries,
no error reconstruction; those live in the driver-facing stub
(:mod:`repro.net.remote`) where idempotency is known.

Two fault sites instrument the byte boundary:

* ``net.send_frame`` — fires before bytes hit the socket. A
  ``DropMessage`` directive simulates the peer resetting mid-send
  (raises :class:`ConnectionResetError`, which the driver's classifier
  treats as transient for idempotent control-plane ops).
* ``net.recv_frame`` — fires before blocking on the socket; the same
  directive simulates a reset while awaiting a reply.

The optional ``tap`` callable observes every serialized frame —
``tap(direction, opcode, frame_bytes)`` — and is how the strong adversary
reads the real wire: length prefix, opcode byte, and ciphertext payload,
exactly what a network observer sees.
"""

from __future__ import annotations

import socket
from typing import Any, Callable

from repro.errors import TruncatedFrameError
from repro.faults import DropMessageDirective, fault_site
from repro.net.frames import try_decode
from repro.net.messages import decode_message, encode_message

__all__ = ["FrameChannel", "connect_channel"]

_SEND_FRAME = fault_site("net.send_frame")
_RECV_FRAME = fault_site("net.recv_frame")

#: tap(direction, opcode, frame_bytes); direction is "send" or "recv".
FrameTap = Callable[[str, int, bytes], None]

_RECV_CHUNK = 64 * 1024


class FrameChannel:
    """A framed message channel over one connected stream socket."""

    def __init__(self, sock: socket.socket, tap: FrameTap | None = None):
        self.sock = sock
        self.tap = tap
        self._buffer = bytearray()
        self._closed = False

    # ------------------------------------------------------------- sending

    def send_frame(self, frame: bytes) -> None:
        """Write one already-encoded frame (the router's forwarding path)."""
        directive = _SEND_FRAME.fire(frame=frame) if _SEND_FRAME.armed else None
        if isinstance(directive, DropMessageDirective):
            # The peer will never see this frame; surface it as the socket
            # error a real half-open connection produces.
            raise ConnectionResetError("injected: frame dropped on send")
        if self.tap is not None:
            self.tap("send", frame[3], frame)
        self.sock.sendall(frame)

    def send_message(self, msg: Any) -> None:
        self.send_frame(encode_message(msg))

    # ------------------------------------------------------------ receiving

    def recv_frame(self) -> tuple[int, bytes, bytes] | None:
        """Receive one raw frame: ``(opcode, payload, frame_bytes)``.

        ``None`` on clean EOF at a frame boundary. The caller chooses
        whether to decode the payload (:func:`decode_message`) or forward
        ``frame_bytes`` verbatim — validation (magic, version, opcode,
        length, CRC) has already happened in :func:`try_decode` either way.
        """
        directive = _RECV_FRAME.fire() if _RECV_FRAME.armed else None
        if isinstance(directive, DropMessageDirective):
            raise ConnectionResetError("injected: frame dropped on receive")
        while True:
            # An empty buffer holds no frame: block on the socket, don't poll.
            decoded = try_decode(self._buffer) if self._buffer else None
            if decoded is not None:
                opcode, payload, consumed = decoded
                with memoryview(self._buffer) as view:
                    frame = bytes(view[:consumed])
                if self.tap is not None:
                    self.tap("recv", opcode, frame)
                del self._buffer[:consumed]
                return opcode, payload, frame
            chunk = self.sock.recv(_RECV_CHUNK)
            if not chunk:
                if self._buffer:
                    raise TruncatedFrameError(
                        f"connection closed mid-frame with {len(self._buffer)} buffered bytes"
                    )
                return None
            self._buffer.extend(chunk)

    def recv_message(self) -> Any | None:
        """Receive one message; ``None`` on clean EOF at a frame boundary."""
        raw = self.recv_frame()
        if raw is None:
            return None
        opcode, payload, _frame = raw
        return decode_message(opcode, payload)

    def request_raw(self, frame: bytes) -> tuple[int, bytes, bytes]:
        """Send one encoded frame and block for the peer's reply, undecoded."""
        self.send_frame(frame)
        raw = self.recv_frame()
        if raw is None:
            raise ConnectionResetError("connection closed while awaiting reply")
        return raw

    def request(self, msg: Any) -> Any:
        """Send one message and block for the peer's reply message."""
        opcode, payload, _frame = self.request_raw(encode_message(msg))
        return decode_message(opcode, payload)

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def connect_channel(
    host: str, port: int, *, timeout_s: float | None = None, tap: FrameTap | None = None
) -> FrameChannel:
    """Dial ``host:port`` and return a ready :class:`FrameChannel`."""
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return FrameChannel(sock, tap=tap)

