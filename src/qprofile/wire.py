"""Length-prefixed JSON framing over a stream socket.

Every frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.
"""

from __future__ import annotations

import json
import socket
import struct

MAX_FRAME_BYTES = 16 << 20

_LEN = struct.Struct("!I")


class FrameError(Exception):
    """Unrecoverable framing problem (oversize or truncated frame)."""


def send_frame(sock: socket.socket, obj) -> None:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds limit")
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            if got == 0 and not chunks:
                return None
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Read one frame. Returns the decoded object, or None on clean EOF.

    Raises FrameError on truncation or an oversize length prefix, and
    json.JSONDecodeError on a well-framed payload that is not UTF-8 JSON,
    including one nested too deeply for the decoder.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds limit")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed mid-frame")
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise json.JSONDecodeError(f"payload is not UTF-8 ({exc.reason})", "", 0) from exc
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise json.JSONDecodeError("payload nests too deeply", "", 0) from exc
