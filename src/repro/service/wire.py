"""Wire protocol of the online decode service.

Authenticated length-prefixed pickle frames::

    8-byte big-endian payload length | 32-byte HMAC-SHA256 tag | payload

The tag is computed over the payload with a key derived from the
``REPRO_AUTH_TOKEN`` environment variable (or an explicit token on the
server / client). With no token set on either side, a fixed well-known
key is used, which still detects frame corruption but authenticates
nothing — set a shared token on both sides for anything beyond
localhost. Two non-negotiables hold on every receive path: the length
prefix is checked against :func:`max_frame_bytes` **before** the
receive buffer is allocated, and the HMAC tag is verified **before**
the payload is unpickled, so a peer with the wrong token (or a
corrupted/hostile frame) is rejected without executing any pickle and
without unbounded allocation. The server is a single-threaded event
loop and reads through the asyncio stream variants
(:func:`read_frame` / :func:`write_frame`); the client uses the
synchronous socket ones (:func:`send_message` / :func:`recv_message`).

Every conversation opens with the service handshake —
``("hello", "service", version)`` / ``("welcome", "service",
version)`` — or an authenticated ``("reject", reason)`` on a family or
version mismatch; an unauthenticated peer is simply disconnected.

**Trust model:** frame *payloads* are pickles, which execute code when
loaded. The HMAC tag means only peers holding the shared token can get
a frame loaded at all, but anyone who has the token can still execute
code on the server, so share it like an SSH key.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import os
import pickle
import select
import socket
import struct
from typing import Optional, Tuple, Union

from repro.utils import config

#: service wire protocol version; bump on any frame or message-shape
#: change so mismatched versions reject at the handshake
SERVICE_PROTOCOL_VERSION = 1

#: the handshake family tag naming decode-service conversations
SERVICE_FAMILY = "service"

#: frame header: 8-byte big-endian payload length
_HEADER = struct.Struct(">Q")

#: HMAC-SHA256 tag length (bytes), between the header and the payload
_TAG_SIZE = hashlib.sha256().digest_size

#: environment variable holding the shared auth token
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"

#: fallback HMAC key when no token is configured: frames still carry a
#: verified tag (corruption detection) but any same-version peer can
#: produce it — integrity without authentication. The key bytes (and
#: the ``repro-sweep-token:`` prefix of a token-derived key) predate
#: the service and stay as they are, so the wire bytes never change.
_INTEGRITY_KEY = b"repro-sweep-integrity-v1"

#: environment variable overriding the frame-size cap (bytes)
MAX_FRAME_ENV = "REPRO_MAX_FRAME_BYTES"

#: default frame-size cap: far above any real request or response but
#: small enough that a garbage or hostile length prefix can never
#: trigger a multi-gigabyte allocation
DEFAULT_MAX_FRAME_BYTES = 64 << 20

#: connect timeout for a single client connection attempt (seconds);
#: the client wraps attempts in bounded exponential backoff
CONNECT_TIMEOUT = 10.0

#: environment variable overriding the total connect-retry budget
CONNECT_RETRY_ENV = "REPRO_CONNECT_RETRY"

#: default total budget (seconds) for connect retries with exponential
#: backoff — covers "the server is still restarting" without hanging a
#: client forever on a server that is simply gone
DEFAULT_CONNECT_RETRY = 30.0

#: a handshake reply must arrive within this many seconds of the hello
#: frame; a silent peer here is indistinguishable from a dead one and
#: turns into a retryable OSError
HANDSHAKE_TIMEOUT = 10.0


class ProtocolError(RuntimeError):
    """A frame violated the wire protocol (version, shape, or size)."""


class FrameTooLarge(ProtocolError):
    """A length prefix exceeded the frame cap; nothing was allocated."""


class AuthError(ProtocolError):
    """A frame's HMAC tag did not verify; nothing was unpickled."""


# -- framing ------------------------------------------------------------


def resolve_auth_key(token: Union[str, bytes, None] = None) -> bytes:
    """Derive the frame HMAC key from a token (or ``REPRO_AUTH_TOKEN``).

    ``None`` falls back to the environment variable; with neither set,
    a fixed integrity-only key is used (corruption detection, no
    authentication). Both sides of a connection must resolve the same
    key or every frame is rejected before unpickling.
    """
    if token is None:
        token = os.environ.get(AUTH_TOKEN_ENV) or None
    if token is None:
        return _INTEGRITY_KEY
    if isinstance(token, str):
        token = token.encode("utf-8")
    return hashlib.sha256(b"repro-sweep-token:" + token).digest()


def max_frame_bytes() -> int:
    """The receive-side frame cap (``REPRO_MAX_FRAME_BYTES`` or default)."""
    value = config.env_int(MAX_FRAME_ENV, minimum=1)
    return DEFAULT_MAX_FRAME_BYTES if value is None else value


def send_message(
    conn: socket.socket, obj, key: Optional[bytes] = None
) -> None:
    """Send one authenticated length-prefixed pickle frame."""
    if key is None:
        key = resolve_auth_key()
    payload = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    tag = hmac.new(key, payload, hashlib.sha256).digest()
    conn.sendall(_HEADER.pack(len(payload)) + tag + payload)


def _recv_exact(conn: socket.socket, count: int) -> Optional[bytes]:
    chunks = []
    while count:
        part = conn.recv(min(count, 1 << 20))
        if not part:
            return None
        chunks.append(part)
        count -= len(part)
    return b"".join(chunks)


def recv_message(
    conn: socket.socket,
    key: Optional[bytes] = None,
    max_bytes: Optional[int] = None,
):
    """Receive one frame; ``None`` on clean EOF at a frame boundary.

    The length prefix is checked against ``max_bytes`` (default:
    :func:`max_frame_bytes`) **before** the payload buffer is
    allocated, and the HMAC tag is verified **before** the payload is
    unpickled — so neither a hostile length prefix nor a frame from a
    peer without the shared token ever reaches ``pickle.loads`` or an
    unbounded allocation.
    """
    if key is None:
        key = resolve_auth_key()
    if max_bytes is None:
        max_bytes = max_frame_bytes()
    header = _recv_exact(conn, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLarge(
            f"frame announces {length} payload bytes, above the "
            f"{max_bytes}-byte cap ({MAX_FRAME_ENV} raises it); "
            "refusing the allocation"
        )
    tag = _recv_exact(conn, _TAG_SIZE)
    if tag is None:
        raise EOFError("connection closed mid-frame")
    payload = _recv_exact(conn, length)
    if payload is None:
        raise EOFError("connection closed mid-frame")
    expected = hmac.new(key, payload, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise AuthError(
            "frame HMAC verification failed (wrong or missing "
            f"{AUTH_TOKEN_ENV} on one side, or a corrupted frame); "
            "payload discarded unread"
        )
    return pickle.loads(payload)


async def read_frame(
    reader: asyncio.StreamReader,
    key: bytes,
    max_bytes: Optional[int] = None,
):
    """Read one authenticated frame; ``None`` on clean EOF at a boundary.

    The asyncio twin of :func:`recv_message`, with the identical
    cap-before-allocate / verify-before-unpickle order.
    """
    if max_bytes is None:
        max_bytes = max_frame_bytes()
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise EOFError("connection closed mid-frame") from exc
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"frame announces {length} payload bytes, above the "
            f"{max_bytes}-byte cap; refusing the allocation"
        )
    try:
        tag = await reader.readexactly(_TAG_SIZE)
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise EOFError("connection closed mid-frame") from exc
    expected = hmac.new(key, payload, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise AuthError(
            "frame HMAC verification failed; payload discarded unread"
        )
    return pickle.loads(payload)


async def write_frame(
    writer: asyncio.StreamWriter, obj, key: bytes
) -> None:
    """Send one authenticated frame on an asyncio stream."""
    payload = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    tag = hmac.new(key, payload, hashlib.sha256).digest()
    writer.write(_HEADER.pack(len(payload)) + tag + payload)
    await writer.drain()


# -- connection ---------------------------------------------------------


def connect(address: Tuple[str, int]) -> socket.socket:
    """Open one client connection attempt to a decode server.

    Blocking I/O after connect: frame reads must never time out
    mid-frame (partial bytes would be lost and the stream
    desynchronized). TCP keepalive below turns a server host which
    vanished without closing the connection — power loss, network
    partition with no RST — into a hard ``OSError``.
    """
    conn = socket.create_connection(address, timeout=CONNECT_TIMEOUT)
    conn.settimeout(None)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    # Aggressive keepalive where the platform exposes the knobs:
    # first probe after 60 s idle (TCP_KEEPIDLE on Linux, spelled
    # TCP_KEEPALIVE on macOS), then every 15 s, declare the peer dead
    # after 4 missed probes.
    for option, value in (
        ("TCP_KEEPIDLE", 60),
        ("TCP_KEEPALIVE", 60),
        ("TCP_KEEPINTVL", 15),
        ("TCP_KEEPCNT", 4),
    ):
        if hasattr(socket, option):
            conn.setsockopt(
                socket.IPPROTO_TCP, getattr(socket, option), value
            )
    return conn


def resolve_connect_retry(budget: Optional[float] = None) -> float:
    """Total connect-retry budget in seconds (env fallback + default)."""
    if budget is None:
        budget = config.env_float(CONNECT_RETRY_ENV, minimum=0.0)
    if budget is None:
        budget = DEFAULT_CONNECT_RETRY
    if budget < 0:
        raise ValueError(f"connect retry budget must be >= 0, got {budget}")
    return float(budget)


# -- handshake ----------------------------------------------------------


async def server_handshake(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    key: bytes,
) -> bool:
    """Serve the handshake; returns ``False`` when the peer was rejected.

    An unauthenticated hello (wrong token) gets a silent disconnect —
    nothing is revealed to a peer that cannot produce a valid tag. A
    wrong family or version gets an authenticated rejection naming the
    reason.
    """
    try:
        hello = await read_frame(reader, key)
    except (AuthError, ProtocolError, EOFError):
        return False
    if hello is None:
        return False
    if (
        not isinstance(hello, tuple)
        or len(hello) != 3
        or hello[0] != "hello"
        or hello[1] != SERVICE_FAMILY
    ):
        await write_frame(
            writer,
            ("reject", "this port speaks the repro decode-service protocol"),
            key,
        )
        return False
    if hello[2] != SERVICE_PROTOCOL_VERSION:
        await write_frame(
            writer,
            (
                "reject",
                f"service protocol {hello[2]} != {SERVICE_PROTOCOL_VERSION}",
            ),
            key,
        )
        return False
    await write_frame(
        writer, ("welcome", SERVICE_FAMILY, SERVICE_PROTOCOL_VERSION), key
    )
    return True


def client_handshake(conn: socket.socket, key: bytes) -> None:
    """Run the client side of the service handshake on a sync socket.

    Raises :class:`AuthError` on a silent disconnect (token mismatch)
    and :class:`ProtocolError` on an authenticated rejection or
    malformed reply — both permanent, never retried — and ``OSError``
    when no reply arrives within :data:`HANDSHAKE_TIMEOUT` (a peer
    that accepts but never speaks is treated as a transport failure,
    i.e. retryable). The wait happens before the frame read, so a slow
    reply never loses partially received bytes to a timeout.
    """
    send_message(conn, ("hello", SERVICE_FAMILY, SERVICE_PROTOCOL_VERSION), key)
    if not select.select([conn], [], [], HANDSHAKE_TIMEOUT)[0]:
        raise OSError(
            f"no handshake reply within {HANDSHAKE_TIMEOUT:.0f}s"
        )
    reply = recv_message(conn, key)
    if reply is None:
        raise AuthError(
            "server closed the connection during the handshake — almost "
            "always an auth-token mismatch between client and server"
        )
    if isinstance(reply, tuple) and reply and reply[0] == "reject":
        raise ProtocolError(f"server rejected the handshake: {reply[1]}")
    if reply != ("welcome", SERVICE_FAMILY, SERVICE_PROTOCOL_VERSION):
        raise ProtocolError(
            f"unexpected handshake reply {reply!r} (client speaks "
            f"service protocol {SERVICE_PROTOCOL_VERSION})"
        )


__all__ = [
    "SERVICE_PROTOCOL_VERSION",
    "SERVICE_FAMILY",
    "AUTH_TOKEN_ENV",
    "MAX_FRAME_ENV",
    "DEFAULT_MAX_FRAME_BYTES",
    "CONNECT_TIMEOUT",
    "CONNECT_RETRY_ENV",
    "DEFAULT_CONNECT_RETRY",
    "HANDSHAKE_TIMEOUT",
    "ProtocolError",
    "FrameTooLarge",
    "AuthError",
    "resolve_auth_key",
    "max_frame_bytes",
    "send_message",
    "recv_message",
    "read_frame",
    "write_frame",
    "connect",
    "resolve_connect_retry",
    "server_handshake",
    "client_handshake",
]
