"""Wire protocol of the online decode service.

Authenticated length-prefixed frames::

    8-byte big-endian body length | 32-byte HMAC-SHA256 tag | body

A body is the service's one body format, on the wire as in the
session logs (:mod:`repro.service.store`): a 4-byte LE header length,
a JSON header (each message is one header), then raw little-endian
arrays in fixed layouts — sigma of an ``open_session`` as int8, an
``ingest``'s local CSR (:func:`ingest_parts`), an AMP answer's scores
(:func:`pack_response`). The tag is keyed by ``REPRO_AUTH_TOKEN`` (or
an explicit token). On both receive paths, sync (:func:`recv_message`)
and asyncio (:func:`read_frame`), the length prefix is checked against
the frame cap **before** the body buffer is allocated, and the tag is
verified **before** the body is parsed.

Each endpoint seals and opens frames through one :class:`FrameCodec`,
built once per server or client. It holds the key's HMAC-SHA256 inner
and outer pad states, precomputed as RFC 2104 describes, so tagging a
frame is two ``sha256().copy()`` updates; the tags are bit-identical
to ``hmac.new(key, body, sha256).digest()``. It reads the frame cap
(:func:`max_frame_bytes`) once, when it is built. The header encoder
and scanner are CPython's C ones, built once per process with
``json.dumps(header, sort_keys=True, default=...)``'s settings, so the
bytes on the wire and in the logs are unchanged. The module functions
also take a raw key; each call then builds its own codec and reads the
cap afresh.

Every conversation opens with the handshake ``{"op": "hello",
"family": "service", "version": 2}``, answered by ``{"op":
"welcome", ...}`` or, on a family or version mismatch, an
authenticated ``{"op": "reject", "reason": ...}``; a first frame that
fails its tag or does not parse (an older pickle peer's included) gets
a silent disconnect.

**Trust model:** nothing a peer sends is executed. Headers are JSON,
and arrays are read with ``np.frombuffer`` at sizes checked against
the body, so a frame can at worst be malformed, and a malformed frame
drops the connection or answers ``invalid_request``. With a shared
token, only its holders get a frame read at all. With no token (the
default) the key is a constant of this module: the tag detects
corruption only, and any peer that reaches the port can open, grow or
decode any session. Bind to localhost, or set a token.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import json
import json.decoder
import json.encoder
import json.scanner
import os
import select
import socket
import struct
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils import config

#: service wire protocol version; bump on any frame or message-shape
#: change so mismatched versions reject at the handshake
SERVICE_PROTOCOL_VERSION = 2

#: the handshake family tag naming decode-service conversations
SERVICE_FAMILY = "service"

_HELLO = {
    "op": "hello", "family": SERVICE_FAMILY,
    "version": SERVICE_PROTOCOL_VERSION,
}
_WELCOME = {**_HELLO, "op": "welcome"}

#: frame prefix: 8-byte big-endian body length
_LENGTH = struct.Struct(">Q")

#: HMAC-SHA256 tag length (bytes), between the length and the body
_TAG_SIZE = hashlib.sha256().digest_size

#: body prefix: JSON header length
_HEAD = struct.Struct("<I")

#: environment variable holding the shared auth token
AUTH_TOKEN_ENV = "REPRO_AUTH_TOKEN"

#: fallback HMAC key when no token is configured: frames still carry a
#: verified tag (corruption detection) but any peer can produce it —
#: integrity without authentication
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
    """A frame's HMAC tag did not verify; nothing was parsed."""


# -- bodies -------------------------------------------------------------

#: the header encoder ``json.dumps(header, sort_keys=True, default=...)``
#: builds on every call, built once: same separators, ASCII escapes,
#: NaN allowed, sorted keys. ``default``: a channel parameter may arrive
#: as a NumPy scalar. No circular-reference markers: headers are trees,
#: and one shared marker dict would keep stale ids after a failed call.
_encode_header = json.encoder.c_make_encoder(
    None, lambda value: value.item(), json.encoder.encode_basestring_ascii,
    None, ": ", ", ", True, False, True,
)

#: the header scanner ``json.loads`` runs, built once: ``(value, end)``
#: of the JSON value at an index, ``StopIteration`` if none starts there
_scan_header = json.scanner.make_scanner(json.JSONDecoder())

#: the whitespace ``json.loads`` allows around a value
_SPACE = json.decoder.WHITESPACE


def pack_body(header: dict, *arrays: np.ndarray) -> bytes:
    """One body: the JSON ``header``, then each array's raw bytes."""
    head = "".join(_encode_header(header, 0)).encode("ascii")
    return b"".join(
        [_HEAD.pack(len(head)), head]
        + [np.ascontiguousarray(a).tobytes() for a in arrays]
    )


def parse_body(body) -> Tuple[dict, memoryview]:
    """A body's header and the raw bytes after it; ``ValueError`` (or
    ``struct.error``) if it is malformed. The header is what
    ``json.loads`` accepts: one JSON value, nothing but whitespace
    around it."""
    (head_len,) = _HEAD.unpack_from(body)
    end = _HEAD.size + head_len
    if end > len(body):
        raise ValueError("header overruns its body")
    text = bytes(body[_HEAD.size:end]).decode("ascii")
    try:
        header, stop = _scan_header(text, _SPACE.match(text).end())
    except StopIteration:
        raise ValueError("header is not JSON") from None
    except RecursionError:
        raise ValueError("header nests too deep") from None
    if _SPACE.match(text, stop).end() != len(text):
        raise ValueError("trailing data after the header")
    if not isinstance(header, dict):
        raise ValueError("header is not an object")
    return header, memoryview(body)[end:]


def ingest_parts(
    header: dict, indptr, agents, counts, results
) -> Tuple[dict, tuple]:
    """An ingest body's header and arrays (the layout
    :func:`ingest_arrays` reads): ``header`` plus the query count, then
    the block's local CSR as int64 and its results as float64."""
    return {**header, "queries": len(results)}, (
        np.asarray(indptr, dtype="<i8"), np.asarray(agents, dtype="<i8"),
        np.asarray(counts, dtype="<i8"), np.asarray(results, dtype="<f8"),
    )


def ingest_arrays(header: dict, payload) -> Tuple[np.ndarray, ...]:
    """An ingest body's ``(indptr, agents, counts, results)``, sizes
    checked against the header's query count before any array is read
    (``ValueError``). The queries themselves are checked by
    :meth:`QueryStream.append`."""
    b = header.get("queries")
    if isinstance(b, bool) or not isinstance(b, int) or b < 0:
        raise ValueError(f"bad query count {b!r}")
    offset = 8 * (b + 1)
    if len(payload) < offset:
        raise ValueError(f"payload too short for {b} queries")
    indptr = np.frombuffer(payload, dtype="<i8", count=b + 1)
    nnz = int(indptr[-1])
    if nnz < 0 or len(payload) != offset + 16 * nnz + 8 * b:
        raise ValueError("ingest arrays do not match their indptr")
    agents = np.frombuffer(payload, dtype="<i8", count=nnz, offset=offset)
    counts = np.frombuffer(
        payload, dtype="<i8", count=nnz, offset=offset + 8 * nnz
    )
    # copied: the stream keeps float64 results as given, and a view
    # would pin the whole body in memory
    results = np.frombuffer(
        payload, dtype="<f8", count=b, offset=offset + 16 * nnz
    ).copy()
    return indptr, agents, counts, results


def pack_response(response: dict) -> Tuple[dict, tuple]:
    """A response's header and arrays: scores, if any, travel raw."""
    scores = response.get("scores")
    if scores is None:
        return response, ()
    return {**response, "scores": len(scores)}, (
        np.asarray(scores, dtype="<f8"),
    )


def unpack_response(header: dict, payload) -> dict:
    """The response :func:`pack_response` framed, scores as a list."""
    if "scores" in header:
        if len(payload) % 8 or len(payload) // 8 != header["scores"]:
            raise ProtocolError("response scores do not match their count")
        header["scores"] = np.frombuffer(payload, dtype="<f8").tolist()
    return header


# -- framing ------------------------------------------------------------


def resolve_auth_key(token: Union[str, bytes, None] = None) -> bytes:
    """Derive the frame HMAC key from a token (or ``REPRO_AUTH_TOKEN``).

    ``None`` falls back to the environment variable; with neither set,
    a fixed integrity-only key is used (corruption detection, no
    authentication). Both sides of a connection must resolve the same
    key or every frame is rejected before it is parsed.
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


#: HMAC-SHA256 block size and the RFC 2104 pad translations
_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class FrameCodec:
    """One endpoint's seal and open steps under one key.

    Built once per server or client: the key's HMAC-SHA256 pad states
    are hashed here, and the frame cap is read here
    (:func:`max_frame_bytes`), so no frame re-derives either.
    """

    __slots__ = ("cap", "_inner", "_outer")

    def __init__(self, key: bytes):
        self.cap = max_frame_bytes()
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def tag(self, body) -> bytes:
        """``hmac.new(key, body, sha256).digest()``, from the pads."""
        inner = self._inner.copy()
        inner.update(body)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def seal(self, header: dict, arrays: Sequence[np.ndarray] = ()) -> bytes:
        """One whole frame: length, tag, body."""
        body = pack_body(header, *arrays)
        return _LENGTH.pack(len(body)) + self.tag(body) + body

    def frame_length(self, prefix: bytes) -> int:
        """Open step 1: the tag-plus-body size a length prefix
        announces, checked against the cap before anything is
        allocated."""
        (length,) = _LENGTH.unpack(prefix)
        if length > self.cap:
            raise FrameTooLarge(
                f"frame announces {length} body bytes, above the "
                f"{self.cap}-byte cap ({MAX_FRAME_ENV} raises it); "
                "refusing the allocation"
            )
        return _TAG_SIZE + length

    def open(self, rest: bytes) -> Tuple[dict, memoryview]:
        """Open step 2: verify the tag, then parse the body."""
        body = memoryview(rest)[_TAG_SIZE:]
        if not hmac.compare_digest(rest[:_TAG_SIZE], self.tag(body)):
            raise AuthError(
                "frame HMAC verification failed (wrong or missing "
                f"{AUTH_TOKEN_ENV} on one side, or a corrupted frame); "
                "body discarded unread"
            )
        try:
            return parse_body(body)
        except (ValueError, struct.error) as exc:
            raise ProtocolError(f"malformed frame body: {exc}") from None


#: a frame function's key: an endpoint's codec, or raw key bytes (a
#: codec built for the one call)
Key = Union[FrameCodec, bytes]


def _codec(key: Key) -> FrameCodec:
    return key if isinstance(key, FrameCodec) else FrameCodec(key)


def send_message(
    conn: socket.socket, key: Key, header: dict, arrays=()
) -> None:
    """Send one authenticated frame: ``header`` plus raw ``arrays``."""
    conn.sendall(_codec(key).seal(header, arrays))


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
    conn: socket.socket, key: Key
) -> Optional[Tuple[dict, memoryview]]:
    """Receive one frame as ``(header, payload)``; ``None`` on clean EOF
    at a frame boundary. The cap is checked before the body is
    allocated, and the tag verified before it is parsed."""
    codec = _codec(key)
    prefix = _recv_exact(conn, _LENGTH.size)
    if prefix is None:
        return None
    rest = _recv_exact(conn, codec.frame_length(prefix))
    if rest is None:
        raise EOFError("connection closed mid-frame")
    return codec.open(rest)


async def read_frame(
    reader: asyncio.StreamReader, key: Key
) -> Optional[Tuple[dict, memoryview]]:
    """The asyncio twin of :func:`recv_message`, with the same open steps."""
    codec = _codec(key)
    try:
        prefix = await reader.readexactly(_LENGTH.size)
        rest = await reader.readexactly(codec.frame_length(prefix))
    except asyncio.IncompleteReadError as exc:
        if exc.partial or exc.expected != _LENGTH.size:
            raise EOFError("connection closed mid-frame") from exc
        return None
    return codec.open(rest)


async def write_frame(
    writer: asyncio.StreamWriter, key: Key, header: dict, arrays=()
) -> None:
    """Send one authenticated frame on an asyncio stream."""
    writer.write(_codec(key).seal(header, arrays))
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
    key: Key,
) -> bool:
    """Serve the handshake; returns ``False`` when the peer was rejected.

    A hello that fails its tag (wrong token) or does not parse gets a
    silent disconnect — nothing is revealed to a peer that cannot
    produce a valid frame. A wrong family or version gets an
    authenticated rejection naming the reason.
    """
    key = _codec(key)
    try:
        opened = await read_frame(reader, key)
    except (ProtocolError, EOFError):
        return False
    if opened is None:
        return False
    hello, _ = opened
    if (hello.get("op"), hello.get("family")) != ("hello", SERVICE_FAMILY):
        reason = "this port speaks the repro decode-service protocol"
    elif hello.get("version") != SERVICE_PROTOCOL_VERSION:
        reason = (
            f"service protocol {hello.get('version')!r} != "
            f"{SERVICE_PROTOCOL_VERSION}"
        )
    else:
        await write_frame(writer, key, _WELCOME)
        return True
    await write_frame(writer, key, {"op": "reject", "reason": reason})
    return False


def client_handshake(conn: socket.socket, key: Key) -> None:
    """Run the client side of the service handshake on a sync socket.

    Raises :class:`AuthError` on a silent disconnect (token mismatch)
    and :class:`ProtocolError` on an authenticated rejection or
    malformed reply — both permanent, never retried — and ``OSError``
    when no reply arrives within :data:`HANDSHAKE_TIMEOUT` (a peer
    that accepts but never speaks is treated as a transport failure,
    i.e. retryable). The wait happens before the frame read, so a slow
    reply never loses partially received bytes to a timeout.
    """
    key = _codec(key)
    send_message(conn, key, _HELLO)
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
    header, _ = reply
    if header.get("op") == "reject":
        raise ProtocolError(
            f"server rejected the handshake: {header.get('reason')}"
        )
    if header != _WELCOME:
        raise ProtocolError(
            f"unexpected handshake reply {header!r} (client speaks "
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
    "FrameCodec",
    "pack_body",
    "parse_body",
    "ingest_parts",
    "ingest_arrays",
    "pack_response",
    "unpack_response",
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
