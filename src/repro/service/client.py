"""Synchronous client library for the online decode service.

Transport failures — connection refused while the server restarts, a
connection reset by a SIGKILLed server, a handshake that gets no reply
within :data:`~repro.service.wire.HANDSHAKE_TIMEOUT`, a reply that
stalls for :data:`REPLY_TIMEOUT` — are retried with exponential
backoff (0.25 s doubling, capped at 5 s per sleep) within a total
budget (``REPRO_CONNECT_RETRY`` or explicit), while
:class:`~repro.service.wire.AuthError` /
:class:`~repro.service.wire.ProtocolError` are permanent and raised
immediately. Retryable *service* errors (``overloaded``,
``deadline_exceeded``) back off under the same budget; terminal ones
raise at once.

Every state-changing request carries a client-generated idempotent
request id that is **reused across retries** of that request, so a
retransmit after a lost acknowledgement can never double-apply an
ingest — the server acks it from its applied map. That, plus the
server's write-ahead persistence, is what makes "just retry" safe
through a server crash.
"""

from __future__ import annotations

import itertools
import time
import uuid
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.noise import Channel
from repro.service.errors import ServiceError, error_from_wire
from repro.service.session import channel_to_spec
from repro.service.wire import (
    AuthError,
    ProtocolError,
    client_handshake,
    connect,
    ingest_parts,
    recv_message,
    resolve_auth_key,
    resolve_connect_retry,
    send_message,
    unpack_response,
)

#: reconnect backoff schedule (seconds)
_BACKOFF_START = 0.25
_BACKOFF_CAP = 5.0

#: longest wait, in seconds, for the next bytes of a reply (or for a
#: send to drain); a connected server silent for longer — before or
#: inside a frame — is treated like a reset connection: dropped, then
#: retried under the budget. Fixed, and far above any batched decode, so
#: a zero retry budget still lets every answered request through.
REPLY_TIMEOUT = 60.0


class ServiceClient:
    """One connection to a decode server, with retrying request calls."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: Union[str, bytes, None] = None,
        retry_budget: Optional[float] = None,
    ):
        self.address = (host, int(port))
        self._key = resolve_auth_key(token)
        self._retry_budget = retry_budget
        self._conn = None
        self._ids = itertools.count()
        self._client = uuid.uuid4().hex[:12]

    # -- connection management ------------------------------------------

    def connect(self) -> None:
        """Connect and handshake, with bounded exponential backoff."""
        if self._conn is not None:
            return
        budget = resolve_connect_retry(self._retry_budget)
        deadline = time.monotonic() + budget
        delay = _BACKOFF_START
        attempt = 0
        while True:
            attempt += 1
            conn = None
            try:
                conn = connect(self.address)
                # A timeout drops the connection, so it can never leave
                # a half-read frame on a live stream.
                conn.settimeout(REPLY_TIMEOUT)
                client_handshake(conn, self._key)
                self._conn = conn
                return
            except (AuthError, ProtocolError):
                if conn is not None:
                    conn.close()
                raise  # permanent: a wrong token/version never heals
            except OSError as exc:
                if conn is not None:
                    conn.close()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise OSError(
                        f"could not reach decode server "
                        f"{self.address[0]}:{self.address[1]} after "
                        f"{attempt} attempts over {budget:.1f}s "
                        f"(last error: {exc})"
                    ) from exc
                time.sleep(min(delay, max(remaining, 0.0), _BACKOFF_CAP))
                delay *= 2

    def close(self) -> None:
        """Drop the connection; the server sees end of file at a frame
        boundary and lets go of it."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request machinery ----------------------------------------------

    def request_id(self) -> str:
        """A fresh idempotent request id (stable across its retries)."""
        return f"{self._client}:{next(self._ids)}"

    def call(self, request: dict, arrays=()) -> dict:
        """Send one request header (plus raw ``arrays``), retrying per
        the module's policy."""
        budget = resolve_connect_retry(self._retry_budget)
        deadline = time.monotonic() + budget
        delay = _BACKOFF_START
        last: Optional[BaseException] = None
        while True:
            try:
                self.connect()
                send_message(self._conn, self._key, request, arrays)
                reply = recv_message(self._conn, self._key)
                if reply is None:
                    raise EOFError("server closed the connection")
                response = unpack_response(*reply)
            except (AuthError, ProtocolError):
                self.close()
                raise
            except (OSError, EOFError) as exc:
                # Transport failure — e.g. the server was SIGKILLed.
                # Reconnect and retransmit: every mutating op is
                # idempotent by request id, so this is always safe.
                self.close()
                last = exc
                response = None
            if response is not None:
                if response.get("ok"):
                    return response
                error = error_from_wire(response.get("error", {}))
                if not error.retryable:
                    raise error
                last = error
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if isinstance(last, ServiceError):
                    raise last
                raise OSError(
                    f"request failed after {budget:.1f}s of retries "
                    f"(last error: {last})"
                ) from last
            time.sleep(min(delay, max(remaining, 0.0), _BACKOFF_CAP))
            delay *= 2

    # -- API -------------------------------------------------------------

    def open_session(
        self,
        session_id: str,
        n: int,
        sigma: Sequence[int],
        *,
        channel: Union[Channel, dict],
        gamma: Optional[int] = None,
        centering: str = "half_k",
    ) -> dict:
        """Open (or idempotently reopen) a session on the server."""
        spec = (
            channel_to_spec(channel)
            if isinstance(channel, Channel)
            else dict(channel)
        )
        return self.call({
            "op": "open_session",
            "session_id": session_id,
            "n": n,
            "gamma": gamma,
            "channel": spec,
            "centering": centering,
        }, (np.asarray(sigma, dtype="<i1"),))

    def ingest(
        self,
        session_id: str,
        queries: Sequence[Tuple[Sequence[int], Sequence[int], float]],
        *,
        request_id: Optional[str] = None,
    ) -> dict:
        """Stream a block of ``(agents, counts, result)`` queries into a
        session, packed as one local CSR block."""
        indptr, agents, counts, results = [0], [], [], []
        for query_agents, query_counts, result in queries:
            agents.extend(query_agents)
            counts.extend(query_counts)
            results.append(result)
            indptr.append(len(agents))
        return self.call(*ingest_parts(
            {
                "op": "ingest",
                "session_id": session_id,
                "request_id": request_id or self.request_id(),
            },
            indptr, agents, counts, results,
        ))

    def decode(
        self,
        session_id: str,
        *,
        algorithm: str = "amp",
        m: Optional[int] = None,
        deadline: Optional[float] = None,
        return_scores: bool = False,
        request_id: Optional[str] = None,
    ) -> dict:
        """Decode a session prefix (AMP, batched server-side, or greedy)."""
        return self.call({
            "op": "decode",
            "session_id": session_id,
            "request_id": request_id or self.request_id(),
            "algorithm": algorithm,
            "m": m,
            "deadline": deadline,
            "return_scores": return_scores,
        })

    def status(self, session_id: str) -> dict:
        return self.call({"op": "status", "session_id": session_id})

    def healthz(self) -> dict:
        """Liveness probe: answers iff the server's event loop is alive."""
        return self.call({"op": "healthz"})

    def readyz(self) -> dict:
        """Readiness probe: store loaded, batcher accepting, queue depth."""
        return self.call({"op": "readyz"})

    def stats(self) -> dict:
        return self.call({"op": "stats"})


__all__ = ["ServiceClient"]
