"""The long-lived asyncio decode server (``repro serve``).

One event loop owns every session: connection handlers mutate session
state (ingest) and enqueue decode requests on the loop thread, the
:class:`~repro.service.batcher.DecodeBatcher` snapshots prefixes on
the loop and runs stacked AMP decodes in a worker thread. Concurrent
clients on separate connections therefore batch *across users* while
every individual result stays bit-identical to a standalone decode.

Requests arrive as :mod:`repro.service.wire` frames. Session and
request ids must be non-empty strings, never coerced. Decodes are
validated in full (``m``, ``deadline``, ``return_scores``) for both
algorithms before anything is answered. An AMP decode goes to the
batcher, which answers a repeat of the session's latest decoded prefix
from its one-entry result cache; the greedy certificate exists only at
the current prefix, so a greedy decode at any other ``m`` is refused.
A decode never changes a session's stream, so a retransmitted decode
needs no request-id bookkeeping.

Durability: every state-changing request (an open, an ingest, or a
retransmit of either) saves its session through
:class:`~repro.service.store.SessionStore` **before** the ack is sent,
under the store's durability promise; :meth:`DecodeService.start`
replays the logs back into identical in-memory state.

Probes: the ``healthz`` op answers whenever the event loop is alive
(liveness); ``readyz`` answers whether the store has been loaded and
the batcher is accepting work (readiness), plus the current queue
depth — the service twin of the usual HTTP probe pair, carried over
the service's own authenticated frame protocol.
"""

from __future__ import annotations

import asyncio
import numbers
from typing import Callable, Optional, Tuple

import numpy as np

from repro.service import wire
from repro.service.batcher import (
    DEFAULT_DEGRADE_DEPTH,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DecodeBatcher,
)
from repro.service.errors import (
    InternalError,
    InvalidRequest,
    ServiceError,
    SessionConflict,
    UnknownSession,
)
from repro.service.session import Session, SessionParams
from repro.service.store import SessionStore
from repro.utils import config

#: ``REPRO_SERVICE_*`` knobs (consolidated parsing in repro.utils.config)
MAX_QUEUE_ENV = "REPRO_SERVICE_MAX_QUEUE"
DEGRADE_DEPTH_ENV = "REPRO_SERVICE_DEGRADE_DEPTH"
MAX_BATCH_ENV = "REPRO_SERVICE_MAX_BATCH"
DEADLINE_ENV = "REPRO_SERVICE_DEADLINE"

#: default decode-service port
DEFAULT_PORT = 7930


def _resolve_knob(value, env, default, *, parser):
    if value is not None:
        return value
    parsed = parser(env)
    return default if parsed is None else parsed


class DecodeService:
    """One decode server instance: sessions + batcher + TCP endpoint."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        state_dir=None,
        *,
        token=None,
        max_queue: Optional[int] = None,
        degrade_depth: Optional[int] = None,
        max_batch: Optional[int] = None,
        default_deadline: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self.key = wire.resolve_auth_key(token)
        #: this server's seal and open steps (HMAC pads, frame cap)
        self.frames = wire.FrameCodec(self.key)
        self.store = SessionStore(state_dir) if state_dir is not None else None
        max_queue = _resolve_knob(
            max_queue, MAX_QUEUE_ENV, DEFAULT_MAX_QUEUE,
            parser=lambda env: config.env_int(env, minimum=1),
        )
        degrade_depth = _resolve_knob(
            degrade_depth, DEGRADE_DEPTH_ENV, DEFAULT_DEGRADE_DEPTH,
            parser=lambda env: config.env_int(env, minimum=1),
        )
        max_batch = _resolve_knob(
            max_batch, MAX_BATCH_ENV, DEFAULT_MAX_BATCH,
            parser=lambda env: config.env_int(env, minimum=1),
        )
        #: default per-request decode budget in seconds (``None`` =
        #: unlimited); a request's explicit deadline always wins
        self.default_deadline = _resolve_knob(
            default_deadline, DEADLINE_ENV, None,
            parser=lambda env: config.env_float(env, positive=True),
        )
        self.batcher = DecodeBatcher(
            max_queue=max_queue,
            degrade_depth=min(degrade_depth, max_queue),
            max_batch=max_batch,
        )
        self.sessions: dict = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._ready = False
        self.counters = {"requests": 0, "errors": 0, "connections": 0}

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Load durable sessions, start the batcher, bind the port."""
        if self.store is not None:
            self.sessions = self.store.load_all()
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.port = port
        self._ready = True
        return host, port

    async def stop(self) -> None:
        self._ready = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling --------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        try:
            if not await wire.server_handshake(reader, writer, self.frames):
                return
            while True:
                try:
                    frame = await wire.read_frame(reader, self.frames)
                except (wire.ProtocolError, EOFError):
                    return  # protocol violation: drop the connection
                if frame is None:
                    return
                response = await self._safe_dispatch(*frame)
                await wire.write_frame(
                    writer, self.frames, *wire.pack_response(response)
                )
        except (ConnectionError, OSError):
            pass  # client vanished; its session state is unaffected
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _safe_dispatch(self, request: dict, payload=b"") -> dict:
        """Answer one request header (plus its raw arrays, ``payload``)."""
        self.counters["requests"] += 1
        try:
            response = await self._dispatch(request, payload)
            response["ok"] = True
            return response
        except ServiceError as exc:
            self.counters["errors"] += 1
            return {"ok": False, "error": exc.to_wire()}
        except Exception as exc:  # never leak a traceback as a hang
            self.counters["errors"] += 1
            wrapped = InternalError(f"{type(exc).__name__}: {exc}")
            return {"ok": False, "error": wrapped.to_wire()}

    # -- request dispatch -----------------------------------------------

    async def _dispatch(self, request: dict, payload) -> dict:
        op = request.get("op")
        if op == "healthz":
            return {"status": "alive"}
        if op == "readyz":
            return {
                "ready": self._ready,
                "sessions": len(self.sessions),
                "queue_depth": self.batcher.depth,
            }
        if op == "stats":
            return {
                "sessions": len(self.sessions),
                "queue_depth": self.batcher.depth,
                **self.counters,
                **self.batcher.counters,
            }
        if op == "open_session":
            return self._open_session(request, payload)
        if op == "ingest":
            return self._ingest(request, payload)
        if op == "decode":
            return await self._decode(request)
        if op == "status":
            session = self._session(request)
            return {
                "session_id": session.session_id,
                "n": session.n,
                "k": session.k,
                "m": session.m,
            }
        raise InvalidRequest(f"unknown op {op!r}")

    def _session(self, request: dict) -> Session:
        session_id = _id_field(request, "session_id")
        session = self.sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"no session {session_id!r} on this server")
        return session

    def _open_session(self, request: dict, payload) -> dict:
        session_id = _id_field(request, "session_id")
        try:
            params = SessionParams.create(
                request["n"],
                request.get("gamma"),
                request["channel"],
                request.get("centering", "half_k"),
            )
        except KeyError as exc:
            raise InvalidRequest(f"open_session missing {exc.args[0]!r}") from None
        sigma = np.frombuffer(payload, dtype="<i1").copy()
        existing = self.sessions.get(session_id)
        if existing is not None:
            # Idempotent reopen (client retry / reconnect) — but only
            # for the *same* session definition.
            same = existing.params == params and np.array_equal(
                existing.truth.sigma, sigma
            )
            if not same:
                raise SessionConflict(
                    f"session {session_id!r} already exists with "
                    "different parameters"
                )
            if self.store is not None:
                # Writes the log only if the first open's save failed.
                self.store.save(existing)
            return {"session_id": session_id, "m": existing.m, "resumed": True}
        session = Session(session_id, params, sigma)
        self.sessions[session_id] = session
        if self.store is not None:
            self.store.save(session)
        return {"session_id": session_id, "m": 0, "resumed": False}

    def _ingest(self, request: dict, payload) -> dict:
        session = self._session(request)
        request_id = _id_field(request, "request_id")
        try:
            block = wire.ingest_arrays(request, payload)
        except ValueError as exc:
            raise InvalidRequest(f"malformed ingest: {exc}") from None
        replay = request_id in session.applied
        m = session.ingest(request_id, *block)
        if self.store is not None:
            # Write-ahead: persist before the ack, so an acked ingest
            # survives a SIGKILL. A retransmit saves too: it appends
            # nothing, unless the first attempt's save failed.
            self.store.save(session)
        return {"session_id": session.session_id, "m": m, "replayed": replay}

    async def _decode(self, request: dict) -> dict:
        session = self._session(request)
        algorithm = str(request.get("algorithm", "amp"))
        if algorithm not in ("amp", "greedy"):
            raise InvalidRequest(
                f"unknown algorithm {algorithm!r}; valid: ('amp', 'greedy')"
            )
        m = _decode_m(request.get("m"), session.m)
        # An absent or null deadline means "the server's default": the
        # client sends ``"deadline": None`` unless the caller set one.
        requested = request.get("deadline")
        budget = _deadline_budget(
            self.default_deadline if requested is None else requested
        )
        return_scores = _return_scores(request.get("return_scores", False))
        if algorithm == "greedy":
            # The running scores certify the current prefix only.
            if m != session.m:
                raise InvalidRequest(
                    f"greedy decode answers only the session's current "
                    f"m={session.m}, got m={m}"
                )
            return session.greedy_response()
        if m < 1:
            raise InvalidRequest(
                f"AMP decode requires at least one query, session has m={m}"
            )
        if m > session.m:
            raise InvalidRequest(
                f"decode at m={m} exceeds the session's {session.m} queries"
            )
        deadline = None
        if budget is not None:
            deadline = asyncio.get_running_loop().time() + budget
        return await self.batcher.submit(
            session, m, deadline=deadline, return_scores=return_scores
        )


def _id_field(request: dict, name: str) -> str:
    """A session or request id: a non-empty string, never coerced."""
    value = request.get(name)
    if not isinstance(value, str) or not value:
        raise InvalidRequest(
            f"{name} must be a non-empty string, got {value!r}"
        )
    return value


def _decode_m(value, session_m: int) -> int:
    """A decode's prefix length: the whole session, or an integer."""
    if value is None:
        return session_m
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidRequest(f"m must be an integer, got {value!r}")
    return int(value)


def _return_scores(value) -> bool:
    """A decode's ``return_scores``: a real bool, never a truthy value."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidRequest(f"return_scores must be a bool, got {value!r}")
    return bool(value)


def _deadline_budget(value) -> Optional[float]:
    """A decode's deadline budget in seconds: ``None`` or a number > 0.

    NaN is rejected, as ``REPRO_SERVICE_DEADLINE`` rejects it: it
    compares false against every bound, so it would never expire.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not value > 0
    ):
        raise InvalidRequest(f"deadline must be a number > 0 s, got {value!r}")
    return float(value)


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    state_dir=None,
    *,
    token=None,
    ready: Optional[Callable[[str, int], None]] = None,
    **knobs,
) -> None:
    """Run a decode server until cancelled (the ``repro serve`` entry).

    ``ready(host, port)`` fires once the port is bound — with
    ``port=0`` this is how callers learn the ephemeral port.
    """

    async def _main() -> None:
        service = DecodeService(
            host, port, state_dir, token=token, **knobs
        )
        bound_host, bound_port = await service.start()
        if ready is not None:
            ready(bound_host, bound_port)
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    asyncio.run(_main())


__all__ = [
    "MAX_QUEUE_ENV",
    "DEGRADE_DEPTH_ENV",
    "MAX_BATCH_ENV",
    "DEADLINE_ENV",
    "DEFAULT_PORT",
    "DecodeService",
    "serve",
]
