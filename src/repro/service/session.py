"""Server-side session state of the online decode service.

A session is one client's incremental-query run of the paper's
procedure: the client streams measured pooled queries in, and the
server accumulates them in two synchronized consumers —

* a :class:`~repro.core.batch.QueryStream` (the prefix-replayable
  CSR stream the ragged AMP request batching decodes), and
* an :class:`~repro.core.incremental.IncrementalDecoder` (Algorithm
  1's running greedy scores — the O(n) certificate and the overload
  fallback).

The ground truth ``sigma`` travels with ``open_session``: in this
reproduction setting the client *is* the simulator, and the server
certifies exact reconstruction / strict score separation on its
behalf, exactly like the paper's required-queries stopping rule.

Recovery contract: a session is rebuilt by re-ingesting its queries
*in the original order* through both consumers. Per-query ingestion
re-runs the identical float accumulations, so a restored session is
bit-for-bit the uninterrupted one. The store
(:mod:`repro.service.store`) logs one frame per acked ingest and
replays each through :meth:`Session.replay`, which also rebuilds the
ingest idempotency map. :meth:`Session.from_record` reads the
version-1 layout (parameters, sigma, every query and the idempotency
map in one JSON dict), which the store reads only to convert old
state directories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import QueryStream
from repro.core.ground_truth import GroundTruth
from repro.core.incremental import IncrementalDecoder
from repro.core.noise import (
    Channel,
    GaussianQueryNoise,
    NoiselessChannel,
    NoisyChannel,
    ZChannel,
    make_channel,
)
from repro.core.pooling import default_gamma
from repro.core.scores import CENTERINGS
from repro.service.errors import InvalidRequest
from repro.utils.validation import check_positive_int


def channel_to_spec(channel: Channel) -> dict:
    """The JSON-able spec of a channel, invertible by :func:`make_channel`."""
    if isinstance(channel, ZChannel):
        return {"kind": "z", "p": float(channel.p)}
    if isinstance(channel, NoisyChannel):
        return {"kind": "channel", "p": float(channel.p), "q": float(channel.q)}
    if isinstance(channel, GaussianQueryNoise):
        return {"kind": "gaussian", "lam": float(channel.lam)}
    if isinstance(channel, NoiselessChannel):
        return {"kind": "noiseless"}
    raise InvalidRequest(
        f"channel {channel.describe()} has no wire spec"
    )


def channel_from_spec(spec: dict) -> Channel:
    """Rebuild a channel from its wire/record spec."""
    try:
        return make_channel(**{str(k): v for k, v in dict(spec).items()})
    except (TypeError, ValueError) as exc:
        raise InvalidRequest(f"bad channel spec {spec!r}: {exc}") from None


@dataclass(frozen=True)
class SessionParams:
    """The invariant parameters of one decode session."""

    n: int
    gamma: int
    channel_spec: Tuple[Tuple[str, float], ...]
    centering: str

    @classmethod
    def create(
        cls,
        n: int,
        gamma: Optional[int],
        channel_spec: dict,
        centering: str,
    ) -> "SessionParams":
        try:
            n = check_positive_int(n, "n")
            gamma = (
                default_gamma(n) if gamma is None
                else check_positive_int(gamma, "gamma")
            )
        except (TypeError, ValueError) as exc:
            raise InvalidRequest(str(exc)) from None
        if centering not in CENTERINGS:
            raise InvalidRequest(
                f"unknown centering {centering!r}; valid: {CENTERINGS}"
            )
        # Validate eagerly and store in canonical hashable form.
        channel_from_spec(channel_spec)
        canonical = tuple(sorted(
            (str(k), v) for k, v in dict(channel_spec).items()
        ))
        return cls(
            n=n, gamma=gamma, channel_spec=canonical, centering=centering
        )

    @property
    def channel(self) -> Channel:
        return channel_from_spec(dict(self.channel_spec))


class AMPResult(NamedTuple):
    """One completed AMP decode of a session prefix."""

    m: int
    exact: bool
    #: the session's own ``(n,)`` float64 copy, never a view of a batch
    scores: np.ndarray
    #: requests in the ragged stack that computed it
    batch_size: int


class Session:
    """One client's accumulated measurements plus decode state."""

    def __init__(
        self, session_id: str, params: SessionParams, sigma: Sequence[int]
    ):
        self.session_id = session_id
        self.params = params
        sigma = np.asarray(sigma, dtype=np.int8)
        if sigma.ndim != 1 or sigma.size != params.n:
            raise InvalidRequest(
                f"sigma must be a length-{params.n} bit vector, "
                f"got shape {sigma.shape}"
            )
        try:
            self.truth = GroundTruth(sigma)
        except ValueError as exc:
            raise InvalidRequest(str(exc)) from None
        self.channel = params.channel
        self.stream = QueryStream(params.n, params.gamma, self.truth)
        self.decoder = IncrementalDecoder(
            self.truth,
            self.channel,
            params.gamma,
            centering=params.centering,
        )
        #: ingest idempotency: request id -> stream length after that
        #: ingest was applied (persisted; a replayed frame is acked
        #: from here instead of double-appending)
        self.applied: Dict[str, int] = {}
        #: ``(stream length before, (indptr, agents, counts, results))``
        #: of the last applied block, so the store can log an ingest
        #: without reading the whole stream back
        self.last_block: Optional[Tuple[int, tuple]] = None
        #: the latest completed AMP decode, owned by
        #: :class:`~repro.service.batcher.DecodeBatcher` (in-memory
        #: only: the first decode after a restart recomputes it)
        self.amp_result: Optional[AMPResult] = None

    # -- properties -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.truth.k

    @property
    def m(self) -> int:
        return self.stream.m_done

    def cell_key(self) -> tuple:
        """The batching cell: sessions sharing it may stack one AMP call.

        Only the per-session prefix length ``m`` may vary inside a
        ragged stack; everything the standardized operator depends on
        must match.
        """
        return (
            self.params.n,
            self.k,
            self.params.gamma,
            self.params.channel_spec,
        )

    # -- ingest ---------------------------------------------------------

    def ingest(
        self,
        request_id: str,
        queries: Sequence[Tuple[Sequence[int], Sequence[int], float]],
    ) -> int:
        """Apply one ingest request; returns the stream length after it.

        All or nothing: every query is validated before any is applied
        (:meth:`QueryStream.append`), so a rejected request leaves the
        stream, the greedy decoder and the applied map as they were.
        Idempotent by ``request_id``: a retransmitted request (client
        retry after a lost ack) is acknowledged from the applied map
        without touching the stream.
        """
        if request_id in self.applied:
            return self.applied[request_id]
        if not isinstance(queries, (list, tuple)):
            raise InvalidRequest("queries must be a list of queries")
        indptr, agents, counts, results = [0], [], [], []
        for query in queries:
            try:
                a, c, result = query
                if len(a) != len(c):
                    raise ValueError("agents and counts differ in length")
                results.append(float(result))
            except (TypeError, ValueError) as exc:
                raise InvalidRequest(
                    f"each query must be (agents, counts, result): {exc}"
                ) from None
            agents.extend(a)
            counts.extend(c)
            indptr.append(len(agents))
        self._apply(indptr, agents, counts, results)
        self.applied[request_id] = self.stream.m_done
        return self.stream.m_done

    def replay(self, request_id, indptr, agents, counts, results) -> None:
        """Re-apply one logged ingest (store recovery).

        The same checks and accumulations as :meth:`ingest`, given the
        ingest's local CSR block; a non-``None`` ``request_id`` enters
        the applied map at the stream length after the block.
        """
        self._apply(indptr, agents, counts, results)
        if request_id is not None:
            self.applied[request_id] = self.stream.m_done

    def _apply(self, indptr, agents, counts, results) -> None:
        """Append a query block to the stream, then to the decoder."""
        m_before = self.stream.m_done
        try:
            indptr, agents, counts = (
                np.asarray(a, dtype=np.int64) for a in (indptr, agents, counts)
            )
            results = np.asarray(results, dtype=np.float64)
            self.stream.append(indptr, agents, counts, results)
        except (TypeError, ValueError) as exc:
            raise InvalidRequest(str(exc)) from None
        self.last_block = (m_before, (indptr, agents, counts, results))
        for i, result in enumerate(results):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            self.decoder.ingest_query(
                agents[lo:hi], counts[lo:hi], float(result)
            )

    # -- decode ---------------------------------------------------------

    def greedy_response(self, *, degraded: bool = False) -> dict:
        """Algorithm 1's certificate at the current prefix — O(n).

        The overload fallback and the ``algorithm="greedy"`` decode:
        running scores are already accumulated, so this never queues.
        """
        separation = self.decoder.separation()
        recon = self.decoder.reconstruction()
        return {
            "session_id": self.session_id,
            "algorithm": "greedy",
            "m": self.m,
            "exact": bool(recon.exact),
            "separated": bool(separation > 0.0),
            "separation": float(separation),
            "overlap": float(recon.overlap),
            "degraded": bool(degraded),
        }

    def snapshot_stream(self, m: int) -> QueryStream:
        """A frozen prefix view safe to decode off the event loop.

        Consolidation happens here (on the loop, where appends also
        happen); the returned stream aliases immutable consolidated
        arrays, so later appends can never race the decode thread.
        """
        return self.stream.snapshot(m)

    # -- durability -----------------------------------------------------

    @classmethod
    def from_record(cls, record: dict) -> "Session":
        """Rebuild a session by replaying its record in arrival order.

        The record's queries pass the checks of :meth:`ingest`, and its
        applied map points inside the stream; a record that fails them
        raises :class:`InvalidRequest`.
        """
        params = SessionParams.create(
            record["n"],
            record["gamma"],
            record["channel"],
            record["centering"],
        )
        session = cls(str(record["session_id"]), params, record["sigma"])
        if len(record["indptr"]) != int(record["m"]) + 1:
            raise InvalidRequest(
                f"record holds {len(record['indptr']) - 1} queries, "
                f"not m={record['m']}"
            )
        session._apply(
            record["indptr"], record["agents"], record["counts"],
            record["results"],
        )
        session.applied = {
            str(k): int(v) for k, v in dict(record["applied"]).items()
        }
        if not all(0 <= m <= session.m for m in session.applied.values()):
            raise InvalidRequest(
                f"record's applied map points outside its {session.m} queries"
            )
        return session


__all__ = [
    "channel_to_spec",
    "channel_from_spec",
    "SessionParams",
    "AMPResult",
    "Session",
]
