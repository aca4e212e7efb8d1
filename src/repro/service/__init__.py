"""Resilient online decode service (PR 10).

The serving layer of the ROADMAP's "millions of users" north star:
a long-lived asyncio server (``repro serve``) keeps one incremental
decode session per client and micro-batches concurrent sessions' AMP
decode requests into single ragged block-diagonal ``iterate_amp``
calls — batching *across users, not trials* — while staying
bit-identical to standalone decodes. Robustness is the design center:
admission control with explicit load shedding, graceful degradation
to the greedy scorer under overload, per-request deadlines, durable
crash-recoverable append-only session logs, idempotent retrying clients, and
liveness/readiness probes. See the ROADMAP's "Online decode service
contract (PR 10)" section for the full contract.
"""

from repro.service.batcher import DecodeBatcher
from repro.service.client import ServiceClient
from repro.service.errors import (
    DeadlineExceeded,
    InternalError,
    InvalidRequest,
    Overloaded,
    ServiceError,
    SessionConflict,
    UnknownSession,
    error_from_wire,
)
from repro.service.server import DEFAULT_PORT, DecodeService, serve
from repro.service.session import Session, SessionParams, channel_to_spec
from repro.service.store import SessionStore

__all__ = [
    "DecodeBatcher",
    "ServiceClient",
    "ServiceError",
    "Overloaded",
    "DeadlineExceeded",
    "InvalidRequest",
    "UnknownSession",
    "SessionConflict",
    "InternalError",
    "error_from_wire",
    "DecodeService",
    "DEFAULT_PORT",
    "serve",
    "Session",
    "SessionParams",
    "channel_to_spec",
    "SessionStore",
]
