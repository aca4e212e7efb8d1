"""Structured error taxonomy of the online decode service.

Every failure the server reports crosses the wire as a ``{"code",
"message", "retryable"}`` dict, and the client rehydrates it into the
matching exception class — so both sides agree, by construction, on
the one question that matters to a caller: *is retrying this request
ever going to help?* Retryable errors (``overloaded``,
``deadline_exceeded``) are transient server state: back off and
retry. The others are terminal; ``internal`` too, because blind
retries of a bug are worse than surfacing it.

Clean shedding is the point of the taxonomy: an overloaded or
deadline-blown request is *answered* — with a machine-readable reason —
never silently dropped or left hanging.
"""

from __future__ import annotations

from typing import Dict, Type


class ServiceError(Exception):
    """Base class of every structured service failure."""

    code = "internal"
    retryable = False

    def to_wire(self) -> dict:
        """The wire form: ``{"code", "message", "retryable"}``."""
        return {
            "code": self.code,
            "message": str(self),
            "retryable": self.retryable,
        }


class Overloaded(ServiceError):
    """The decode queue is full; the request was shed at admission."""

    code = "overloaded"
    retryable = True


class DeadlineExceeded(ServiceError):
    """The request's deadline expired before a result was produced."""

    code = "deadline_exceeded"
    retryable = True


class InvalidRequest(ServiceError):
    """Malformed or inconsistent request payload."""

    code = "invalid_request"
    retryable = False


class UnknownSession(ServiceError):
    """The named session does not exist on this server."""

    code = "unknown_session"
    retryable = False


class SessionConflict(ServiceError):
    """A session id was re-opened with different parameters."""

    code = "session_conflict"
    retryable = False


class InternalError(ServiceError):
    """An unexpected server-side failure (reported, never retried)."""

    code = "internal"
    retryable = False


_BY_CODE: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (
        Overloaded,
        DeadlineExceeded,
        InvalidRequest,
        UnknownSession,
        SessionConflict,
        InternalError,
    )
}


def error_from_wire(payload: dict) -> ServiceError:
    """Rehydrate a wire error dict into its exception class.

    Unknown codes (a newer server) fall back to a generic
    :class:`ServiceError` carrying the announced ``retryable`` bit, so
    an old client still honors a new error's retry semantics.
    """
    code = str(payload.get("code", "internal"))
    message = str(payload.get("message", ""))
    cls = _BY_CODE.get(code)
    if cls is not None:
        return cls(message)
    err = ServiceError(message)
    err.code = code
    err.retryable = bool(payload.get("retryable", False))
    return err


__all__ = [
    "ServiceError",
    "Overloaded",
    "DeadlineExceeded",
    "InvalidRequest",
    "UnknownSession",
    "SessionConflict",
    "InternalError",
    "error_from_wire",
]
