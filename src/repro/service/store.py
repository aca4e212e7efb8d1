"""Durable session storage for the online decode service.

Each session is one append-only log under the server's state
directory, ``<sha256 hex of the session id's UTF-8 bytes>.session.log``.
The name is 64 hex digits whatever the id's length, so no id exceeds
the file system's name limit or escapes the directory. The open frame
stores the id itself, and a log whose id does not hash to its own name
is not loaded, so two ids never share a session. A log is a sequence
of frames::

    4-byte LE body length | 4-byte LE CRC32 of the body | body

and every body is the wire's (:mod:`repro.service.wire`): a 4-byte LE
header length, a JSON header, then raw little-endian arrays:

* the **open frame** (always first): header ``{"version": 2,
  "session_id", "n", "gamma", "channel", "centering"}``, then sigma as
  ``n`` int8 bytes;
* one **ingest frame** per acknowledged ingest: header
  ``{"request_id", "queries": b}``, then the arrays of a wire
  ``ingest`` (:func:`~repro.service.wire.ingest_parts`), the ingest's
  local CSR as int64 and its ``b`` results as float64.

:meth:`SessionStore.save` appends only the frames a session gained
since its last save, so persisting an ingest costs O(ingest), not
O(session). A session the store has not logged yet (a new session,
or a converted one) is written whole, to a sibling temp file renamed
into place.

Durability promise: the server saves a session *before* acknowledging
the request that changed it, and a save returns only after its bytes
are written and flushed to the operating system (the file is closed).
An acked ingest therefore survives a SIGKILL of the server; there is
no ``fsync``, so it does not survive a power loss or a kernel crash.
At worst an *unacked* tail is lost, and the client's idempotent retry
re-delivers it.

Recovery (:meth:`SessionStore.load_all`) replays the frames in order
through the session's own ingest path, so the restored state is
bit-identical to the state at the last acked ingest, and it rebuilds
the ``applied`` idempotency map from the frames' request ids. A log
whose open frame is torn or garbled is skipped with a logged warning
and left on disk. A later frame cut short or failing its CRC (a torn
or garbled tail) ends the replay: the log is truncated to its intact
prefix with a logged warning, so a frame is applied whole or not at
all. A frame that passes its CRC but fails to replay (a header or
queries the ingest checks reject) is not damage a crash can cause: the
session is skipped with a warning and its log left as it is.

Version-1 records (one JSON file per session, ``<escaped id>.session
.json``, rewritten whole on every save) are converted once on load:
the log is written, then the JSON file removed. A v1 record that
fails the ingest checks, or whose log cannot be written, is skipped
with a warning and left on disk.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.service.errors import InvalidRequest
from repro.service.session import Session, SessionParams
from repro.service.wire import (
    ingest_arrays,
    ingest_parts,
    pack_body,
    parse_body,
)
from repro.utils.jsonio import load_json, write_bytes_atomic

#: frame prefix: body length, CRC32 of the body
_FRAME = struct.Struct("<II")
#: the log layout written by this module (v1 was the JSON record)
LOG_VERSION = 2

_log = logging.getLogger(__name__)


def _frame(header: dict, *arrays: np.ndarray) -> bytes:
    body = pack_body(header, *arrays)
    return _FRAME.pack(len(body), zlib.crc32(body)) + body


def _open_frame(session: Session) -> bytes:
    params = session.params
    return _frame(
        {
            "version": LOG_VERSION,
            "session_id": session.session_id,
            "n": params.n,
            "gamma": params.gamma,
            "channel": dict(params.channel_spec),
            "centering": params.centering,
        },
        session.truth.sigma.astype("<i1"),
    )


def _ingest_frame(request_id: Optional[str], block) -> bytes:
    header, arrays = ingest_parts({"request_id": request_id}, *block)
    return _frame(header, *arrays)


def _rows(session: Session, lo: int, hi: int):
    """Queries ``[lo, hi)`` of a session as a local CSR block.

    A live ingest is the session's last applied block, so appending it
    copies only the ingest; any other range is sliced from the stream.
    """
    last = session.last_block
    if last is not None and last[0] == lo and lo + len(last[1][3]) == hi:
        return last[1]
    indptr, agents, counts, results = session.stream.prefix(hi)
    start = int(indptr[lo])
    return indptr[lo:] - start, agents[start:], counts[start:], results[lo:]


def _ingest_frames(session: Session, logged_m: int, logged_applied: int) -> bytes:
    """The ingest frames a session gained since ``(logged_m, logged_applied)``.

    One frame per new applied-map entry, in stream order, each holding
    the queries up to that entry's stream length; queries no entry
    covers (possible only in a converted v1 record) get a frame with
    no request id.
    """
    new = len(session.applied) - logged_applied
    gained = list(itertools.islice(reversed(session.applied.items()), new))
    frames, cursor = [], logged_m
    for request_id, m in sorted(gained, key=lambda item: item[1]):
        frames.append(_ingest_frame(request_id, _rows(session, cursor, m)))
        cursor = m
    if cursor < session.m:
        frames.append(_ingest_frame(None, _rows(session, cursor, session.m)))
    return b"".join(frames)


def _read_frames(data: bytes):
    """Yield ``(body, end offset)`` for each intact frame, in order.

    Stops at the first frame that is cut short or fails its CRC;
    ``end offset`` of the last yielded frame is the intact prefix.
    """
    offset = 0
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return
        length, crc = _FRAME.unpack_from(data, offset)
        start, end = offset + _FRAME.size, offset + _FRAME.size + length
        if end > len(data):
            return
        body = data[start:end]
        if zlib.crc32(body) != crc:
            return
        yield body, end
        offset = end


def _open_session(body: bytes) -> Session:
    header, payload = parse_body(body)
    if header["version"] != LOG_VERSION:
        raise ValueError(f"unknown log version {header['version']!r}")
    params = SessionParams.create(
        header["n"], header["gamma"], header["channel"], header["centering"]
    )
    sigma = np.frombuffer(payload, dtype="<i1").copy()
    return Session(str(header["session_id"]), params, sigma)


def _replay_ingest(session: Session, body: bytes) -> None:
    header, payload = parse_body(body)
    request_id = header["request_id"]
    if not (request_id is None or isinstance(request_id, str)):
        raise ValueError(f"bad request id {request_id!r}")
    session.ingest(request_id, *ingest_arrays(header, payload))


def _append(path: Path, data: bytes) -> None:
    """Append ``data`` whole, or cut the log back to its old length."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        size = os.fstat(fd).st_size
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        except BaseException:
            os.ftruncate(fd, size)
            raise
    finally:
        os.close(fd)


#: what a garbled frame that passed its CRC can raise while replaying
_BAD_FRAME = (
    InvalidRequest, KeyError, TypeError, ValueError, OverflowError,
    struct.error,
)


class SessionStore:
    """Directory of durable session logs."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: session id -> (session object, queries logged, applied
        #: entries logged): what the session's log already holds
        self._logged: Dict[str, Tuple[Session, int, int]] = {}

    def _path(self, session_id: str) -> Path:
        """The log file holding ``session_id``."""
        digest = hashlib.sha256(session_id.encode("utf-8", "surrogatepass"))
        return self.root / f"{digest.hexdigest()}.session.log"

    def _v1_path(self, session_id: str) -> Path:
        """Where a version-1 store kept ``session_id``'s JSON record.

        Letters, digits and "-_." stayed as they were; every other
        character became "%XX" per UTF-8 byte.
        """
        stem = "".join(
            ch
            if ch.isalnum() or ch in "-_."
            else "".join(
                f"%{byte:02X}"
                for byte in ch.encode("utf-8", "surrogatepass")
            )
            for ch in session_id
        )
        return self.root / f"{stem}.session.json"

    def save(self, session: Session) -> None:
        """Persist what ``session`` gained since its last save.

        Appends the new ingest frames (nothing when nothing was gained)
        and returns once they are flushed to the OS. A session this
        store has not logged is written whole and renamed into place.
        A failed append is cut back off, so the log stays a sequence of
        whole frames and the next save retries the same frames.
        """
        path = self._path(session.session_id)
        logged = self._logged.get(session.session_id)
        if logged is None or logged[0] is not session:
            write_bytes_atomic(
                path, _open_frame(session) + _ingest_frames(session, 0, 0)
            )
        else:
            frames = _ingest_frames(session, logged[1], logged[2])
            if frames:
                _append(path, frames)
        self._logged[session.session_id] = (
            session, session.m, len(session.applied)
        )

    def delete(self, session_id: str) -> None:
        self._logged.pop(session_id, None)
        path = self._path(session_id)
        if path.exists():
            path.unlink()

    def load_all(self) -> Dict[str, Session]:
        """Rebuild every stored session (server start / restart).

        Version-1 JSON records are converted to logs first. Then every
        log is replayed (see the module notes): a log whose open frame
        is broken, or one of whose intact frames fails to replay, is
        skipped with a warning and left on disk, a torn or garbled
        later frame truncates the log to its intact prefix with a
        warning, and a log whose session id does not hash to its own
        file name is not that file's session and is neither loaded nor
        touched.
        Leftover ``*.tmp`` files of an interrupted whole-log write are
        ignored: the rename never happened.
        """
        for path in sorted(self.root.glob("*.session.json")):
            self._convert_v1(path)
        sessions: Dict[str, Session] = {}
        for path in sorted(self.root.glob("*.session.log")):
            session = self._replay(path)
            if session is None:
                continue
            sessions[session.session_id] = session
            self._logged[session.session_id] = (
                session, session.m, len(session.applied)
            )
        return sessions

    def _convert_v1(self, path: Path) -> None:
        """Write a v1 JSON record as a log, then remove the record.

        A record that is not complete JSON, lacks a key, holds a value
        of the wrong type, or whose queries fail the ingest checks (a
        non-finite result or a repeated agent id, which older servers
        accepted) is skipped with a warning and left on disk, and so is
        a record whose session id does not encode to its own v1 file
        name (an older store wrote ``"a/b"`` and ``"a_b"`` to one file,
        whichever saved last), silently. A record whose log cannot be
        written is skipped with a warning and left on disk too, so one
        record never stops the others loading. A record whose log
        already exists was converted by an earlier start that could not
        remove it; the log is at least as new, so only the record is
        removed.
        """
        try:
            session = Session.from_record(load_json(path))
        except (InvalidRequest, KeyError, TypeError, ValueError) as exc:
            _log.warning("skipping session record %s: %s", path.name, exc)
            return
        if self._v1_path(session.session_id).name != path.name:
            return
        try:
            if not self._path(session.session_id).exists():
                self.save(session)
            path.unlink()
        except OSError as exc:
            _log.warning("cannot convert session record %s: %s", path.name, exc)

    def _replay(self, path: Path) -> Optional[Session]:
        data = path.read_bytes()
        frames = _read_frames(data)
        try:
            body, good_end = next(frames)
            session = _open_session(body)
        except (StopIteration,) + _BAD_FRAME as exc:
            _log.warning(
                "skipping session log %s: broken open frame (%s)",
                path.name, str(exc) or "torn or garbled",
            )
            return None
        if self._path(session.session_id).name != path.name:
            return None
        try:
            for body, end in frames:
                _replay_ingest(session, body)
                good_end = end
        except _BAD_FRAME as exc:
            _log.warning(
                "skipping session log %s: an intact frame fails to "
                "replay (%s: %s)", path.name, type(exc).__name__, exc,
            )
            return None
        if good_end < len(data):
            _log.warning(
                "truncating session log %s to its %d intact bytes "
                "(dropped a torn or garbled tail of %d bytes)",
                path.name, good_end, len(data) - good_end,
            )
            os.truncate(path, good_end)
        return session


__all__ = ["LOG_VERSION", "SessionStore"]
