"""Durable session storage for the online decode service.

One JSON file per session under the server's state directory, written
through :func:`repro.utils.jsonio.save_json_atomic` — the
write-to-temp-then-``os.replace`` primitive the sweep checkpoint layer
already trusts. A reader therefore sees either the previous complete
record or the new complete record, never a torn write, which is what
lets a SIGKILLed server restart and resume every session bit-
identically (:meth:`repro.service.session.Session.from_record`).

Write-ahead discipline: the server persists a session *before*
acknowledging the ingest that changed it, so any measurement a client
saw acked survives the crash; at worst an *unacked* tail is lost, and
the client's idempotent retry re-delivers it.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Dict

from repro.service.errors import InvalidRequest
from repro.service.session import Session
from repro.utils.jsonio import load_json, save_json_atomic


class SessionStore:
    """Directory of durable session records."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, session_id: str) -> Path:
        # Session ids are client-chosen. Letters, digits and "-_." stay
        # as they are; every other character becomes "%XX" per UTF-8
        # byte. No id can escape the state directory (no separator
        # survives), and since "%" is escaped too, two ids never share
        # a file.
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
        """Persist one session atomically (write-then-rename)."""
        save_json_atomic(self._path(session.session_id), session.record())

    def delete(self, session_id: str) -> None:
        path = self._path(session_id)
        if path.exists():
            path.unlink()

    def load_all(self) -> Dict[str, Session]:
        """Rebuild every stored session (server start / restart).

        Records are replayed through :meth:`Session.from_record`, so
        the restored in-memory state is bit-identical to the state at
        the last acknowledged ingest. Leftover ``*.tmp`` files from an
        interrupted atomic write are ignored (the rename never
        happened, so the previous complete record is still in place).
        So is a record whose ``session_id`` does not encode to its own
        file name: it is not that file's session (an older store wrote
        ``"a/b"`` and ``"a_b"`` to one file, whichever saved last).

        A record that cannot be read back is skipped with a logged
        warning and left on disk untouched: one that is not complete
        JSON, lacks a key or holds a value of the wrong type, and one
        whose queries fail the ingest checks (a non-finite result or a
        repeated agent id, which older servers accepted). One bad
        record must not keep every other session from loading, and no
        decode may read queries a live ingest would reject.
        """
        sessions: Dict[str, Session] = {}
        for path in sorted(self.root.glob("*.session.json")):
            try:
                session = Session.from_record(load_json(path))
            except (InvalidRequest, KeyError, TypeError, ValueError) as exc:
                logging.getLogger(__name__).warning(
                    "skipping session record %s: %s", path.name, exc
                )
                continue
            if self._path(session.session_id).name != path.name:
                continue
            sessions[session.session_id] = session
        return sessions


__all__ = ["SessionStore"]
