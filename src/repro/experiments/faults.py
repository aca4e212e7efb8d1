"""Deterministic fault injection for the socket sweep backend.

:class:`FaultyWorkerProxy` is a frame-level TCP relay that sits
between a :class:`~repro.experiments.scheduler.SweepExecutor` and a
real worker and misbehaves on command: it can drop the connection
after N chunk replies (a worker crash), swallow every worker-to-driver
frame while keeping the connection open (a wedged worker — the
scenario only application-level heartbeats can detect), delay chunk
replies (a straggler, for exercising speculative re-dispatch), corrupt
a single reply frame (tag verification must reject it before
unpickling), or corrupt the driver's first frame (an
unauthenticated peer — the worker must drop the connection without
unpickling anything).

The proxy never interprets more of the wire format than it has to: it
relays raw ``header | tag | payload`` frames and unpickles payloads
*only* to classify worker replies as chunk results (``ok`` / ``err``)
versus handshake/heartbeat traffic — it lives in the test harness, on
the same trust domain as the worker whose pickles it reads. Every
recovery path in the elastic executor is driven by these faults in
``tests/test_elastic.py`` and the chaos smoke, deterministically,
instead of being described and hoped for.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.experiments.worker import _HEADER, _TAG_SIZE, _recv_exact


def _read_raw_frame(conn: socket.socket) -> Optional[tuple]:
    """Read one raw frame as ``(header, tag, payload)``; None on EOF."""
    header = _recv_exact(conn, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    tag = _recv_exact(conn, _TAG_SIZE)
    if tag is None:
        return None
    payload = _recv_exact(conn, length)
    if payload is None:
        return None
    return header, tag, payload


def _is_chunk_reply(payload: bytes) -> bool:
    """Whether a worker-to-driver payload is a chunk result frame."""
    import pickle

    try:
        obj = pickle.loads(payload)
    except Exception:
        return False
    return isinstance(obj, tuple) and bool(obj) and obj[0] in ("ok", "err")


def _flip_byte(data: bytes) -> bytes:
    """Corrupt ``data`` by flipping one bit of its middle byte."""
    index = len(data) // 2
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def _drop(conn: socket.socket) -> None:
    """Tear a relayed connection down *now*: shutdown, then close.

    A bare ``close()`` is not enough here — the sibling relay thread
    is usually blocked in ``recv()`` on the same socket, whose
    in-flight syscall keeps the open file description alive, so no FIN
    reaches the peer until that recv returns (i.e. never). ``shutdown``
    acts on the connection itself: it sends the FIN immediately and
    wakes the blocked recv with EOF.
    """
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:
        pass


class FaultyWorkerProxy:
    """A TCP relay in front of one worker that fails on command.

    Parameters
    ----------
    upstream:
        ``"host:port"`` of the real worker to relay to.
    kill_after_chunks:
        Relay this many chunk replies, then drop both connections and
        stop listening — from the driver's side the worker crashed and
        its address now refuses connections.
    freeze_after_chunks:
        Relay this many chunk replies, then swallow every further
        worker-to-driver frame *on that connection* while leaving it
        open — a wedged worker that TCP alone cannot distinguish from
        a slow one (the heartbeat-timeout scenario). A reconnect gets
        a fresh, working relay, as if the wedged process had been
        restarted, so the executor's timeout-then-reconnect recovery
        completes the sweep.
    delay_reply:
        Sleep this many seconds before relaying each chunk reply — a
        straggler (handshake and heartbeat frames pass undelayed, so
        the worker stays *live*, just slow). :meth:`stop` cuts the
        sleep short and drops the held reply.
    corrupt_reply_index:
        Flip one payload bit of the Nth (0-based) chunk reply — the
        driver's tag verification must reject the frame before
        unpickling and recover by requeue + reconnect.
    corrupt_first_frame:
        Flip one payload bit of the driver's first frame (the hello) —
        the worker must treat the peer as unauthenticated and drop the
        connection without unpickling anything.

    Counters are proxy-global, not per-connection, so faults fire once
    per proxy regardless of how many times the driver reconnects.
    """

    def __init__(
        self,
        upstream: str,
        *,
        kill_after_chunks: Optional[int] = None,
        freeze_after_chunks: Optional[int] = None,
        delay_reply: float = 0.0,
        corrupt_reply_index: Optional[int] = None,
        corrupt_first_frame: bool = False,
    ) -> None:
        host, _, port = upstream.rpartition(":")
        self.upstream = (host, int(port))
        self.kill_after_chunks = kill_after_chunks
        self.freeze_after_chunks = freeze_after_chunks
        self.delay_reply = delay_reply
        self.corrupt_reply_index = corrupt_reply_index
        self.corrupt_first_frame = corrupt_first_frame
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self.chunks_relayed = 0
        self._listener: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._frozen = threading.Event()
        self._lock = threading.Lock()
        self._threads: list = []
        self._conns: list = []

    # ---- lifecycle ----

    def start(self) -> "FaultyWorkerProxy":
        """Bind an ephemeral port and start accepting driver connections."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen()
        self._listener = listener
        self.port = listener.getsockname()[1]
        thread = threading.Thread(target=self._accept_loop, daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop listening and drop every relayed connection."""
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            _drop(conn)

    @property
    def address(self) -> str:
        """The ``"host:port"`` string drivers should connect to."""
        return f"{self.host}:{self.port}"

    # ---- relay ----

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                driver_conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            try:
                worker_conn = socket.create_connection(
                    self.upstream, timeout=10.0
                )
            except OSError:
                driver_conn.close()
                continue
            with self._lock:
                self._conns.extend([driver_conn, worker_conn])
            for target, args in (
                (self._relay_to_worker, (driver_conn, worker_conn)),
                (self._relay_to_driver, (worker_conn, driver_conn)),
            ):
                thread = threading.Thread(
                    target=target, args=args, daemon=True
                )
                thread.start()
                self._threads.append(thread)

    def _relay_to_worker(self, driver_conn, worker_conn) -> None:
        first = True
        try:
            while not self._stop.is_set():
                frame = _read_raw_frame(driver_conn)
                if frame is None:
                    break
                header, tag, payload = frame
                if first and self.corrupt_first_frame:
                    payload = _flip_byte(payload)
                first = False
                worker_conn.sendall(header + tag + payload)
        except OSError:
            pass
        finally:
            # Half the relay dying takes the whole conversation with
            # it — a torn TCP stream cannot be resynchronized anyway.
            _drop(driver_conn)
            _drop(worker_conn)

    def _relay_to_driver(self, worker_conn, driver_conn) -> None:
        frozen = False
        try:
            while not self._stop.is_set():
                frame = _read_raw_frame(worker_conn)
                if frame is None:
                    break
                header, tag, payload = frame
                if frozen:
                    continue  # wedged: swallow, keep the socket open
                if not _is_chunk_reply(payload):
                    driver_conn.sendall(header + tag + payload)
                    continue
                with self._lock:
                    index = self.chunks_relayed
                    self.chunks_relayed += 1
                if self.corrupt_reply_index == index:
                    payload = _flip_byte(payload)
                if self.delay_reply and self._stop.wait(self.delay_reply):
                    break  # stopped while holding the reply back
                driver_conn.sendall(header + tag + payload)
                if (
                    self.kill_after_chunks is not None
                    and self.chunks_relayed >= self.kill_after_chunks
                ):
                    self.stop()  # crash: drop conns, refuse reconnects
                    return
                if (
                    self.freeze_after_chunks is not None
                    and self.chunks_relayed >= self.freeze_after_chunks
                    and not self._frozen.is_set()
                ):
                    frozen = True
                    self._frozen.set()  # fire once; observable in tests
        except OSError:
            pass
        finally:
            if not frozen:
                _drop(driver_conn)
                _drop(worker_conn)


__all__ = ["FaultyWorkerProxy"]
