"""Micro-batching decode scheduler with deadlines, shedding, degradation.

Concurrent sessions' AMP decode requests land in one bounded queue;
a single scheduler task drains it in waves, groups compatible
requests by their batching cell (same ``(n, k, gamma, channel)`` —
only the prefix length ``m`` may vary inside a ragged stack), and
decodes each group with **one**
:func:`repro.amp.batch_amp.decode_prefix_batch` call — the PR 4
heterogeneous-m block-diagonal stacking, so a batched request's result
is bit-identical to a standalone ``run_amp`` on the same session
prefix and batching is invisible in every output.

Robustness ladder (admission control first, then per-request
deadlines):

1. queue at ``max_queue`` -> the request is **shed** at admission:
   answered immediately with a retryable ``overloaded`` error, never
   silently dropped or left queueing unboundedly;
2. backlog beyond ``degrade_depth`` when a wave forms -> the newest
   requests past that depth are **degraded**: answered from the
   session's running greedy scores (``degraded=True`` in the
   response) — O(n), no AMP — instead of waiting behind a full AMP
   wave. The oldest ``degrade_depth`` requests keep their AMP
   promise, so degradation sheds *latency*, not the whole queue;
3. admitted requests carry an optional deadline. A deadline that
   expires while the request is queued cancels it before any decode
   work; one that expires while its batch is decoding discards the
   result on completion (the decode thread itself cannot be
   interrupted mid-matvec, so past-budget work is thrown away rather
   than returned late). Either way the client gets a retryable
   ``deadline_exceeded`` error, never a hang.

The scheduler snapshots each session's prefix on the event loop
(:meth:`repro.service.session.Session.snapshot_stream`) before
handing the batch to a worker thread, so concurrent ingests can never
race an in-flight decode.

Result cache: a session's stream is append-only, so an AMP answer is
a pure function of the prefix length ``m``. Every completed AMP decode
(even one whose requester's deadline ran out during the decode)
replaces the session's one cached result
(:attr:`repro.service.session.Session.amp_result`), and :meth:`submit`
answers a request for that same ``m`` from it, before admission
control: a hit is never shed, degraded or expired, and never leaves
the event loop. Degraded answers and failed decodes never fill it.
Hits and misses build their responses with the same helper, so a hit
is byte-for-byte the answer of the decode that filled the entry,
``batch_size`` included.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.service.errors import DeadlineExceeded, Overloaded
from repro.service.session import AMPResult, Session

#: default bound on queued decode requests (admission control)
DEFAULT_MAX_QUEUE = 64

#: default queue depth at which AMP requests degrade to the greedy
#: fallback instead of queueing
DEFAULT_DEGRADE_DEPTH = 16

#: default cap on requests decoded in one ragged stack
DEFAULT_MAX_BATCH = 16


@dataclass
class _DecodeRequest:
    session: Session
    m: int
    deadline: Optional[float]  # absolute loop time, None = no budget
    return_scores: bool
    future: "asyncio.Future[dict]" = field(repr=False, default=None)


class DecodeBatcher:
    """The decode queue plus its single scheduler task."""

    def __init__(
        self,
        *,
        max_queue: int = DEFAULT_MAX_QUEUE,
        degrade_depth: int = DEFAULT_DEGRADE_DEPTH,
        max_batch: int = DEFAULT_MAX_BATCH,
    ):
        if not 1 <= degrade_depth <= max_queue:
            raise ValueError(
                "need 1 <= degrade_depth <= max_queue, got "
                f"degrade_depth={degrade_depth}, max_queue={max_queue}"
            )
        self.max_queue = max_queue
        self.degrade_depth = degrade_depth
        self.max_batch = max(1, max_batch)
        self._queue: Deque[_DecodeRequest] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._running = False
        #: observability counters, surfaced by the ``stats`` op
        self.counters: Dict[str, int] = {
            "decoded": 0,
            "shed": 0,
            "degraded": 0,
            "deadline_expired": 0,
            "batches": 0,
            "batched_requests": 0,
            "cache_hits": 0,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self._wakeup = asyncio.Event()
        self._running = True
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        self._running = False
        if self._wakeup is not None:
            self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        for request in self._queue:
            if not request.future.done():
                request.future.set_exception(
                    Overloaded("server shutting down")
                )
        self._queue.clear()

    @property
    def depth(self) -> int:
        return len(self._queue)

    # -- admission ------------------------------------------------------

    async def submit(
        self,
        session: Session,
        m: int,
        *,
        deadline: Optional[float] = None,
        return_scores: bool = False,
    ) -> dict:
        """Admit one AMP decode request and await its result.

        Answers from the session's cached result when its ``m``
        matches, otherwise applies the ladder described in the module
        docstring; raises :class:`Overloaded` / :class:`DeadlineExceeded`,
        or returns the response dict (possibly the degraded greedy
        fallback).
        """
        if not self._running:
            # Refusing is the robust answer: with no scheduler alive an
            # enqueued future would never resolve — a silent hang.
            raise Overloaded("decode scheduler is not running")
        # The key is m alone: the AMPConfig is fixed for the batcher's
        # lifetime, and a prefix never changes once ingested.
        cached = session.amp_result
        if cached is not None and cached.m == m:
            self.counters["cache_hits"] += 1
            return _amp_response(session, cached, return_scores)
        depth = len(self._queue)
        if depth >= self.max_queue:
            self.counters["shed"] += 1
            raise Overloaded(
                f"decode queue full ({depth}/{self.max_queue}); "
                "request shed — retry with backoff"
            )
        loop = asyncio.get_running_loop()
        request = _DecodeRequest(
            session=session,
            m=m,
            deadline=deadline,
            return_scores=return_scores,
            future=loop.create_future(),
        )
        self._queue.append(request)
        self._wakeup.set()
        return await request.future

    # -- scheduler ------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                if not self._running:
                    return
                self._wakeup.clear()
                # Wake on new work or on stop(); re-check both.
                await self._wakeup.wait()
                continue
            # Yield once so handlers whose frames are already parsed can
            # enqueue into this wave — that is where cross-session
            # batching comes from under concurrent load.
            await asyncio.sleep(0)
            self._degrade_backlog(loop)
            wave: List[_DecodeRequest] = []
            while self._queue and len(wave) < self.max_batch:
                wave.append(self._queue.popleft())
            await self._decode_wave(loop, wave)

    def _degrade_backlog(self, loop: asyncio.AbstractEventLoop) -> None:
        """Ladder rung 2: answer the over-deep backlog from greedy scores.

        Requests beyond ``degrade_depth`` would wait behind at least one
        full AMP wave; the newest of them (the oldest keep their AMP
        promise) are answered immediately from the session's running
        greedy scores, flagged ``degraded=True``.
        """
        now = loop.time()
        while len(self._queue) > self.degrade_depth:
            request = self._queue.pop()
            if self._expire(request, now, "while queued"):
                continue
            self.counters["degraded"] += 1
            if not request.future.done():
                request.future.set_result(
                    request.session.greedy_response(degraded=True)
                )

    def _expire(self, request: _DecodeRequest, now: float, when: str) -> bool:
        if request.deadline is not None and now > request.deadline:
            self.counters["deadline_expired"] += 1
            if not request.future.done():
                request.future.set_exception(
                    DeadlineExceeded(
                        f"deadline expired {when} "
                        f"(m={request.m}, session={request.session.session_id})"
                    )
                )
            return True
        return False

    async def _decode_wave(
        self, loop: asyncio.AbstractEventLoop, wave: List[_DecodeRequest]
    ) -> None:
        from repro.amp.batch_amp import decode_prefix_batch

        now = loop.time()
        live = [r for r in wave if not self._expire(r, now, "while queued")]
        groups: Dict[tuple, List[_DecodeRequest]] = {}
        for request in live:
            groups.setdefault(request.session.cell_key(), []).append(request)
        for key, group in groups.items():
            n, k, gamma, _ = key
            channel = group[0].session.channel
            # Freeze every prefix on the loop before the thread runs.
            streams = [r.session.snapshot_stream(r.m) for r in group]
            jobs = [(i, r.m) for i, r in enumerate(group)]
            try:
                exact, scores = await loop.run_in_executor(
                    None,
                    lambda jobs=jobs, streams=streams: decode_prefix_batch(
                        jobs,
                        streams,
                        n,
                        k,
                        channel,
                        gamma=gamma,
                    ),
                )
            except Exception as exc:  # surfaced per request, not fatal
                for request in group:
                    if not request.future.done():
                        request.future.set_exception(exc)
                continue
            self.counters["batches"] += 1
            self.counters["batched_requests"] += len(group)
            done = loop.time()
            for j, request in enumerate(group):
                # Cached even past the deadline: the answer is correct,
                # only too late for this requester.
                result = AMPResult(
                    request.m, bool(exact[j]), scores[j].copy(), len(group)
                )
                request.session.amp_result = result
                if self._expire(request, done, "during decode"):
                    continue  # past-budget work is discarded
                self.counters["decoded"] += 1
                if not request.future.done():
                    request.future.set_result(_amp_response(
                        request.session, result, request.return_scores
                    ))


def _amp_response(
    session: Session, result: AMPResult, return_scores: bool
) -> dict:
    """The answer of one AMP decode, computed or cached (``scores`` is
    the cached array itself: the server only frames it)."""
    response = {
        "session_id": session.session_id,
        "algorithm": "amp",
        "m": result.m,
        "exact": result.exact,
        "degraded": False,
        "batch_size": result.batch_size,
    }
    if return_scores:
        response["scores"] = result.scores
    return response


__all__ = [
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_DEGRADE_DEPTH",
    "DEFAULT_MAX_BATCH",
    "DecodeBatcher",
]
