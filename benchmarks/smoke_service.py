"""CI service smoke: the decode server survives a mid-stream SIGKILL
with every session bit-identical to standalone decoding.

Choreography:

1. Start a decode server on an ephemeral port with a durable state
   dir, plus ``JOBS`` concurrent client threads. Each thread opens its
   own session, measures its queries client-side, and streams them in
   blocks while issuing AMP decodes between blocks.
2. After every client has acked two blocks (barrier rendezvous), the
   server is SIGKILLed — no shutdown path runs — and restarted on the
   same port against the same state dir. Clients ride through the
   outage on their retry/backoff policy with idempotent request ids.
3. Once all threads finish, every session is verified serially against
   local references: the server's AMP scores must equal a standalone
   ``run_amp`` on the same query prefix bit-for-bit, and its greedy
   certificate must match an :class:`IncrementalDecoder` fed the same
   stream — proving the write-ahead replay reconstructed each session
   exactly and micro-batching across users stayed invisible. Those
   answers come from the restarted server, whose result cache started
   empty: the cache is never persisted.
4. Each session is then decoded twice more: the second answer must
   equal the first and come from the result cache (``cache_hits``
   rises, ``decoded`` does not).

Run: ``PYTHONPATH=src python benchmarks/smoke_service.py``
"""

import tempfile
import threading

import numpy as np

import repro
from repro.amp import AMPConfig, run_amp
from repro.core.incremental import IncrementalDecoder
from repro.service import ServiceClient
from repro.service.testing import start_server

N = 100
K = 4
GAMMA = 50
M_TOTAL = 60
BLOCKS = 6
JOBS = 4
CHANNEL_P = 0.1


def measure_queries(truth, rng, count):
    channel = repro.ZChannel(CHANNEL_P)
    sigma = truth.sigma.astype(np.int64)
    queries = []
    for _ in range(count):
        agents, counts = repro.sample_pooling_graph(N, 1, GAMMA, rng).query(0)
        total = int(np.dot(counts, sigma[agents]))
        result = float(
            channel.measure(np.asarray([total]), int(counts.sum()), rng)[0]
        )
        queries.append((agents.tolist(), counts.tolist(), result))
    return queries


def client_run(host, port, index, barrier, results):
    session_id = f"smoke-{index}"
    rng = np.random.default_rng(500 + index)
    truth = repro.sample_ground_truth(N, K, rng)
    queries = measure_queries(truth, rng, M_TOTAL)
    block = M_TOTAL // BLOCKS
    try:
        with ServiceClient(host, port, retry_budget=120.0) as client:
            client.open_session(
                session_id, N, truth.sigma.tolist(),
                channel={"kind": "z", "p": CHANNEL_P}, gamma=GAMMA,
            )
            for b in range(BLOCKS):
                client.ingest(session_id, queries[b * block:(b + 1) * block])
                if b == 1:
                    # Every client has two durable blocks: crash window.
                    barrier.wait(timeout=120)
                    barrier.wait(timeout=120)  # until the restart is up
                client.decode(session_id)
            amp = client.decode(session_id, return_scores=True)
            greedy = client.decode(session_id, algorithm="greedy")
        results[index] = {
            "truth": truth, "queries": queries, "amp": amp, "greedy": greedy,
        }
    except BaseException as exc:  # noqa: BLE001 - reported by the main thread
        results[index] = exc
        barrier.abort()


def verify(record):
    builder = repro.PoolingGraphBuilder(N, GAMMA)
    dec = IncrementalDecoder(record["truth"], repro.ZChannel(CHANNEL_P), GAMMA)
    measured = []
    for agents, counts, result in record["queries"]:
        builder.add_query(np.asarray(agents), np.asarray(counts))
        dec.ingest_query(np.asarray(agents), np.asarray(counts), result)
        measured.append(result)
    meas = repro.Measurements(
        graph=builder.build(), truth=record["truth"],
        channel=repro.ZChannel(CHANNEL_P), results=np.asarray(measured),
    )
    ref = run_amp(meas, config=AMPConfig(track_history=False))

    amp = record["amp"]
    assert amp["m"] == M_TOTAL, f"lost queries: m={amp['m']}"
    assert amp["degraded"] is False
    assert amp["exact"] == bool(ref.exact)
    assert np.array_equal(np.asarray(amp["scores"]), ref.scores), (
        "server AMP scores diverged from standalone run_amp"
    )
    greedy = record["greedy"]
    assert greedy["separation"] == float(dec.separation())
    assert greedy["separated"] == bool(dec.separation() > 0.0)


def verify_cache_hit(client, session_id):
    first = client.decode(session_id, return_scores=True)
    before = client.stats()
    second = client.decode(session_id, return_scores=True)
    after = client.stats()
    assert second == first, "cached AMP answer differs from the computed one"
    assert after["cache_hits"] == before["cache_hits"] + 1, "no cache hit"
    assert after["decoded"] == before["decoded"], "a repeat was recomputed"


def main() -> int:
    state = tempfile.mkdtemp(prefix="repro-service-smoke-")
    server = start_server(state)
    barrier = threading.Barrier(JOBS + 1)
    results = [None] * JOBS
    threads = [
        threading.Thread(
            target=client_run,
            args=(server.host, server.port, i, barrier, results),
        )
        for i in range(JOBS)
    ]
    try:
        for t in threads:
            t.start()
        barrier.wait(timeout=120)  # all clients two blocks deep
        port = server.port
        server.kill()
        server = start_server(state, port=port)
        barrier.wait(timeout=120)  # release the clients into the outage
        for t in threads:
            t.join(timeout=240)
            assert not t.is_alive(), "client hung through the restart"
        for i, record in enumerate(results):
            if isinstance(record, BaseException):
                raise AssertionError(f"client {i} failed") from record
            verify(record)
        with ServiceClient(server.host, server.port) as client:
            for i in range(JOBS):
                verify_cache_hit(client, f"smoke-{i}")
        print(
            f"service smoke ok: {JOBS} sessions rode through a SIGKILL "
            "restart, all bit-identical to standalone decoding, and "
            "repeated decodes were served from the result cache"
        )
        return 0
    finally:
        barrier.abort()
        server.stop()


if __name__ == "__main__":
    raise SystemExit(main())
