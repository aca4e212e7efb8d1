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
5. Before the restart, the state dir is also seeded with one session
   record in the version-1 JSON layout (one file holding every query,
   the layout older servers wrote). The restarted server converts it
   to a log, and its decode must equal a standalone ``run_amp``
   bit-for-bit.

Run: ``PYTHONPATH=src python benchmarks/smoke_service.py``
"""

import json
import os
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


#: the session seeded as a version-1 record
V1_SESSION = "legacy-v1"


def write_v1_record(state):
    """Seed ``state`` with one session in the version-1 JSON layout."""
    rng = np.random.default_rng(900)
    truth = repro.sample_ground_truth(N, K, rng)
    queries = measure_queries(truth, rng, M_TOTAL // 2)
    indptr = np.cumsum([0] + [len(agents) for agents, _, _ in queries])
    record = {
        "version": 1,
        "session_id": V1_SESSION,
        "n": N,
        "gamma": GAMMA,
        "channel": {"kind": "z", "p": CHANNEL_P},
        "centering": "half_k",
        "sigma": truth.sigma.tolist(),
        "m": len(queries),
        "indptr": indptr.tolist(),
        "agents": [a for agents, _, _ in queries for a in agents],
        "counts": [c for _, counts, _ in queries for c in counts],
        "results": [result for _, _, result in queries],
        "applied": {"v1-ingest": len(queries)},
    }
    with open(os.path.join(state, f"{V1_SESSION}.session.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return {"truth": truth, "queries": queries}


def verify_v1_conversion(client, state, seeded):
    amp = client.decode(V1_SESSION, return_scores=True)
    ref = run_amp(reference_measurements(seeded),
                  config=AMPConfig(track_history=False))
    assert amp["m"] == len(seeded["queries"]), f"lost queries: m={amp['m']}"
    assert np.array_equal(np.asarray(amp["scores"]), ref.scores), (
        "converted v1 session's AMP scores diverged from run_amp"
    )
    assert not os.path.exists(
        os.path.join(state, f"{V1_SESSION}.session.json")
    ), "the v1 record was not converted"


def reference_measurements(record):
    builder = repro.PoolingGraphBuilder(N, GAMMA)
    for agents, counts, _ in record["queries"]:
        builder.add_query(np.asarray(agents), np.asarray(counts))
    return repro.Measurements(
        graph=builder.build(), truth=record["truth"],
        channel=repro.ZChannel(CHANNEL_P),
        results=np.asarray([result for _, _, result in record["queries"]]),
    )


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
    dec = IncrementalDecoder(record["truth"], repro.ZChannel(CHANNEL_P), GAMMA)
    for agents, counts, result in record["queries"]:
        dec.ingest_query(np.asarray(agents), np.asarray(counts), result)
    ref = run_amp(reference_measurements(record),
                  config=AMPConfig(track_history=False))

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
        seeded = write_v1_record(state)
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
            verify_v1_conversion(client, state, seeded)
        print(
            f"service smoke ok: {JOBS} sessions rode through a SIGKILL "
            "restart, all bit-identical to standalone decoding, "
            "repeated decodes were served from the result cache, and a "
            "version-1 record converted to a bit-identical log"
        )
        return 0
    finally:
        barrier.abort()
        server.stop()


if __name__ == "__main__":
    raise SystemExit(main())
