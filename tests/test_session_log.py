"""The decode service's append-only session logs.

Covers the recovery contract of :mod:`repro.service.store`: a log cut
or garbled anywhere loads as the session replayed from its longest
intact frame prefix (or, with a broken open frame, not at all), never
raising and never half-applying a frame; a replayed request id is
acked from the rebuilt idempotency map; a version-1 JSON record is
converted to a log that decodes bit-identically; and an ingest appends
the same bytes however long the session already is.
"""

import asyncio
import functools
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.service.batcher import DecodeBatcher
from repro.service.server import DecodeService
from repro.service.session import Session, SessionParams
from repro.service.store import SessionStore
from repro.service.wire import ingest_parts, pack_response, unpack_response
from repro.utils.jsonio import save_json_atomic

from reference import pack_queries, v1_record, wire_request

N, K, GAMMA = 40, 3, 6
CHANNEL = {"kind": "z", "p": 0.1}
#: ingest sizes of the fuzzed log (one empty ingest included)
BLOCKS = (3, 1, 0, 4, 2)


def measured(n, gamma, truth, count, seed):
    """``count`` measured queries as wire-style (agents, counts, result)."""
    graph = repro.sample_pooling_graph(n, count, gamma, rng=seed)
    results = repro.measure(graph, truth, repro.ZChannel(0.1), seed).results
    return [
        (graph.agents[lo:hi].tolist(), graph.counts[lo:hi].tolist(),
         float(results[j]))
        for j, (lo, hi) in enumerate(zip(graph.indptr[:-1], graph.indptr[1:]))
    ]


def new_session(session_id="s", n=N, gamma=GAMMA, seed=0):
    truth = repro.sample_ground_truth(n, K, rng=seed)
    params = SessionParams.create(n, gamma, CHANNEL, "half_k")
    return Session(session_id, params, truth.sigma)


def state(session):
    """Everything a restore must reproduce, as comparable values."""
    stream, decoder = session.stream, session.decoder
    arrays = [stream.indptr, stream.agents, stream.counts, stream.results,
              decoder.psi, decoder.delta_star, decoder.delta, decoder.scores]
    return (session.session_id, session.params, session.m,
            dict(session.applied), [a.tolist() for a in arrays])


@functools.lru_cache(maxsize=None)
def valid_log():
    """A log of ``BLOCKS`` ingests: its bytes, its frame ends and the
    expected state after each number of replayed ingests."""
    session = new_session()
    queries = measured(N, GAMMA, session.truth, sum(BLOCKS), 1)
    with tempfile.TemporaryDirectory() as root:
        store = SessionStore(root)
        store.save(session)
        path = store._path("s")
        ends, states = [path.stat().st_size], [state(session)]
        start = 0
        for i, b in enumerate(BLOCKS):
            session.ingest(f"r{i}", *pack_queries(queries[start:start + b]))
            start += b
            store.save(session)
            ends.append(path.stat().st_size)
            states.append(state(session))
        return path.read_bytes(), tuple(ends), tuple(states), path.name


def load_damaged(data):
    """Load a state dir holding one log with these bytes."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / valid_log()[3]
        path.write_bytes(data)
        loaded = SessionStore(root).load_all()
        return loaded, path.read_bytes()


def assert_prefix_loaded(data, intact_frames):
    """``data`` loads as its first ``intact_frames`` frames, truncated."""
    log, ends, states, _ = valid_log()
    loaded, left = load_damaged(data)
    if intact_frames == 0:
        assert loaded == {}
        assert left == data  # skipped and left on disk as it was
        return
    assert list(loaded) == ["s"]
    assert state(loaded["s"]) == states[intact_frames - 1]
    assert left == log[:ends[intact_frames - 1]]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_cut_log_loads_its_intact_prefix(data):
    log, ends, _, _ = valid_log()
    cut = data.draw(st.integers(0, len(log)))
    assert_prefix_loaded(log[:cut], sum(end <= cut for end in ends))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_garbled_byte_loads_the_frames_before_it(data):
    log, ends, _, _ = valid_log()
    position = data.draw(st.integers(0, len(log) - 1))
    flip = data.draw(st.integers(1, 255))
    damaged = bytearray(log)
    damaged[position] ^= flip
    assert_prefix_loaded(bytes(damaged), sum(end <= position for end in ends))


def test_log_bytes_are_pinned():
    # The log layout is fixed: the same session writes the same bytes
    # (pinned when the wire took over the log's body codec), and they
    # replay to the session's final state.
    log, _, states, _ = valid_log()
    assert hashlib.sha256(log).hexdigest() == (
        "304da7b808f6eec0b849626bf656e1c48f5efc5f8d4dfe153490cff43fe0923e"
    )
    assert_prefix_loaded(log, len(states))


class TestRecovery:
    def test_torn_tail_is_truncated_with_a_warning(self, caplog):
        log, ends, _, _ = valid_log()
        with caplog.at_level("WARNING", logger="repro.service.store"):
            assert_prefix_loaded(log[:ends[3] + 5], 4)
        assert "truncating session log" in caplog.text

    def test_garbled_record_mid_file_drops_it_and_the_rest(self, caplog):
        log, ends, _, _ = valid_log()
        damaged = bytearray(log)
        damaged[ends[1] + 20] ^= 0x40  # inside the second ingest frame
        with caplog.at_level("WARNING", logger="repro.service.store"):
            assert_prefix_loaded(bytes(damaged), 2)
        assert "truncating session log" in caplog.text

    def test_broken_open_frame_skips_the_session(self, caplog):
        log, _, _, name = valid_log()
        damaged = bytearray(log)
        damaged[12] ^= 0x01
        with caplog.at_level("WARNING", logger="repro.service.store"):
            assert_prefix_loaded(bytes(damaged), 0)
        assert f"skipping session log {name}" in caplog.text

    def test_truncated_log_takes_new_ingests(self, tmp_path):
        log, ends, states, name = valid_log()
        (tmp_path / name).write_bytes(log[:ends[2] + 3])
        store = SessionStore(tmp_path)
        session = store.load_all()["s"]
        assert state(session) == states[2]
        session.ingest(
            "later", *pack_queries(measured(N, GAMMA, session.truth, 2, 9))
        )
        store.save(session)
        assert state(SessionStore(tmp_path).load_all()["s"]) == state(session)

    def test_intact_frame_failing_replay_skips_the_session(
        self, tmp_path, caplog
    ):
        # A frame that passes its CRC but whose queries the ingest
        # checks reject is no torn write: the session is skipped and
        # its log left whole, the acked frames after it included.
        from repro.service import store as store_module

        log, ends, states, name = valid_log()
        indptr = np.array([0, 2])
        bad = store_module._ingest_frame(
            "bad", (indptr, np.array([0, 1]), np.array([3, 3]),
                    np.array([np.nan]))
        )
        data = log[:ends[2]] + bad + log[ends[2]:]
        (tmp_path / name).write_bytes(data)
        (tmp_path / "other").mkdir()
        with caplog.at_level("WARNING", logger="repro.service.store"):
            assert SessionStore(tmp_path).load_all() == {}
        assert f"skipping session log {name}" in caplog.text
        assert (tmp_path / name).read_bytes() == data

    def test_log_under_a_foreign_name_is_left_untouched(self, tmp_path):
        log, ends, _, _ = valid_log()
        torn = log[:ends[3] + 5]
        foreign = SessionStore(tmp_path)._path("not s")
        foreign.write_bytes(torn)
        assert SessionStore(tmp_path).load_all() == {}
        assert foreign.read_bytes() == torn


@pytest.mark.parametrize("length", [128, 200, 1000])
def test_long_session_ids_load_from_logs_and_v1_records(tmp_path, length):
    # A log's name has a fixed length, whatever the id's: a 128-char
    # hex id (a sha512 digest) or longer fits the file system's limit.
    long_id = ("0123456789abcdef" * 63)[:length]
    session = new_session(long_id)
    session.ingest(
        "r", *pack_queries(measured(N, GAMMA, session.truth, 4, 11))
    )
    SessionStore(tmp_path / "log").save(session)
    assert state(SessionStore(tmp_path / "log").load_all()[long_id]) == state(
        session
    )
    if length > 200:
        return  # the v1 name kept the id's letters: no such record fits
    v1 = SessionStore(tmp_path / "v1")
    save_json_atomic(v1._v1_path(long_id), v1_record(session))
    assert state(v1.load_all()[long_id]) == state(session)
    assert not v1._v1_path(long_id).exists()


def test_v1_record_that_cannot_be_converted_stops_no_other(
    tmp_path, monkeypatch, caplog
):
    # Writing one record's log fails: that record is skipped with a
    # warning and left on disk, and every other session still loads.
    from repro.service import store as store_module

    sessions = {sid: new_session(sid, seed=i) for i, sid in enumerate("ab")}
    store = SessionStore(tmp_path)
    for sid, session in sessions.items():
        session.ingest(
            "r", *pack_queries(measured(N, GAMMA, session.truth, 3, 12))
        )
        save_json_atomic(store._v1_path(sid), v1_record(session))
    write = store_module.write_bytes_atomic

    def refuse_a(path, data):
        if path == store._path("a"):
            raise OSError(36, "File name too long")
        return write(path, data)

    monkeypatch.setattr(store_module, "write_bytes_atomic", refuse_a)
    with caplog.at_level("WARNING", logger="repro.service.store"):
        loaded = SessionStore(tmp_path).load_all()
    assert list(loaded) == ["b"]
    assert state(loaded["b"]) == state(sessions["b"])
    assert "a.session.json" in caplog.text
    assert store._v1_path("a").exists()
    monkeypatch.undo()
    assert sorted(SessionStore(tmp_path).load_all()) == ["a", "b"]


def test_converted_record_left_on_disk_never_replaces_its_log(tmp_path):
    # The record of a converted session could not be removed, and the
    # log has grown since: the next start keeps the log.
    session = new_session()
    save_json_atomic(SessionStore(tmp_path)._v1_path("s"), v1_record(session))
    store = SessionStore(tmp_path)
    loaded = store.load_all()["s"]
    save_json_atomic(store._v1_path("s"), v1_record(session))
    loaded.ingest("r", *pack_queries(measured(N, GAMMA, loaded.truth, 3, 13)))
    store.save(loaded)
    restored = SessionStore(tmp_path).load_all()["s"]
    assert state(restored) == state(loaded)
    assert not store._v1_path("s").exists()


def open_request(session):
    return wire_request({
        "op": "open_session", "session_id": "s", "n": N, "gamma": GAMMA,
        "channel": CHANNEL,
    }, (session.truth.sigma,))


def ingest_request(request_id, queries):
    return wire_request(*ingest_parts(
        {"op": "ingest", "session_id": "s", "request_id": request_id},
        *pack_queries(queries),
    ))


def test_replayed_request_id_after_restart_appends_nothing(tmp_path):
    session = new_session()
    ingest = ingest_request("req-1", measured(N, GAMMA, session.truth, 5, 2))

    async def serve(*requests):
        service = DecodeService(state_dir=tmp_path)
        await service.start()
        try:
            return [await service._safe_dispatch(*r) for r in requests]
        finally:
            await service.stop()

    opened, acked = asyncio.run(serve(open_request(session), ingest))
    assert opened["ok"]
    assert acked == {"session_id": "s", "m": 5, "replayed": False, "ok": True}
    path = SessionStore(tmp_path)._path("s")
    logged = path.read_bytes()
    (again,) = asyncio.run(serve(ingest))
    assert again == {"session_id": "s", "m": 5, "replayed": True, "ok": True}
    assert path.read_bytes() == logged


def test_retransmit_after_a_failed_save_logs_the_ingest(
    tmp_path, monkeypatch
):
    # The first attempt is applied in memory but its append fails, so
    # the client sees an error and retries; the retry, acked from the
    # applied map, must log the ingest before its ack.
    from repro.service import store as store_module

    session = new_session()
    service = DecodeService(state_dir=tmp_path)

    def call(request):
        return asyncio.run(service._safe_dispatch(*request))

    assert call(open_request(session))["ok"]
    ingest = ingest_request("req-1", measured(N, GAMMA, session.truth, 5, 3))

    def disk_full(path, data):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "_append", disk_full)
        assert call(ingest)["ok"] is False
    assert SessionStore(tmp_path).load_all()["s"].m == 0
    assert call(ingest)["replayed"] is True
    restored = SessionStore(tmp_path).load_all()["s"]
    assert state(restored) == state(service.sessions["s"])


def test_retried_open_after_a_failed_save_logs_the_session(
    tmp_path, monkeypatch
):
    from repro.service import store as store_module

    session = new_session()
    service = DecodeService(state_dir=tmp_path)
    request = open_request(session)

    def disk_full(path, data):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "write_bytes_atomic", disk_full)
        assert asyncio.run(service._safe_dispatch(*request))["ok"] is False
    assert SessionStore(tmp_path).load_all() == {}
    again = asyncio.run(service._safe_dispatch(*request))
    assert again["resumed"] is True
    assert state(SessionStore(tmp_path).load_all()["s"]) == state(session)


def decode(session):
    """The service's AMP answer for the whole session, as sent."""

    async def main():
        batcher = DecodeBatcher()
        batcher.start()
        try:
            return await batcher.submit(
                session, session.m, return_scores=True
            )
        finally:
            await batcher.stop()

    return unpack_response(*wire_request(*pack_response(asyncio.run(main()))))


def test_v1_record_converts_to_a_log_that_decodes_bit_identically(tmp_path):
    session = new_session("v1 session", n=90, gamma=None, seed=4)
    gamma = session.params.gamma
    queries = measured(90, gamma, session.truth, 70, 5)
    for i, (lo, hi) in enumerate([(0, 30), (30, 30), (30, 55), (55, 70)]):
        session.ingest(f"r{i}", *pack_queries(queries[lo:hi]))
    record = v1_record(session)
    store = SessionStore(tmp_path)
    v1_path = save_json_atomic(store._v1_path("v1 session"), record)
    v1_session = Session.from_record(record)

    converted = SessionStore(tmp_path).load_all()["v1 session"]
    assert not v1_path.exists()
    assert store._path("v1 session").exists()
    assert state(converted) == state(v1_session)
    assert decode(converted) == decode(v1_session)
    # the log, not the record, is what the next start reads
    assert state(SessionStore(tmp_path).load_all()["v1 session"]) == state(
        v1_session
    )


def test_ingest_appends_the_same_bytes_at_any_session_length(tmp_path):
    # Persisting an ingest costs O(ingest): the same 7 queries append
    # the same bytes to a session of 10 queries and one of 1000.
    fill = measured(N, GAMMA, new_session().truth, 1000, 6)
    block = measured(N, GAMMA, new_session().truth, 7, 7)
    appended = []
    for held in (10, 1000):
        store = SessionStore(tmp_path / str(held))
        session = new_session()
        session.ingest("fill", *pack_queries(fill[:held]))
        store.save(session)
        before = store._path("s").read_bytes()
        session.ingest("next", *pack_queries(block))
        store.save(session)
        after = store._path("s").read_bytes()
        assert after[:len(before)] == before
        appended.append(after[len(before):])
    assert appended[0] == appended[1]
    nnz = sum(len(agents) for agents, _, _ in block)
    assert len(appended[0]) < 200 + 8 * (len(block) + 1) + 16 * nnz + 8 * len(
        block
    )


@pytest.mark.parametrize("gained", [0, 2])
def test_a_save_logs_every_ingest_since_the_last(tmp_path, gained):
    # A save logs everything gained since the last one that landed, so
    # an ingest whose save failed is logged by the next save.
    store = SessionStore(tmp_path)
    session = new_session()
    store.save(session)
    for i in range(gained):
        session.ingest(f"r{i}", *pack_queries(
            measured(N, GAMMA, session.truth, 3, 10 + i)
        ))
    store.save(session)
    assert state(SessionStore(tmp_path).load_all()["s"]) == state(session)
