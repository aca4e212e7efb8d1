"""Tests for the online decode service (PR 10).

Three layers:

* unit tests for the error taxonomy, session state machine, durable
  store, and the micro-batching scheduler's robustness ladder
  (shed / degrade / deadline), all in-process;
* end-to-end tests against a real ``repro serve`` subprocess through
  :class:`repro.service.client.ServiceClient`;
* the pinned chaos test: deadline expiry, load shedding, and a
  mid-stream SIGKILL + restart are all injected, and every surviving
  session's decode output must stay **bit-identical** to an
  unperturbed serial decoder, with every shed/degraded/expired request
  reported through the structured taxonomy — never a silent drop or a
  hang.
"""

import asyncio
import pickle
import socket
import threading

import numpy as np
import pytest

import repro
from repro.amp import AMPConfig, run_amp
from repro.service.batcher import DecodeBatcher
from repro.service.client import ServiceClient
from repro.service.errors import (
    DeadlineExceeded,
    InvalidRequest,
    Overloaded,
    ServiceError,
    SessionConflict,
    UnknownSession,
    error_from_wire,
)
from repro.service.server import DecodeService
from repro.service.session import (
    AMPResult,
    Session,
    SessionParams,
    channel_to_spec,
)
from repro.service.store import SessionStore
from repro.utils.jsonio import save_json_atomic
from repro.service import wire
from repro.service.testing import start_server
from repro.service.wire import (
    AUTH_TOKEN_ENV,
    MAX_FRAME_ENV,
    AuthError,
    FrameTooLarge,
    max_frame_bytes,
    recv_message,
    resolve_auth_key,
    resolve_connect_retry,
    send_message,
)

from reference import measured_query, pack_queries, v1_record, wire_request


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def make_session(session_id, n, k, channel_spec, seed, gamma=None):
    params = SessionParams.create(n, gamma, channel_spec, "half_k")
    rng = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, rng)
    return Session(session_id, params, truth.sigma), rng


def measured_queries(session, rng, count):
    """Sample + measure ``count`` queries for a session (client side)."""
    queries = []
    for _ in range(count):
        agents, counts, result = measured_query(
            session.params.n, session.params.gamma, session.truth.sigma,
            session.channel, rng,
        )
        queries.append((agents.tolist(), counts.tolist(), result))
    return queries


def local_amp_reference(session):
    """Standalone run_amp on a session's accumulated measurements."""
    builder = repro.PoolingGraphBuilder(
        session.params.n, session.params.gamma
    )
    stream = session.stream
    for i in range(stream.m_done):
        lo, hi = int(stream.indptr[i]), int(stream.indptr[i + 1])
        builder.add_query(stream.agents[lo:hi], stream.counts[lo:hi])
    meas = repro.Measurements(
        graph=builder.build(),
        truth=session.truth,
        channel=session.channel,
        results=np.array(stream.results),
    )
    return run_amp(meas, config=AMPConfig(track_history=False))


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_retryable_bits(self):
        assert Overloaded("x").retryable
        assert DeadlineExceeded("x").retryable
        assert not InvalidRequest("x").retryable
        assert not UnknownSession("x").retryable
        assert not SessionConflict("x").retryable

    def test_wire_round_trip(self):
        for exc in (Overloaded("busy"), InvalidRequest("bad")):
            back = error_from_wire(exc.to_wire())
            assert type(back) is type(exc)
            assert back.retryable == exc.retryable
            assert str(exc) in str(back)

    def test_unknown_code_keeps_announced_retryability(self):
        err = error_from_wire(
            {"code": "from_the_future", "message": "?", "retryable": True}
        )
        assert isinstance(err, ServiceError)
        assert err.retryable


# ---------------------------------------------------------------------------
# wire framing and connect policy
# ---------------------------------------------------------------------------


class TestFrames:
    KEY = resolve_auth_key("frames")

    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            scores = np.array([0.5, -1.25, np.inf])
            send_message(a, self.KEY, {"op": "hello", "n": 1}, (scores,))
            header, payload = recv_message(b, self.KEY)
            assert header == {"op": "hello", "n": 1}
            assert np.array_equal(np.frombuffer(payload), scores)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected_before_allocation(self):
        a, b = socket.socketpair()
        try:
            # A hostile 1 TiB length prefix: the cap must reject it
            # from the 8 header bytes alone, no allocation, no read.
            a.sendall((1 << 40).to_bytes(8, "big"))
            with pytest.raises(FrameTooLarge, match="cap"):
                recv_message(b, self.KEY)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected_on_the_asyncio_path(self):
        # The server's reader raises the client's error, naming the
        # variable that raises the cap.
        async def read(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await wire.read_frame(reader, self.KEY)

        with pytest.raises(FrameTooLarge, match=MAX_FRAME_ENV):
            asyncio.run(read((1 << 40).to_bytes(8, "big")))

    def test_frame_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_FRAME_ENV, "64")
        assert max_frame_bytes() == 64
        a, b = socket.socketpair()
        try:
            send_message(a, self.KEY, {"op": "spec", "payload": "x" * 256})
            with pytest.raises(FrameTooLarge):
                recv_message(b, self.KEY)
        finally:
            a.close()
            b.close()
        monkeypatch.setenv(MAX_FRAME_ENV, "not-a-number")
        with pytest.raises(ValueError, match=MAX_FRAME_ENV):
            max_frame_bytes()

    def test_wrong_key_rejected_before_unpickle(self):
        a, b = socket.socketpair()
        try:
            send_message(a, resolve_auth_key("token-a"), {"op": "chunk"})
            with pytest.raises(AuthError, match="HMAC"):
                recv_message(b, resolve_auth_key("token-b"))
        finally:
            a.close()
            b.close()

    def test_tampered_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            import hashlib
            import hmac as hmac_module

            key = resolve_auth_key()
            body = wire.pack_body({"op": "ok"}, np.array([1, 2, 3]))
            tag = hmac_module.new(key, body, hashlib.sha256).digest()
            tampered = body[:-1] + bytes([body[-1] ^ 1])
            a.sendall(wire._LENGTH.pack(len(tampered)) + tag + tampered)
            with pytest.raises(AuthError):
                recv_message(b, key)
        finally:
            a.close()
            b.close()

    def test_resolve_auth_key(self, monkeypatch):
        monkeypatch.delenv(AUTH_TOKEN_ENV, raising=False)
        integrity = resolve_auth_key()
        assert resolve_auth_key() == integrity
        monkeypatch.setenv(AUTH_TOKEN_ENV, "cluster-secret")
        keyed = resolve_auth_key()
        assert keyed != integrity
        assert keyed == resolve_auth_key("cluster-secret")
        assert resolve_auth_key("other") != keyed


class TestConnectRetry:
    def test_budget_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONNECT_RETRY", raising=False)
        assert resolve_connect_retry() == 30.0
        monkeypatch.setenv("REPRO_CONNECT_RETRY", "3.5")
        assert resolve_connect_retry() == 3.5
        assert resolve_connect_retry(1.0) == 1.0
        with pytest.raises(ValueError):
            resolve_connect_retry(-1)

    def test_silent_handshake_is_retried_then_raises(self, monkeypatch):
        # A listener that accepts (the kernel completes the TCP
        # handshake from the backlog) but never sends a byte: the
        # client must time the handshake out and fall into its budgeted
        # retry loop, not block in recv forever.
        monkeypatch.setattr(wire, "HANDSHAKE_TIMEOUT", 0.2, raising=False)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        box = {}

        def run():
            try:
                ServiceClient("127.0.0.1", port, retry_budget=1.0).connect()
            except Exception as exc:  # noqa: BLE001 - inspected below
                box["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            thread.join(timeout=15)
            assert not thread.is_alive(), "client hung on a silent server"
        finally:
            listener.close()
        assert isinstance(box.get("error"), OSError)
        assert "attempts" in str(box["error"])

    @pytest.mark.parametrize(
        "reply", [b"", b"\x00\x00"], ids=["silent", "partial-frame"]
    )
    def test_silent_reply_is_retried_then_raises(self, monkeypatch, reply):
        # A server that completes the handshake and then never answers
        # a request (or stalls inside its reply frame): the client must
        # give up on each reply, reconnect under its budget, and finally
        # raise instead of blocking.
        from repro.service import client as client_module

        monkeypatch.setattr(client_module, "REPLY_TIMEOUT", 0.2, raising=False)
        key = wire.resolve_auth_key()
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        listener.settimeout(0.1)
        port = listener.getsockname()[1]
        stop = threading.Event()
        accepted = []

        def serve():
            # welcome every connection, read its request, then send at
            # most the start of a reply and stay silent
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    continue
                conn.settimeout(None)
                accepted.append(conn)
                wire.recv_message(conn, key)
                wire.send_message(conn, key, {
                    "op": "welcome", "family": wire.SERVICE_FAMILY,
                    "version": wire.SERVICE_PROTOCOL_VERSION,
                })
                wire.recv_message(conn, key)
                conn.sendall(reply)

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        box = {}

        def run():
            try:
                ServiceClient("127.0.0.1", port, retry_budget=1.0).healthz()
            except Exception as exc:  # noqa: BLE001 - inspected below
                box["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            thread.join(timeout=15)
            assert not thread.is_alive(), "client hung on a silent server"
        finally:
            stop.set()
            server.join(timeout=5)
            listener.close()
            for conn in accepted:
                conn.close()
        assert isinstance(box.get("error"), OSError)
        assert "timed out" in str(box["error"])
        assert len(accepted) >= 2  # the silent connection was retried


# ---------------------------------------------------------------------------
# session state machine
# ---------------------------------------------------------------------------


class TestSessionParams:
    def test_channel_spec_round_trip(self):
        for channel in (
            repro.NoiselessChannel(),
            repro.ZChannel(0.2),
            repro.NoisyChannel(0.1, 0.05),
            repro.GaussianQueryNoise(2.0),
        ):
            spec = channel_to_spec(channel)
            params = SessionParams.create(100, None, spec, "half_k")
            assert channel_to_spec(params.channel) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"gamma": 0},
            {"centering": "nope"},
            {"channel_spec": {"kind": "nope"}},
            {"channel_spec": {"kind": ["z"]}},
            {"channel_spec": {"kind": "z", "p": 2.0}},
        ],
    )
    def test_validation(self, kwargs):
        base = {
            "n": 50,
            "gamma": None,
            "channel_spec": {"kind": "noiseless"},
            "centering": "half_k",
        }
        base.update(kwargs)
        with pytest.raises(InvalidRequest):
            SessionParams.create(
                base["n"], base["gamma"], base["channel_spec"],
                base["centering"],
            )

    @pytest.mark.parametrize(
        "n, gamma",
        [(2.5, None), (50, 2.5), ("12", None), (True, None)],
        ids=["float-n", "float-gamma", "str-n", "bool-n"],
    )
    def test_non_integer_sizes_rejected(self, n, gamma):
        # n and gamma are never truncated or coerced: n=2.5 must not
        # open a session with n=2.
        with pytest.raises(InvalidRequest, match="must be an integer"):
            SessionParams.create(n, gamma, {"kind": "noiseless"}, "half_k")


class TestSession:
    def test_ingest_is_idempotent(self):
        session, rng = make_session("s", 60, 3, {"kind": "z", "p": 0.1}, 0)
        queries = measured_queries(session, rng, 5)
        m1 = session.ingest("req-0", *pack_queries(queries))
        scores = np.array(session.decoder.scores)
        # A retransmitted frame is acked from the applied map.
        m2 = session.ingest("req-0", *pack_queries(queries))
        assert m1 == m2 == 5
        assert session.m == 5
        assert np.array_equal(session.decoder.scores, scores)

    def test_ingest_rejects_malformed_queries(self):
        session, _ = make_session("s", 60, 3, {"kind": "noiseless"}, 0)
        with pytest.raises(InvalidRequest):
            # shape mismatch
            session.ingest("r1", *pack_queries([([0, 1], [1], 3.0)]))
        with pytest.raises(InvalidRequest):
            # sum != gamma
            session.ingest("r2", *pack_queries([([0], [5], 3.0)]))
        assert session.m == 0

    @staticmethod
    def _state(session):
        decoder = session.decoder
        return (
            session.m,
            dict(session.applied),
            v1_record(session),
            [np.array(a) for a in (decoder.psi, decoder.delta_star,
                                   decoder.delta, decoder.scores)],
            decoder.m,
        )

    def _assert_unchanged(self, session, before):
        after = self._state(session)
        assert after[:3] == before[:3]
        for a, b in zip(after[3], before[3]):
            assert np.array_equal(a, b)
        assert after[4] == before[4]

    def test_rejected_ingest_applies_no_query(self):
        # The second query's agent 99 is out of range: the first query,
        # though valid, must not reach the stream, the greedy decoder,
        # the applied map or the durable record.
        sigma = np.zeros(20, dtype=np.int8)
        sigma[:3] = 1
        params = SessionParams.create(20, 4, {"kind": "z", "p": 0.1}, "oracle")
        session = Session("a", params, sigma)
        session.ingest("r0", *pack_queries([([1, 2], [2, 2], 3.0)]))
        before = self._state(session)
        with pytest.raises(InvalidRequest, match=r"lie in \[0"):
            session.ingest("r1", *pack_queries(
                [([0, 5], [3, 1], 2.0), ([0, 99], [3, 1], 1.0)]
            ))
        self._assert_unchanged(session, before)
        with pytest.raises(InvalidRequest, match="length"):
            session.ingest("r2", *pack_queries(
                [([0, 5], [3, 1], 2.0), ([0, 5], [4], 1.0)]
            ))
        self._assert_unchanged(session, before)
        for block in (None, 5):
            with pytest.raises(InvalidRequest):
                session.ingest("r4", block, block, block, block)
        self._assert_unchanged(session, before)
        # the next ingest persists only its own query
        block = pack_queries([([0, 5], [3, 1], 2.0)])
        assert session.ingest("r3", *block) == 2
        assert v1_record(session)["indptr"] == [0, 2, 4]

    @pytest.mark.parametrize("query", [
        ([0, 5], [3, 1], float("nan")),
        ([0, 5], [3, 1], float("inf")),
        ([0, 5], [3, 1], float("-inf")),
        ([0, 0, 5], [1, 2, 1], 2.0),
    ])
    def test_ingest_rejects_non_finite_results_and_repeated_agents(
        self, query
    ):
        session, rng = make_session("s", 20, 3, {"kind": "noiseless"}, 0, 4)
        session.ingest("r0", *pack_queries(measured_queries(session, rng, 3)))
        before = self._state(session)
        with pytest.raises(InvalidRequest, match="finite|distinct"):
            session.ingest("r1", *pack_queries([query]))
        self._assert_unchanged(session, before)

    def test_record_round_trip_is_bit_identical(self):
        session, rng = make_session(
            "s", 80, 4, {"kind": "gaussian", "lam": 1.0}, 1
        )
        session.ingest("a", *pack_queries(measured_queries(session, rng, 12)))
        session.ingest("b", *pack_queries(measured_queries(session, rng, 7)))
        restored = Session.from_record(v1_record(session))
        assert restored.m == session.m
        assert restored.applied == session.applied
        assert np.array_equal(restored.stream.indptr, session.stream.indptr)
        assert np.array_equal(restored.stream.agents, session.stream.agents)
        assert np.array_equal(restored.stream.counts, session.stream.counts)
        assert np.array_equal(
            restored.stream.results, session.stream.results
        )
        # Per-query replay reruns the identical float accumulation.
        assert np.array_equal(
            restored.decoder.scores, session.decoder.scores
        )
        assert restored.decoder.separation() == session.decoder.separation()

    def test_restored_session_grows_identically(self):
        # checkpoint -> restore -> grow further == never interrupted
        straight, rng = make_session("s", 70, 3, {"kind": "z", "p": 0.2}, 2)
        queries = measured_queries(straight, rng, 30)
        straight.ingest("all", *pack_queries(queries))

        broken, _ = make_session("s", 70, 3, {"kind": "z", "p": 0.2}, 2)
        broken.ingest("first", *pack_queries(queries[:18]))
        resumed = Session.from_record(v1_record(broken))
        resumed.ingest("rest", *pack_queries(queries[18:]))
        assert np.array_equal(
            resumed.decoder.scores, straight.decoder.scores
        )
        assert np.array_equal(
            resumed.stream.results, straight.stream.results
        )

    def test_greedy_response_shape(self):
        session, rng = make_session("sid", 60, 3, {"kind": "noiseless"}, 3)
        session.ingest("r", *pack_queries(measured_queries(session, rng, 40)))
        response = session.greedy_response(degraded=True)
        assert response["session_id"] == "sid"
        assert response["algorithm"] == "greedy"
        assert response["m"] == 40
        assert response["degraded"] is True
        assert response["separated"] == (response["separation"] > 0)


class TestRequestIds:
    """``session_id`` and ``request_id`` are non-empty strings, never
    coerced: anything else is ``invalid_request`` and changes nothing."""

    BAD = [None, 5, "", ["s"]]

    @staticmethod
    def _service():
        service = DecodeService()
        session, rng = make_session("s", 30, 2, {"kind": "noiseless"}, 50)
        service.sessions["s"] = session
        return service, session, measured_queries(session, rng, 3)

    @staticmethod
    def _call(service, header, arrays=()):
        return asyncio.run(
            service._safe_dispatch(*wire_request(header, arrays))
        )

    def _assert_invalid(self, reply, field):
        assert reply["ok"] is False
        assert reply["error"]["code"] == "invalid_request"
        assert field in reply["error"]["message"]

    @pytest.mark.parametrize("value", BAD + ["missing"])
    def test_open_session_id(self, value):
        service, session, _ = self._service()
        header = {
            "op": "open_session", "n": 30, "channel": {"kind": "noiseless"}
        }
        if value != "missing":
            header["session_id"] = value
        reply = self._call(service, header, (session.truth.sigma,))
        self._assert_invalid(reply, "session_id")
        assert list(service.sessions) == ["s"]

    @pytest.mark.parametrize("op", ["ingest", "status", "decode"])
    @pytest.mark.parametrize("value", BAD + ["missing"])
    def test_session_id_of_a_session_op(self, op, value):
        service, _, _ = self._service()
        header = {"op": op, "request_id": "r"}
        if value != "missing":
            header["session_id"] = value
        self._assert_invalid(self._call(service, header), "session_id")

    @pytest.mark.parametrize("value", BAD + ["missing"])
    def test_ingest_request_id(self, value):
        service, session, queries = self._service()
        header = {"op": "ingest", "session_id": "s"}
        if value != "missing":
            header["request_id"] = value
        for _ in range(2):  # a null id used to be applied once, as "None"
            reply = self._call(
                service, *wire.ingest_parts(header, *pack_queries(queries))
            )
            self._assert_invalid(reply, "request_id")
        assert session.m == 0 and session.applied == {}


class TestSessionStore:
    def test_save_load_delete(self, tmp_path):
        store = SessionStore(tmp_path)
        session, rng = make_session("alpha", 50, 2, {"kind": "noiseless"}, 4)
        session.ingest("r", *pack_queries(measured_queries(session, rng, 6)))
        store.save(session)
        other, _ = make_session("beta", 50, 2, {"kind": "noiseless"}, 5)
        store.save(other)

        loaded = SessionStore(tmp_path).load_all()
        assert sorted(loaded) == ["alpha", "beta"]
        assert loaded["alpha"].m == 6
        assert np.array_equal(
            loaded["alpha"].decoder.scores, session.decoder.scores
        )
        store.delete("alpha")
        assert sorted(SessionStore(tmp_path).load_all()) == ["beta"]

    def test_hostile_session_ids_stay_in_root(self, tmp_path):
        store = SessionStore(tmp_path)
        session, _ = make_session(
            "../../escape attempt", 30, 2, {"kind": "noiseless"}, 6
        )
        store.save(session)
        files = list(tmp_path.glob("*.session.log"))
        assert len(files) == 1
        assert files[0].resolve().parent == tmp_path.resolve()

    def test_distinct_ids_never_share_a_record(self, tmp_path):
        # "a/b", "a_b" and "a%2Fb" all flattened to one file name once.
        # Neither the log names nor the v1 names they convert from
        # collide.
        ids = ["a/b", "a_b", "a%2Fb", "a b", "ä/\\ud800", "plain-id.1"]
        store = SessionStore(tmp_path / "log")
        v1 = SessionStore(tmp_path / "v1")
        for m, session_id in enumerate(ids):
            session, rng = make_session(
                session_id, 30, 2, {"kind": "noiseless"}, 40 + m
            )
            session.ingest(
                "r", *pack_queries(measured_queries(session, rng, m))
            )
            store.save(session)
            save_json_atomic(v1._v1_path(session_id), v1_record(session))
        # v1 ids of letters, digits and "-_." kept their file names
        assert (tmp_path / "v1" / "a_b.session.json").exists()
        assert (tmp_path / "v1" / "plain-id.1.session.json").exists()
        for root in ("log", "v1"):
            loaded = SessionStore(tmp_path / root).load_all()
            assert sorted(loaded) == sorted(ids)
            assert [loaded[i].m for i in ids] == list(range(len(ids)))
        assert not list((tmp_path / "v1").glob("*.session.json"))

    @pytest.mark.parametrize("field, index, value", [
        ("results", 1, float("nan")),
        ("results", 0, float("inf")),
        ("agents", 1, None),  # repeat the row's first agent
    ])
    def test_record_failing_ingest_checks_is_skipped(
        self, tmp_path, caplog, field, index, value
    ):
        # An older server accepted non-finite results and repeated agent
        # ids. Such a v1 record is skipped with a warning and left on
        # disk, unconverted; every other session still loads.
        store = SessionStore(tmp_path)
        good, rng = make_session("good", 40, 2, {"kind": "noiseless"}, 8)
        good.ingest("r", *pack_queries(measured_queries(good, rng, 4)))
        save_json_atomic(store._v1_path("good"), v1_record(good))
        bad, rng = make_session("bad", 40, 2, {"kind": "noiseless"}, 9)
        bad.ingest("r", *pack_queries(measured_queries(bad, rng, 4)))
        record = v1_record(bad)
        record[field][index] = (
            record["agents"][0] if value is None else value
        )
        save_json_atomic(store._v1_path("bad"), record)
        with caplog.at_level("WARNING", logger="repro.service.store"):
            loaded = SessionStore(tmp_path).load_all()
        assert sorted(loaded) == ["good"]
        assert np.array_equal(loaded["good"].decoder.scores, good.decoder.scores)
        assert "bad.session.json" in caplog.text
        assert store._v1_path("bad").exists()
        assert not store._path("bad").exists()

    @pytest.mark.parametrize("damage", ["truncated", "missing-key"])
    def test_unparseable_record_is_skipped(self, tmp_path, caplog, damage):
        # A v1 record cut short (not JSON any more) or missing a key
        # cannot be rebuilt. It is skipped with a warning and left on
        # disk, and every other session still loads, so the server can
        # start.
        store = SessionStore(tmp_path)
        good, rng = make_session("good", 40, 2, {"kind": "noiseless"}, 8)
        good.ingest("r", *pack_queries(measured_queries(good, rng, 4)))
        save_json_atomic(store._v1_path("good"), v1_record(good))
        bad, rng = make_session("bad", 40, 2, {"kind": "noiseless"}, 9)
        bad.ingest("r", *pack_queries(measured_queries(bad, rng, 4)))
        path = store._v1_path("bad")
        record = v1_record(bad)
        if damage == "truncated":
            save_json_atomic(path, record)
            path.write_text(path.read_text()[:50])
        else:
            del record["results"]
            save_json_atomic(path, record)
        damaged = path.read_bytes()
        with caplog.at_level("WARNING", logger="repro.service.store"):
            loaded = SessionStore(tmp_path).load_all()
        assert sorted(loaded) == ["good"]
        assert np.array_equal(loaded["good"].decoder.scores, good.decoder.scores)
        assert "bad.session.json" in caplog.text
        assert path.read_bytes() == damaged

    def test_record_under_a_foreign_name_is_not_loaded(self, tmp_path):
        # A v1 record whose id does not encode to its file name belongs
        # to no session stored there, as the flattened names of an
        # older store did; so does a log.
        store = SessionStore(tmp_path)
        session, _ = make_session("a/b", 30, 2, {"kind": "noiseless"}, 7)
        path = save_json_atomic(store._v1_path("a/b"), v1_record(session))
        path.rename(tmp_path / "a_b.session.json")
        assert SessionStore(tmp_path).load_all() == {}
        store.save(session)
        store._path("a/b").rename(store._path("a_b"))
        assert SessionStore(tmp_path).load_all() == {}


# ---------------------------------------------------------------------------
# micro-batching scheduler: robustness ladder + bit-identity
# ---------------------------------------------------------------------------


class TestDecodeBatcher:
    def _sessions(self, count, m, seed0=10):
        sessions = []
        for i in range(count):
            session, rng = make_session(
                f"b{i}", 90, 4, {"kind": "z", "p": 0.1}, seed0 + i
            )
            session.ingest(
                "fill", *pack_queries(measured_queries(session, rng, m))
            )
            sessions.append(session)
        return sessions

    def test_batched_decode_bit_identical_to_run_amp(self):
        sessions = self._sessions(3, 70)

        async def scenario():
            batcher = DecodeBatcher(
                max_queue=16, degrade_depth=16, max_batch=8
            )
            batcher.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(
                    batcher.submit(s, s.m - 5 * i, return_scores=True)
                )
                for i, s in enumerate(sessions)
            ]
            responses = await asyncio.gather(*tasks)
            await batcher.stop()
            return responses, dict(batcher.counters)

        responses, counters = asyncio.run(scenario())
        # All three submissions landed before the scheduler drained, so
        # they stacked into one ragged block-diagonal AMP call.
        assert counters["batches"] == 1
        assert counters["batched_requests"] == 3
        for i, (session, response) in enumerate(zip(sessions, responses)):
            assert response["batch_size"] == 3
            assert response["degraded"] is False
            m = session.m - 5 * i
            # truncate the reference to the requested prefix
            ref_stream = session.snapshot_stream(m)
            builder = repro.PoolingGraphBuilder(
                session.params.n, session.params.gamma
            )
            for j in range(m):
                lo = int(ref_stream.indptr[j])
                hi = int(ref_stream.indptr[j + 1])
                builder.add_query(
                    ref_stream.agents[lo:hi], ref_stream.counts[lo:hi]
                )
            meas = repro.Measurements(
                graph=builder.build(),
                truth=session.truth,
                channel=session.channel,
                results=np.array(ref_stream.results[:m]),
            )
            reference = run_amp(meas, config=AMPConfig(track_history=False))
            assert response["exact"] == bool(reference.exact)
            assert np.array_equal(
                np.asarray(response["scores"]), reference.scores
            )

    def test_degrades_at_depth(self):
        sessions = self._sessions(2, 30)

        async def scenario():
            batcher = DecodeBatcher(max_queue=8, degrade_depth=1)
            batcher.start()
            loop = asyncio.get_running_loop()
            first = loop.create_task(batcher.submit(sessions[0], 30))
            second = loop.create_task(batcher.submit(sessions[1], 30))
            r1, r2 = await asyncio.gather(first, second)
            await batcher.stop()
            return r1, r2, dict(batcher.counters)

        r1, r2, counters = asyncio.run(scenario())
        # Both were admitted; at wave formation the backlog exceeded the
        # degrade depth, so the newer request was answered from the
        # running greedy scores — immediately, flagged, never silently —
        # while the older kept its AMP promise.
        assert r1["algorithm"] == "amp" and r1["degraded"] is False
        assert r2["algorithm"] == "greedy" and r2["degraded"] is True
        assert counters["degraded"] == 1
        assert counters["decoded"] == 1

    def test_sheds_when_queue_full(self):
        sessions = self._sessions(3, 30)

        async def scenario():
            batcher = DecodeBatcher(max_queue=2, degrade_depth=2)
            batcher.start()
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(batcher.submit(s, 30)) for s in sessions
            ]
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            await batcher.stop()
            return outcomes, dict(batcher.counters)

        outcomes, counters = asyncio.run(scenario())
        shed = [o for o in outcomes if isinstance(o, Overloaded)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert len(shed) == 1 and shed[0].retryable
        assert len(served) == 2
        assert counters["shed"] == 1

    def test_deadline_expired_while_queued(self):
        (session,) = self._sessions(1, 30)

        async def scenario():
            batcher = DecodeBatcher()
            batcher.start()
            loop = asyncio.get_running_loop()
            expired = loop.time() - 1.0
            try:
                with pytest.raises(DeadlineExceeded):
                    await batcher.submit(session, 30, deadline=expired)
            finally:
                await batcher.stop()
            return dict(batcher.counters)

        counters = asyncio.run(scenario())
        assert counters["deadline_expired"] == 1
        assert counters["decoded"] == 0

    def test_stop_fails_pending_requests(self):
        (session,) = self._sessions(1, 10)

        async def scenario():
            batcher = DecodeBatcher()
            batcher.start()
            response = await batcher.submit(session, 10)
            await batcher.stop()
            with pytest.raises(Overloaded):
                await batcher.submit(session, 10)
            return response

        response = asyncio.run(scenario())
        assert response["algorithm"] == "amp"


# ---------------------------------------------------------------------------
# per-session decode result cache
# ---------------------------------------------------------------------------

CACHE_M = (40, 60)


@pytest.fixture(scope="module")
def cache_inputs():
    """One session definition plus its 60 measured queries."""
    session, rng = make_session("cache", 90, 4, {"kind": "z", "p": 0.1}, 40)
    return session.params, session.truth.sigma, measured_queries(
        session, rng, CACHE_M[-1]
    )


@pytest.fixture(scope="module")
def cache_refs(cache_inputs):
    """Standalone ``run_amp`` answers at each prefix in ``CACHE_M``."""
    refs = {}
    for m in CACHE_M:
        session = cache_session(cache_inputs, m)
        refs[m] = local_amp_reference(session)
    return refs


def cache_session(cache_inputs, m, session_id="cache"):
    """A fresh session holding the first ``m`` queries (empty cache)."""
    params, sigma, queries = cache_inputs
    session = Session(session_id, params, sigma)
    session.ingest("fill", *pack_queries(queries[:m]))
    return session


def with_batcher(scenario, **knobs):
    """Run ``await scenario(batcher)`` against a started batcher."""

    async def main():
        batcher = DecodeBatcher(**knobs)
        batcher.start()
        try:
            return await scenario(batcher)
        finally:
            await batcher.stop()

    return asyncio.run(main())


def as_sent(response):
    """A server response as the client reads it (scores as a list)."""
    return wire.unpack_response(*wire_request(*wire.pack_response(response)))


def assert_matches(response, reference):
    assert response["algorithm"] == "amp"
    assert response["degraded"] is False
    assert response["exact"] == bool(reference.exact)
    assert np.array_equal(np.asarray(response["scores"]), reference.scores)


class TestDecodeResultCache:
    @pytest.mark.parametrize("miss_scores", [True, False])
    @pytest.mark.parametrize("hit_scores", [True, False])
    def test_hit_is_bit_identical_to_miss_and_run_amp(
        self, cache_inputs, cache_refs, miss_scores, hit_scores
    ):
        session = cache_session(cache_inputs, 60)

        async def scenario(batcher):
            miss = await batcher.submit(session, 60, return_scores=miss_scores)
            counters = dict(batcher.counters)
            hit = await batcher.submit(session, 60, return_scores=hit_scores)
            return miss, counters, hit, dict(batcher.counters)

        miss, before, hit, after = with_batcher(scenario)
        assert after["cache_hits"] == before["cache_hits"] + 1
        assert after["decoded"] == before["decoded"] == 1
        assert ("scores" in miss) is miss_scores
        assert ("scores" in hit) is hit_scores
        shared = {key: miss[key] for key in miss if key != "scores"}
        assert {key: hit[key] for key in hit if key != "scores"} == shared
        if hit_scores:
            assert_matches(hit, cache_refs[60])
        if miss_scores and hit_scores:
            assert as_sent(hit) == as_sent(miss)
        assert session.amp_result.scores.base is None  # its own copy

    def test_ingest_makes_the_next_decode_a_miss(
        self, cache_inputs, cache_refs
    ):
        session = cache_session(cache_inputs, 40)
        queries = cache_inputs[2]

        async def scenario(batcher):
            await batcher.submit(session, session.m)
            session.ingest("grow", *pack_queries(queries[40:]))
            grown = await batcher.submit(
                session, session.m, return_scores=True
            )
            grown_counters = dict(batcher.counters)
            probe = await batcher.submit(session, 40, return_scores=True)
            return grown, grown_counters, probe, dict(batcher.counters)

        grown, grown_counters, probe, after = with_batcher(scenario)
        assert grown["m"] == 60
        assert_matches(grown, cache_refs[60])
        assert grown_counters["decoded"] == 2
        assert grown_counters["cache_hits"] == 0
        # An explicit probe of an older prefix is a miss as well, and
        # its answer replaces the entry.
        assert probe["m"] == 40
        assert_matches(probe, cache_refs[40])
        assert after["decoded"] == 3 and after["cache_hits"] == 0
        assert session.amp_result.m == 40

    def test_degraded_answers_never_fill(self, cache_inputs):
        first = cache_session(cache_inputs, 40, "first")
        second = cache_session(cache_inputs, 40, "second")

        async def scenario(batcher):
            loop = asyncio.get_running_loop()
            tasks = [
                loop.create_task(batcher.submit(s, 40))
                for s in (first, second)
            ]
            answers = await asyncio.gather(*tasks)
            filled = second.amp_result
            again = await batcher.submit(second, 40)
            return answers, filled, again, dict(batcher.counters)

        answers, filled, again, counters = with_batcher(
            scenario, max_queue=8, degrade_depth=1
        )
        assert answers[1]["degraded"] is True
        assert filled is None
        assert first.amp_result.m == 40
        # The degraded session's next decode computes instead of hitting.
        assert again["degraded"] is False
        assert counters["decoded"] == 2 and counters["cache_hits"] == 0

    def test_deadline_expired_during_decode_still_fills(
        self, cache_inputs, cache_refs, monkeypatch
    ):
        import time

        from repro.amp import batch_amp

        real = batch_amp.decode_prefix_batch

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch_amp, "decode_prefix_batch", slow)
        session = cache_session(cache_inputs, 60)

        async def scenario(batcher):
            deadline = asyncio.get_running_loop().time() + 0.1
            with pytest.raises(DeadlineExceeded, match="during decode"):
                await batcher.submit(session, 60, deadline=deadline)
            hit = await batcher.submit(session, 60, return_scores=True)
            return hit, dict(batcher.counters)

        hit, counters = with_batcher(scenario)
        assert counters["deadline_expired"] == 1
        assert counters["decoded"] == 0
        assert counters["cache_hits"] == 1
        assert hit["batch_size"] == 1
        assert_matches(hit, cache_refs[60])

    def test_stopped_batcher_refuses_a_would_be_hit(self, cache_inputs):
        session = cache_session(cache_inputs, 40)

        async def scenario():
            batcher = DecodeBatcher()
            batcher.start()
            await batcher.submit(session, 40)
            await batcher.stop()
            with pytest.raises(Overloaded, match="not running"):
                await batcher.submit(session, 40)
            return dict(batcher.counters)

        counters = asyncio.run(scenario())
        assert session.amp_result.m == 40
        assert counters["cache_hits"] == 0

    def test_first_decode_after_restart_is_a_miss(
        self, cache_inputs, tmp_path
    ):
        session = cache_session(cache_inputs, 60)
        store = SessionStore(tmp_path)

        async def before_restart(batcher):
            answer = await batcher.submit(session, 60, return_scores=True)
            store.save(session)
            return answer

        answer = with_batcher(before_restart)
        (restored,) = SessionStore(tmp_path).load_all().values()
        assert restored.amp_result is None  # the cache is never persisted

        async def after_restart(batcher):
            again = await batcher.submit(restored, 60, return_scores=True)
            return again, dict(batcher.counters)

        again, counters = with_batcher(after_restart)
        assert counters["decoded"] == 1 and counters["cache_hits"] == 0
        assert as_sent(again) == as_sent(answer)

    def test_decode_state_stays_constant_over_many_decodes(self, cache_inputs):
        # Decodes with fresh request ids used to pile up one stored
        # response each; now the session keeps a single cached result.
        session = cache_session(cache_inputs, 40)

        def footprint():
            return len(pickle.dumps(vars(session)))

        async def scenario():
            service = DecodeService()
            service.sessions[session.session_id] = session
            service.batcher.start()
            sizes = []
            try:
                for i in range(200):
                    reply = await service._safe_dispatch({
                        "op": "decode",
                        "session_id": session.session_id,
                        "request_id": f"decode-{i}",
                        "return_scores": True,
                    })
                    assert reply["ok"], reply
                    sizes.append(footprint())
            finally:
                await service.batcher.stop()
            return sizes, dict(service.batcher.counters)

        sizes, counters = asyncio.run(scenario())
        assert counters["decoded"] == 1 and counters["cache_hits"] == 199
        assert isinstance(session.amp_result, AMPResult)
        assert session.amp_result.m == 40
        assert sizes[-1] == sizes[0]


class TestDecodeServiceStartup:
    def test_server_imports_no_sweep_harness(self):
        # The service shares only the JSON primitives with the sweep
        # engine; importing the server must not load repro.experiments.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import sys, repro.service.server\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[:2] == ['repro', 'experiments']))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# end-to-end against a real server subprocess
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    proc = start_server(tmp_path_factory.mktemp("service-state"))
    yield proc
    proc.stop()


def open_and_fill(client, session_id, n, k, channel, seed, m):
    rng = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, rng)
    client.open_session(session_id, n, truth.sigma, channel=channel)
    gamma = repro.default_gamma(n)
    queries = []
    for _ in range(m):
        agents, counts, result = measured_query(
            n, gamma, truth.sigma, channel, rng
        )
        queries.append((agents.tolist(), counts.tolist(), result))
    client.ingest(session_id, queries)
    return truth, queries


def reference_decode(n, truth, channel, queries):
    builder = repro.PoolingGraphBuilder(n)
    results = []
    for agents, counts, result in queries:
        builder.add_query(np.asarray(agents), np.asarray(counts))
        results.append(result)
    meas = repro.Measurements(
        graph=builder.build(),
        truth=truth,
        channel=channel,
        results=np.asarray(results, dtype=np.float64),
    )
    amp = run_amp(meas, config=AMPConfig(track_history=False))
    decoder = repro.IncrementalDecoder(truth, channel)
    for agents, counts, result in queries:
        decoder.ingest_query(
            np.asarray(agents, dtype=np.int64),
            np.asarray(counts, dtype=np.int64),
            float(result),
        )
    return amp, decoder


def test_colliding_session_ids_both_survive_a_restart(tmp_path):
    channel = repro.NoiselessChannel()
    proc = start_server(tmp_path)
    try:
        with ServiceClient(proc.host, proc.port) as client:
            open_and_fill(client, "a/b", 40, 2, channel, 31, 7)
            open_and_fill(client, "a_b", 40, 2, channel, 32, 3)
    finally:
        proc.stop()
    proc = start_server(tmp_path)
    try:
        with ServiceClient(proc.host, proc.port) as client:
            assert client.status("a/b")["m"] == 7
            assert client.status("a_b")["m"] == 3
    finally:
        proc.stop()


class TestEndToEnd:
    def test_probes(self, server):
        with ServiceClient(server.host, server.port) as client:
            assert client.healthz()["status"] == "alive"
            ready = client.readyz()
            assert ready["ready"] is True
            stats = client.stats()
            assert {"decoded", "shed", "degraded", "deadline_expired"} \
                <= set(stats)

    def test_decode_matches_local_run_amp(self, server):
        n, k, m = 80, 4, 70
        channel = repro.ZChannel(0.1)
        with ServiceClient(server.host, server.port) as client:
            truth, queries = open_and_fill(
                client, "e2e-bitident", n, k, channel, 20, m
            )
            amp = client.decode(
                "e2e-bitident", algorithm="amp", return_scores=True
            )
            greedy = client.decode("e2e-bitident", algorithm="greedy")
            status = client.status("e2e-bitident")
        ref_amp, ref_dec = reference_decode(n, truth, channel, queries)
        assert status["m"] == m and status["k"] == k
        assert amp["exact"] == bool(ref_amp.exact)
        assert np.array_equal(np.asarray(amp["scores"]), ref_amp.scores)
        assert greedy["separated"] == ref_dec.is_successful()
        assert greedy["separation"] == float(ref_dec.separation())

    def test_ingest_retransmit_is_acked_not_reapplied(self, server):
        n, k = 60, 3
        channel = repro.NoiselessChannel()
        with ServiceClient(server.host, server.port) as client:
            truth, queries = open_and_fill(
                client, "e2e-idem", n, k, channel, 21, 10
            )
            request_id = client.request_id()
            first = client.ingest(
                "e2e-idem", queries[:5], request_id=request_id
            )
            replay = client.ingest(
                "e2e-idem", queries[:5], request_id=request_id
            )
            assert first["m"] == replay["m"] == 15
            assert not first["replayed"] and replay["replayed"]
            assert client.status("e2e-idem")["m"] == 15

    def test_decode_request_id_is_idempotent(self, server):
        channel = repro.ZChannel(0.05)
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(client, "e2e-didem", 60, 3, channel, 22, 40)
            rid = client.request_id()
            a = client.decode(
                "e2e-didem", return_scores=True, request_id=rid
            )
            b = client.decode(
                "e2e-didem", return_scores=True, request_id=rid
            )
            assert a == b

    def test_session_conflict_and_idempotent_reopen(self, server):
        n, k = 40, 2
        rng = np.random.default_rng(23)
        truth = repro.sample_ground_truth(n, k, rng)
        channel = repro.NoiselessChannel()
        with ServiceClient(server.host, server.port) as client:
            first = client.open_session(
                "e2e-conflict", n, truth.sigma, channel=channel
            )
            again = client.open_session(
                "e2e-conflict", n, truth.sigma, channel=channel
            )
            assert not first["resumed"] and again["resumed"]
            other = repro.sample_ground_truth(n, k + 1, rng)
            with pytest.raises(SessionConflict):
                client.open_session(
                    "e2e-conflict", n, other.sigma, channel=channel
                )

    def test_terminal_errors(self, server):
        with ServiceClient(server.host, server.port) as client:
            with pytest.raises(UnknownSession):
                client.status("never-opened")
            with pytest.raises(InvalidRequest):
                client.call({"op": "no_such_op"})
            rng = np.random.default_rng(24)
            truth = repro.sample_ground_truth(30, 2, rng)
            client.open_session(
                "e2e-empty", 30, truth.sigma,
                channel=repro.NoiselessChannel(),
            )
            with pytest.raises(InvalidRequest):
                client.decode("e2e-empty", algorithm="amp")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", "abc"),
            ("m", 2.7),
            ("m", 3.0),
            ("m", True),
            ("m", False),
            ("m", [5]),
            ("deadline", "abc"),
            ("deadline", float("nan")),
            ("deadline", np.float64("nan")),
            ("deadline", 0.0),
            ("deadline", -1.0),
            ("deadline", True),
            ("deadline", "0.5"),
            ("return_scores", "no"),
            ("return_scores", 1),
            ("return_scores", [True]),
        ],
    )
    def test_decode_fields_validated_on_the_wire(self, server, field, value):
        # Each malformed field is a terminal invalid_request before
        # admission: never an internal error, a truncated m, or a NaN
        # deadline that would never expire.
        session_id = f"e2e-fields-{field}-{value!r}"
        request = {
            "op": "decode",
            "session_id": session_id,
            "algorithm": "amp",
            field: value,
        }
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(
                client, session_id, 40, 2, repro.NoiselessChannel(), 25, 10
            )
            before = client.stats()
            with pytest.raises(InvalidRequest, match=field):
                client.call(request)
            after = client.stats()
        assert after["decoded"] == before["decoded"]

    @pytest.mark.parametrize(
        "m, deadline", [(np.int64(6), None), (6, np.float64(30.0)), (None, 30)]
    )
    def test_decode_fields_accept_numpy_and_python_numbers(
        self, server, m, deadline
    ):
        session_id = f"e2e-fields-ok-{m!r}-{deadline!r}"
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(
                client, session_id, 40, 2, repro.NoiselessChannel(), 26, 10
            )
            reply = client.call({
                "op": "decode",
                "session_id": session_id,
                "algorithm": "amp",
                "m": m,
                "deadline": deadline,
            })
        assert reply["m"] == (10 if m is None else 6)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"m": "abc", "deadline": -1}, "m must be an integer"),
            ({"m": True}, "m must be an integer"),
            ({"m": 5}, "current m=10, got m=5"),
            ({"m": 11}, "current m=10, got m=11"),
            ({"deadline": -1}, "deadline"),
            ({"deadline": "abc"}, "deadline"),
            ({"return_scores": "no"}, "return_scores"),
        ],
    )
    def test_greedy_decode_fields_validated(self, server, fields, match):
        # Greedy decodes get the same field checks as AMP ones, and the
        # certificate exists only at the session's current prefix.
        session_id = f"e2e-greedy-{sorted(fields.items())!r}"
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(
                client, session_id, 40, 2, repro.NoiselessChannel(), 28, 10
            )
            with pytest.raises(InvalidRequest, match=match):
                client.call({
                    "op": "decode",
                    "session_id": session_id,
                    "algorithm": "greedy",
                    **fields,
                })

    @pytest.mark.parametrize("m", [None, 10, np.int64(10)])
    def test_greedy_decode_at_the_session_length(self, server, m):
        session_id = f"e2e-greedy-ok-{m!r}"
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(
                client, session_id, 40, 2, repro.NoiselessChannel(), 29, 10
            )
            reply = client.call({
                "op": "decode",
                "session_id": session_id,
                "algorithm": "greedy",
                "m": m,
                "deadline": 30.0,
                "return_scores": np.False_,
            })
        assert reply["algorithm"] == "greedy"
        assert reply["m"] == 10

    @pytest.mark.parametrize(
        "fields",
        [
            {"m": "10"},
            {"m": 10.0},
            {"deadline": -1.0},
            {"return_scores": "yes"},
        ],
    )
    def test_invalid_fields_raise_even_on_a_hit(self, server, fields):
        session_id = f"e2e-hit-fields-{sorted(fields.items())!r}"
        with ServiceClient(server.host, server.port) as client:
            open_and_fill(
                client, session_id, 40, 2, repro.NoiselessChannel(), 30, 10
            )
            client.decode(session_id)  # fills the cache at m=10
            before = client.stats()
            request = {"op": "decode", "session_id": session_id, "m": 10}
            with pytest.raises(InvalidRequest):
                client.call({**request, **fields})
            after = client.stats()
        assert after["cache_hits"] == before["cache_hits"]

    def test_server_default_deadline_applies_to_client_decodes(self, tmp_path):
        # ServiceClient.decode always sends a "deadline" field, null
        # unless the caller set one: null must mean the server default
        # (REPRO_SERVICE_DEADLINE), and an explicit number still wins.
        proc = start_server(
            tmp_path / "state", env={"REPRO_SERVICE_DEADLINE": "1e-9"}
        )
        try:
            with ServiceClient(proc.host, proc.port, retry_budget=1.0) as client:
                open_and_fill(
                    client, "e2e-default-deadline", 40, 2,
                    repro.NoiselessChannel(), 27, 10,
                )
                with pytest.raises(DeadlineExceeded):
                    client.decode("e2e-default-deadline")
                reply = client.decode("e2e-default-deadline", deadline=30.0)
                stats = client.stats()
        finally:
            proc.stop()
        assert reply["m"] == 10
        assert stats["deadline_expired"] >= 1

    def test_wrong_token_is_rejected(self, server):
        with pytest.raises(AuthError):
            ServiceClient(
                server.host, server.port,
                token="definitely-wrong", retry_budget=2.0,
            ).connect()


# ---------------------------------------------------------------------------
# the pinned chaos test
# ---------------------------------------------------------------------------


def fake_repro(root, main_source):
    """A stand-in ``repro`` package whose ``python -m repro`` runs
    ``main_source``; put ``root`` on PYTHONPATH to launch it."""
    package = root / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(main_source)
    return {"PYTHONPATH": str(root)}


@pytest.fixture
def launched(monkeypatch):
    """The Popen objects start_server creates, in launch order."""
    import subprocess

    procs = []
    real = subprocess.Popen

    def recording(*args, **kwargs):
        procs.append(real(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording)
    return procs


class TestStartServer:
    def test_silent_server_times_out_and_is_reaped(self, tmp_path, launched):
        import time

        env = fake_repro(tmp_path / "fake", "import time\ntime.sleep(30)\n")
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="ready banner within 2s"):
            start_server(tmp_path / "state", env=env, timeout=2)
        assert time.monotonic() - start < 2 + 5
        (proc,) = launched
        assert proc.returncode is not None  # reaped: no zombie left
        assert proc.stdout.closed

    def test_server_exiting_before_ready_raises(self, tmp_path, launched):
        env = fake_repro(
            tmp_path / "fake", "print('no banner here')\nraise SystemExit(3)\n"
        )
        with pytest.raises(RuntimeError, match="exited with 3") as info:
            start_server(tmp_path / "state", env=env, timeout=30)
        assert "no banner here" in str(info.value)
        (proc,) = launched
        assert proc.stdout.closed

    @pytest.mark.parametrize("exit_via", ["kill", "stop"])
    def test_exit_closes_the_output_pipe(self, tmp_path, exit_via):
        server = start_server(tmp_path / "state")
        assert server.port > 0 and "listening on" in server.output
        getattr(server, exit_via)()
        assert server.proc.returncode is not None
        assert server.proc.stdout.closed


class TestChaos:
    N, K, M_TOTAL, BLOCKS, JOBS = 100, 4, 60, 6, 4

    def _client_run(self, host, port, index, barrier, results, failures):
        try:
            session_id = f"chaos-{index}"
            channel = repro.ZChannel(0.1)
            rng = np.random.default_rng(100 + index)
            truth = repro.sample_ground_truth(self.N, self.K, rng)
            gamma = repro.default_gamma(self.N)
            queries = []
            for _ in range(self.M_TOTAL):
                agents, counts, result = measured_query(
                    self.N, gamma, truth.sigma, channel, rng
                )
                queries.append((agents.tolist(), counts.tolist(), result))

            with ServiceClient(host, port, retry_budget=60.0) as client:
                client.open_session(
                    session_id, self.N, truth.sigma, channel=channel
                )
                per = self.M_TOTAL // self.BLOCKS
                for b in range(self.BLOCKS):
                    block = queries[b * per:(b + 1) * per]
                    ack = client.ingest(session_id, block)
                    assert ack["m"] == (b + 1) * per, ack
                    if b == 1:
                        # Every client has acked two blocks and is
                        # mid-stream; rendezvous with the killer, then
                        # keep streaming into the crash.
                        barrier.wait(timeout=120)
            results[index] = (truth, channel, queries)
        except BaseException as exc:  # surfaced by the main thread
            failures[index] = exc

    def test_chaos_sigkill_deadlines_shedding_bit_identical(self, tmp_path):
        state = tmp_path / "state"
        env = {
            "REPRO_SERVICE_MAX_QUEUE": "2",
            "REPRO_SERVICE_DEGRADE_DEPTH": "1",
        }
        server = start_server(state, env=env)
        host, port = server.host, server.port
        barrier = threading.Barrier(self.JOBS + 1)
        results, failures = {}, {}
        threads = [
            threading.Thread(
                target=self._client_run,
                args=(host, port, i, barrier, results, failures),
            )
            for i in range(self.JOBS)
        ]
        for t in threads:
            t.start()

        try:
            # -- fault 1: SIGKILL the server mid-stream, then restart it
            # on the same port and state dir. Clients retry through it:
            # transport errors reconnect with backoff, unacked ingests
            # are retransmitted under their original request ids.
            barrier.wait(timeout=120)
            server.kill()
            server = start_server(state, port=port, env=env)
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive(), "client hung — robustness violated"
            assert not failures, failures
            assert len(results) == self.JOBS

            # -- fault 2: deadline expiry, injected deterministically.
            with ServiceClient(host, port, retry_budget=1.0) as client:
                with pytest.raises(DeadlineExceeded):
                    client.decode("chaos-0", deadline=1e-9)

            # -- fault 3: load shedding / degradation under a burst.
            # max_queue=2, degrade_depth=1: concurrent decode bursts
            # must trip the ladder; shed requests are retried by the
            # client, degraded ones come back flagged. Every request
            # asks for a prefix no earlier one asked for, so none is a
            # cache hit (a hit is never queued, so never shed).
            degraded_seen = shed_seen = 0
            for rnd in range(10):
                burst_results = []

                def burst(idx, rnd=rnd):
                    with ServiceClient(
                        host, port, retry_budget=60.0
                    ) as cli:
                        for j in range(4):
                            burst_results.append(cli.decode(
                                f"chaos-{idx % self.JOBS}",
                                m=self.M_TOTAL - 1 - 4 * rnd - j,
                            ))

                burst_threads = [
                    threading.Thread(target=burst, args=(i,))
                    for i in range(self.JOBS)
                ]
                for t in burst_threads:
                    t.start()
                for t in burst_threads:
                    t.join(timeout=120)
                    assert not t.is_alive(), "burst client hung"
                with ServiceClient(host, port) as cli:
                    stats = cli.stats()
                degraded_seen = stats["degraded"]
                shed_seen = stats["shed"]
                assert all(
                    r["algorithm"] in ("amp", "greedy")
                    for r in burst_results
                )
                if degraded_seen and shed_seen:
                    break
            assert degraded_seen >= 1, "degradation never engaged"
            assert shed_seen >= 1, "load shedding never engaged"
            assert stats["deadline_expired"] >= 1

            # -- the pinned assertion: after all injected faults, every
            # surviving session decodes bit-identically to an
            # unperturbed serial decoder on the same query sequence.
            with ServiceClient(host, port) as client:
                for i in range(self.JOBS):
                    session_id = f"chaos-{i}"
                    truth, channel, queries = results[i]
                    status = client.status(session_id)
                    assert status["m"] == self.M_TOTAL  # no double-apply
                    amp = client.decode(
                        session_id, algorithm="amp", return_scores=True
                    )
                    greedy = client.decode(session_id, algorithm="greedy")
                    ref_amp, ref_dec = reference_decode(
                        self.N, truth, channel, queries
                    )
                    assert amp["degraded"] is False
                    assert amp["exact"] == bool(ref_amp.exact)
                    assert np.array_equal(
                        np.asarray(amp["scores"]), ref_amp.scores
                    )
                    assert greedy["separation"] == float(
                        ref_dec.separation()
                    )
        finally:
            barrier.abort()  # release any client still at the rendezvous
            server.stop()
