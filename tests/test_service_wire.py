"""The decode service's wire against hostile frames.

Nothing a peer sends is executed: no module of the service imports
pickle, and a pickle frame carrying a valid tag is dropped before any
request is dispatched. With no token set, the tag key is a constant,
so any peer can tag any frame; hypothesis therefore sends correctly
tagged frames of every kind, in the cut/flip idiom of
``tests/test_session_log.py``: valid request bodies cut short or with
one byte flipped, and arbitrary JSON headers. Each must end in an
answer that is not an internal error, or in a dropped connection; none
may hang, and none may change a session's queries or applied map
without acknowledging an ingest.

The frame bytes are pinned too: a :class:`~repro.service.wire.FrameCodec`
seals exactly the bytes ``json.dumps(..., sort_keys=True)`` and
``hmac.new(key, body, sha256)`` give, under any key length.
"""

import ast
import asyncio
import contextlib
import hashlib
import hmac
import itertools
import json
import pickle
import socket
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.service
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.server import DecodeService

from reference import measured_query, pack_queries

N, K, GAMMA = 30, 2, 4
CHANNEL = {"kind": "z", "p": 0.1}
#: a live answer's error codes; ``internal`` is never one of them
ANSWER_CODES = {
    "invalid_request", "unknown_session", "session_conflict",
    "deadline_exceeded",
}


@contextlib.contextmanager
def live_server():
    """A :class:`DecodeService` serving on an event loop in a thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    service = DecodeService()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(30)

    try:
        host, port = run(service.start())
        yield service, host, port
    finally:
        run(service.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()


def tagged(key, body):
    """A whole frame: ``body`` under a valid length and tag."""
    tag = hmac.new(key, body, hashlib.sha256).digest()
    return len(body).to_bytes(8, "big") + tag + body


def exchange(port, key, frame, handshake=True):
    """Send one frame; the answer, or ``None`` if the server hung up."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        if handshake:
            wire.client_handshake(conn, key)
        conn.sendall(frame)
        # a hang shows as a timeout, which fails the test
        try:
            reply = wire.recv_message(conn, key)
        except ConnectionResetError:
            return None
        return None if reply is None else wire.unpack_response(*reply)


def test_no_service_module_imports_pickle():
    # A sys.modules check cannot tell: NumPy imports pickle itself.
    for path in sorted(Path(repro.service.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(
                name.split(".")[0] in ("pickle", "_pickle") for name in names
            ), f"{path.name} imports {names}"


def test_tagged_pickle_frame_is_dropped_unread(monkeypatch):
    loaded = []

    def refuse(*args, **kwargs):
        loaded.append(args)
        raise AssertionError("pickle.loads ran on a wire frame")

    monkeypatch.setattr(pickle, "loads", refuse)
    with live_server() as (service, _, port):
        key = service.key
        # a pickle-speaking peer's hello, then a pickled request sent
        # after a good handshake: both tagged with the server's key
        hello = tagged(key, pickle.dumps(("hello", "service", 1)))
        assert exchange(port, key, hello, handshake=False) is None
        assert loaded == []
        request = tagged(key, pickle.dumps({"op": "status"}))
        assert exchange(port, key, request) is None
        assert loaded == []
        assert service.counters["requests"] == 0


# -- fuzzing ------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzzed():
    """A live server holding session ``fz``, plus a pool of valid
    queries and a request-id counter for fresh ingests."""
    rng = np.random.default_rng(7)
    truth = repro.sample_ground_truth(N, K, rng)
    queries = [
        measured_query(N, GAMMA, truth.sigma, repro.ZChannel(0.1), rng)
        for _ in range(40)
    ]
    with live_server() as (service, host, port):
        with ServiceClient(host, port) as client:
            client.open_session(
                "fz", N, truth.sigma, channel=CHANNEL, gamma=GAMMA
            )
            client.ingest("fz", queries[:20])
        yield service, port, truth.sigma, queries, itertools.count()


def valid_body(kind, fuzzed, data):
    """One correctly formed request body of the given kind."""
    _, _, sigma, queries, ids = fuzzed
    if kind == "open_session":
        # fixed-width ids: a body's length depends on the draws alone
        fresh = f"fz-{next(ids):08d}"
        session_id = data.draw(st.sampled_from(["fz", fresh]))
        return wire.pack_body({
            "op": "open_session", "session_id": session_id, "n": N,
            "gamma": GAMMA, "channel": CHANNEL, "centering": "half_k",
        }, sigma.astype("<i1"))
    if kind == "ingest":
        lo = data.draw(st.integers(0, len(queries) - 3))
        block = queries[lo:lo + data.draw(st.integers(0, 3))]
        header, arrays = wire.ingest_parts(
            {"op": "ingest", "session_id": "fz",
             "request_id": f"i{next(ids):08d}"},
            *pack_queries(block),
        )
        return wire.pack_body(header, *arrays)
    if kind == "decode":
        return wire.pack_body({
            "op": "decode", "session_id": "fz",
            "algorithm": data.draw(st.sampled_from(["amp", "greedy"])),
            "m": data.draw(st.sampled_from([None, 5, 20])),
            "deadline": None,
            "return_scores": data.draw(st.booleans()),
        })
    return wire.pack_body({"op": kind, "session_id": "fz"})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
FIELDS = {
    "session_id": st.sampled_from(["fz", "fz-x"]),
    "request_id": st.sampled_from(["fuzz"]),
    "n": st.sampled_from([N]),
    "gamma": st.sampled_from([GAMMA, None]),
    "channel": st.fixed_dictionaries(
        {"kind": st.sampled_from(["z", "channel", "noiseless"]) | json_values},
        optional={"p": st.floats(0, 1) | json_values, "q": json_values},
    ),
    "centering": st.sampled_from(["half_k", "oracle"]),
    "queries": st.integers(-1, 3),
    "algorithm": st.sampled_from(["amp", "greedy"]),
    "m": st.integers(-1, 30),
    "deadline": st.floats(0, 5),
    "return_scores": st.booleans(),
}
OPS = [
    "open_session", "ingest", "decode", "status", "healthz", "readyz",
    "stats",
]
headers = st.fixed_dictionaries(
    {"op": st.sampled_from(OPS) | json_values},
    optional={name: values | json_values for name, values in FIELDS.items()},
)


def state(service):
    return {
        session_id: (session.m, dict(session.applied))
        for session_id, session in service.sessions.items()
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hostile_frames_answer_or_drop(fuzzed, data):
    service, port, *_ = fuzzed
    shape = data.draw(st.sampled_from(["cut", "flip", "header"]))
    if shape == "header":
        body = wire.pack_body(
            data.draw(headers), data.draw(st.binary(max_size=24))
        )
    else:
        kind = data.draw(
            st.sampled_from(["open_session", "ingest", "decode", "status"])
        )
        body = bytearray(valid_body(kind, fuzzed, data))
        at = data.draw(st.integers(0, len(body) - 1))
        if shape == "cut":
            del body[at:]
        else:
            body[at] ^= data.draw(st.integers(1, 255))
        body = bytes(body)
    before = state(service)
    reply = exchange(port, service.key, tagged(service.key, body))
    if reply is not None and not reply["ok"]:
        assert reply["error"]["code"] in ANSWER_CODES, reply
    acked = (
        reply["session_id"]
        if reply is not None and reply["ok"] and "replayed" in reply
        else None
    )
    after = state(service)
    for session_id, held in before.items():
        if session_id != acked:
            assert after[session_id] == held, (reply, body)


# -- frame bytes --------------------------------------------------------

#: a token's key is a sha256 digest (32 bytes); the integrity key is 24
#: bytes; a raw key past the 64-byte block is hashed first (RFC 2104)
KEYS = [
    wire.resolve_auth_key(None), wire.resolve_auth_key("a token"),
    bytes(range(100)),
]

header_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats(width=64).map(np.float64)
    | st.booleans().map(np.bool_)
)
frame_headers = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        header_scalars,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=12,
    ),
    max_size=6,
)
frame_arrays = st.lists(
    st.sampled_from(["<i8", "<f8", "<i1", "<u2"]).flatmap(
        lambda dtype: st.lists(st.integers(0, 100), max_size=9).map(
            lambda values: np.array(values, dtype=dtype)[::2]
        )
    ),
    max_size=3,
)


def golden_frame(key, header, arrays):
    """The frame the pre-codec seal wrote: ``json.dumps`` header, body,
    then ``hmac.new`` tag."""
    head = json.dumps(
        header, sort_keys=True, default=lambda value: value.item()
    ).encode("ascii")
    body = b"".join(
        [wire._HEAD.pack(len(head)), head]
        + [np.ascontiguousarray(a).tobytes() for a in arrays]
    )
    tag = hmac.new(key, body, hashlib.sha256).digest()
    return wire._LENGTH.pack(len(body)) + tag + body


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(KEYS) | st.binary(max_size=160),
    header=frame_headers,
    arrays=frame_arrays,
)
def test_seal_writes_the_golden_bytes(key, header, arrays):
    codec = wire.FrameCodec(key)
    frame = golden_frame(key, header, arrays)
    assert codec.seal(header, arrays) == frame
    assert codec.tag(b"") == hmac.new(key, b"", hashlib.sha256).digest()
    opened, payload = codec.open(frame[wire._LENGTH.size:])
    assert wire.pack_body(opened) == wire.pack_body(header)
    assert bytes(payload) == b"".join(
        np.ascontiguousarray(a).tobytes() for a in arrays
    )


@pytest.mark.parametrize("key", KEYS, ids=["integrity", "token", "long"])
def test_every_send_path_writes_the_golden_bytes(key):
    header = {"op": "decode", "m": np.int64(20), "p": np.float64(0.1)}
    arrays = [np.arange(4, dtype="<f8")]
    frame = golden_frame(key, header, arrays)
    a, b = socket.socketpair()
    try:
        for sealer in (key, wire.FrameCodec(key)):
            wire.send_message(a, sealer, header, arrays)
            assert b.recv(len(frame) + 1) == frame

        async def written():
            transport = []

            class Writer:
                write = transport.append

                async def drain(self):
                    pass

            await wire.write_frame(
                Writer(), wire.FrameCodec(key), header, arrays
            )
            return b"".join(transport)

        assert asyncio.run(written()) == frame
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize(
    "text", ['{"op": "x"} {"op": "y"}', '{"op": "x"}x', '{"op": "x"}]'],
)
def test_open_rejects_trailing_header_bytes(text):
    codec = wire.FrameCodec(KEYS[0])
    head = text.encode("ascii")
    frame = tagged(KEYS[0], wire._HEAD.pack(len(head)) + head)
    with pytest.raises(wire.ProtocolError, match="trailing"):
        codec.open(frame[wire._LENGTH.size:])


@pytest.mark.parametrize("at", [0, 31], ids=["first", "last"])
def test_open_rejects_a_tampered_tag(at):
    codec = wire.FrameCodec(KEYS[1])
    frame = bytearray(codec.seal({"op": "ok"}, [np.arange(3)]))
    frame[wire._LENGTH.size + at] ^= 1
    with pytest.raises(wire.AuthError):
        codec.open(bytes(frame[wire._LENGTH.size:]))


def test_a_codec_reads_the_frame_cap_once(monkeypatch):
    monkeypatch.setenv(wire.MAX_FRAME_ENV, "64")
    codec = wire.FrameCodec(KEYS[0])
    monkeypatch.setenv(wire.MAX_FRAME_ENV, str(1 << 20))
    assert codec.frame_length(wire._LENGTH.pack(64)) == 32 + 64
    with pytest.raises(wire.FrameTooLarge, match="64-byte cap"):
        codec.frame_length(wire._LENGTH.pack(65))



def test_endpoints_read_their_settings_once(monkeypatch):
    # The frame cap and the retry budget are read when a client or a
    # server is built, never per frame or per call.
    monkeypatch.setenv(wire.MAX_FRAME_ENV, "64")
    monkeypatch.setenv(wire.CONNECT_RETRY_ENV, "0.5")
    client = ServiceClient("127.0.0.1", 9)
    service = DecodeService()
    monkeypatch.setenv(wire.MAX_FRAME_ENV, "not-a-number")
    monkeypatch.setenv(wire.CONNECT_RETRY_ENV, "not-a-number")
    assert client._frames.cap == service.frames.cap == 64
    assert client._retry_budget == 0.5
