"""Hardened wire protocol + elastic executor, driven by fault injection.

Covers the frame-level armor (size cap before allocation, HMAC before
unpickling, versioned handshake), the connect/backoff ladder, liveness
(pings answered mid-chunk, heartbeat timeout on a wedged worker), and
the :class:`~repro.experiments.faults.FaultyWorkerProxy` recovery
paths — every completed sweep bit-identical to serial no matter what
the proxy does to the wire.
"""

import socket
import threading
import time

import pytest

import repro
from repro.experiments import parallel
from repro.experiments.faults import FaultyWorkerProxy
from repro.experiments.scheduler import SweepExecutor, SweepPlan
from repro.experiments.worker import (
    AUTH_TOKEN_ENV,
    MAX_FRAME_ENV,
    AuthError,
    FrameTooLarge,
    ProtocolError,
    _reply_while_computing,
    client_handshake,
    connect,
    connect_with_retry,
    max_frame_bytes,
    recv_message,
    resolve_auth_key,
    resolve_connect_retry,
    send_message,
    serve_worker,
    start_local_workers,
)


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    parallel.shutdown_pool()


@pytest.fixture(scope="module")
def socket_hosts():
    hosts, shutdown = start_local_workers(2)
    yield hosts
    shutdown()


def make_plan():
    plan = SweepPlan()
    plan.add_required_queries(
        120, 3, repro.ZChannel(0.1), trials=8, seed=5, check_every=4
    )
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.1), [60, 120], trials=4, seed=6
    )
    return plan


@pytest.fixture(scope="module")
def serial_reference():
    return repr(make_plan().run(backend="serial"))


# -- framing ------------------------------------------------------------


class TestFrames:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, ("hello", 1))
            assert recv_message(b) == ("hello", 1)
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
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_frame_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_FRAME_ENV, "64")
        assert max_frame_bytes() == 64
        a, b = socket.socketpair()
        try:
            send_message(a, ("spec", "k", {"payload": "x" * 256}))
            with pytest.raises(FrameTooLarge):
                recv_message(b)
        finally:
            a.close()
            b.close()
        monkeypatch.setenv(MAX_FRAME_ENV, "not-a-number")
        with pytest.raises(ValueError, match=MAX_FRAME_ENV):
            max_frame_bytes()

    def test_wrong_key_rejected_before_unpickle(self):
        a, b = socket.socketpair()
        try:
            send_message(a, ("chunk",), key=resolve_auth_key("token-a"))
            with pytest.raises(AuthError, match="HMAC"):
                recv_message(b, key=resolve_auth_key("token-b"))
        finally:
            a.close()
            b.close()

    def test_tampered_payload_rejected(self):
        a, b = socket.socketpair()
        try:
            import hashlib
            import hmac as hmac_module
            import pickle

            from repro.experiments.worker import _HEADER

            key = resolve_auth_key()
            payload = pickle.dumps(("ok", [1, 2, 3]))
            tag = hmac_module.new(key, payload, hashlib.sha256).digest()
            tampered = bytes([payload[0] ^ 1]) + payload[1:]
            a.sendall(_HEADER.pack(len(tampered)) + tag + tampered)
            with pytest.raises(AuthError):
                recv_message(b, key=key)
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


# -- handshake / server -------------------------------------------------


@pytest.fixture()
def live_worker():
    """One in-thread worker on an ephemeral port (no spawn overhead)."""
    box = {}
    ready = threading.Event()

    def serve():
        try:
            serve_worker(
                "127.0.0.1",
                0,
                ready=lambda p: (box.update(port=p), ready.set()),
            )
        except OSError:
            pass  # listener torn down at test exit

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10)
    yield "127.0.0.1", box["port"]


class TestHandshake:
    def test_welcome(self, live_worker):
        conn = connect(live_worker)
        try:
            client_handshake(conn)  # no exception = welcomed
            send_message(conn, ("ping",))
            assert recv_message(conn) == ("pong",)
        finally:
            conn.close()

    def test_wrong_token_dropped(self, live_worker):
        conn = connect(live_worker)
        try:
            with pytest.raises(AuthError, match=AUTH_TOKEN_ENV):
                client_handshake(conn, key=resolve_auth_key("wrong"))
        finally:
            conn.close()

    def test_version_mismatch_rejected(self, live_worker):
        conn = connect(live_worker)
        try:
            send_message(conn, ("hello", 999))
            reply = recv_message(conn)
            assert reply[0] == "reject"
            assert "protocol" in reply[1]
        finally:
            conn.close()

    def test_ping_answered_mid_chunk(self):
        """The liveness guarantee: a worker busy computing still
        answers probes, so slow != dead."""
        a, b = socket.socketpair()
        key = resolve_auth_key()
        box = {}

        def serve():
            box["reply"] = _reply_while_computing(
                b, key, lambda: time.sleep(0.6) or 42
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            send_message(a, ("ping",), key)
            assert recv_message(a, key) == ("pong",)  # while computing
            thread.join(timeout=10)
            assert box["reply"] == ("ok", 42)
        finally:
            a.close()
            b.close()

    def test_bind_failure_propagates(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen()
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(OSError, match="could not bind"):
                serve_worker("127.0.0.1", port)
        finally:
            blocker.close()


# -- connect retry ------------------------------------------------------


class TestConnectRetry:
    def test_budget_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONNECT_RETRY", raising=False)
        assert resolve_connect_retry() == 30.0
        monkeypatch.setenv("REPRO_CONNECT_RETRY", "3.5")
        assert resolve_connect_retry() == 3.5
        assert resolve_connect_retry(1.0) == 1.0
        with pytest.raises(ValueError):
            resolve_connect_retry(-1)

    def test_late_worker_is_reached(self):
        """The worker host is still booting: retries must bridge the
        gap instead of failing the sweep on the first refusal."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        def late_start():
            time.sleep(0.6)
            serve_worker("127.0.0.1", port)

        threading.Thread(target=late_start, daemon=True).start()
        conn = connect_with_retry(("127.0.0.1", port), budget=15.0)
        try:
            send_message(conn, ("ping",))
            assert recv_message(conn) == ("pong",)
        finally:
            conn.close()

    def test_budget_exhaustion_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        with pytest.raises(OSError, match="could not reach worker"):
            connect_with_retry(("127.0.0.1", port), budget=0.4)
        assert time.monotonic() - started < 10

    def test_cancelled_aborts_with_none(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert (
            connect_with_retry(
                ("127.0.0.1", port), budget=30.0, cancelled=lambda: True
            )
            is None
        )


# -- fault-injection recovery (the chaos paths) -------------------------


class TestFaultRecovery:
    def test_proxy_passthrough(self, socket_hosts, serial_reference):
        proxy = FaultyWorkerProxy(socket_hosts[0]).start()
        try:
            got = make_plan().run(
                backend="socket",
                hosts=[proxy.address, socket_hosts[1]],
                connect_retry=0.5,
            )
            assert repr(got) == serial_reference
            assert proxy.chunks_relayed > 0
        finally:
            proxy.stop()

    def test_worker_killed_mid_sweep(self, socket_hosts, serial_reference):
        proxy = FaultyWorkerProxy(
            socket_hosts[0], kill_after_chunks=2
        ).start()
        try:
            ex = SweepExecutor(
                backend="socket",
                hosts=[proxy.address, socket_hosts[1]],
                connect_retry=0.5,
            )
            got = ex.run(make_plan())
            assert repr(got) == serial_reference
            stats = ex.last_socket_stats
            assert (
                stats["retired"]
                or stats["reconnects"]
                or stats["speculated"]
            )
        finally:
            proxy.stop()

    def test_wedged_worker_heartbeat_timeout(
        self, socket_hosts, serial_reference
    ):
        proxy = FaultyWorkerProxy(
            socket_hosts[0], freeze_after_chunks=1
        ).start()
        try:
            ex = SweepExecutor(
                backend="socket",
                hosts=[proxy.address, socket_hosts[1]],
                connect_retry=0.5,
                heartbeat_interval=0.2,
                heartbeat_timeout=1.0,
            )
            got = ex.run(make_plan())
            assert repr(got) == serial_reference
            assert ex.last_socket_stats["heartbeat_timeouts"] > 0
        finally:
            proxy.stop()

    def test_straggler_speculation(self, socket_hosts, serial_reference):
        # The held reply outlasts the healthy worker's whole share of the
        # sweep (a second or two), so that worker goes idle while the
        # straggler's chunk is past the deadline: speculation is certain.
        # The sweep then ends on the duplicate, and stop() drops the
        # held reply, so the delay never adds to the test's wall time.
        proxy = FaultyWorkerProxy(socket_hosts[0], delay_reply=20.0).start()
        try:
            ex = SweepExecutor(
                backend="socket",
                hosts=[proxy.address, socket_hosts[1]],
                connect_retry=0.5,
                speculate=0.5,
            )
            got = ex.run(make_plan())
            assert repr(got) == serial_reference
            assert ex.last_socket_stats["speculated"] > 0
        finally:
            proxy.stop()

    def test_corrupted_reply_recovered(
        self, socket_hosts, serial_reference
    ):
        proxy = FaultyWorkerProxy(
            socket_hosts[0], corrupt_reply_index=1
        ).start()
        try:
            ex = SweepExecutor(
                backend="socket",
                hosts=[proxy.address, socket_hosts[1]],
                connect_retry=0.5,
            )
            got = ex.run(make_plan())
            assert repr(got) == serial_reference
            assert ex.last_socket_stats["reconnects"] > 0
        finally:
            proxy.stop()

    def test_unauthenticated_driver_rejected(self, socket_hosts):
        proxy = FaultyWorkerProxy(
            socket_hosts[0], corrupt_first_frame=True
        ).start()
        try:
            with pytest.raises((AuthError, ProtocolError)):
                connect_with_retry(
                    ("127.0.0.1", proxy.port), budget=0.5
                )
        finally:
            proxy.stop()

    def test_speculation_disabled_by_zero(self, socket_hosts):
        ex = SweepExecutor(
            backend="socket",
            hosts=list(socket_hosts),
            connect_retry=0.5,
            speculate=0,
        )
        plan = SweepPlan()
        plan.add_required_queries(
            100, 3, repro.ZChannel(0.1), trials=4, seed=1
        )
        ex.run(plan)
        assert ex.last_socket_stats["speculated"] == 0
