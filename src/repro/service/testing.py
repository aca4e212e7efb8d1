"""Subprocess harness for decode-server tests, smokes, and examples.

Launches ``python -m repro serve`` with an ephemeral port, parses the
ready banner for the bound address, and exposes the two exits the
chaos tests need: a clean ``stop()`` and a ``kill()`` that SIGKILLs
the process mid-stream (no shutdown path runs — exactly the crash the
durable session store must survive).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional

#: the ready banner printed by ``repro serve``; the launcher parses the
#: bound (possibly ephemeral) port out of it
BANNER_RE = re.compile(r"listening on ([^\s:]+):(\d+)")


class ServerProcess:
    """A running ``repro serve`` subprocess.

    A reader thread drains the merged stdout/stderr pipe from launch on
    (so a chatty server never blocks on a full pipe), watching for the
    ready banner; :attr:`host`/:attr:`port` are ``None`` until it shows.
    """

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._lines: List[str] = []
        #: set once the banner is parsed or the pipe hits end of file
        self._ready = threading.Event()
        self._reader = threading.Thread(
            target=self._drain, name="serve-stdout", daemon=True
        )
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line)
            if self.port is None:
                match = BANNER_RE.search(line)
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
                    self._ready.set()
        self._ready.set()

    @property
    def output(self) -> str:
        return "".join(self._lines)

    def _close(self) -> None:
        """Close the pipe once the reaped child's output is drained.

        The reader gets end of file when the child exits; the bounded
        join only guards against a grandchild still holding the pipe.
        """
        self._reader.join(timeout=5)
        self.proc.stdout.close()

    def kill(self) -> None:
        """SIGKILL — the crash injection; no shutdown code runs."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self._close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()


def start_server(
    state_dir,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    args: Optional[List[str]] = None,
    env: Optional[dict] = None,
    timeout: float = 30.0,
) -> ServerProcess:
    """Start a decode server and wait for its ready banner.

    ``env`` entries overlay the inherited environment (use for
    ``REPRO_SERVICE_*`` knobs); ``args`` appends raw CLI flags. The
    default ``port=0`` binds an ephemeral port, read back from the
    banner — so parallel test runs never collide. A server that shows
    no banner within ``timeout`` seconds, even a silent one, is killed
    and reaped, and ``TimeoutError`` raised; one that exits first
    raises ``RuntimeError``.
    """
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", host, "--port", str(port),
        "--state-dir", str(state_dir),
    ] + list(args or [])
    full_env = dict(os.environ)
    if env:
        full_env.update({k: str(v) for k, v in env.items()})
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=full_env,
    )
    server = ServerProcess(proc)
    deadline = time.monotonic() + timeout
    # the event wakes on the banner line itself: no polling delay
    if not server._ready.wait(timeout):
        server.kill()
        raise TimeoutError(
            "server did not print its ready banner within "
            f"{timeout:.0f}s; output so far:\n{server.output}"
        )
    if server.port is None:
        # End of output without a banner: the server is exiting.
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            server.kill()
            raise TimeoutError(
                "server closed its output without a ready banner; "
                f"output:\n{server.output}"
            ) from None
        server._close()
        raise RuntimeError(
            f"server exited with {proc.returncode} before becoming "
            f"ready; output:\n{server.output}"
        )
    return server


__all__ = ["BANNER_RE", "ServerProcess", "start_server"]
