"""The benchmark's HTTP client: at most ``nproc`` persistent connections.

Every request goes over a long-lived keep-alive connection, as a pooling
client (a browser, a load balancer) would send it.  The client never
falls back to one connection per request: that would hide the latency of
reused connections, which is exactly what it must expose.  A connection
the server closes is reopened and counted in ``reconnects``.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from benchlib.inputs import Request

#: Load comes from at most this many connections (and threads).
MAX_CONNECTIONS = min(2, os.cpu_count() or 1)

#: Per-request socket timeout, seconds.
TIMEOUT = 30.0


class Connection:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT)
        self._conn.connect()
        self.reconnects = 0

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        if self._conn.sock is None:
            self.reconnects += 1
            self._conn.connect()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            raise

    def close(self) -> None:
        self._conn.close()


def split_url(url: str) -> tuple[str, int]:
    host, port = url.removeprefix("http://").rstrip("/").rsplit(":", 1)
    return host, int(port)


@dataclass
class Phase:
    """Per-phase tallies and per-request samples."""

    name: str
    latencies_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    kinds: dict[str, list[float]] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.name}: sent {self.sent}, succeeded {self.succeeded}, "
            f"failed {self.failed} in {self.elapsed_s:.2f}s"
        )


Checker = Callable[[Request, int, bytes], bool]


class Pool:
    """``MAX_CONNECTIONS`` connections, one sending thread each."""

    def __init__(self, url: str, size: int = MAX_CONNECTIONS, tracer=None) -> None:
        host, port = split_url(url)
        self.connections = [Connection(host, port) for _ in range(size)]
        self._tracer = tracer

    @property
    def reconnects(self) -> int:
        return sum(c.reconnects for c in self.connections)

    def close(self) -> None:
        for conn in self.connections:
            conn.close()

    def _drive(self, phase: Phase, worker: Callable[[Connection], None]) -> None:
        threads = [
            threading.Thread(target=worker, args=(conn,), daemon=True)
            for conn in self.connections
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT * 4 + 60)
        phase.elapsed_s = time.perf_counter() - begin
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"{phase.name}: a client thread did not finish")

    def _send(
        self, conn: Connection, req: Request, check: Checker, phase: Phase,
        lock: threading.Lock, rid: str,
    ) -> float:
        try:
            if self._tracer is None:
                status, body = conn.request(req.method, req.path, req.body)
            else:
                with self._tracer.span(f"client.{req.kind}", rid=rid):
                    status, body = conn.request(req.method, req.path, req.body)
            ok = check(req, status, body)
        except (OSError, http.client.HTTPException):
            ok = False
        end = time.perf_counter()
        with lock:
            phase.sent += 1
            if ok:
                phase.succeeded += 1
            else:
                phase.failed += 1
        return end

    def open_loop(
        self, requests: Sequence[Request], rate: float, check: Checker,
        name: str = "open-loop", session: int = 1,
    ) -> Phase:
        """Sessions of ``session`` consecutive requests arrive at ``rate``
        per second, session ``j`` due at ``t0 + j / rate``, whether or not
        earlier ones have finished.

        A session waits for a free connection if every one is busy, then
        sends its requests one after another on that connection, each due
        when the previous reply arrived.  Latency is timed from when a
        request was due, not from when it was sent; ``lateness_ms`` is how
        long after its due time a session's first request went out.
        """
        phase = Phase(name)
        lock = threading.Lock()
        cursor = iter(range(0, len(requests), session))
        t0 = time.perf_counter() + 0.05

        def worker(conn: Connection) -> None:
            while True:
                with lock:
                    first = next(cursor, None)
                if first is None:
                    return
                due = t0 + first / session / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent_at = time.perf_counter()
                with lock:
                    phase.lateness_ms.append((sent_at - due) * 1e3)
                for i in range(first, min(first + session, len(requests))):
                    req = requests[i]
                    end = self._send(conn, req, check, phase, lock,
                                     f"{phase.name}-{i}")
                    with lock:
                        phase.latencies_ms.append((end - due) * 1e3)
                        phase.kinds.setdefault(req.kind, []).append((end - due) * 1e3)
                    due = end

        self._drive(phase, worker)
        return phase

    def closed_loop(
        self, requests: Sequence[Request], seconds: float, check: Checker,
        name: str = "closed-loop",
    ) -> Phase:
        """Each connection sends its next request as soon as the previous
        reply arrives, cycling through ``requests`` for ``seconds``."""
        phase = Phase(name)
        lock = threading.Lock()
        counter = iter(range(1 << 62))
        stop_at = time.perf_counter() + seconds

        def worker(conn: Connection) -> None:
            while time.perf_counter() < stop_at:
                with lock:
                    i = next(counter) % len(requests)
                begin = time.perf_counter()
                end = self._send(conn, requests[i], check, phase, lock,
                                 f"{phase.name}-{i}")
                with lock:
                    phase.latencies_ms.append((end - begin) * 1e3)

        self._drive(phase, worker)
        return phase
