"""Server processes: start, readiness, resident memory and teardown."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import threading
import time
import urllib.request
from pathlib import Path


class Server:
    """A ``python -m repro ...`` server started in its own session.

    Its stdout is read on a helper thread until EOF, so the pipe never
    fills; every line is kept (the fleet announces its workers there).
    """

    def __init__(self, argv: list[str], env: dict, banner: str, timeout: float = 120.0):
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, start_new_session=True,
        )
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._banner = banner
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout) or self.url is None:
            self.kill()
            raise RuntimeError(f"{' '.join(argv[1:4])} did not print its banner: "
                               f"{self.lines}")

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            if line.startswith(self._banner):
                self._ready.set()
        self._ready.set()

    @property
    def url(self) -> str | None:
        for line in self.lines:
            if line.startswith(self._banner) and " on http://" in line:
                return line.rsplit(" on ", 1)[1].strip()
        return None

    def worker_urls(self) -> list[str]:
        """Addresses the fleet announced for its workers, in shard order."""
        found = {}
        for line in self.lines:
            if line.startswith("[fleet] shard ") and " serving on " in line:
                shard = int(line.split()[2])
                found[shard] = line.rsplit(" on ", 1)[1].strip()
        return [found[k] for k in sorted(found)]

    def wait_healthy(self, timeout: float = 60.0) -> None:
        """Poll ``/healthz`` until it reports ``ok``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                with urllib.request.urlopen(f"{self.url}/healthz", timeout=5) as r:
                    if json.loads(r.read()).get("status") == "ok":
                        return
            except OSError:
                pass
            if time.monotonic() >= deadline:
                raise RuntimeError(f"{self.url} never reported healthy")
            time.sleep(0.02)

    def stop(self, timeout: float = 20.0) -> tuple[float, bool]:
        """SIGTERM and wait up to ``timeout`` for the drain to finish.

        Returns ``(seconds, hung)``.  A server that does not exit in time
        is reported as hung, then its whole session is killed so no
        process outlives the benchmark.
        """
        begin = time.perf_counter()
        try:
            self.proc.terminate()
            self.proc.wait(timeout)
            hung = False
        except subprocess.TimeoutExpired:
            hung = True
            self.kill()
        self._reader.join(10)
        return time.perf_counter() - begin, hung

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
            kids += [int(x) for x in text.split()]
    except OSError:
        pass
    return kids


def rss_kb(pid: int) -> int:
    """Current resident set size of ``pid`` in KiB (0 once it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_kb(pid: int) -> int:
    """Summed resident memory of ``pid`` and all its descendants."""
    total, stack = 0, [pid]
    while stack:
        current = stack.pop()
        total += rss_kb(current)
        stack += _children(current)
    return total


class RssSampler:
    """Peak of the summed resident memory of process trees, sampled every
    ``interval`` seconds on a helper thread while the block runs."""

    def __init__(self, pids: list[int], interval: float = 0.05) -> None:
        self._pids = pids
        self._interval = interval
        self._stop = threading.Event()
        self.peak_kb = 0
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.peak_kb = max(self.peak_kb, sum(tree_rss_kb(p) for p in self._pids))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
