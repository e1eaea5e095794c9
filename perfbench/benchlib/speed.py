"""CPU-speed normalisation against a reference computation.

On a shared host the speed of a virtual CPU can swing by 2x over
seconds (other tenants, frequency changes), which moves every CPU-bound
timing by as much.  A :class:`Meter` times a fixed pure-Python
computation every ``interval`` seconds on a helper thread while the
measured work runs on the main thread; scaling the work's time by
``REF_MS / probe`` reports it as it would run at the reference speed.
Only CPU-bound, single-threaded work of the benchmark process is scaled:
the two vCPUs swing independently, so a probe says nothing reliable
about another process's CPU.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

#: Duration of :func:`probe` on an uncontended 2.0 GHz Xeon vCPU, ms.
REF_MS = 0.9

_ITERATIONS = 10_000


def probe() -> float:
    """Milliseconds this thread takes for a fixed pure-Python computation."""
    begin = time.perf_counter()
    total, table = 0, {}
    for i in range(_ITERATIONS):
        total += i * i
        table[i & 255] = total
    return (time.perf_counter() - begin) * 1e3


class Meter:
    """Probes taken every ``interval`` seconds on a helper thread while
    the measured work runs on the main thread.

    The process is pinned to one CPU for the duration, so the probes see
    the speed of the CPU the work runs on; the work measured this way is
    single-threaded, so pinning takes no CPU away from it.  Probes are
    timed in thread CPU time, which leaves out waiting for the
    interpreter lock.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self._interval = interval
        self._samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._affinity: set[int] = set()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            begin = time.thread_time()
            probe()
            self._samples.append((time.thread_time() - begin) * 1e3)

    def __enter__(self) -> "Meter":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def mark(self) -> int:
        return len(self._samples)

    def factor(self, mark: int) -> float:
        """``REF_MS`` over the median probe since ``mark``, or over the
        latest probe if none has been taken since."""
        window = self._samples[mark:] or self._samples[-1:]
        if not window:
            raise RuntimeError("no reference probe taken yet")
        return REF_MS / statistics.median(window)

    def scaled_since(self, mark: int, seconds: float) -> float:
        """``seconds`` at the reference speed, by the probes since ``mark``."""
        return seconds * self.factor(mark)
