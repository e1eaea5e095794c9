"""Shared run context, results and small helpers for the workloads."""

from __future__ import annotations

import os
import re
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from benchlib import stats


@dataclass
class Context:
    """What one benchmark run knows: seed, duration, scratch directory,
    and the environment under which ``python -m repro`` finds the
    checkout's sources."""

    seed: int
    seconds: float
    root: Path
    work: Path

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    @property
    def python(self) -> str:
        return sys.executable

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """A run's result: the metrics of ``BENCHMARK.json`` (end-to-end, or
    per-layer in a traced run), the human-readable report under the
    names of ``perfbench/README.md``, and the tallies of operations and
    output checks."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; a failure is reported by name."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.report.append(f"CHECK FAILED: {what}")

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        suffix = f"  [{note}]" if note else ""
        self.report.append(f"{name} = {value:.6g} {unit}{suffix}")

    def timing(self, name: str, values_ms: list[float], unit: str = "ms") -> None:
        """``<name>_p50`` and ``<name>_p99`` lines, the latter at the
        highest percentile with ten samples beyond it."""
        self.line(f"{name}_p50", stats.median(values_ms), unit, f"n={len(values_ms)}")
        try:
            value, q = stats.tail(values_ms, 99.0)
            self.line(f"{name}_p99", value, unit,
                      f"nearest-rank p{q:.4g}, n={len(values_ms)}")
        except ValueError as exc:
            self.report.append(f"{name}_p99 = n/a  [{exc}]")

    def error_ratio(self) -> None:
        ratio = self.failed / self.attempted if self.attempted else 0.0
        self.line("error_ratio", ratio, "failed/attempted",
                  f"{self.failed} of {self.attempted}")


@contextmanager
def stopwatch() -> Iterator[list[float]]:
    """``with stopwatch() as t: ...`` leaves the elapsed seconds in ``t[0]``."""
    box = [0.0]
    begin = time.perf_counter()
    try:
        yield box
    finally:
        box[0] = time.perf_counter() - begin


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def prom_sum(text: str, name: str) -> float:
    """Sum of every sample of metric ``name`` in Prometheus text."""
    total = 0.0
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match and match.group(1) == name:
            total += float(match.group(3))
    return total


def io_write_bytes() -> int:
    """Bytes this process has caused to be written to storage so far."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("write_bytes:"):
            return int(line.split()[1])
    return 0
