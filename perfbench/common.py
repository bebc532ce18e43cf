"""Shared helpers: repository paths, summary statistics, host record, memory.

Nothing here imports ``repro``; :mod:`run` checks that the source tree
is present before any module that does is loaded.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys

#: The checkout root: the parent of this package's directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals, logs and temporary files; the benchmark
#: writes nowhere else (it is listed in the root ``.gitignore``).
WORK = os.path.join(ROOT, ".perfbench_work")
#: A run's window is summarised per slice of this many equal parts, and
#: a metric is the median over slices, so a few disturbed seconds (a
#: neighbour's burst, a collector pause) do not move the result.
SLICES = 10


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def median(values) -> float:
    return statistics.median(values)


def lower_quartile(values) -> float:
    """The first quartile, as ``statistics.quantiles`` gives it."""
    values = list(values)
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (*p* in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class SliceSummary:
    """Per-slice summaries of a measured window, built as the run goes.

    Units of work (an engine pass, a served request) are added whole and
    in time order, each at the time it started or completed, so a slice
    is summarised as soon as the next one begins and memory does not
    grow with the run.  A slice's rate is its changes over the seconds
    its units were busy when those are given, else over its width.
    """

    def __init__(self, window: float, count: int = SLICES) -> None:
        self.count = count
        self.width = window / count
        self.index = None
        self.latencies: list[float] = []
        self.changes = 0
        self.busy = 0.0
        #: ``(changes, seconds, p50 ms, p99 ms, samples)`` per closed slice.
        self.rows: list[tuple] = []

    def add(self, at: float, latencies, changes: int, busy: float = 0.0) -> None:
        index = min(self.count - 1, int(at / self.width))
        if index != self.index:
            self._close()
            self.index = index
        self.latencies.extend(latencies)
        self.changes += changes
        self.busy += busy

    def _close(self) -> None:
        if self.latencies:
            values = [1e3 * latency for latency in self.latencies]
            self.rows.append((
                self.changes,
                self.busy or self.width,
                percentile(values, 50),
                percentile(values, 99),
                len(values),
            ))
        self.latencies, self.changes, self.busy = [], 0, 0.0

    def finish(self) -> "SliceSummary":
        self._close()
        return self

    def metrics(self) -> dict:
        """The end-to-end rate and latencies: medians over slices."""
        return {
            "wme_changes_per_s": (median(c / s for c, s, *_ in self.rows), "changes/s"),
            "latency_p50_ms": (median(row[2] for row in self.rows), "ms"),
            "latency_p99_ms": (median(row[3] for row in self.rows), "ms"),
        }

    def halves(self) -> tuple[float, float]:
        """Rate over the first and the second half of the slices, so
        drift within a run shows instead of being averaged away."""
        half = len(self.rows) // 2
        parts = (self.rows[:half] or self.rows, self.rows[half:])
        return tuple(sum(r[0] for r in part) / sum(r[1] for r in part) for part in parts)

    def samples(self) -> dict:
        return {
            "latency": sum(row[4] for row in self.rows),
            "slices": len(self.rows),
            "smallest_slice": min(row[4] for row in self.rows),
        }


def host_record(seed: int) -> dict:
    """What a result needs to be compared with another host's."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "seed": seed,
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_alive(pid: int) -> bool:
    """True while *pid* runs (a zombie has exited and counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")
