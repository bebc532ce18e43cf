"""The served layers: ``repro serve`` processes for the ledger's rows.

Each served system is the unmodified CLI entry point started as a child
process from the checkout's source tree, on an ephemeral port, and
stopped with SIGINT (the signal that drains a ``--processes`` fleet;
SIGTERM leaves its workers running).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

from repro.serve.client import RuleClient

from common import SRC, median, pid_alive, work_dir

#: The topologies the benchmark starts, as ``repro serve`` arguments.
TOPOLOGIES = {
    "server": [],
    "router": ["--workers", "1"],
    "durable": ["--workers", "1", "--processes"],
}
SPAWN_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
perf = time.perf_counter


class ServedSystem:
    """One ``repro serve`` process tree, from spawn to verified teardown."""

    _spawned = 0

    def __init__(self, topology: str) -> None:
        ServedSystem._spawned += 1
        self.label = f"{topology}-{os.getpid()}-{ServedSystem._spawned}"
        self.args = ["serve", "--host", "127.0.0.1", "--port", "0", *TOPOLOGIES[topology]]
        if "--processes" in self.args:
            journals = work_dir("journals", self.label)
            self.args += ["--durability-dir", journals]
        self.log_path = os.path.join(work_dir("logs"), f"{self.label}.log")
        self.process: subprocess.Popen | None = None
        self.address = None
        self.worker_pids: list[int] = []
        #: Set by stop(): whether the server exited by itself with status
        #: 0, and how many of its worker processes outlived it.
        self.clean = False
        self.orphans = 0

    def start(self) -> float:
        """Spawn and wait until ``ping`` answers; returns the seconds taken."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        began = perf()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", *self.args],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
            )
        self.address = self._announced(began)
        with RuleClient(self.address, timeout=SPAWN_TIMEOUT) as client:
            client.ping()
            self.worker_pids = self.stats(client).get("router", {}).get("fleet", {}).get("pids", [])
        return perf() - began

    def _announced(self, began: float):
        while perf() - began < SPAWN_TIMEOUT:
            with open(self.log_path) as log:
                for line in log:
                    if line.startswith(("serving on ", "routing on ")):
                        host, port = line.split()[2].rsplit(":", 1)
                        return host, int(port)
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"{self.label} did not announce an address (see {self.log_path})")

    @staticmethod
    def stats(client: RuleClient) -> dict:
        return client.request("stats")

    def stop(self) -> int:
        """SIGINT the server, wait for it, and return how many of its
        worker processes outlived it (each is then killed)."""
        if self.process is None:
            return 0
        self.process.send_signal(signal.SIGINT)
        try:
            self.clean = self.process.wait(timeout=STOP_TIMEOUT) == 0
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            self.clean = False
        deadline = perf() + 10.0
        while perf() < deadline and any(pid_alive(p) for p in self.worker_pids):
            time.sleep(0.05)
        orphans = [pid for pid in self.worker_pids if pid_alive(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        self.orphans = len(orphans)
        self.process = None
        if "--processes" in self.args:
            shutil.rmtree(self.args[-1], ignore_errors=True)
        if self.clean and not orphans:
            os.remove(self.log_path)
        return self.orphans

    def teardown_problems(self) -> list[str]:
        problems = []
        if not self.clean:
            problems.append(f"{self.label} did not exit cleanly on SIGINT (log {self.log_path})")
        if self.orphans:
            problems.append(f"{self.orphans} worker process(es) of {self.label} outlived it")
        return problems


def session_latency(stats: dict):
    """Median over live sessions of their enqueue-to-reply p50 and p99
    (ms), or None when no live session has answered a request yet."""
    rows = [
        row["latency"] for row in stats.get("sessions", {}).values()
        if row.get("latency", {}).get("samples")
    ]
    if not rows:
        return None
    return (
        1e3 * median([row["p50"] for row in rows]),
        1e3 * median([row["p99"] for row in rows]),
    )




def durability_metrics(stats: dict) -> dict:
    """The router-side counters of a ``stats`` reply, as per-layer metrics."""
    router = stats.get("router", {})
    durability = router.get("durability", {})
    appends = durability.get("appends", 0)
    return {
        "serve.durability.appends": (appends, "count"),
        "serve.durability.bytes_per_append": (
            durability.get("bytes_appended", 0) / appends if appends else 0.0, "bytes"
        ),
        "serve.durability.checkpoints": (durability.get("checkpoints", 0), "count"),
        "serve.durability.fsyncs": (durability.get("fsyncs", 0), "count"),
        "serve.router.errors": (router.get("errors", 0), "count"),
        "serve.router.rejected": (router.get("rejected", 0), "count"),
        "serve.router.lost_sessions": (len(router.get("lost_sessions", ())), "count"),
        "serve.fleet.restarts": (sum(router.get("fleet", {}).get("restarts", ())), "count"),
    }


def lost_sessions(stats: dict) -> list[str]:
    lost = stats.get("router", {}).get("lost_sessions", ())
    return [f"router lost sessions {list(lost)!r}"] if lost else []
