"""Shard transports, and the one process wire: a pickled pipe.

Two transports exist (:data:`TRANSPORTS`):

``pipe``
    Each shard is a worker process (:func:`~repro.parallel.worker.shard_main`)
    behind a ``multiprocessing.Pipe``; commands and replies are whole
    pickled tuples, one syscall pair and one pickle round-trip per
    message.  :class:`_ProcessShard` is the coordinator's end of it.
``local``
    Not a wire at all: shards run as threads in the coordinator's
    address space and a dispatch is an append to a shared deque (see
    :mod:`repro.parallel.local`).

Both run the same :class:`~repro.parallel.worker.ShardState` on the
compiled kernel; only the dispatch cost differs.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional, Sequence

from ..faults.plan import FaultPlan
from . import messages
from .supervisor import ShardFailure
from .worker import shard_main

__all__ = ["TRANSPORTS", "TransportStats"]

TRANSPORTS = ("pipe", "local")


@dataclass
class TransportStats:
    """Coordinator-side wire accounting for one pipe (or a rollup)."""

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0
    send_seconds: float = 0.0
    recv_seconds: float = 0.0

    def absorb(self, other: "TransportStats") -> None:
        self.frames_sent += other.frames_sent
        self.bytes_sent += other.bytes_sent
        self.frames_received += other.frames_received
        self.bytes_received += other.bytes_received
        self.send_seconds += other.send_seconds
        self.recv_seconds += other.recv_seconds

    def snapshot(self) -> dict:
        return asdict(self)


class _ProcessShard:
    """Coordinator-side handle for one worker process.

    All pipe I/O funnels through :meth:`_send_bytes` and :meth:`collect`,
    which translate the three ways a worker can disappear -- broken pipe
    on send, EOF on receive, silence past the deadline -- into a
    :class:`ShardFailure` naming the shard and the cause, so the
    executor's recovery path sees one exception type everywhere.
    Pickling happens here rather than in ``conn.send`` so byte counts
    are observable and pre-pickled restore messages ship as they are.
    """

    def __init__(self, ctx, index: int, fault_plan: Optional[FaultPlan] = None) -> None:
        self.index = index
        self.stats = TransportStats()
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=shard_main,
            args=(child, index, fault_plan),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        self.process.start()
        child.close()

    def _send_bytes(self, payload: bytes) -> None:
        start = time.perf_counter()
        try:
            self.conn.send_bytes(payload)
        except (EOFError, OSError):
            raise ShardFailure(self.index, "crash", "pipe broken on send") from None
        self.stats.send_seconds += time.perf_counter() - start
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(payload)

    def _send(self, message: tuple) -> None:
        self._send_bytes(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))

    def dispatch(self, ops: Sequence[Sequence[Any]], seq: Optional[int] = None) -> None:
        self._send((messages.BATCH, ops, seq))

    def collect(self, deadline: Optional[float] = None) -> tuple:
        """Receive one reply; *deadline* seconds of silence is a hang."""
        try:
            if deadline is not None and not self.conn.poll(deadline):
                raise ShardFailure(
                    self.index, "hang", f"no reply within {deadline:g}s"
                )
            start = time.perf_counter()
            payload = self.conn.recv_bytes()
        except (EOFError, OSError):
            raise ShardFailure(self.index, "crash", "pipe reached EOF") from None
        message = pickle.loads(payload)
        self.stats.recv_seconds += time.perf_counter() - start
        self.stats.frames_received += 1
        self.stats.bytes_received += len(payload)
        return message

    def checkpoint(self, deadline: Optional[float] = None) -> Optional[tuple]:
        """Round-trip a checkpoint request; ``None`` if the worker declined."""
        self._send((messages.CHECKPOINT,))
        reply = self.collect(deadline)
        if reply[0] != messages.CHECKPOINT:
            return None
        return reply[1]

    def restore_pickled(self, payload: bytes, deadline: Optional[float] = None) -> int:
        """Rebuild the worker's state from a pre-pickled restore command
        (see ``ShardSupervisor.restore_message_bytes``); returns the
        replayed op count."""
        self._send_bytes(payload)
        reply = self.collect(deadline)
        if reply[0] != messages.RESTORED:
            detail = reply[1] if len(reply) > 1 else repr(reply)
            raise ShardFailure(self.index, "crash", f"restore failed: {detail}")
        return reply[1]

    def stop(self) -> None:
        """Graceful stop, escalating to SIGTERM then SIGKILL.

        A worker wedged in a way SIGTERM cannot reach (e.g. SIGSTOPped)
        still gets reaped: SIGKILL acts even on stopped processes.  The
        pipe is closed on every path, including when the sends or joins
        themselves raise.
        """
        try:
            try:
                self._send((messages.STOP,))
            except ShardFailure:
                pass
            self.process.join(timeout=1.0)
        finally:
            self.kill()

    def kill(self) -> None:
        """Reap the worker without ceremony (recovery path)."""
        try:
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        finally:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
