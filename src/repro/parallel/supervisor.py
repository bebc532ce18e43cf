"""Supervision state for the shard pool: journals, checkpoints, failures.

The paper's Section 3.1 argues state-saving beats re-derivation because
maintaining match state incrementally (``c1``/``c2`` per change) is ~20x
cheaper than recomputing it (``c3``).  Crash recovery is the same trade
run in reverse: when a shard dies, its match state -- a deterministic
function of the op stream it has applied -- is re-derived by replaying
that stream into a fresh shard, and the cost of doing so *is* ``c3``,
measured live (``benchmarks/bench_fault_recovery.py``).  A periodic
checkpoint bounds the replay: recovery then pays one kernel attach over
the checkpointed working memory plus the journal tail instead of the
whole history.

:class:`ShardSupervisor` is the coordinator-side bookkeeping for that
story.  It does no I/O itself -- the executor owns pipes and processes
-- it owns the *facts* recovery needs:

* the per-shard **op journal**: every op batch a shard has successfully
  applied since its last checkpoint (truncated by checkpoints, and by
  ``reset`` ops, after which prior history is unreachable);
* the per-shard **checkpoint**: the shard's productions and WMEs, as
  the coordinator's own objects (see
  :func:`~repro.parallel.worker.resolve_checkpoint`);
* per-shard **sequence numbers** -- the addresses fault injection keys
  on -- monotonic and never reused, so recovery cannot re-trigger the
  fault that killed a worker;
* **failure accounting**: consecutive-failure counts that drive the
  respawn -> demote escalation, recovery events, and the counters the
  metrics snapshot reports.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .. import __name__ as _pkg  # noqa: F401 - keeps import graph explicit
from . import messages


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervised executor.

    ``collect_deadline``
        Seconds the coordinator waits for a shard's batch reply before
        declaring it hung (``None`` waits forever -- the pre-supervision
        behaviour, kept available for debugging).
    ``recovery_deadline``
        Deadline for restore/checkpoint round-trips during recovery.
    ``checkpoint_every``
        Take a checkpoint after this many applied batches
        (``None`` disables checkpointing; the journal then grows with
        the run and recovery is always a full replay).
    ``max_failures``
        Consecutive failures of one shard before it is demoted to an
        inline shard (graceful degradation: the run always
        completes).
    """

    collect_deadline: Optional[float] = 30.0
    recovery_deadline: Optional[float] = 60.0
    checkpoint_every: Optional[int] = 256
    max_failures: int = 3

    def __post_init__(self) -> None:
        if self.collect_deadline <= 0:
            raise ValueError("collect_deadline must be positive seconds")
        if self.recovery_deadline <= 0:
            raise ValueError("recovery_deadline must be positive seconds")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")


class ShardFailure(Exception):
    """A shard crashed (EOF, injected crash) or hung (collect deadline
    expired)."""

    def __init__(self, shard: int, cause: str, detail: str = "") -> None:
        super().__init__(
            f"shard {shard} {cause}" + (f": {detail}" if detail else "")
        )
        self.shard = shard
        self.cause = cause
        self.detail = detail


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed recovery action, the unit of the fault audit trail.

    ``action`` is ``"respawned"`` (a fresh shard rebuilt by replay) or
    ``"demoted"`` (the shard now runs inline on the coordinator's
    thread).  ``replay_seconds`` times the restore round-trip --
    checkpoint restore plus journal replay -- and ``total_seconds``
    the whole outage as the coordinator saw it, detection to recovered
    reply.
    """

    shard: int
    cause: str
    action: str
    seq: Optional[int]
    replayed_ops: int
    used_checkpoint: bool
    replay_seconds: float
    total_seconds: float
    attempts: int = 1

    def snapshot(self) -> dict:
        """JSON-ready row (stats RPC notices, chaos reports)."""
        return {
            "shard": self.shard,
            "cause": self.cause,
            "action": self.action,
            "seq": self.seq,
            "replayed_ops": self.replayed_ops,
            "used_checkpoint": self.used_checkpoint,
            "replay_seconds": self.replay_seconds,
            "total_seconds": self.total_seconds,
            "attempts": self.attempts,
        }


@dataclass
class ShardSupervisor:
    """Recovery bookkeeping for one executor's shard pool."""

    shard_count: int
    config: SupervisorConfig = field(default_factory=SupervisorConfig)

    def __post_init__(self) -> None:
        n = self.shard_count
        #: Ops applied since the last checkpoint (or ever), per shard.
        self.journals: list[list] = [[] for _ in range(n)]
        self.checkpoints: list[Optional[tuple]] = [None] * n
        #: Applied batches since the last checkpoint, per shard.
        self.since_checkpoint: list[int] = [0] * n
        #: Consecutive failures, per shard (reset by any success).
        self.failures: list[int] = [0] * n
        self.demoted: list[bool] = [False] * n
        self.events: list[RecoveryEvent] = []
        self.counters: dict[str, int] = {
            "crashes": 0,
            "hangs": 0,
            "respawns": 0,
            "demotions": 0,
            "checkpoints": 0,
            "replayed_ops": 0,
        }
        self.replay_seconds = 0.0
        self.checkpoint_seconds = 0.0
        self._next_seq: list[int] = [0] * n
        #: Pickled ``(RESTORE, checkpoint, journal)`` message per shard,
        #: invalidated whenever the journal or checkpoint moves.  Restore
        #: messages are the biggest thing on the wire (the journal holds
        #: whole productions), and one recovery can send the same bytes
        #: several times (respawn retries, post-error restores) -- the
        #: cache makes re-serialisation a once-per-journal-change cost.
        self._restore_cache: list[Optional[bytes]] = [None] * n

    # -- sequence numbers ----------------------------------------------------

    def next_seq(self, shard: int) -> int:
        """Allocate the next batch sequence number for *shard*.

        Monotonic and never reused: recovery re-dispatches carry no
        sequence number at all, so a scheduled fault fires exactly once.
        """
        seq = self._next_seq[shard]
        self._next_seq[shard] = seq + 1
        return seq

    # -- the journal ---------------------------------------------------------

    def committed(self, shard: int, ops: Sequence[Sequence[Any]]) -> None:
        """Record that *shard* successfully applied *ops* (one batch).

        A ``reset`` op makes all earlier history unreachable, so the
        journal restarts from it and the checkpoint is dropped.
        """
        last_reset = None
        for i, op in enumerate(ops):
            if op[0] == messages.RESET:
                last_reset = i
        if last_reset is not None:
            self.journals[shard] = list(ops[last_reset:])
            self.checkpoints[shard] = None
            self.since_checkpoint[shard] = 0
        else:
            self.journals[shard].extend(ops)
            self.since_checkpoint[shard] += 1
        self._restore_cache[shard] = None

    def recovery_payload(self, shard: int) -> tuple[Optional[tuple], list]:
        """What a replacement shard needs: (checkpoint, journal)."""
        return self.checkpoints[shard], list(self.journals[shard])

    def restore_message_bytes(self, shard: int) -> bytes:
        """The pickled restore command for *shard*, serialised at most
        once per journal/checkpoint change and reused across respawn
        retries and error-recovery restores."""
        cached = self._restore_cache[shard]
        if cached is None:
            cached = pickle.dumps(
                (messages.RESTORE, self.checkpoints[shard], list(self.journals[shard])),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self._restore_cache[shard] = cached
        return cached

    def journal_length(self, shard: int) -> int:
        return len(self.journals[shard])

    # -- checkpoints ---------------------------------------------------------

    def wants_checkpoint(self, shard: int) -> bool:
        every = self.config.checkpoint_every
        return (
            every is not None
            and not self.demoted[shard]
            and self.since_checkpoint[shard] >= every
        )

    def store_checkpoint(self, shard: int, checkpoint: tuple, seconds: float) -> None:
        self.checkpoints[shard] = checkpoint
        self.journals[shard] = []
        self.since_checkpoint[shard] = 0
        self._restore_cache[shard] = None
        self.counters["checkpoints"] += 1
        self.checkpoint_seconds += seconds

    # -- failure accounting --------------------------------------------------

    def record_failure(self, shard: int, cause: str) -> int:
        """Count one failure; returns the consecutive-failure total."""
        key = "hangs" if cause == "hang" else "crashes"
        self.counters[key] += 1
        self.failures[shard] += 1
        return self.failures[shard]

    def record_recovery(self, event: RecoveryEvent) -> None:
        self.events.append(event)
        self.failures[event.shard] = 0
        self.replay_seconds += event.replay_seconds
        self.counters["replayed_ops"] += event.replayed_ops
        if event.action == "demoted":
            self.counters["demotions"] += 1
            self.demoted[event.shard] = True
        else:
            self.counters["respawns"] += 1

    def reset_failures(self, shard: int) -> None:
        self.failures[shard] = 0

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready rollup for the unified metrics snapshot."""
        return {
            **self.counters,
            "replay_seconds": self.replay_seconds,
            "checkpoint_seconds": self.checkpoint_seconds,
            "degraded_shards": [i for i, d in enumerate(self.demoted) if d],
            "journal_ops": [len(j) for j in self.journals],
            "checkpointed_shards": [
                i for i, checkpoint in enumerate(self.checkpoints)
                if checkpoint is not None
            ],
            "events": [event.snapshot() for event in self.events[-32:]],
        }
