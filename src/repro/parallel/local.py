"""The ``local`` transport: thread shards on the compiled kernel.

The paper's Sections 4-5 argue that production-system parallelism only
pays when a dispatch costs about one scheduler operation -- the PSM gets
there with a hardware task queue over a *shared* match network.  The
``pipe`` transport partitions the ruleset across worker processes and
pays a pickle round-trip per batch; this module removes the boundary
instead:

* Shards are **threads in the coordinator's address space**.  They
  share the process-wide symbol intern table, the
  :class:`~repro.kernel.shared.SharedKernel` registry (one codegen +
  module exec per ruleset shape, whichever shard gets there first), and
  the columnar alpha-store layout.
* A dispatch is an **append to a shared deque** -- no pickle.  WME
  inserts travel as ``("+w", wme)`` object references and conflict-set
  inserts come back as live
  :class:`~repro.ops5.production.Instantiation` references.
* Scheduling is **work stealing at node-activation granularity**: a
  shard's lane of ops is drained in small grains, and between grains
  the lane returns to a per-worker ready deque where any idle worker
  (or the coordinator itself, while it waits at the barrier) may steal
  it.  The flush barrier is a **counting epoch**: per-lane
  published/completed counters, no channel round-trip.

Each lane holds a :class:`~repro.parallel.worker.ShardState`, the same
state a worker process runs.  The coordinator-facing surface mirrors
the process shard (``dispatch`` / ``collect`` / ``checkpoint`` /
``restore`` / ``stop`` / ``kill`` plus fault-plan consultation), so
:class:`~repro.parallel.executor.ParallelMatcher` drives both
transports through one seam and the chaos/differential harnesses run
unchanged over this one.

Correctness discipline
----------------------
A lane is executed by **at most one thread at a time** (it is enqueued
on exactly one ready deque, or being drained, never both), so kernel
state needs no locks; stealing moves whole lanes between workers, never
splits one.  Replies preserve batch order because lanes are FIFO.
Faults are emulated at dispatch time: ``crash``/``pipe-drop`` discard
the shard's state (exactly what losing a process loses), ``hang`` wedges
the lane behind an abandonable sleep, ``slow`` prepends a bounded sleep.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from typing import Optional, Sequence

from ..faults.plan import CRASH, HANG, HANG_FOREVER, PIPE_DROP, SLOW, FaultPlan
from . import messages
from .supervisor import ShardFailure
from .worker import Checkpoint, ShardState, _apply_or_error, rebuild_state

__all__ = ["LocalScheduler", "_LocalShard"]

#: How many queued ops a worker runs before returning the lane to a
#: ready deque -- the steal window, i.e. the node-activation grain.
DEFAULT_GRAIN = 16

#: Sleep-task slice: injected hangs sleep in increments this long and
#: re-check the lane's abandoned flag, so kill() unwinds threads fast.
_SLEEP_SLICE = 0.02


class _Lane:
    """One shard's FIFO of pending tasks plus its epoch counters.

    ``scheduled`` is the single-executor token: True exactly while the
    lane sits on a ready deque or is being drained, so two workers can
    never run the same shard's kernel concurrently.  ``published`` /
    ``completed`` are the counting-epoch pair: the barrier for this
    lane is simply ``completed == published``, no message round-trip.
    """

    __slots__ = (
        "index",
        "home",
        "state",
        "tasks",
        "lock",
        "scheduled",
        "published",
        "completed",
        "replies",
        "abandoned",
    )

    def __init__(self, index: int, home: int, state: ShardState) -> None:
        self.index = index
        self.home = home
        self.state = state
        self.tasks: deque = deque()
        self.lock = threading.Lock()
        self.scheduled = False
        self.published = 0
        self.completed = 0
        self.replies: deque = deque()
        self.abandoned = False


class _BatchJob:
    """Book-keeping for one dispatched batch as its ops flow as tasks."""

    __slots__ = ("remaining", "stat_rows", "wme_ordinal", "failed", "error")

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining
        self.stat_rows: list[tuple] = []
        self.wme_ordinal = 0
        self.failed = False
        self.error: Optional[tuple[str, str]] = None


class LocalScheduler:
    """Work-stealing task scheduler over the thread shards.

    *workers* daemon threads each own a ready deque of lanes.  A lane is
    pushed to its home worker's deque on dispatch; the owning worker
    drains it ``grain`` ops at a time, re-queueing between grains so the
    lane is stealable at node-activation granularity.  Idle workers
    steal from the *back* of peers' deques (classic Chase-Lev
    discipline, minus the lock-free part -- one condition variable
    guards all deques, which is proportionate under a GIL).  The
    coordinator thread "helps": while it waits at the flush barrier it
    drains lanes too, so on few-core hosts the barrier wait converts
    into match work instead of a context switch.
    """

    def __init__(self, workers: int, grain: int = DEFAULT_GRAIN) -> None:
        self.workers = max(1, workers)
        self.grain = max(1, grain)
        self._cv = threading.Condition()
        self._ready: list[deque] = [deque() for _ in range(self.workers)]
        self._stopped = False
        # Counters (ints; single-writer or GIL-atomic += under CPython,
        # and read only for reporting).
        self.steals = 0
        self.executed = 0
        self.helped = 0
        self.fast_batches = 0
        self.epoch_waits = 0
        self.epochs = 0
        self.max_queue_depth = 0
        self._threads = [
            threading.Thread(
                target=self._run, args=(w,), daemon=True, name=f"repro-local-{w}"
            )
            for w in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # -- dispatch ----------------------------------------------------------

    def enqueue(self, lane: _Lane, tasks: Sequence[tuple]) -> None:
        """Publish *tasks* onto *lane* and make the lane runnable."""
        with lane.lock:
            lane.tasks.extend(tasks)
            lane.published += len(tasks)
            need_schedule = not lane.scheduled and not lane.abandoned
            if need_schedule:
                lane.scheduled = True
        if need_schedule:
            with self._cv:
                self._ready[lane.home].append(lane)
                depth = sum(len(q) for q in self._ready)
                if depth > self.max_queue_depth:
                    self.max_queue_depth = depth
                self._cv.notify(1)

    # -- worker side -------------------------------------------------------

    def _run(self, worker: int) -> None:
        while True:
            with self._cv:
                while True:
                    if self._stopped:
                        return
                    lane = self._take(worker)
                    if lane is not None:
                        break
                    self._cv.wait(0.05)
            self.executed += self._drain(lane, worker)

    def _take(self, worker: int, helper: bool = False) -> Optional[_Lane]:
        """Pop a runnable lane: own deque first, then steal. CV held.

        With ``helper=True`` (the coordinator draining at the barrier)
        lanes whose next task is a sleep are skipped: an injected hang
        must wedge a *worker* thread, never the coordinator -- otherwise
        the collect deadline could not fire.
        """
        own = self._ready[worker]
        if own:
            lane = self._pick(own, helper)
            if lane is not None:
                return lane
        for offset in range(1, self.workers):
            peer = self._ready[(worker + offset) % self.workers]
            if peer:
                lane = self._pick(peer, helper)
                if lane is not None:
                    self.steals += 1
                    return lane
        return None

    @staticmethod
    def _pick(queue: deque, helper: bool) -> Optional[_Lane]:
        if not helper:
            return queue.popleft()
        # Peeking without the lane lock is safe: a lane on a ready deque
        # has no concurrent drainer, and enqueue only appends.
        for lane in queue:
            head = lane.tasks[0] if lane.tasks else None
            if head is None or head[0] != "sleep":
                queue.remove(lane)
                return lane
        return None

    def _drain(self, lane: _Lane, worker: int, helper: bool = False) -> int:
        """Execute *lane*'s queued tasks on the calling thread.

        A worker thread runs one task (= one grain of ops) and returns
        the lane to its deque, keeping it stealable at node-activation
        granularity.  The helping coordinator runs the lane dry in one
        visit instead -- at the barrier every lane must drain anyway,
        so grain-by-grain requeueing would be pure lock traffic -- but
        refuses sleep tasks (injected hangs must wedge a worker thread,
        never the coordinator).

        Returns the number of tasks executed.  The single-executor
        invariant holds because ``lane.scheduled`` stays True from the
        enqueue that scheduled the lane until this method observes an
        empty task deque under the lane lock.
        """
        ran = 0
        while True:
            task = None
            declined = False
            with lane.lock:
                if lane.abandoned:
                    lane.tasks.clear()
                    lane.scheduled = False
                    return ran
                if lane.tasks:
                    if helper and lane.tasks[0][0] == "sleep":
                        declined = True
                    else:
                        task = lane.tasks.popleft()
                else:
                    lane.scheduled = False
            if declined:
                # Hand the sleeping lane to a worker thread.
                with self._cv:
                    self._ready[lane.home].append(lane)
                    self._cv.notify(1)
                return ran
            if task is None:
                break
            self._execute(lane, task)
            lane.completed += 1
            ran += 1
            if not helper:
                requeue = False
                with lane.lock:
                    if lane.tasks and not lane.abandoned:
                        requeue = True  # keep scheduled; stay stealable
                    else:
                        lane.scheduled = False
                if requeue:
                    with self._cv:
                        self._ready[worker].append(lane)
                        self._cv.notify(1)
                    return ran
                break
        if not helper:
            # A reply may have completed an epoch; wake barrier waiters.
            with self._cv:
                self._cv.notify_all()
        return ran

    def _execute(self, lane: _Lane, task: tuple) -> None:
        kind = task[0]
        if kind == "sleep":
            deadline = time.monotonic() + task[1]
            while time.monotonic() < deadline and not lane.abandoned:
                time.sleep(_SLEEP_SLICE)
            return
        _, job, ops = task
        if not job.failed:
            state = lane.state
            apply_op = state.apply_op
            rows = job.stat_rows
            try:
                for op in ops:
                    row = apply_op(op, job.wme_ordinal)
                    if row is not None:
                        rows.append(row)
                        job.wme_ordinal += 1
            except Exception as exc:  # noqa: BLE001 - mirrors worker loop
                job.failed = True
                job.error = (repr(exc), traceback.format_exc())
                # State is torn mid-batch; start fresh exactly like the
                # process worker does -- the coordinator restores from
                # checkpoint + journal on seeing the error reply.
                lane.state = ShardState()
        job.remaining -= 1
        if job.remaining == 0:
            if job.failed:
                reply = (messages.ERROR, job.error[0], job.error[1])
            else:
                reply = (messages.OK, lane.state.conflict_set.drain(), job.stat_rows)
            lane.replies.append(reply)
            # One wakeup per completed batch (not per op): a parked
            # barrier waiter learns its reply is ready immediately.
            with self._cv:
                self._cv.notify_all()

    # -- coordinator side --------------------------------------------------

    def help_until(self, lane: _Lane, predicate, deadline: Optional[float]) -> bool:
        """Run tasks on the caller's thread until *predicate* or timeout.

        This is the counting-epoch barrier: instead of blocking, the
        coordinator drains ready lanes (preferring *lane*'s home deque)
        while it waits.  Returns the predicate's final value.
        """
        limit = None if deadline is None else time.monotonic() + deadline
        while True:
            if predicate():
                return True
            with self._cv:
                claimed = (
                    None if self._stopped else self._take(lane.home, helper=True)
                )
            if claimed is not None:
                self.helped += self._drain(claimed, claimed.home, helper=True)
                continue
            # Nothing runnable here -- a worker may be mid-grain on the
            # lane we need.  Park briefly; reply/requeue notifies us.
            with self._cv:
                if predicate():
                    return True
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return bool(predicate())
                self.epoch_waits += 1
                self._cv.wait(0.01 if remaining is None else min(0.01, remaining))

    def end_epoch(self) -> None:
        """Mark a flush-barrier epoch complete (reporting only)."""
        self.epochs += 1

    # -- lifecycle / reporting ---------------------------------------------

    def shutdown(self) -> None:
        with self._cv:
            self._stopped = True
            self._cv.notify_all()
        for t in self._threads:
            t.join(timeout=1.0)

    def stats(self) -> dict:
        """Side-effect-free counters snapshot (never advances the epoch)."""
        return {
            "workers": self.workers,
            "grain": self.grain,
            "tasks_executed": self.executed,
            "tasks_helped": self.helped,
            "fast_batches": self.fast_batches,
            "steals": self.steals,
            "epochs": self.epochs,
            "epoch_waits": self.epoch_waits,
            "max_queue_depth": self.max_queue_depth,
            "queue_depths": [len(q) for q in self._ready],
        }


class _LocalShard:
    """Coordinator-side handle for one thread shard (a :class:`_Lane`)."""

    def __init__(
        self,
        index: int,
        scheduler: LocalScheduler,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.index = index
        self.scheduler = scheduler
        self.fault_plan = fault_plan
        self._dead: Optional[str] = None
        self.lane = self._new_lane(ShardState())

    def _new_lane(self, state: ShardState) -> _Lane:
        return _Lane(self.index, self.index % self.scheduler.workers, state)

    # -- command surface ---------------------------------------------------

    def dispatch(self, ops: Sequence, seq: Optional[int] = None) -> None:
        if self._dead is not None:
            return  # a dead process swallows writes too; collect() raises
        tasks: list[tuple] = []
        fault = (
            self.fault_plan.shard_fault(self.index, seq)
            if self.fault_plan is not None
            else None
        )
        if fault is not None:
            if fault.kind in (CRASH, PIPE_DROP):
                # Losing a thread shard loses what losing a process
                # loses: all match state since the last checkpoint.
                self._dead = "crash"
                self._abandon_lane()
                return
            if fault.kind in (HANG, SLOW):
                seconds = fault.seconds if fault.seconds > 0 else HANG_FOREVER
                tasks.append(("sleep", seconds))
        lane = self.lane
        if not ops:
            # Nothing to run, but the protocol owes one reply per batch.
            lane.replies.append((messages.OK, [], []))
            return
        grain = self.scheduler.grain
        if (
            fault is None
            and len(ops) <= grain
            and lane.completed >= lane.published
            and not lane.tasks
        ):
            # Granularity shortcut -- the paper's Section 4 trade-off
            # measured live: below one grain of work the enqueue/notify/
            # steal round-trip costs more than the match work itself, so
            # a quiescent lane serves the batch on the caller's thread.
            # The single-executor discipline holds (nothing is queued,
            # nothing mid-drain), and batches bigger than a grain still
            # go through the deques where workers and thieves share them.
            self.scheduler.fast_batches += 1
            lane.state, reply = _apply_or_error(lane.state, ops)
            lane.replies.append(reply)
            return
        # One task per grain of ops: the work-stealing (and helping)
        # granularity without per-op task bookkeeping.
        job = _BatchJob(0)
        op_tasks = [
            ("ops", job, ops[start : start + grain])
            for start in range(0, len(ops), grain)
        ]
        job.remaining = len(op_tasks)
        tasks.extend(op_tasks)
        self.scheduler.enqueue(lane, tasks)

    def collect(self, deadline: Optional[float] = None):
        if self._dead is not None:
            raise ShardFailure(
                self.index, self._dead, "shard state discarded by injected fault"
            )
        lane = self.lane
        served = self.scheduler.help_until(
            lane, lambda: bool(lane.replies), deadline
        )
        if not served:
            raise ShardFailure(
                self.index,
                "hang",
                f"no reply within {deadline:g}s"
                if deadline is not None
                else "no reply",
            )
        return lane.replies.popleft()

    def checkpoint(self, deadline: Optional[float] = None) -> tuple:
        """Snapshot state; called at the flush barrier (lane drained)."""
        lane = self.lane
        settled = self.scheduler.help_until(
            lane, lambda: lane.completed >= lane.published, deadline
        )
        if not settled:
            raise ShardFailure(
                self.index, "hang", "lane did not settle for checkpoint"
            )
        return lane.state.checkpoint()

    def restore(self, checkpoint: Optional[Checkpoint], journal: Sequence) -> int:
        """Rebuild from checkpoint + journal tail; returns ops replayed."""
        state = rebuild_state(checkpoint, journal)
        self._abandon_lane()
        self.lane = self._new_lane(state)
        self._dead = None
        return len(journal)

    def stop(self) -> None:
        self._abandon_lane()

    def kill(self) -> None:
        """Tear the shard down ungracefully (recovery path)."""
        self._dead = self._dead or "crash"
        self._abandon_lane()

    def _abandon_lane(self) -> None:
        lane = self.lane
        lane.abandoned = True  # drain loops bail; sleep tasks unwind
        with lane.lock:
            lane.tasks.clear()
        lane.replies.clear()
