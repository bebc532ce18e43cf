"""The shard: one partition of the ruleset on the compiled kernel.

Every shard, whatever runs it, holds one :class:`ShardState`: the
productions assigned to it, its view of working memory, and a
:class:`~repro.kernel.runtime.KernelRuntime` attached to the shared,
per-ruleset-shape generated kernel (:mod:`repro.kernel`).  Three things
run a state:

* a **worker process** (:func:`shard_main`, the ``pipe`` transport),
  which receives op batches over a ``multiprocessing`` pipe;
* a **thread shard** (:mod:`repro.parallel.local`, the ``local``
  transport), which shares the coordinator's address space;
* an **inline shard** (:class:`_InlineShard`), which applies batches
  synchronously on the caller's thread -- the ``workers=0``
  configuration and the demotion target after repeated failures.

A shard reports its work as a *conflict-set edit stream* -- the
currency Rete terminals trade in -- plus per-change measurement rows
(see :mod:`repro.parallel.messages`).  Inserts are recorded as live
:class:`~repro.ops5.production.Instantiation` objects; only the worker
process turns them into ``("i", name, timetags, bindings)`` rows, right
before they cross the pipe.

Recovery support (see :mod:`repro.parallel.supervisor`): a shard can
``checkpoint`` (the names of its productions and the timetags of its
WMEs) and a replacement can be rebuilt from a resolved checkpoint plus
a journal of ops to replay (:func:`rebuild_state`).  Replay is quiet:
the edits it produces were merged by the coordinator before the
failure, so they are discarded.  Both rest on the paper's Section 3.1
observation that match state is a deterministic function of the op
stream -- which is also what makes the rebuilt shard bit-identical.

Worker processes consult an optional :class:`~repro.faults.FaultPlan`
before serving each batch, keyed by the coordinator-assigned sequence
number, so chaos tests can schedule a crash, hang, pipe drop, or
slow-down at an exact, reproducible point in the run.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from typing import Iterable, Mapping, Optional, Sequence

from ..faults.plan import CRASH, HANG, HANG_FOREVER, PIPE_DROP, SLOW, FaultPlan
from ..kernel.runtime import KernelRuntime
from ..kernel.shared import shared_kernel
from ..ops5.conflict import ConflictSet
from ..ops5.production import Production
from ..ops5.wme import WME
from . import messages
from .messages import Edit, StatRow


class RecordingConflictSet(ConflictSet):
    """A conflict set that journals every edit for the coordinator.

    Inserts are recorded as ``("I", instantiation)``, deletes as
    ``("d", name, timetags)``.  ``delete_key`` is the override point
    (generated kernels bind it directly as ``cs_delete``); ``delete``
    funnels through it, so nothing records twice.
    """

    def __init__(self) -> None:
        super().__init__()
        self.edits: list[Edit] = []

    def insert(self, inst) -> None:
        super().insert(inst)
        self.edits.append((messages.INSERT_REF, inst))

    def delete_key(self, key) -> None:
        super().delete_key(key)
        self.edits.append((messages.DELETE, key[0], key[1]))

    def drain(self) -> list[Edit]:
        edits, self.edits = self.edits, []
        return edits


class ShardState:
    """One shard's match state: a compiled kernel over its rule slice.

    Mirrors :class:`~repro.kernel.matcher.CompiledMatcher`'s rebuild
    policy: production edits while WM is empty only mark the state dirty
    (one compile per final ruleset shape, so loading N productions does
    not pollute the process-wide kernel cache with N-1 prefix shapes);
    once WMEs exist an edit rebuilds immediately and emits the
    conflict-set *diff* as edits, because the coordinator incrementally
    maintains its merged view.
    """

    def __init__(self) -> None:
        self.productions: dict[str, Production] = {}
        self.wmes: dict[int, WME] = {}
        self.conflict_set = RecordingConflictSet()
        self._rt: Optional[KernelRuntime] = None
        self._dirty = False

    # -- op application ----------------------------------------------------

    def apply_op(self, op: Sequence, wme_ordinal: int) -> Optional[StatRow]:
        """Apply one batch op; return a stats row for WME ops, else None."""
        tag = op[0]
        if tag == messages.ADD_WME:
            return self._add_wme(op[1], wme_ordinal)
        if tag == messages.REMOVE_WME:
            return self._remove_wme(op[1], wme_ordinal)
        if tag == messages.ADD_PRODUCTION:
            production = op[1]
            if production.name in self.productions:
                raise ValueError(f"production {production.name!r} already compiled")
            self.productions[production.name] = production
            self._ruleset_edit()
            return None
        if tag == messages.REMOVE_PRODUCTION:
            del self.productions[op[1]]
            self._ruleset_edit()
            return None
        if tag == messages.RESET:
            self.__init__()
            return None
        raise ValueError(f"unknown op tag {tag!r}")

    def apply_batch(self, ops: Iterable[Sequence]) -> tuple[list[Edit], list[StatRow]]:
        """Apply *ops* in order; return ``(edits, stat_rows)``.

        Stat rows are indexed by WME-op *ordinal* within the batch (not
        the raw op position): the coordinator's change map counts only
        WME ops, since production ops belong to no working-memory change.
        """
        stat_rows: list[StatRow] = []
        ordinal = 0
        for op in ops:
            row = self.apply_op(op, ordinal)
            if row is not None:
                stat_rows.append(row)
                ordinal += 1
        return self.conflict_set.drain(), stat_rows

    def _add_wme(self, wme: WME, ordinal: int) -> StatRow:
        if self._dirty:
            self._rebuild(diff=False)
        self.wmes[wme.timetag] = wme
        return self._change(KernelRuntime.add, wme, ordinal)

    def _remove_wme(self, timetag: int, ordinal: int) -> StatRow:
        if self._dirty:
            self._rebuild(diff=False)
        return self._change(KernelRuntime.remove, self.wmes.pop(timetag), ordinal)

    def _change(self, entry, wme: WME, ordinal: int) -> StatRow:
        """Run one kernel entry point; the stats row is its counter deltas."""
        rt = self._rt
        if rt is None:
            return (ordinal, 0, 0, 0, 0)
        counters = rt.counters
        b0, b1, b2 = counters
        affected = entry(rt, wme)
        return (
            ordinal,
            affected,
            counters[0] - b0,
            counters[1] - b1,
            counters[2] - b2,
        )

    # -- (re)compilation ---------------------------------------------------

    def _ruleset_edit(self) -> None:
        if self.wmes:
            self._rebuild(diff=True)
        else:
            self._dirty = True

    def _rebuild(self, diff: bool) -> None:
        """Re-attach a kernel for the current ruleset over the WM view.

        Always builds a *fresh* recording conflict set and swaps it in:
        generated kernels bind ``cs_insert``/``cs_delete`` at attach
        time, so re-using the old set under a new runtime would leave
        stale closures writing into it.  Replay edits are discarded
        (replay is quiet); with ``diff=True`` the membership difference
        against the old set is appended instead, keeping the
        coordinator's incrementally-merged view exact.
        """
        pending = self.conflict_set.edits
        old_keys = self.conflict_set.snapshot() if diff else None
        cs = RecordingConflictSet()
        productions = list(self.productions.values())
        rt = None
        if productions:
            kernel = shared_kernel(productions)
            rt = kernel.attach(
                cs, productions, (self.wmes[t] for t in sorted(self.wmes))
            )
        cs.edits = pending
        if diff:
            new_keys = cs.snapshot()
            for key in sorted(old_keys - new_keys):
                cs.edits.append((messages.DELETE, key[0], key[1]))
            for key in sorted(new_keys - old_keys):
                cs.edits.append((messages.INSERT_REF, cs.get(key)))
        self.conflict_set = cs
        self._rt = rt
        self._dirty = False

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """The shard's *inputs* by name: production names and timetags.

        Taken at batch boundaries only, when the edit journal is empty
        -- a checkpoint captures state, never undelivered output.  The
        kernel itself is never captured: it is a pure function of the
        ruleset shape, so a restore re-attaches from the shared registry
        and replays the WM view.

        Names rather than objects, because the engine removes WMEs by
        identity: a restored shard's instantiations must reference the
        coordinator's live WME and Production objects, and a pickled
        copy from a worker process would resurface them as
        equal-but-distinct objects.  The coordinator resolves the names
        against its own maps (:func:`resolve_checkpoint`) when the
        checkpoint arrives at the barrier.
        """
        return tuple(self.productions), tuple(self.wmes)


#: A resolved checkpoint: the shard's productions (in placement order)
#: and its WMEs by timetag -- the coordinator's own objects.
Checkpoint = tuple[tuple[Production, ...], dict[int, WME]]


def resolve_checkpoint(
    raw: tuple[Sequence[str], Sequence[int]],
    productions: Mapping[str, Production],
    wmes: Mapping[int, WME],
) -> Checkpoint:
    """Turn a shard's ``(names, timetags)`` checkpoint into live objects."""
    names, timetags = raw
    return (
        tuple(productions[name] for name in names),
        {timetag: wmes[timetag] for timetag in timetags},
    )


def rebuild_state(
    checkpoint: Optional[Checkpoint], journal: Iterable[Sequence]
) -> ShardState:
    """Checkpoint + journal-tail replay, the recovery path's core.

    This is the paper's ``c3`` (state re-derivation) measured live: a
    fresh state replays the whole journal; a checkpointed one attaches
    the kernel over the checkpointed WM view and replays only the tail.
    Replay output (edits, stat rows) is discarded -- the coordinator
    merged it before the failure.
    """
    state = ShardState()
    if checkpoint is not None:
        productions, wmes = checkpoint
        state.productions = {p.name: p for p in productions}
        state.wmes = dict(wmes)
        if state.productions:
            state._rebuild(diff=False)
    state.apply_batch(journal)
    return state


def _apply_or_error(state: ShardState, ops: Sequence) -> tuple[ShardState, tuple]:
    """Apply one batch; on any error answer ERROR with a fresh state.

    The shard's state may be torn mid-batch, so it starts clean; the
    coordinator follows up with a restore from checkpoint + journal.
    """
    try:
        edits, stat_rows = state.apply_batch(ops)
    except Exception as error:  # noqa: BLE001 - forwarded verbatim
        return ShardState(), (messages.ERROR, repr(error), traceback.format_exc())
    return state, (messages.OK, edits, stat_rows)


class _InlineShard:
    """A shard applied synchronously on the caller's thread.

    Serves two roles on either transport: the ``workers=0`` serial
    configuration, and the *demotion* target -- a shard whose worker
    keeps failing is rebuilt from its journal into one of these, trading
    parallelism for completion.  Inline shards never consult the fault
    plan: a fault executed in-process would take the coordinator down
    with it.
    """

    def __init__(self, index: int, state: Optional[ShardState] = None) -> None:
        self.index = index
        self.state = state if state is not None else ShardState()
        #: FIFO of uncollected replies (recovery re-dispatch can queue
        #: several batches before the collect loop drains them).
        self._replies: deque = deque()

    def dispatch(self, ops: Sequence, seq: Optional[int] = None) -> None:
        self.state, reply = _apply_or_error(self.state, ops)
        self._replies.append(reply)

    def collect(self, deadline: Optional[float] = None) -> tuple:
        return self._replies.popleft()

    def checkpoint(self, deadline: Optional[float] = None) -> tuple:
        return self.state.checkpoint()

    def restore(self, checkpoint: Optional[Checkpoint], journal: Sequence) -> int:
        self.state = rebuild_state(checkpoint, journal)
        self._replies.clear()
        return len(journal)

    def stop(self) -> None:
        self._replies.clear()

    kill = stop


def _perform_fault(spec, conn) -> None:
    """Execute an injected fault inside the worker process.

    ``crash`` and ``pipe-drop`` do not return.  ``hang`` and ``slow``
    sleep and return, letting the batch proceed -- for a real hang the
    supervisor's deadline expires long before the sleep does and the
    process is killed mid-sleep.
    """
    if spec.kind == CRASH:
        # The observable behaviour of kill -9: no reply, no cleanup.
        os._exit(1)
    elif spec.kind == PIPE_DROP:
        conn.close()
        os._exit(1)
    elif spec.kind == HANG:
        time.sleep(spec.seconds or HANG_FOREVER)
    elif spec.kind == SLOW:
        time.sleep(spec.seconds)


def _wire_edit(edit: Edit) -> Edit:
    """The picklable form of one edit: live inserts become timetag rows
    the coordinator resolves against its own working memory."""
    if edit[0] == messages.INSERT_REF:
        inst = edit[1]
        return (messages.INSERT, inst.production.name, inst.timetags, inst.bindings)
    return edit


def shard_main(conn, index: int = 0, fault_plan: Optional[FaultPlan] = None) -> None:
    """Worker process entry point: serve commands until told to stop.

    *conn* is the child end of the shard's ``multiprocessing`` pipe;
    commands and replies are the pickled tuples of
    :mod:`repro.parallel.messages`.

    Any exception while applying a batch is reported to the coordinator
    instead of silently killing the process; the worker resets to a
    fresh state and the coordinator restores it from the journal, so a
    failed differential-test example does not poison the next one.
    """
    state = ShardState()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        tag = message[0]
        if tag == messages.STOP:
            break
        if tag == messages.BATCH:
            _, ops, seq = message
            if fault_plan is not None:
                fault = fault_plan.shard_fault(index, seq)
                if fault is not None:
                    _perform_fault(fault, conn)
            state, reply = _apply_or_error(state, ops)
            if reply[0] == messages.OK:
                reply = (messages.OK, [_wire_edit(e) for e in reply[1]], reply[2])
        elif tag == messages.CHECKPOINT:
            reply = (messages.CHECKPOINT, state.checkpoint())
        elif tag == messages.RESTORE:
            try:
                state = rebuild_state(message[1], message[2])
                reply = (messages.RESTORED, len(message[2]))
            except Exception as error:  # noqa: BLE001 - forwarded verbatim
                state = ShardState()
                reply = (messages.ERROR, repr(error), traceback.format_exc())
        else:  # pragma: no cover - protocol misuse
            reply = (messages.ERROR, f"unknown message {tag!r}", "")
        conn.send(reply)
    conn.close()
