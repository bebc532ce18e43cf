"""Checkpointed recovery: state rebuild, supervisor bookkeeping, and a
fast live crash-recovery round (the heavy e2e lives in test_chaos.py).
"""

import pytest

from repro.faults import CRASH, FaultPlan, FaultSpec
from repro.ops5 import parse_program
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import (
    ParallelMatcher,
    ShardState,
    ShardSupervisor,
    SupervisorConfig,
    rebuild_state,
    validate_parallel,
)
from repro.parallel import messages
from repro.parallel.worker import resolve_checkpoint

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(5)]


MEMORY = WorkingMemory()


def _parent(i: int) -> tuple:
    """An ADD_WME op for the parent edge n<i> -> n<i+1>."""
    return (messages.ADD_WME, MEMORY.add(WME("parent", {"from": f"n{i}", "to": f"n{i + 1}"})))


def _loaded_state(edges: int = 3) -> tuple[ShardState, list]:
    """A shard state with the closure rules and *edges* parent WMEs,
    plus the op journal that produced it."""
    ops = [
        (messages.ADD_PRODUCTION, p) for p in parse_program(CLOSURE).productions
    ]
    ops += [_parent(i) for i in range(edges)]
    state = ShardState()
    state.apply_batch(ops)
    return state, ops


# -- state rebuild ------------------------------------------------------------


def test_rebuild_from_full_journal_matches_original():
    state, journal = _loaded_state()
    clone = rebuild_state(None, journal)
    assert clone.conflict_set.snapshot() == state.conflict_set.snapshot()
    assert set(clone.wmes) == set(state.wmes)


def test_rebuild_from_checkpoint_plus_tail_matches_original():
    state, journal = _loaded_state()
    checkpoint = resolve_checkpoint(state.checkpoint(), state.productions, state.wmes)
    tail = [_parent(9)]
    state.apply_batch(list(tail))
    clone = rebuild_state(checkpoint, tail)
    assert clone.conflict_set.snapshot() == state.conflict_set.snapshot()


def test_rebuild_drains_replay_output():
    """Replay edits were merged before the failure; a recovered shard
    must not hand them over again."""
    _, journal = _loaded_state()
    clone = rebuild_state(None, journal)
    assert clone.conflict_set.edits == []


def test_rebuilt_state_produces_identical_future_edits():
    state, journal = _loaded_state()
    clone = rebuild_state(None, journal)
    next_op = [_parent(3)]
    original_edits, _ = state.apply_batch(list(next_op))
    clone_edits, _ = clone.apply_batch(list(next_op))
    assert [e[1].key if e[0] == messages.INSERT_REF else e for e in clone_edits] == [
        e[1].key if e[0] == messages.INSERT_REF else e for e in original_edits
    ]


# -- supervisor bookkeeping ---------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SupervisorConfig(max_failures=0)
    with pytest.raises(ValueError):
        SupervisorConfig(checkpoint_every=0)
    with pytest.raises(ValueError):
        SupervisorConfig(collect_deadline=-5)
    with pytest.raises(ValueError):
        SupervisorConfig(recovery_deadline=0)
    assert SupervisorConfig(checkpoint_every=None).checkpoint_every is None


def test_next_seq_is_monotonic_per_shard():
    sup = ShardSupervisor(2)
    assert [sup.next_seq(0), sup.next_seq(0), sup.next_seq(1)] == [0, 1, 0]


def test_committed_extends_the_journal():
    sup = ShardSupervisor(1)
    sup.committed(0, [("a",), ("b",)])
    sup.committed(0, [("c",)])
    assert sup.journal_length(0) == 3
    assert sup.recovery_payload(0) == (None, [("a",), ("b",), ("c",)])


def test_reset_op_truncates_journal_and_drops_checkpoint():
    sup = ShardSupervisor(1)
    sup.committed(0, [("a",)])
    sup.store_checkpoint(0, b"blob", 0.0)
    sup.committed(0, [("b",), (messages.RESET,), ("c",)])
    checkpoint, journal = sup.recovery_payload(0)
    assert checkpoint is None
    assert journal == [(messages.RESET,), ("c",)]


def test_checkpoint_cadence():
    sup = ShardSupervisor(1, SupervisorConfig(checkpoint_every=2))
    sup.committed(0, [("a",)])
    assert not sup.wants_checkpoint(0)
    sup.committed(0, [("b",)])
    assert sup.wants_checkpoint(0)
    sup.store_checkpoint(0, b"blob", 0.01)
    assert not sup.wants_checkpoint(0)
    assert sup.journal_length(0) == 0  # journal restarts at the checkpoint
    assert sup.counters["checkpoints"] == 1


def test_checkpointing_disabled_with_none():
    sup = ShardSupervisor(1, SupervisorConfig(checkpoint_every=None))
    for _ in range(10):
        sup.committed(0, [("a",)])
    assert not sup.wants_checkpoint(0)


def test_failure_counts_are_consecutive_not_cumulative():
    sup = ShardSupervisor(1, SupervisorConfig(max_failures=3))
    assert sup.record_failure(0, "crash") == 1
    assert sup.record_failure(0, "hang") == 2
    sup.reset_failures(0)  # a successful batch in between
    assert sup.record_failure(0, "crash") == 1
    assert sup.counters["crashes"] == 2
    assert sup.counters["hangs"] == 1


def test_summary_reports_degraded_shards_and_events():
    from repro.parallel import RecoveryEvent

    sup = ShardSupervisor(2)
    sup.record_failure(1, "crash")
    sup.record_recovery(
        RecoveryEvent(
            shard=1,
            cause="crash",
            action="demoted",
            seq=4,
            replayed_ops=7,
            used_checkpoint=False,
            replay_seconds=0.01,
            total_seconds=0.02,
        )
    )
    summary = sup.summary()
    assert summary["degraded_shards"] == [1]
    assert summary["demotions"] == 1
    assert summary["replayed_ops"] == 7
    assert summary["events"][0]["action"] == "demoted"
    assert sup.demoted[1] and not sup.demoted[0]


# -- live recovery (fast: one worker, one crash) ------------------------------


def test_single_crash_recovers_bit_identically():
    plan = FaultPlan([FaultSpec(kind=CRASH, index=0, at=2)])
    config = SupervisorConfig(collect_deadline=5.0, checkpoint_every=2)
    with ParallelMatcher(workers=1, fault_plan=plan, supervisor=config) as faulted:
        from repro.parallel.validate import run_recorded

        record = run_recorded(CLOSURE, CHAIN, faulted)
        events = faulted.fault_events()
        summary = faulted.fault_summary()
    reference = validate_parallel(CLOSURE, CHAIN, workers=1).records["rete"]
    assert record == reference
    assert [e.cause for e in events] == ["crash"]
    assert events[0].action == "respawned"
    assert summary["crashes"] == 1 and summary["respawns"] == 1
    assert summary["replay_seconds"] > 0


def test_demoted_pipe_shard_after_checkpoint_is_bit_identical():
    """Three crashes in a row demote the pipe shard to an inline shard
    rebuilt from a checkpoint the worker process took: the checkpoint
    must resolve to the coordinator's own objects, or later firings
    would touch WME copies the engine cannot remove."""
    plan = FaultPlan([FaultSpec(kind=CRASH, index=0, at=at) for at in (6, 7, 8)])
    config = SupervisorConfig(collect_deadline=5.0, checkpoint_every=2, max_failures=1)
    with ParallelMatcher(workers=1, fault_plan=plan, supervisor=config) as faulted:
        from repro.parallel.validate import run_recorded

        record = run_recorded(CLOSURE, CHAIN, faulted)
        events = faulted.fault_events()
        degraded = faulted.degraded_shards
    reference = validate_parallel(CLOSURE, CHAIN, workers=1).records["rete"]
    assert record == reference
    assert [e.action for e in events] == ["demoted"]
    assert events[0].used_checkpoint
    assert degraded == [0]


def test_unfired_fault_changes_nothing():
    """A plan whose positions the run never reaches is a no-op."""
    plan = FaultPlan([FaultSpec(kind=CRASH, index=0, at=10_000)])
    with ParallelMatcher(workers=1, fault_plan=plan) as matcher:
        from repro.parallel.validate import run_recorded

        record = run_recorded(CLOSURE, CHAIN, matcher)
        assert matcher.fault_events() == []
    reference = validate_parallel(CLOSURE, CHAIN, workers=1).records["rete"]
    assert record == reference
