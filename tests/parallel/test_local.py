"""The shared-memory ``local`` backend: thread shards on one kernel.

The differential fuzz harness exercises ``local`` alongside the process
transports; these tests pin the backend's own mechanisms -- the
compiled-kernel shard state, the zero-copy checkpoint/restore path, the
work-stealing scheduler's counters and granularity fast path, and fault
recovery with checkpoints enabled (the regression surface for the
identity-preserving checkpoint bug).
"""

import pytest

from repro.faults import FaultPlan, run_chaos
from repro.ops5 import ProductionSystem, parse_program
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import ParallelMatcher, SupervisorConfig
from repro.parallel import messages
from repro.parallel.local import LocalScheduler, _LocalShard
from repro.parallel.worker import (
    ShardState,
    _InlineShard,
    rebuild_state,
    resolve_checkpoint,
)
from repro.parallel.validate import run_recorded, validate_parallel
from repro.rete import ReteNetwork
from repro.workloads.programs import SYSTEM_PROGRAMS
from repro.workloads.replay import record_program, replay_once

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(6)]

#: Shrunk deadlines so hang detection takes milliseconds, plus a small
#: checkpoint interval so recovery exercises checkpoint+tail replay.
FAST = SupervisorConfig(collect_deadline=0.5, checkpoint_every=4)


def _closure_state():
    """A ShardState loaded with the closure rules + chain facts."""
    productions = parse_program(CLOSURE).productions
    memory = WorkingMemory()
    wmes = [memory.add(WME(cls, dict(attrs))) for cls, attrs in CHAIN]
    state = ShardState()
    ops = [(messages.ADD_PRODUCTION, p) for p in productions]
    ops += [(messages.ADD_WME, w) for w in wmes]
    edits, rows = state.apply_batch(ops)
    return state, edits, rows, memory


def _resolved(state):
    """The checkpoint as the coordinator stores it: names resolved
    against the live objects (here, the state's own)."""
    return resolve_checkpoint(state.checkpoint(), state.productions, state.wmes)


# -- differential identity ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(SYSTEM_PROGRAMS))
def test_system_program_bit_identical(name):
    """Every system-class program fires identically under thread shards."""
    mod = SYSTEM_PROGRAMS[name]
    reference = mod.run()
    with ParallelMatcher(workers=2, transport="local") as matcher:
        subject = mod.run(matcher=matcher)
    assert subject.fired == reference.fired
    assert subject.halted == reference.halted
    assert subject.halt_reason == reference.halt_reason
    assert tuple(subject.output) == tuple(reference.output)


def test_validate_parallel_over_local_transport():
    report = validate_parallel(CLOSURE, CHAIN, workers=2, transport="local")
    assert report.agree, report.divergences


def test_clear_allows_pool_reuse():
    with ParallelMatcher(workers=2, transport="local") as matcher:
        first = run_recorded(CLOSURE, CHAIN, matcher)
        matcher.clear()
        second = run_recorded(CLOSURE, CHAIN, matcher)
    assert first.fired == second.fired
    assert first.conflict_sets == second.conflict_sets


def test_replay_protocol_is_bit_identical():
    """The benchmark's measurement protocol doubles as a correctness
    check: a recorded op stream replays to the same conflict set on the
    serial Rete and on local thread shards."""
    recording = record_program(SYSTEM_PROGRAMS["vt"])
    assert recording.cycle_count > 0 and recording.op_count > 0
    _, serial_keys = replay_once(recording, ReteNetwork())
    with ParallelMatcher(workers=2, transport="local") as matcher:
        _, local_keys = replay_once(recording, matcher)
    assert serial_keys == local_keys


# -- kernel shard state -------------------------------------------------------


def test_production_edits_emit_conflict_set_diff():
    """With WMEs resident, a ruleset edit rebuilds and emits only the
    conflict-set *diff* -- the coordinator maintains its view
    incrementally and never re-reads the whole set."""
    state, edits, rows, _ = _closure_state()
    inserted = {e[1].production.name for e in edits if e[0] == messages.INSERT_REF}
    assert inserted == {"base"}  # step needs anc facts that don't exist yet
    assert len(rows) == len(CHAIN)
    removal, _ = state.apply_batch([(messages.REMOVE_PRODUCTION, "base")])
    deletes = {(e[0], e[1]) for e in removal}
    assert deletes == {(messages.DELETE, "base")}
    assert not [e for e in removal if e[0] == messages.INSERT_REF]


def test_checkpoint_restore_preserves_wme_identity():
    """Regression: the checkpoint must share the coordinator's live WME
    objects.  The engine removes WMEs by identity, so a restored shard
    holding equal-but-distinct copies poisons every later firing."""
    state, _, _, memory = _closure_state()
    restored = rebuild_state(_resolved(state), [])
    assert set(restored.wmes) == set(state.wmes)
    for timetag, wme in restored.wmes.items():
        assert wme is state.wmes[timetag]
    assert sorted(i.key for i in restored.conflict_set) == sorted(
        i.key for i in state.conflict_set
    )
    for inst in restored.conflict_set:
        for wme in inst.wmes:
            if wme is not None:
                assert state.wmes[wme.timetag] is wme


def test_restore_replays_journal_tail():
    state, _, _, memory = _closure_state()
    checkpoint = _resolved(state)
    late = memory.add(WME("parent", {"from": "n6", "to": "n7"}))
    journal = [(messages.ADD_WME, late)]
    restored = rebuild_state(checkpoint, journal)
    assert late.timetag in restored.wmes
    assert len(restored.wmes) == len(state.wmes) + 1
    # Journal replay is quiet: the coordinator already merged those edits.
    assert restored.conflict_set.drain() == []


def test_bad_op_resets_inline_shard_state():
    """An op error must answer ERROR and leave the shard reusable with
    fresh state -- the same contract the process worker honours."""
    shard = _InlineShard(0)
    shard.dispatch([("bogus-tag", None)])
    status, payload, _ = shard.collect()
    assert status == messages.ERROR
    assert "bogus-tag" in payload
    productions = parse_program(CLOSURE).productions
    shard.dispatch([(messages.ADD_PRODUCTION, productions[0])])
    status, _, _ = shard.collect()
    assert status == messages.OK
    assert "base" in shard.state.productions


# -- scheduler ----------------------------------------------------------------


def test_scheduler_summary_is_side_effect_free():
    """Observability reads never advance the epoch barrier or mutate
    counters: two consecutive snapshots after quiescence are equal."""
    with ParallelMatcher(workers=2, transport="local") as matcher:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        system.run(max_cycles=200)
        first = matcher.scheduler_summary()
        second = matcher.scheduler_summary()
    assert first is not None
    assert first == second
    assert first["workers"] == 2
    assert first["epochs"] > 0
    # The run's small per-cycle batches take the granularity fast path.
    assert first["fast_batches"] > 0
    assert all(depth == 0 for depth in first["queue_depths"])


def test_scheduler_summary_absent_off_local_transport():
    with ParallelMatcher(workers=0) as matcher:
        run_recorded(CLOSURE, CHAIN, matcher)
        assert matcher.scheduler_summary() is None


def test_oversize_batches_run_through_the_deques():
    """A batch bigger than one grain skips the fast path and is split
    into stealable grain-sized tasks; the result still matches a
    one-shot serial application of the same ops."""
    productions = parse_program(CLOSURE).productions
    memory = WorkingMemory()
    wmes = [
        memory.add(WME("parent", {"from": f"n{i}", "to": f"n{i + 1}"}))
        for i in range(40)
    ]
    ops = [(messages.ADD_PRODUCTION, p) for p in productions]
    ops += [(messages.ADD_WME, w) for w in wmes]
    scheduler = LocalScheduler(2, grain=4)
    try:
        shard = _LocalShard(0, scheduler=scheduler)
        shard.dispatch(list(ops))
        status, edits, rows = shard.collect()
        stats = scheduler.stats()
    finally:
        scheduler.shutdown()
    assert status == messages.OK
    # Grains ran on worker threads or on the helping coordinator --
    # either way they went through the deques, not the fast path.
    assert stats["tasks_executed"] + stats["tasks_helped"] > 0
    assert stats["fast_batches"] == 0
    serial_edits, serial_rows = ShardState().apply_batch(list(ops))
    keys = lambda es: sorted(
        e[1].key for e in es if e[0] == messages.INSERT_REF
    )
    assert keys(edits) == keys(serial_edits)
    assert len(rows) == len(serial_rows)


# -- fault recovery -----------------------------------------------------------


def test_crash_and_hang_recover_from_checkpoints():
    """The chaos acceptance scenario on thread shards with checkpoints
    enabled -- the configuration that caught the pickled-checkpoint
    identity bug.  Crash + hang mid-run, bit-identical completion."""
    plan = FaultPlan.seeded(3, shards=2, horizon=20, crashes=1, hangs=1)
    report = run_chaos(
        CLOSURE, CHAIN, plan, workers=2, supervisor=FAST, transport="local"
    )
    assert report.identical, report.divergences
    assert report.transport == "local"
    causes = sorted(e["cause"] for e in report.recovery_events)
    assert causes == ["crash", "hang"]
    assert all(e["action"] == "respawned" for e in report.recovery_events)


def test_seeded_chaos_local_matches_pipe_recovery_story():
    """The same seeded plan faults the same (shard, seq) slots on both
    transports -- local's fault emulation is plan-compatible, so a chaos
    failure reproduces across backends."""
    plan = FaultPlan.seeded(7, shards=2, horizon=16, crashes=1)
    reports = {
        kind: run_chaos(
            CLOSURE, CHAIN, plan, workers=2, supervisor=FAST, transport=kind
        )
        for kind in ("local", "pipe")
    }
    for kind, report in reports.items():
        assert report.identical, (kind, report.divergences)
    keyed = [
        [(e["shard"], e["seq"], e["cause"]) for e in r.recovery_events]
        for r in reports.values()
    ]
    assert keyed[0] == keyed[1]
