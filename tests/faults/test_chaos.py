"""Chaos end-to-end: real worker processes killed, hung, and demoted
mid-run, with the recovered run proven bit-identical to the serial Rete
reference.

Marked ``chaos`` and deselected from tier-1 (``pyproject.toml`` adds
``-m "not chaos"``); CI runs this file with ``-m chaos`` under a hard
timeout and uploads the recovery report artifact.
"""

import os
import signal

import pytest

from repro.faults import (
    CRASH,
    HANG,
    PIPE_DROP,
    SLOW,
    FaultPlan,
    FaultSpec,
    run_chaos,
    seeded_chaos,
)
from repro.ops5 import ProductionSystem
from repro.parallel import ParallelMatcher, SupervisorConfig
from repro.parallel.validate import run_recorded

pytestmark = pytest.mark.chaos

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(6)]

#: Chaos tests shrink the hang deadline so detection takes milliseconds.
FAST = SupervisorConfig(collect_deadline=0.5, checkpoint_every=4)


def test_crash_plus_hang_mid_run_is_bit_identical():
    """The acceptance scenario: one shard killed (os._exit -- the
    observable behaviour of kill -9), another hung, mid-run.  The run
    completes and every observable matches the serial Rete reference."""
    plan = FaultPlan(
        [
            FaultSpec(kind=CRASH, index=0, at=3),
            FaultSpec(kind=HANG, index=1, at=5),
        ]
    )
    report = run_chaos(CLOSURE, CHAIN, plan, workers=2, supervisor=FAST)
    assert report.identical, report.divergences
    assert report.halted
    causes = sorted(e["cause"] for e in report.recovery_events)
    assert causes == ["crash", "hang"]
    assert all(e["action"] == "respawned" for e in report.recovery_events)
    assert all(e["replay_seconds"] > 0 for e in report.recovery_events)
    assert report.fault_summary["checkpoint_seconds"] > 0


def test_external_sigkill_mid_run_recovers():
    """A genuine ``kill -9`` from outside, not via the fault plan."""
    reference = run_recorded(CLOSURE, CHAIN, ParallelMatcher(workers=0))
    with ParallelMatcher(workers=2, supervisor=FAST) as matcher:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        fired = []
        for _ in range(4):  # run a few cycles, then murder shard 0
            inst = system.step()
            assert inst is not None
            fired.append((inst.production.name, inst.timetags))
        victim = matcher._shards[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        while True:
            inst = system.step()
            if inst is None:
                break
            fired.append((inst.production.name, inst.timetags))
        events = matcher.fault_events()
    assert tuple(fired) == reference.fired
    assert len(events) >= 1
    assert all(e.cause == "crash" for e in events)


def test_pipe_drop_recovers():
    plan = FaultPlan([FaultSpec(kind=PIPE_DROP, index=1, at=2)])
    report = run_chaos(CLOSURE, CHAIN, plan, workers=2, supervisor=FAST)
    assert report.identical, report.divergences
    assert report.recovery_events[0]["cause"] == "crash"


def test_repeated_failures_demote_to_inline_and_run_completes():
    """Graceful degradation: with max_failures=1 the first failure
    demotes, and the demoted (inline) shard finishes the run."""
    plan = FaultPlan([FaultSpec(kind=CRASH, index=0, at=2)])
    config = SupervisorConfig(collect_deadline=0.5, max_failures=1)
    report = run_chaos(CLOSURE, CHAIN, plan, workers=2, supervisor=config)
    assert report.identical, report.divergences
    assert report.recovery_events[0]["action"] == "demoted"
    assert report.fault_summary["degraded_shards"] == [0]


def test_slow_shard_within_deadline_is_not_a_failure():
    """A straggler inside the collect deadline must not trip recovery."""
    plan = FaultPlan([FaultSpec(kind=SLOW, index=0, at=2, seconds=0.05)])
    config = SupervisorConfig(collect_deadline=5.0)
    report = run_chaos(CLOSURE, CHAIN, plan, workers=2, supervisor=config)
    assert report.identical, report.divergences
    assert report.recovery_events == []
    assert report.fault_summary["crashes"] == 0
    assert report.fault_summary["hangs"] == 0


def test_crash_recovery_over_both_transports_is_bit_identical():
    """The transport acceptance criterion: seeded crash-plus-hang
    recovery must be bit-identical over thread shards exactly as over
    worker processes -- neither the wire nor its absence may leak into
    the observables."""
    reports = {
        kind: seeded_chaos(
            CLOSURE,
            CHAIN,
            seed=13,
            workers=2,
            crashes=1,
            hangs=1,
            supervisor=FAST,
            transport=kind,
        )
        for kind in ("local", "pipe")
    }
    for kind, report in reports.items():
        assert report.identical, (kind, report.divergences)
        assert report.transport == kind
        assert report.recovery_events, kind
    keyed = [
        [(e["shard"], e["seq"], e["cause"], e["action"]) for e in r.recovery_events]
        for r in reports.values()
    ]
    assert keyed[0] == keyed[1]  # same plan, same recovery story


def test_seeded_chaos_is_reproducible():
    """Equal seeds fault the same (shard, seq) slots and recover the
    same way -- the property that makes a chaos failure debuggable."""
    runs = [
        seeded_chaos(CLOSURE, CHAIN, seed=13, workers=2, crashes=2, supervisor=FAST)
        for _ in range(2)
    ]
    keyed = [
        [(e["shard"], e["seq"], e["cause"], e["action"]) for e in r.recovery_events]
        for r in runs
    ]
    assert keyed[0] == keyed[1]
    assert all(r.identical for r in runs)


def test_metrics_snapshot_reports_recovery():
    """The acceptance criterion's observability half: after a faulted
    run, the unified metrics snapshot carries the recovery events with
    nonzero replay and checkpoint timings."""
    from repro.obs import metrics as obs_metrics

    plan = FaultPlan([FaultSpec(kind=CRASH, index=1, at=4)])
    with ParallelMatcher(workers=2, fault_plan=plan, supervisor=FAST) as matcher:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        system.run(max_cycles=200)
        data = obs_metrics.snapshot(system)
    faults = data["faults"]
    assert faults["crashes"] == 1
    assert faults["respawns"] == 1
    assert faults["replay_seconds"] > 0
    assert faults["checkpoint_seconds"] > 0
    assert faults["events"][0]["shard"] == 1
    assert data["parallel"]["degraded_shards"] == []


def test_cli_chaos_command_round_trip(tmp_path):
    """``repro chaos`` exits 0 on a bit-identical recovery and writes
    the JSON report CI uploads."""
    import json

    from repro.cli import main

    out = tmp_path / "chaos.json"
    code = main(
        [
            "chaos",
            "--demo",
            "closure",
            "--workers",
            "2",
            "--seed",
            "7",
            "--crashes",
            "1",
            "--hangs",
            "1",
            "--collect-deadline",
            "0.5",
            "--report-out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro.chaos/1"
    assert report["identical"] is True
    assert report["recovery_events"]


def test_compiled_kernel_joins_the_chaos_comparison():
    """``with_compiled=True`` adds the generated kernel (under its Rete
    oracle) as a third participant: one run proves fault recovery and
    codegen equivalence on the same program."""
    report = seeded_chaos(
        CLOSURE, CHAIN, seed=7, workers=2, crashes=1, supervisor=FAST,
        with_compiled=True,
    )
    assert report.participants == ["rete", "compiled+oracle", "parallel+faults"]
    assert report.identical, report.divergences
    assert report.snapshot()["participants"] == report.participants


def test_cli_chaos_with_compiled_flag(tmp_path):
    import json

    from repro.cli import main

    out = tmp_path / "chaos.json"
    code = main(
        [
            "chaos", "--demo", "closure", "--workers", "2", "--seed", "7",
            "--crashes", "1", "--collect-deadline", "0.5",
            "--with-compiled", "--report-out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert "compiled+oracle" in report["participants"]
    assert report["identical"] is True
