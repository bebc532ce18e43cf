"""Tests for the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

from repro.kernel.matcher import CompiledMatcher
from repro.ops5.engine import ProductionSystem
from repro.ops5.parser import parse_program
from repro.serve.session import Session

from common import SliceSummary, lower_quartile, percentile
from engine import (
    EngineLedger,
    EngineWorkload,
    TimingStrategy,
    firing_digest,
    reference_run,
    shimmed_instance,
    timed_instance,
)
from ledger import engine_steps
from sessions import BATCHES, SessionWorkload
from streams import (
    CHANGES_PER_BATCH,
    FIRINGS_PER_BATCH,
    CLOSURE_PROGRAM,
    instance_changes,
    reply_problem,
    rng_for,
    session_requests,
)


def test_shimmed_run_matches_unshimmed_firings_and_changes():
    workload = EngineWorkload(seed=3)
    for index, program in enumerate(workload.programs):
        parsed = parse_program(program.source)
        changes = workload.instance(index, 0)
        _, plain, plain_fired = timed_instance(parsed, changes)
        ledger = EngineLedger()
        shimmed, shimmed_fired = shimmed_instance(
            parsed, [("apply", changes), ("run",)], ledger
        )
        assert shimmed_fired == plain_fired
        assert ledger.kernel_changes == plain.total_wme_changes
        assert ledger.kernel_changes == workload.expected_changes(index)
        assert ledger.firings == program.expected_firings()
        # One select per firing, plus the one that finds nothing to fire
        # (none after a halt action, which ends the run on its own).
        assert ledger.selects == program.expected_firings()
        assert workload.instance_problem(index, shimmed) is None
        # Kernel, conflict resolution and act are each timed directly
        # inside step(); only the engine's bookkeeping is left over.
        assert 0.0 < ledger.act_s < ledger.run_s
        assert ledger.kernel_run_s + ledger.select_s + ledger.act_s < ledger.run_s


def test_compiled_firing_sequence_matches_rete():
    workload = EngineWorkload(seed=5)
    parsed = parse_program(workload.programs[0].source)
    changes = workload.instance(0, 0)
    _, _, fired = timed_instance(parsed, changes)
    digest, recording = reference_run(parsed, [("apply", changes), ("run",)])
    assert digest == firing_digest(fired)
    assert recording.op_count == workload.expected_changes(0) - len(changes)


def test_seeds_change_order_and_names_not_work():
    program = EngineWorkload(seed=0).programs[2]
    one = instance_changes(program, rng_for(1, "x"))
    two = instance_changes(program, rng_for(2, "x"))
    assert one != two
    assert {c[2].get("lane") for c in one} != {c[2].get("lane") for c in two}
    assert sorted(c[1] for c in one) == sorted(c[1] for c in two)
    counts = []
    for seed in (1, 2):
        workload = EngineWorkload(seed=seed)
        system = ProductionSystem(parse_program(program.source), matcher=CompiledMatcher())
        system.apply_changes(workload.instance(2, 0))
        system.run()
        assert workload.instance_problem(2, system) is None
        counts.append((system.total_firings, system.total_wme_changes))
    assert counts[0] == counts[1]


def test_closure_streams_differ_by_seed_with_closed_form_work():
    streams = [session_requests(rng_for(seed, "s"), 3, mixed=True) for seed in (1, 2)]
    assert streams[0] != streams[1]
    assert [r["op"] for r in streams[0]] == [r["op"] for r in streams[1]]
    for requests in streams:
        session = Session("t", program=CLOSURE_PROGRAM, matcher="compiled")
        try:
            changes = 0
            for request in requests:
                reply = session.perform({**request, "session": "t"})
                assert reply_problem(request, reply) is None
                changes += len(reply.get("timetags", ())) + reply.get("fired", 0)
            assert changes == 3 * CHANGES_PER_BATCH
        finally:
            session.close_resources()


def test_session_workload_ledger_counts_are_exact():
    result = SessionWorkload(seed=7).traced(seconds=0.0)
    assert result["problems"] == []
    metrics = result["metrics"]
    assert metrics["kernel.changes"][0] == BATCHES * CHANGES_PER_BATCH
    assert metrics["ops5.conflict.selects"][0] == BATCHES * (FIRINGS_PER_BATCH + 1)
    requests = SessionWorkload(seed=7).requests(0)
    assert len(engine_steps(requests)) == len(requests)


def test_timing_strategy_counts_every_instantiation_it_scans():
    system = ProductionSystem(CLOSURE_PROGRAM, matcher="compiled", strategy=TimingStrategy())
    system.apply_changes([("assert", "parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(4)])
    sizes = []
    while True:
        sizes.append(len(system.conflict_set))
        if system.step() is None:
            break
    assert system.strategy.selects == len(sizes)
    assert system.strategy.scanned == sum(sizes)


def test_percentile_and_lower_quartile():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990
    assert lower_quartile([4.0, 1.0, 3.0, 2.0]) == 1.25
    assert lower_quartile([7.0]) == 7.0


def test_slice_summary_takes_medians_over_slices():
    summary = SliceSummary(window=4.0, count=4)
    for at, latency_s, changes in [(0.5, 0.001, 10), (1.5, 0.002, 20), (1.9, 0.004, 20),
                                   (2.5, 0.003, 30), (3.5, 0.009, 90)]:
        summary.add(at, [latency_s], changes)
    summary.finish()
    metrics = summary.metrics()
    assert [row[0] for row in summary.rows] == [10, 40, 30, 90]
    assert metrics["wme_changes_per_s"][0] == 35.0
    assert metrics["latency_p50_ms"][0] == 2.5
    assert summary.halves() == (25.0, 60.0)
    assert summary.samples() == {"latency": 5, "slices": 4, "smallest_slice": 1}
