"""The transport layer end to end: pipe vs local, eager dispatch, metrics.

The contract under test: the choice of shard transport (worker
processes over pickled pipes vs thread shards) and of dispatch timing
(barrier vs eager batching) is *invisible* in every run observable --
firing sequence, conflict sets, output, final memory -- and visible
only in the transport metrics.  These tests drive the same workload
through the combinations and diff against the serial Rete, then pin
the metrics/plumbing edges (validation, pipe accounting) directly.
"""

import pytest

from repro.ops5 import Ops5Error, ProductionSystem, parse_program
from repro.ops5.wme import WME, WorkingMemory
from repro.parallel import ParallelMatcher, TRANSPORTS, validate_parallel
from repro.parallel.executor import EAGER_MIN_OPS
from repro.rete import ReteNetwork

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

CHAIN = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(5)]


def test_resolution():
    assert TRANSPORTS == ("pipe", "local")
    assert ParallelMatcher(workers=1).transport == "pipe"
    for gone in ("auto", "ring"):
        with pytest.raises(Ops5Error):
            ParallelMatcher(workers=1, transport=gone)


def test_matcher_rejects_unknown_transport():
    with pytest.raises(Ops5Error):
        ParallelMatcher(workers=1, transport="telepathy")


def test_build_matcher_rejects_transport_for_serial_backends():
    from repro.serve.session import build_matcher

    with pytest.raises(Ops5Error):
        build_matcher("rete", transport="pipe")


def test_pipe_transport_is_bit_identical_to_rete():
    report = validate_parallel(CLOSURE, CHAIN, workers=2, transport="pipe")
    assert report.agree, report.divergences()


@pytest.mark.parametrize("transport", ["pipe", "local"])
def test_eager_dispatch_changes_no_observable(transport):
    """A bulk load past the eager threshold dispatches mid-cycle; the
    conflict sets must still match the serial Rete change for change."""
    productions = parse_program(CLOSURE).productions
    memory = WorkingMemory()
    wmes = [
        memory.add(WME("parent", {"from": f"n{i}", "to": f"n{i + 1}"}))
        for i in range(40 * EAGER_MIN_OPS)
    ]
    reference = ReteNetwork()
    with ParallelMatcher(workers=2, transport=transport) as matcher:
        for target in (reference, matcher):
            for production in productions:
                target.add_production(production)
        for batch in (wmes, wmes[::2]):
            for target in (reference, matcher):
                for wme in batch:
                    if batch is wmes:
                        target.add_wme(wme)
                    else:
                        target.remove_wme(wme)
            assert matcher.conflict_set.snapshot() == reference.conflict_set.snapshot()
        summary = matcher.transport_summary()
    assert summary["eager_dispatches"] > 0
    assert summary["dispatches"] > summary["eager_dispatches"]


def test_metrics_snapshot_has_transport_section():
    from repro.obs import metrics as obs_metrics

    with ParallelMatcher(workers=1, transport="pipe") as matcher:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        system.run(max_cycles=100)
        matcher.flush()
        data = obs_metrics.snapshot(system)
    transport = data["transport"]
    assert transport["kind"] == "pipe"
    assert transport["dispatches"] > 0
    assert transport["frames_sent"] > 0
    assert transport["frames_received"] >= transport["dispatches"]
    assert transport["bytes_sent"] > 0
    assert transport["mean_dispatch_latency_us"] > 0
    assert transport["symbols"] > 0
    assert set(transport) == {
        "kind",
        "dispatches",
        "eager_dispatches",
        "mean_dispatch_latency_us",
        "symbols",
        "frames_sent",
        "bytes_sent",
        "frames_received",
        "bytes_received",
        "send_seconds",
        "recv_seconds",
    }


def test_inline_matcher_reports_inline_kind():
    with ParallelMatcher(workers=0) as matcher:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        system.run(max_cycles=100)
        summary = matcher.transport_summary()
    assert summary["kind"] == "inline"
    assert summary["frames_sent"] == 0


def test_transport_stats_survive_worker_retirement():
    """close() must absorb pipe counters before tearing them down, so
    post-mortem summaries still carry the run's traffic."""
    matcher = ParallelMatcher(workers=2, transport="pipe")
    try:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for cls, attrs in CHAIN:
            system.add(cls, **attrs)
        system.run(max_cycles=100)
        matcher.flush()
        live = matcher.transport_summary()
    finally:
        matcher.close()
    post = matcher.transport_summary()
    assert post["frames_sent"] == live["frames_sent"]
    assert post["bytes_sent"] == live["bytes_sent"]
