"""Seeded chaos over *generated* programs: a fuzzer-produced (ruleset,
stream) pair survives worker crashes bit-identically on both transports.

The program is the generator's output for a fixed seed, shrunk with the
same ddmin pass ``repro fuzz`` applies to counterexamples -- so the case
exercised here is exactly the kind of minimal reproduction a fuzz report
ships.  Marked ``chaos`` like the rest of the fault-injection e2e suite.
"""

import pytest

from repro.faults import seeded_chaos
from repro.parallel import SupervisorConfig
from repro.workloads.generator import (
    DEFAULT_PROFILE,
    case_from_seed,
    shrink_case,
)

pytestmark = pytest.mark.chaos

FAST = SupervisorConfig(collect_deadline=0.5, checkpoint_every=4)


def _generated_case():
    """A fixed-seed generated case, shrunk to the smallest sub-case that
    still fires at least one production from its stream's adds."""
    from repro.naive import NaiveMatcher
    from repro.workloads.generator import run_case

    case = case_from_seed(DEFAULT_PROFILE, 14)

    def still_fires(candidate):
        outcome = run_case(candidate, {"naive": NaiveMatcher})
        record = outcome.records.get("naive")
        return record is not None and len(record.fired) > 0

    assert still_fires(case)
    shrunk, _ = shrink_case(case, still_fires)
    return shrunk


def _setup_from(case):
    """Initial memory for a chaos run: the stream's surviving adds."""
    live = {}
    for op in case.stream:
        if op[0] == "add":
            _, slot, cls, attrs = op
            live[slot] = (cls, dict(attrs))
        else:
            live.pop(op[1], None)
    return list(live.values())


@pytest.mark.parametrize("transport", ["pipe", "local"])
def test_shrunk_generated_program_survives_crash(transport):
    case = _generated_case()
    report = seeded_chaos(
        list(case.productions),
        _setup_from(case),
        seed=11,
        workers=2,
        crashes=1,
        hangs=0,
        horizon=4,
        supervisor=FAST,
        max_cycles=60,
        transport=transport,
    )
    assert report.identical, report.divergences
    assert report.transport == transport
