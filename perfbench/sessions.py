"""``session-mixed``: the served request stream through ``Session.perform``, in process.

``Session.perform`` is the call a ``repro serve`` worker makes for each
request.  Driving it from one thread measures the session layer with
the engine and kernel below it on small requests, and leaves out the
wire and the process hand-offs, whose cost follows the host's load
more than the program's (see README.md).
"""

from __future__ import annotations

import time

from repro.kernel.cache import clear_cache
from repro.kernel.matcher import CompiledMatcher
from repro.kernel.shared import clear_shared_kernels
from repro.ops5.engine import ProductionSystem
from repro.ops5.parser import parse_program
from repro.serve.session import Session

from common import SliceSummary, median, self_peak_rss_mb
from engine import EngineLedger, drive, firing_digest, reference_run, replay_rate, shimmed_instance
from ledger import engine_steps
from streams import (
    CHANGES_PER_BATCH,
    CLOSURE_PROGRAM,
    INPUT_POOL,
    reply_problem,
    request_changes,
    rng_for,
    session_requests,
)

#: Batches per session: sessions are recycled after this many, so
#: working memory, and with it the cost of a batch, stays level
#: through a run.
BATCHES = 20
#: Setup is repeated this many times per run; the median is reported.
SETUP_REPEATS = 31

perf = time.perf_counter


def new_session(number: int) -> Session:
    return Session(f"bench{number}", program=CLOSURE_PROGRAM, matcher="compiled")


def measure_setup(requests: list[dict]) -> list[float]:
    """A first session of the closure program from cold kernel caches,
    through its first batch (the kernel is generated on first use),
    repeated; the last repetition leaves the caches warm."""
    times = []
    for number in range(SETUP_REPEATS):
        clear_cache()
        clear_shared_kernels()
        start = perf()
        session = new_session(number)
        for request in requests:
            session.perform({**request, "session": session.id})
        session.close_resources()
        times.append(perf() - start)
    return times


class SessionWorkload:
    """Sessions one after another, each sent ``BATCHES`` mixed batches
    (assert a chain, ``run``, ``query conflict-set``) and then closed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def requests(self, number: int) -> list[dict]:
        return session_requests(
            rng_for(self.seed, "session", number % INPUT_POOL), BATCHES, mixed=True
        )

    def run(self, seconds: float) -> dict:
        setup = measure_setup(self.requests(0)[:3])
        summary = SliceSummary(seconds)
        problems: list[str] = []
        attempted = failed = total_changes = number = 0
        first_fired: list = []
        began = perf()
        while perf() - began < seconds:
            started = perf() - began
            latencies: list[float] = []
            changes = 0
            unit_start = perf()
            session = new_session(number)
            latencies.append(perf() - unit_start)
            try:
                for request in self.requests(number):
                    request = {**request, "session": session.id}
                    attempted += 1
                    start = perf()
                    try:
                        reply = session.perform(request)
                    except Exception as error:  # an op failure is counted, not fatal
                        failed += 1
                        problems.append(f"{request['op']}: {error!r}")
                        continue
                    latencies.append(perf() - start)
                    problem = reply_problem(request, reply)
                    if problem:
                        problems.append(problem)
                        continue
                    changes += request_changes(request)
                    if number == 0 and request["op"] == "run":
                        first_fired += [(name, tuple(tags)) for name, tags in reply["firings"]]
            finally:
                start = perf()
                session.close_resources()
                latencies.append(perf() - start)
            summary.add(started, latencies, changes, busy=perf() - unit_start)
            total_changes += changes
            number += 1
        window = perf() - began
        peak_rss = self_peak_rss_mb()

        program = parse_program(CLOSURE_PROGRAM)
        digest, _ = reference_run(program, engine_steps(self.requests(0)))
        if digest != firing_digest(first_fired):
            problems.append("session-mixed: firing sequence differs from rete")

        summary.finish()
        return {
            "metrics": {
                **summary.metrics(),
                "setup_s": (median(setup), "s"),
                "peak_rss_mb": (peak_rss, "MB"),
            },
            "samples": {
                **summary.samples(),
                "sessions": number,
                "setup": len(setup),
            },
            "diagnostics": {
                "wme_changes_per_s over the whole window": total_changes / window,
            },
            "halves": summary.halves(),
            "window_s": window,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
        }

    def traced(self, seconds: float) -> dict:
        """Per-layer metrics of the sessions' engine work under the
        timing shims, alternating with unshimmed sessions for the
        tracing overhead.  The shims need the engine itself, so a
        session's requests are applied to :class:`ProductionSystem` as
        ``Session.perform`` applies them."""
        program = parse_program(CLOSURE_PROGRAM)
        ledger = EngineLedger()
        plain_s = traced_s = 0.0
        plain_changes = traced_changes = 0
        number = 0
        began = perf()
        while perf() - began < seconds or number < 2:
            steps = engine_steps(self.requests(number))
            start = perf()
            if number % 2 == 0:
                system = ProductionSystem(program, matcher=CompiledMatcher())
                drive(system, steps)
                plain_s += perf() - start
                plain_changes += system.total_wme_changes
            else:
                system, fired = shimmed_instance(program, steps, ledger)
                traced_s += perf() - start
                traced_changes += system.total_wme_changes
                ledger.units += 1
                if system.total_wme_changes != BATCHES * CHANGES_PER_BATCH:
                    ledger.problems.append(
                        f"shimmed session: {system.total_wme_changes} changes, "
                        f"expected {BATCHES * CHANGES_PER_BATCH}"
                    )
                if number == 1:
                    digest, recording = reference_run(program, steps)
                    if digest != firing_digest(fired):
                        ledger.problems.append("shimmed session: firing sequence differs from rete")
            number += 1
        replay, problem = replay_rate(recording)
        if problem:
            ledger.problems.append(problem)
        metrics = ledger.metrics()
        metrics["kernel.replay_changes_per_s"] = (replay, "changes/s")
        metrics["trace.overhead_frac"] = (
            1.0 - (traced_changes / traced_s) / (plain_changes / plain_s), "fraction"
        )
        return {"metrics": metrics, "problems": ledger.problems, "flags": ledger.flags}
