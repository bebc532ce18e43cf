"""The in-process layers: ``ops5.engine`` / ``ops5.conflict`` over ``kernel``.

The engine workload drives :class:`ProductionSystem` on the compiled
kernel the way a library user would: build an instance, ingest its
facts with ``apply_changes``, then run recognise--act cycles to the
halt.  A *request* of the engine workload is one library call -- the
ingest batch or one ``step()`` -- which is what the latency metrics
time.

The traced pass measures the layers from outside, through the public
seams the engine offers: a timing matcher passed as ``matcher=``, a
timing conflict-resolution strategy passed as ``strategy=`` and a
listener passed as ``listener=`` that marks where each firing's
actions begin.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.kernel.cache import clear_cache
from repro.kernel.matcher import CompiledMatcher
from repro.kernel.shared import clear_shared_kernels, shared_kernel
from repro.ops5.conflict import LexStrategy
from repro.ops5.engine import EngineListener, ProductionSystem
from repro.ops5.parser import parse_program
from repro.rete.network import ReteNetwork
from repro.workloads.replay import OpStreamRecorder, replay_once, timed_replay

from common import SliceSummary, lower_quartile, median, self_peak_rss_mb
from streams import INPUT_POOL, firing_changes, instance_changes, rng_for, system_programs

#: Lanes per system-class program instance: the conflict set stays
#: small, so the compiled kernel is the largest cost.
LANES = 8
#: Setup is repeated this many times per run; the median is reported.
SETUP_REPEATS = 9
#: The traced pass flags a ledger whose kernel + conflict + act time
#: leaves more than this share of the measured ``step()`` time
#: unattributed.
ATTRIBUTION_TOLERANCE = 0.15

perf = time.perf_counter


# -- driving an engine ----------------------------------------------------------


def drive(system: ProductionSystem, steps, on_call=None) -> list:
    """Drive *system* through *steps*, one library call at a time.

    A step is ``("apply", changes)``, ``("run",)`` -- ``step()`` until
    nothing fires, one call per cycle -- or ``("query",)``.  Returns one
    outcome per step: the inserted timetags, the fired ``(production,
    timetags)`` keys, or the sorted conflict-set keys.  *on_call*, if
    given, is called as ``on_call(kind, start, end)`` after every call.
    """
    outcomes = []
    for step in steps:
        kind = step[0]
        if kind == "apply":
            start = perf()
            outcome = system.apply_changes(step[1]).timetags
            end = perf()
            if on_call:
                on_call(kind, start, end)
        elif kind == "run":
            outcome = []
            fire = system.step
            while True:
                start = perf()
                chosen = fire()
                end = perf()
                if on_call:
                    on_call(kind, start, end)
                if chosen is None:
                    break
                outcome.append(chosen.key)
        else:
            start = perf()
            outcome = sorted(system.conflict_set.snapshot())
            end = perf()
            if on_call:
                on_call(kind, start, end)
        outcomes.append(outcome)
    return outcomes


def firing_digest(keys) -> str:
    """A digest of a firing sequence of ``(production, timetags)`` keys."""
    digest = hashlib.sha256()
    for name, timetags in keys:
        digest.update(f"{name}:{','.join(map(str, timetags))};".encode())
    return digest.hexdigest()


def fired_keys(steps, outcomes) -> list:
    """The firing sequence of a driven engine, in order."""
    return [key for step, keys in zip(steps, outcomes) if step[0] == "run" for key in keys]


def reference_run(program, steps):
    """Drive one engine through *steps* on interpreted Rete, recording
    its matcher op stream.  Returns ``(firing digest, recording)``."""
    recorder = OpStreamRecorder("reference")
    outcomes = drive(ProductionSystem(program, matcher=recorder), steps)
    recording = recorder.recording
    if recorder._current:
        recording.cycles.append(recorder._current)
    return firing_digest(fired_keys(steps, outcomes)), recording


def replay_rate(recording) -> tuple[float, str | None]:
    """Compiled-kernel changes/s on *recording*, with the conflict keys
    asserted equal to interpreted Rete's."""
    _, reference = replay_once(recording, ReteNetwork())
    best, keys = timed_replay(recording, CompiledMatcher, repeats=3)
    problem = None if keys == reference else "replay: compiled conflict keys differ from rete"
    return recording.op_count / best, problem


# -- timing shims ----------------------------------------------------------------


class TimingMatcher:
    """Wraps a matcher, timing and counting every WME change and every
    conflict-set read; everything else passes straight through."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0
        self.changes = 0

    def add_wme(self, wme) -> None:
        start = perf()
        self.inner.add_wme(wme)
        self.seconds += perf() - start
        self.changes += 1

    def remove_wme(self, wme) -> None:
        start = perf()
        self.inner.remove_wme(wme)
        self.seconds += perf() - start
        self.changes += 1

    @property
    def conflict_set(self):
        start = perf()
        members = self.inner.conflict_set
        self.seconds += perf() - start
        return members

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _CountingView:
    """The conflict set as a strategy sees it, counting what it iterates.

    It hands out one iterator over the real conflict set; an iterator
    over a dict or list reports how much of it is left, so counting
    costs nothing per instantiation and nothing is copied.
    """

    def __init__(self, conflict_set) -> None:
        self._size = len(conflict_set)
        self._iter = iter(conflict_set)

    def __iter__(self):
        return self._iter

    def __len__(self) -> int:
        return self._size

    @property
    def scanned(self) -> int:
        return self._size - self._iter.__length_hint__()


class TimingStrategy(LexStrategy):
    """LEX conflict resolution, timing and counting every select."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.selects = 0
        self.scanned = 0

    def select(self, conflict_set, already_fired):
        start = perf()
        view = _CountingView(conflict_set)
        chosen = super().select(view, already_fired)
        self.seconds += perf() - start
        self.selects += 1
        self.scanned += view.scanned
        return chosen


class ActMarker(EngineListener):
    """Marks the moment conflict resolution has chosen and the firing's
    actions begin, with the kernel time spent so far."""

    def __init__(self, matcher: TimingMatcher) -> None:
        self.matcher = matcher
        self.mark = None

    def on_cycle(self, cycle, fired) -> None:
        self.mark = (perf(), self.matcher.seconds)


# -- the engine ledger ------------------------------------------------------------


@dataclass
class EngineLedger:
    """Per-layer accumulators of one shimmed pass.

    ``run_s`` is the time in ``step()``; within it, the kernel (its
    conflict-set reads and the actions' WME changes), conflict
    resolution and the actions themselves (from the listener's mark to
    the return of ``step()``, less kernel time) are each timed directly,
    so what they leave unattributed is the engine's own bookkeeping.
    """

    ingest_s: float = 0.0
    run_s: float = 0.0
    act_s: float = 0.0
    kernel_s: float = 0.0
    kernel_run_s: float = 0.0
    kernel_changes: int = 0
    ingested: int = 0
    select_s: float = 0.0
    selects: int = 0
    scanned: int = 0
    firings: int = 0
    #: Whole units (engine passes, or served sessions) the pass covered;
    #: counts are reported per unit so they repeat exactly.
    units: int = 0
    #: Self-check violations: reported beside the numbers, not failures.
    flags: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def metrics(self) -> dict:
        attributed = self.kernel_run_s + self.select_s + self.act_s
        unattributed = 1.0 - attributed / self.run_s
        if abs(unattributed) > ATTRIBUTION_TOLERANCE:
            self.flags.append(
                f"ledger: kernel+conflict+act leave {unattributed:.1%} of step() "
                f"time unattributed (tolerance {ATTRIBUTION_TOLERANCE:.0%})"
            )
        return {
            "kernel.changes": (self.kernel_changes / self.units, "count"),
            "kernel.us_per_change": (1e6 * self.kernel_s / self.kernel_changes, "us"),
            "ops5.conflict.selects": (self.selects / self.units, "count"),
            "ops5.conflict.us_per_select": (1e6 * self.select_s / self.selects, "us"),
            "ops5.conflict.scanned_per_select": (self.scanned / self.selects, "count"),
            "ops5.engine.act_us_per_fire": (1e6 * self.act_s / self.firings, "us"),
            "ops5.engine.ingest_us_per_change": (1e6 * self.ingest_s / self.ingested, "us"),
            "ops5.engine.unattributed_frac": (unattributed, "fraction"),
        }


def shimmed_instance(program, steps, ledger: EngineLedger):
    """Drive one engine through *steps* (see :func:`drive`) under the
    timing shims.  Returns the engine and its firing keys, in order."""
    matcher = TimingMatcher(CompiledMatcher())
    strategy = TimingStrategy()
    marker = ActMarker(matcher)
    system = ProductionSystem(program, matcher=matcher, strategy=strategy, listener=marker)
    kernel_seen = [0.0]

    def on_call(kind: str, start: float, end: float) -> None:
        kernel = matcher.seconds - kernel_seen[0]
        kernel_seen[0] = matcher.seconds
        if kind == "apply":
            ledger.ingest_s += end - start
        elif kind == "run":
            ledger.run_s += end - start
            ledger.kernel_run_s += kernel
            if marker.mark is not None:
                began, kernel_before = marker.mark
                ledger.act_s += end - began - (matcher.seconds - kernel_before)
                marker.mark = None

    outcomes = drive(system, steps, on_call)
    fired = fired_keys(steps, outcomes)
    ledger.ingested += sum(len(step[1]) for step in steps if step[0] == "apply")
    ledger.firings += len(fired)
    ledger.kernel_s += matcher.seconds
    ledger.kernel_changes += matcher.changes
    ledger.select_s += strategy.seconds
    ledger.selects += strategy.selects
    ledger.scanned += strategy.scanned
    return system, fired


# -- the engine workload ------------------------------------------------------------


def measure_setup(programs) -> list[float]:
    """Parse plus codegen of every program shape from cold caches, repeated.

    The last repetition leaves the kernel caches warm for the run.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        clear_cache()
        clear_shared_kernels()
        start = perf()
        for program in programs:
            shared_kernel(parse_program(program.source).productions)
        times.append(perf() - start)
    return times


def timed_instance(program, changes, on_call=None):
    """One untraced instance: build, ingest, step to the halt.
    Returns ``(seconds, engine, firing keys)``."""
    steps = [("apply", changes), ("run",)]
    start = perf()
    system = ProductionSystem(program, matcher=CompiledMatcher())
    outcomes = drive(system, steps, on_call)
    return perf() - start, system, outcomes[1]


class EngineWorkload:
    """``engine-narrow``: the six system-class programs at ``LANES``
    lanes, a fresh instance of each after another, in whole passes."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.programs = system_programs(LANES)

    def instance(self, index: int, number: int) -> list[tuple]:
        program = self.programs[index]
        return instance_changes(program, rng_for(self.seed, program.name, number % INPUT_POOL))

    def expected_changes(self, index: int) -> int:
        program = self.programs[index]
        return len(program.setup) + firing_changes(program)

    def instance_problem(self, index: int, system: ProductionSystem):
        program = self.programs[index]
        if system.total_firings != program.expected_firings():
            return f"{program.name}: fired {system.total_firings}, expected {program.expected_firings()}"
        if system.total_wme_changes != self.expected_changes(index):
            return f"{program.name}: {system.total_wme_changes} changes, expected {self.expected_changes(index)}"
        if not system.halted:
            return f"{program.name}: did not halt"
        return None

    def reference_problems(self, parsed, firsts: dict) -> list[str]:
        """Compare each program's first instance with interpreted Rete."""
        problems = []
        for index, (changes, fired) in sorted(firsts.items()):
            digest, _ = reference_run(parsed[index], [("apply", changes), ("run",)])
            if digest != firing_digest(fired):
                problems.append(f"{self.programs[index].name}: firing sequence differs from rete")
        return problems

    def run(self, seconds: float) -> dict:
        """The untraced measurement: end-to-end metrics."""
        setup = measure_setup(self.programs)
        parsed = [parse_program(p.source) for p in self.programs]
        summary = SliceSummary(seconds)
        times: list[list[float]] = [[] for _ in parsed]
        problems: list[str] = []
        firsts: dict[int, tuple] = {}
        attempted = failed = total_changes = number = 0
        latencies: list[float] = []

        def on_call(kind: str, start: float, end: float) -> None:
            latencies.append(end - start)

        began = perf()
        while perf() - began < seconds:
            started = perf() - began
            latencies = []
            pass_s = 0.0
            pass_changes = 0
            for index, program in enumerate(parsed):
                changes = self.instance(index, number)
                attempted += 1
                try:
                    elapsed, system, fired = timed_instance(program, changes, on_call)
                except Exception as error:  # an op failure is counted, not fatal
                    failed += 1
                    problems.append(f"{self.programs[index].name}: {error!r}")
                    continue
                problem = self.instance_problem(index, system)
                if problem:
                    problems.append(problem)
                if number == 0:
                    firsts[index] = (changes, fired)
                times[index].append(elapsed)
                pass_s += elapsed
                pass_changes += system.total_wme_changes
            summary.add(started, latencies, pass_changes, busy=pass_s)
            total_changes += pass_changes
            number += 1
        window = perf() - began
        peak_rss = self_peak_rss_mb()
        problems += self.reference_problems(parsed, firsts)

        summary.finish()
        changes_per_pass = sum(self.expected_changes(i) for i in range(len(parsed)))
        return {
            "metrics": {
                **summary.metrics(),
                "setup_s": (median(setup), "s"),
                "peak_rss_mb": (peak_rss, "MB"),
            },
            "samples": {
                **summary.samples(),
                "passes": number,
                "setup": len(setup),
                "instances": attempted,
            },
            "diagnostics": {
                "wme_changes_per_s over the whole window": total_changes / window,
                "wme_changes_per_s at lower-quartile instance times":
                    changes_per_pass / sum(lower_quartile(t) for t in times if t),
            },
            "halves": summary.halves(),
            "window_s": window,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
        }

    def traced(self, seconds: float) -> dict:
        """Per-layer metrics from shimmed passes, alternating with
        unshimmed ones for the tracing overhead."""
        parsed = [parse_program(p.source) for p in self.programs]
        for program in parsed:
            shared_kernel(program.productions)
        ledger = EngineLedger()
        plain_changes = plain_s = traced_changes = traced_s = 0.0
        firsts: dict[int, tuple] = {}
        number = 0
        began = perf()
        # Alternate whole passes, plain then shimmed, so drift on the host
        # lands on both sides of the tracing-overhead ratio.
        while perf() - began < seconds or number < 2:
            for index, program in enumerate(parsed):
                changes = self.instance(index, number)
                if number % 2 == 0:
                    elapsed, system, _ = timed_instance(program, changes)
                    plain_s += elapsed
                    plain_changes += system.total_wme_changes
                    continue
                start = perf()
                system, fired = shimmed_instance(program, [("apply", changes), ("run",)], ledger)
                traced_s += perf() - start
                traced_changes += system.total_wme_changes
                problem = self.instance_problem(index, system)
                if problem:
                    ledger.problems.append(problem)
                if number == 1:
                    firsts[index] = (changes, fired)
            if number % 2:
                ledger.units += 1
            number += 1
        ledger.problems += [
            f"shimmed: {problem}" for problem in self.reference_problems(parsed, firsts)
        ]
        _, recording = reference_run(parsed[0], [("apply", firsts[0][0]), ("run",)])
        replay, problem = replay_rate(recording)
        if problem:
            ledger.problems.append(problem)
        metrics = ledger.metrics()
        metrics["kernel.replay_changes_per_s"] = (replay, "changes/s")
        plain_rate = plain_changes / plain_s
        metrics["trace.overhead_frac"] = (1.0 - (traced_changes / traced_s) / plain_rate, "fraction")
        return {"metrics": metrics, "problems": ledger.problems, "flags": ledger.flags}
