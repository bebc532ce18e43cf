"""The per-layer ledger: one request stream through progressively deeper stacks.

Five rows run the same mixed request stream (closure batches, each
followed by a conflict-set query) with one client:

1. ``ops5.engine``      -- applied to :class:`ProductionSystem` directly;
2. ``serve.session``    -- through ``Session.perform`` (no event loop);
3. ``serve.server``     -- one ``repro serve`` process over the wire;
4. ``serve.router``     -- ``repro serve --workers 1``;
5. ``serve.durability`` -- ``repro serve --workers 1 --processes``.

The difference between adjacent rows is that layer's cost.  Every row
must produce bit-identical replies (timetags, firing sequences,
conflict sets); a row that does not is a correctness failure.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.kernel.matcher import CompiledMatcher
from repro.ops5.engine import ProductionSystem
from repro.ops5.parser import parse_program
from repro.serve.client import RuleClient
from repro.serve.durability import DurabilityStore
from repro.serve.protocol import encode_frame, decode_payload
from repro.serve.session import Session

from common import median, work_dir
from engine import drive
from served import ServedSystem, lost_sessions, session_latency
from streams import (
    CLOSURE_PROGRAM,
    canonical,
    create_request,
    reply_problem,
    rng_for,
    session_requests,
)

#: The ledger's stream: sessions x batches of assert, run, query.
LEDGER_SESSIONS = 4
LEDGER_BATCHES = 25
#: Each row is run this many times; the fastest repetition is kept
#: (host interference only ever slows a repetition down).
ROW_REPEATS = 3
ROWS = ("ops5.engine", "serve.session", "serve.server", "serve.router", "serve.durability")
CLIENT_ROWS = {"serve.server": "server", "serve.router": "router", "serve.durability": "durable"}
perf = time.perf_counter


def stream(seed: int, tag: str, sessions: int, batches: int, mixed: bool) -> list[list[dict]]:
    """Per-session request lists (create and destroy are implied)."""
    return [
        session_requests(rng_for(seed, tag, n), batches, mixed) for n in range(sessions)
    ]


def request_count(sessions: list[list[dict]]) -> int:
    return sum(len(requests) + 2 for requests in sessions)


def engine_steps(requests: list[dict]) -> list[tuple]:
    """A session's requests as engine steps (see ``engine.drive``)."""
    steps = []
    for request in requests:
        if request["op"] == "assert":
            steps.append(("apply", [("assert", cls, attrs) for cls, attrs in request["wmes"]]))
        else:
            steps.append((request["op"],))
    return steps


# -- the five rows ----------------------------------------------------------------


def engine_row(sessions, program) -> tuple[float, list]:
    elapsed = [0.0]

    def on_call(kind: str, start: float, end: float) -> None:
        elapsed[0] += end - start

    replies = []
    for requests in sessions:
        start = perf()
        system = ProductionSystem(program, matcher=CompiledMatcher())
        elapsed[0] += perf() - start
        steps = engine_steps(requests)
        for step, outcome in zip(steps, drive(system, steps, on_call)):
            if step[0] == "apply":
                replies.append(list(outcome))
            else:
                replies.append([[name, list(tags)] for name, tags in outcome])
    return elapsed[0], replies


def session_row(sessions) -> tuple[float, list, list, list]:
    """Returns elapsed, canonical replies, problems, and the raw
    ``(request, reply)`` pairs plus the last session's export."""
    elapsed = 0.0
    replies, problems, pairs = [], [], []
    exported = None
    for number, requests in enumerate(sessions):
        start = perf()
        session = Session(f"ledger{number}", program=CLOSURE_PROGRAM, matcher="compiled")
        elapsed += perf() - start
        for request in requests:
            request = {**request, "session": session.id}
            start = perf()
            reply = session.perform(request)
            elapsed += perf() - start
            problem = reply_problem(request, reply)
            if problem:
                problems.append(f"serve.session row: {problem}")
            replies.append(canonical(request, reply))
            pairs.append((request, reply))
        exported = session.perform({"op": "export", "session": session.id})
        start = perf()
        session.close_resources()
        elapsed += perf() - start
    return elapsed, replies, problems, (pairs, exported)


def client_row(address, sessions, polls) -> tuple[float, list, list, int]:
    """One client over the wire; a *polls* list, if given, collects
    session latency from ``stats`` before each destroy (outside the
    timed requests)."""
    elapsed = 0.0
    replies, problems = [], []
    retries = [0]

    def on_retry(_rejection) -> None:
        retries[0] += 1

    with RuleClient(address) as client:
        for requests in sessions:
            start = perf()
            session = client.request(**create_request())["session"]
            elapsed += perf() - start
            for request in requests:
                start = perf()
                reply = client.call(session=session, on_retry=on_retry, **request)
                elapsed += perf() - start
                problem = reply_problem(request, reply)
                if problem:
                    problems.append(problem)
                replies.append(canonical(request, reply))
            if polls is not None:
                latency = session_latency(client.request("stats"))
                if latency is not None:
                    polls.append(latency)
            start = perf()
            client.destroy_session(session)
            elapsed += perf() - start
    return elapsed, replies, problems, retries[0]


def run_ledger(seed: int) -> dict:
    """All five rows on the seeded mixed stream, one client."""
    sessions = stream(seed, "ledger", LEDGER_SESSIONS, LEDGER_BATCHES, mixed=True)
    count = request_count(sessions)
    program = parse_program(CLOSURE_PROGRAM)
    best = {row: float("inf") for row in ROWS}
    reference = None
    problems: list[str] = []
    flags: list[str] = []
    polls: list = []
    retries = orphans = 0
    durable_stats: dict = {}
    captured = None

    def keep(row: str, elapsed: float, replies: list) -> None:
        nonlocal reference
        best[row] = min(best[row], elapsed)
        if reference is None:
            reference = replies
        elif replies != reference:
            problems.append(f"ledger: {row} replies differ from the ops5.engine row")

    for _ in range(ROW_REPEATS):
        keep("ops5.engine", *engine_row(sessions, program))
        elapsed, replies, row_problems, captured = session_row(sessions)
        problems += row_problems
        keep("serve.session", elapsed, replies)
    for row, topology in CLIENT_ROWS.items():
        system = ServedSystem(topology)
        try:
            system.start()
            for _ in range(ROW_REPEATS):
                elapsed, replies, row_problems, row_retries = client_row(
                    system.address, sessions, polls if topology == "server" else None
                )
                problems += [f"{row} row: {p}" for p in row_problems]
                retries += row_retries
                keep(row, elapsed, replies)
            if topology == "durable":
                with RuleClient(system.address) as client:
                    durable_stats = system.stats(client)
        finally:
            orphans += system.stop()
            problems += system.teardown_problems()
    problems += lost_sessions(durable_stats)

    us = {row: 1e6 * best[row] / count for row in ROWS}
    for lower, upper in zip(ROWS, ROWS[1:]):
        if us[upper] < us[lower]:
            flags.append(
                f"ledger: {upper} row ({us[upper]:.1f} us) is below {lower} ({us[lower]:.1f} us)"
            )
    metrics = {f"{row}.us_per_request": (us[row], "us") for row in ROWS}
    return {
        "metrics": metrics,
        "session_latency": (median([p for p, _ in polls]), median([p for _, p in polls])),
        "durable_stats": durable_stats,
        "retries": retries,
        "orphans": orphans,
        "captured": captured,
        "problems": problems,
        "flags": flags,
        "requests": count,
    }


# -- single-layer microbenchmarks ---------------------------------------------------


def protocol_metrics(pairs: list) -> dict:
    """Framing cost and frame sizes of a captured request/reply stream."""
    messages = [message for pair in pairs for message in pair]
    best = float("inf")
    for _ in range(ROW_REPEATS):
        start = perf()
        for message in messages:
            decode_payload(encode_frame(message)[4:])
        best = min(best, perf() - start)
    requests = [len(encode_frame(request)) for request, _ in pairs]
    replies = [len(encode_frame(reply)) for _, reply in pairs]
    return {
        "serve.protocol.us_per_frame": (1e6 * best / len(messages), "us"),
        "serve.protocol.bytes_per_request": (sum(requests) / len(requests), "bytes"),
        "serve.protocol.bytes_per_reply": (sum(replies) / len(replies), "bytes"),
    }


def durability_bench(pairs: list, exported: dict) -> dict:
    """``DurabilityStore.append`` on the stream's journaled requests, and
    ``save_checkpoint`` of a session's end-of-life export."""
    root = work_dir(f"durability-bench-{os.getpid()}")
    store = DurabilityStore(root)
    try:
        store.register("bench", exported["config"])
        journaled = [request for request, _ in pairs if request["op"] in ("assert", "run")]
        start = perf()
        for seq, request in enumerate(journaled, 1):
            store.append("bench", seq, request)
        append_us = 1e6 * (perf() - start) / len(journaled)
        checkpoints = []
        for _ in range(5):
            start = perf()
            store.save_checkpoint("bench", len(journaled), exported["config"], exported["state"])
            checkpoints.append(perf() - start)
    finally:
        store.close()
        shutil.rmtree(root, ignore_errors=True)
    return {
        "serve.durability.append_us": (append_us, "us"),
        "serve.durability.checkpoint_ms": (1e3 * median(checkpoints), "ms"),
    }
