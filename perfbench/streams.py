"""Seeded inputs and their closed-form expectations.

A seed decides only the order in which facts are sent and the symbols
they use (lane names, chain node names).  The amount of work never
depends on it: every system-class instance fires exactly
``expected_firings()`` productions and every closure batch derives
exactly ``expected_chain_facts(CHAIN)`` ancestor facts, whatever the
seed.
"""

from __future__ import annotations

import random
import string

from repro.workloads.generator import SystemProgram, emit_system_program
from repro.workloads.profiles import PAPER_SYSTEMS
from repro.workloads.programs import closure

#: Parent links per closure batch (a chain of CHAIN + 1 people).
CHAIN = 6
FIRINGS_PER_BATCH = closure.expected_chain_facts(CHAIN)
#: Each firing makes one ancestor fact; the batch itself asserts CHAIN.
CHANGES_PER_BATCH = CHAIN + FIRINGS_PER_BATCH
CLOSURE_PROGRAM = closure.PROGRAM
#: A run cycles through this many seeded inputs per program.  The
#: process-wide symbol table keeps every symbol it has seen, so fresh
#: names in every unit would grow memory with the number of units a run
#: gets through, and tie ``peak_rss_mb`` to speed.
INPUT_POOL = 32


def rng_for(seed: int, *stream: object) -> random.Random:
    """An independent, reproducible random stream per (seed, purpose)."""
    return random.Random(f"{seed}:" + ":".join(map(str, stream)))


def token(rng: random.Random, length: int = 4) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


# -- system-class programs ----------------------------------------------------


def system_programs(lanes: int) -> list[SystemProgram]:
    """The six Section 6 system-class programs at *lanes* parallel lanes."""
    return [emit_system_program(profile, lanes=lanes) for profile in PAPER_SYSTEMS]


def firing_changes(program: SystemProgram) -> int:
    """WME changes made by one full run's firings.

    Per lane: one make per (stage, branch) mark, a modify (remove +
    make) per stage advance, one remove when the task is done; plus the
    final halt rule's modify.
    """
    per_lane = program.stages * program.branches + 2 * program.stages + 1
    return program.lanes * per_lane + 2


def instance_changes(program: SystemProgram, rng: random.Random) -> list[tuple]:
    """The program's setup facts as ``apply_changes`` specs, with lane
    names drawn from *rng* and the facts sent in a shuffled order."""
    prefix = token(rng)
    order = list(range(program.lanes))
    rng.shuffle(order)
    names = {f"lane{i}": f"{prefix}{order[i]}" for i in range(program.lanes)}
    changes = []
    for cls, attrs in program.setup:
        attrs = dict(attrs)
        if "lane" in attrs:
            attrs["lane"] = names[attrs["lane"]]
        changes.append(("assert", cls, attrs))
    rng.shuffle(changes)
    return changes


# -- closure request streams -------------------------------------------------


def chain_batch(rng: random.Random, label: str) -> list[list]:
    """One CHAIN-link descent line as wire-format ``[cls, attrs]`` pairs,
    its links in a shuffled order."""
    nodes = [f"{label}{token(rng, 3)}{i}" for i in range(CHAIN + 1)]
    links = [
        ["parent", {"from": nodes[i], "to": nodes[i + 1]}] for i in range(CHAIN)
    ]
    rng.shuffle(links)
    return links


def create_request() -> dict:
    return {"op": "create_session", "program": CLOSURE_PROGRAM, "matcher": "compiled"}


def session_requests(rng: random.Random, batches: int, mixed: bool) -> list[dict]:
    """One session's traffic between create and destroy (no session id).

    Each batch asserts one chain then runs to quiescence; *mixed* adds
    the read-only ``query conflict-set`` after every run.
    """
    label = token(rng)
    requests: list[dict] = []
    for batch in range(batches):
        requests.append({"op": "assert", "wmes": chain_batch(rng, f"{label}{batch}")})
        requests.append({"op": "run"})
        if mixed:
            requests.append({"op": "query", "what": "conflict-set"})
    return requests


def request_changes(request: dict) -> int:
    """WME changes a correct reply to *request* stands for."""
    op = request["op"]
    if op == "assert":
        return len(request["wmes"])
    if op == "run":
        return FIRINGS_PER_BATCH
    return 0


def reply_problem(request: dict, reply: dict):
    """Why *reply* is not the closed-form answer to *request*, or None."""
    if not reply.get("ok"):
        return f"{request['op']}: error reply {reply.get('error')!r}"
    op = request["op"]
    if op == "assert" and len(reply.get("timetags", ())) != len(request["wmes"]):
        return f"assert: {len(reply.get('timetags', ()))} timetags for {len(request['wmes'])} facts"
    if op == "run":
        fired = reply.get("fired")
        if fired != FIRINGS_PER_BATCH or len(reply.get("firings", ())) != fired:
            return f"run: fired {fired}, expected {FIRINGS_PER_BATCH}"
        if reply.get("halt_reason") != "no satisfied production":
            return f"run: halted by {reply.get('halt_reason')!r}"
    if op == "query" and reply.get("instantiations"):
        return f"query: {len(reply['instantiations'])} instantiations left after run"
    return None


def canonical(request: dict, reply: dict):
    """The part of a reply every layer must reproduce bit-identically."""
    op = request["op"]
    if op == "assert":
        return list(reply["timetags"])
    if op == "run":
        return [[name, list(tags)] for name, tags in reply["firings"]]
    if op == "query":
        return [list(m) for m in reply["instantiations"]]
    return None
