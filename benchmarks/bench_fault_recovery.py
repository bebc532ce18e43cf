"""Recovery cost: checkpointed restart vs full op-stream replay.

Section 3.1 of the paper observes that the match state is a
deterministic function of the working-memory op stream, and quantifies
what that costs: re-deriving state from scratch (McDermott's c3
variant) runs ~20x slower than updating it incrementally (c1).  Crash
recovery faces exactly that trade -- a respawned shard can rebuild by
replaying the whole committed op journal (pure re-derivation), or
restore a checkpoint and replay only the tail since it was taken.

This benchmark measures both, two ways:

* **Replay curve**: real op journals of growing length (captured from
  closure runs through the supervised executor), timing full replay
  against checkpoint-plus-tail restore.  The ratio between them is the
  paper's state-saving ratio recast as a recovery-cost curve: it grows
  with journal length because replay is O(journal) while the
  checkpointed path is O(WM + tail): one kernel attach over the
  checkpointed working memory, then the tail.
* **Live recovery**: a real worker process crashed mid-run by the
  fault injector, once with checkpointing disabled and once enabled,
  reporting the supervisor's measured replay cost and replayed-op
  counts for each.
* **WAL group commit**: the durability-cost side of the same ledger.
  The session WAL fsyncs before every acknowledged op (strict) or
  batches all dirty journals behind a commit window; the same append
  burst is timed both ways, with the journal proven complete on
  reload.  Fewer disk barriers per op is what pays for the recovery
  guarantees above.
* **Fleet recovery**: the serve-side analogue.  A durable process
  fleet (real worker OS processes behind the journaling router) hosts
  several sessions, a worker is SIGKILLed, and the first post-kill op
  is timed -- that latency covers failure detection, fence + respawn,
  checkpoint restore + journal-tail replay for every session on the
  victim, and the op itself.  Swept over ``checkpoint_every`` to show
  the same trade at the session layer: rarer checkpoints mean longer
  replay tails and slower recovery.

The snapshot lands in ``BENCH_fault_recovery.json`` at the repo root,
next to the other wall-clock baselines.  Assertions are qualitative --
replay cost grows with journal length, the checkpointed path replays
(and eventually costs) less, and both rebuild bit-identical state.

Usage::

    python benchmarks/bench_fault_recovery.py          # full curve
    python benchmarks/bench_fault_recovery.py --smoke  # the CI profile

(The file matches the ``bench_*.py`` pytest glob but defines no tests;
it is a standalone script.)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(REPO, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO, "src"))

from repro.faults import CRASH, FaultPlan, FaultSpec  # noqa: E402
from repro.ops5 import ProductionSystem  # noqa: E402
from repro.parallel import (  # noqa: E402
    ParallelMatcher,
    SupervisorConfig,
    rebuild_state,
)
from repro.parallel.worker import resolve_checkpoint  # noqa: E402
from repro.parallel.validate import run_recorded  # noqa: E402

SNAPSHOT = os.path.join(REPO, "BENCH_fault_recovery.json")

CLOSURE = """
(p base (parent ^from <x> ^to <y>) - (anc ^from <x> ^to <y>)
   --> (make anc ^from <x> ^to <y>))
(p step (anc ^from <x> ^to <y>) (parent ^from <y> ^to <z>)
        - (anc ^from <x> ^to <z>)
   --> (make anc ^from <x> ^to <z>))
"""

#: Chain lengths swept for the replay curve (journal length grows
#: quadratically with the chain: closure fires O(n^2) rules).
PROFILES = {
    "smoke": {
        "chains": [4, 6], "tail": 4, "reps": 3,
        "fleet_checkpoints": [0, 4], "fleet_rounds": 6,
        "fleet_sessions": 3, "wal_appends": 200,
    },
    "full": {
        "chains": [4, 6, 8, 10, 12], "tail": 8, "reps": 5,
        "fleet_checkpoints": [0, 1, 4, 16], "fleet_rounds": 12,
        "fleet_sessions": 4, "wal_appends": 500,
    },
}

#: Group-commit window measured against the strict policy.
WAL_COMMIT_WINDOW = 0.01

#: The paper's Section 3.1 state-saving ratio (c3 re-derivation vs c1
#: incremental), the number this curve is the recovery-side analogue of.
PAPER_REDERIVE_RATIO = 20.0


def journal_for(chain: int) -> list:
    """The real committed op journal of a closure run of *chain* edges.

    Captured from the supervised executor with checkpointing disabled,
    so the journal holds every op from program load to quiescence --
    exactly what a shard that never checkpointed would replay.
    """
    config = SupervisorConfig(checkpoint_every=None)
    with ParallelMatcher(workers=0, supervisor=config) as matcher:
        system = ProductionSystem(CLOSURE, matcher=matcher)
        for i in range(chain):
            system.add("parent", **{"from": f"n{i}", "to": f"n{i + 1}"})
        system.run()
        return list(matcher._supervisor.journals[0])


def _best(fn, reps: int) -> tuple[float, object]:
    """(best seconds, last result) over *reps* timed calls."""
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def measure_replay_point(chain: int, tail: int, reps: int) -> dict:
    """Full replay vs checkpoint+tail restore for one journal length."""
    journal = journal_for(chain)
    tail = min(tail, len(journal) - 1)
    full_seconds, full_state = _best(
        lambda: rebuild_state(None, journal), reps
    )
    # The checkpoint a prudent shard would hold: everything but the tail.
    prefix_state = rebuild_state(None, journal[:-tail])
    checkpoint_seconds, checkpoint = _best(
        lambda: resolve_checkpoint(
            prefix_state.checkpoint(), prefix_state.productions, prefix_state.wmes
        ),
        reps,
    )
    restore_seconds, restored = _best(
        lambda: rebuild_state(checkpoint, journal[-tail:]), reps
    )
    # Both paths must land on the same state, or the timings are noise.
    assert restored.conflict_set.snapshot() == full_state.conflict_set.snapshot()
    assert set(restored.wmes) == set(full_state.wmes)
    return {
        "chain": chain,
        "journal_ops": len(journal),
        "tail_ops": tail,
        "checkpoint_wmes": len(checkpoint[1]),
        "checkpoint_write_seconds": checkpoint_seconds,
        "full_replay_seconds": full_seconds,
        "checkpointed_restore_seconds": restore_seconds,
        "replay_over_restore": full_seconds / restore_seconds,
    }


def measure_live(checkpoint_every) -> dict:
    """One real crash, recovered live; the supervisor's own timings."""
    chain = [("parent", {"from": f"n{i}", "to": f"n{i + 1}"}) for i in range(6)]
    plan = FaultPlan([FaultSpec(kind=CRASH, index=0, at=12)])
    config = SupervisorConfig(
        collect_deadline=10.0, checkpoint_every=checkpoint_every
    )
    with ParallelMatcher(workers=1, fault_plan=plan, supervisor=config) as matcher:
        record = run_recorded(CLOSURE, chain, matcher)
        events = matcher.fault_events()
    assert len(events) == 1, events
    event = events[0]
    return {
        "checkpoint_every": checkpoint_every,
        "fired": len(record.fired),
        **event.snapshot(),
    }


def measure_group_commit(appends: int, reps: int) -> list[dict]:
    """Strict per-append fsync vs. a group-commit window, same burst.

    Times only the append loop (the interval a client's acknowledged op
    waits on) and proves the journal complete on reload afterwards --
    the throughput gain must not come out of the recovery guarantee.
    """
    import shutil
    import tempfile

    from repro.serve.durability import DurabilityStore

    rows = []
    for mode, kwargs in (
        ("strict", {"fsync": True}),
        ("group-commit", {"fsync": True, "commit_window": WAL_COMMIT_WINDOW}),
    ):
        best = float("inf")
        stats = None
        for _ in range(reps):
            root = tempfile.mkdtemp(prefix="repro-walgc-")
            try:
                store = DurabilityStore(root, **kwargs)
                store.register("s", {"program": CLOSURE})
                started = time.perf_counter()
                for seq in range(1, appends + 1):
                    store.append("s", seq, {"op": "run", "seq": seq})
                elapsed = time.perf_counter() - started
                store.close()  # runs the final barrier
                stats = store.stats()
                reloaded = DurabilityStore(root)
                bundle = reloaded.load("s")
                reloaded.close()
                assert bundle is not None and bundle.last_seq == appends
                best = min(best, elapsed)
            finally:
                shutil.rmtree(root, ignore_errors=True)
        rows.append(
            {
                "mode": mode,
                "commit_window": kwargs.get("commit_window", 0.0),
                "appends": appends,
                "seconds": best,
                "appends_per_sec": appends / best,
                "fsyncs": stats["fsyncs"],
            }
        )
    return rows


def measure_fleet_point(
    checkpoint_every: int, rounds: int, sessions: int
) -> dict:
    """SIGKILL a real worker under session load; time the recovery.

    The timed interval is one client call on a victim-hosted session
    issued right after the kill: it spans failure detection (the call
    itself hits the dead socket), fence + respawn of the worker
    process, restore of *every* session placed there, and the op's own
    execution.  ``replayed_ops`` counts the journal-tail entries the
    router re-applied across those sessions.
    """
    from repro.serve import ProcessRouterFleet, RuleClient

    with ProcessRouterFleet(
        workers=2,
        checkpoint_every=checkpoint_every,
        heartbeat_interval=None,  # recovery is driven by the failed call
        restart_backoff=0.05,
    ) as fleet:
        with RuleClient(fleet.address) as client:
            for index in range(sessions):
                client.call(
                    "create_session",
                    program=CLOSURE,
                    name=f"fb{index}",
                    tenant=f"tenant{index % 2}",
                )
            for round_no in range(rounds):
                for index in range(sessions):
                    client.call(
                        "assert", session=f"fb{index}", wme=[
                            "parent",
                            {"from": f"fb{index}_n{round_no}",
                             "to": f"fb{index}_n{round_no + 1}"},
                        ],
                    )
                    client.call("run", session=f"fb{index}")
            # Checkpoints are taken asynchronously; let them land so the
            # measured replay tail reflects the configured cadence.
            time.sleep(0.3)
            stats = client.call("stats")
            placements = {
                name: row["worker"]
                for name, row in stats["sessions"].items()
            }
            loads: dict[int, int] = {}
            for worker in placements.values():
                loads[worker] = loads.get(worker, 0) + 1
            victim = max(loads, key=lambda w: (loads[w], -w))
            probe = next(
                name for name, worker in placements.items()
                if worker == victim
            )
            journal_bytes = stats["router"]["durability"]["bytes_appended"]
            fleet.kill_worker(victim)
            started = time.perf_counter()
            reply = client.call("run", session=probe)
            latency = time.perf_counter() - started
            assert reply["ok"], reply
            after = client.call("stats")["router"]
            replayed = sum(
                event.get("replayed_ops", 0)
                for event in after["events"]
                if event.get("type") == "recovered"
            )
            return {
                "checkpoint_every": checkpoint_every,
                "sessions_on_victim": loads[victim],
                "rounds": rounds,
                "journal_bytes": journal_bytes,
                "checkpoints_taken": after["durability"]["checkpoints"],
                "replayed_ops": replayed,
                "recovered_sessions": len(after["recovered_sessions"]),
                "lost_sessions": len(after["lost_sessions"]),
                "recovery_seconds": latency,
            }


def render(
    rows: list[dict], live: list[dict], wal: list[dict], fleet: list[dict]
) -> str:
    header = (
        f"{'chain':>5} {'journal':>7} {'ckpt-WMEs':>9} {'replay-ms':>9} "
        f"{'restore-ms':>10} {'ratio':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['chain']:>5} {row['journal_ops']:>7} "
            f"{row['checkpoint_wmes']:>9} "
            f"{row['full_replay_seconds'] * 1e3:>9.2f} "
            f"{row['checkpointed_restore_seconds'] * 1e3:>10.2f} "
            f"{row['replay_over_restore']:>6.1f}"
        )
    lines.append("")
    lines.append("live crash recovery (1 worker, crash at batch 12):")
    for row in live:
        mode = (
            f"checkpoint_every={row['checkpoint_every']}"
            if row["checkpoint_every"]
            else "no checkpoints"
        )
        lines.append(
            f"  {mode:<20} replayed {row['replayed_ops']:>4} ops "
            f"(checkpoint used: {str(row['used_checkpoint']).lower()}) "
            f"in {row['replay_seconds'] * 1e3:.2f} ms, "
            f"total {row['total_seconds'] * 1e3:.2f} ms"
        )
    lines.append("")
    lines.append("session WAL append cost (fsync policy, same burst):")
    for row in wal:
        window = (
            f"window={row['commit_window'] * 1e3:.0f}ms"
            if row["commit_window"]
            else "every append"
        )
        lines.append(
            f"  {row['mode']:<13} ({window:<14}) "
            f"{row['appends']} appends in {row['seconds'] * 1e3:7.2f} ms "
            f"({row['appends_per_sec']:>8.0f}/s, {row['fsyncs']} fsyncs)"
        )
    lines.append("")
    lines.append(
        "fleet recovery (2 process workers, SIGKILL the loaded one, "
        "time the next op):"
    )
    for row in fleet:
        mode = (
            f"checkpoint_every={row['checkpoint_every']}"
            if row["checkpoint_every"]
            else "no checkpoints"
        )
        lines.append(
            f"  {mode:<20} {row['sessions_on_victim']} sessions on victim, "
            f"replayed {row['replayed_ops']:>4} ops, "
            f"recovered in {row['recovery_seconds'] * 1e3:.1f} ms "
            f"(lost: {row['lost_sessions']})"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short curve / few reps (the CI profile)",
    )
    parser.add_argument(
        "--out", default=SNAPSHOT, help="where to write the JSON snapshot"
    )
    args = parser.parse_args(argv)
    profile_name = "smoke" if args.smoke else "full"
    profile = PROFILES[profile_name]

    rows = [
        measure_replay_point(chain, profile["tail"], profile["reps"])
        for chain in profile["chains"]
    ]
    live = [measure_live(None), measure_live(4)]
    wal = measure_group_commit(profile["wal_appends"], profile["reps"])
    fleet = [
        measure_fleet_point(
            every, profile["fleet_rounds"], profile["fleet_sessions"]
        )
        for every in profile["fleet_checkpoints"]
    ]
    print(render(rows, live, wal, fleet))

    # Qualitative shape, not absolute speed: replay cost grows with the
    # journal, and the checkpointed path replays strictly less live.
    assert rows[-1]["full_replay_seconds"] > rows[0]["full_replay_seconds"]
    assert rows[-1]["replay_over_restore"] > 1.0
    assert not live[0]["used_checkpoint"] and live[1]["used_checkpoint"]
    assert live[1]["replayed_ops"] < live[0]["replayed_ops"]
    # Group commit must cut disk barriers without losing a single
    # acknowledged op (completeness is asserted inside the measurement).
    strict_wal, grouped_wal = wal
    assert grouped_wal["fsyncs"] < strict_wal["fsyncs"]
    assert grouped_wal["seconds"] < strict_wal["seconds"]
    # The fleet never loses a session, and checkpoints shorten the
    # replay tail just as they do for shards (fleet[0] never
    # checkpoints; every later point does).
    assert all(row["lost_sessions"] == 0 for row in fleet)
    assert all(
        row["replayed_ops"] < fleet[0]["replayed_ops"] for row in fleet[1:]
    )

    with open(args.out, "w") as handle:
        json.dump(
            {
                "schema": "repro.bench-fault-recovery/1",
                "python": platform.python_version(),
                "profile": profile_name,
                "paper": {
                    "section": "3.1",
                    "note": (
                        "re-deriving match state from scratch (c3) vs "
                        "incremental update (c1); recovery replay is the "
                        "same trade, bounded by checkpoints"
                    ),
                    "rederive_ratio": PAPER_REDERIVE_RATIO,
                },
                "replay_curve": rows,
                "live_recovery": live,
                "wal_group_commit": wal,
                "fleet_recovery": fleet,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
