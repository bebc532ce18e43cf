"""The repository's benchmark: the engine library and the session layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-narrow --seed 1 --seconds 10 --trace 0

Workloads (both on the ``compiled`` matcher; interpreted ``rete`` is
only the correctness reference):

``engine-narrow``
    ``ProductionSystem`` on the six Section 6 system-class programs at
    8 lanes, fresh instances back to back: the conflict set stays small
    and the kernel dominates.
``session-mixed``
    The served request stream -- closure batches (assert one chain,
    then ``run``), each followed by a ``query conflict-set`` read --
    through ``Session.perform`` in this process, sessions created and
    closed throughout.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer ledger instead (see
``ledger.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run whose outputs fail any check prints
the failures, reports no numbers and exits with status 1.
``--workload all`` runs every workload untraced then traced, each in its
own process, and exits with status 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import traceback
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import SRC, host_record, work_dir  # noqa: E402

WORKLOADS = ("engine-narrow", "session-mixed")


def workload_class(workload: str):
    if workload == "engine-narrow":
        from engine import EngineWorkload

        return EngineWorkload
    from sessions import SessionWorkload

    return SessionWorkload


def measure(workload: str, seed: int, seconds: float) -> dict:
    return workload_class(workload)(seed).run(seconds)


def trace(workload: str, seed: int, seconds: float) -> dict:
    """The per-layer ledger: the workload's own layers under the timing
    shims, the five-row ledger on the served stream, and the
    single-layer benches on the requests it captured."""
    from ledger import durability_bench, protocol_metrics, run_ledger
    from served import durability_metrics

    ledger = run_ledger(seed)
    own = workload_class(workload)(seed).traced(seconds)
    p50, p99 = ledger["session_latency"]
    pairs, exported = ledger["captured"]
    metrics = {
        **ledger["metrics"],
        "serve.session.latency_p50_ms": (p50, "ms"),
        "serve.session.latency_p99_ms": (p99, "ms"),
        "serve.client.retries": (ledger["retries"], "count"),
        "serve.fleet.orphans": (ledger["orphans"], "count"),
        **durability_metrics(ledger["durable_stats"]),
        **own["metrics"],
        **protocol_metrics(pairs),
        **durability_bench(pairs, exported),
    }
    flags = ledger["flags"] + own["flags"]
    metrics["ledger.self_check_flags"] = (len(flags), "count")
    return {
        "metrics": metrics,
        "problems": ledger["problems"] + own["problems"],
        "flags": flags,
        "attempted": ledger["requests"],
        "failed": 0,
    }


def report(workload: str, seed: int, traced: bool, result: dict, host: dict) -> None:
    """The human-readable lines that precede the JSON result."""
    print(
        f"perfbench {workload} seed={seed} trace={int(traced)} | "
        f"cpus={host['cpus']} cpu={host['cpu_model']!r} "
        f"python={host['implementation']}-{host['python']}"
    )
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name:<38} {value:>14.6g} {unit}")
    for name, count in sorted(result.get("samples", {}).items()):
        print(f"  samples.{name:<30} {count:>14}")
    for name, value in sorted(result.get("diagnostics", {}).items()):
        print(f"  {name:<52} {value:>14.6g}")
    if "halves" in result:
        first, second = result["halves"]
        print(f"  {'wme_changes_per_s by half':<38} {first:>14.6g} then {second:.6g}")
        print(f"  {'window_s':<38} {result['window_s']:>14.6g}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ops_frac':<38} {failed / max(1, attempted):>14.6g} ({failed} of {attempted})")
    for flag in result.get("flags", ()):
        print(f"  FLAG {flag}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    failures = []
    for workload in WORKLOADS:
        for traced in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced),
            ]
            if subprocess.run(command).returncode != 0:
                failures.append(f"{workload} --trace {traced}")
    for failure in failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all': every workload untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro source tree under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, SRC)
    # Everything the benchmark and its child processes write stays in
    # the checkout, temporary files included.
    os.environ["TMPDIR"] = work_dir("tmp")
    tempfile.tempdir = None
    # Served systems are stopped with SIGINT.  A process started with
    # SIGINT ignored (a background job of a non-interactive shell)
    # passes that on through exec, and the servers would never drain;
    # a handler installed here is reset to the default in each child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    host = host_record(args.seed)
    try:
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except Exception:
        traceback.print_exc()
        print("perfbench: the run failed; no result", file=sys.stderr)
        return 1
    report(args.workload, args.seed, bool(args.trace), result, host)
    problems = result["problems"]
    for problem, count in Counter(problems).items():
        print(f"perfbench: CHECK FAILED ({count}x): {problem}", file=sys.stderr)
    outcome = {
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {} if problems else {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(outcome))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
