"""The coordinator <-> shard protocol.

Every shard -- worker process, thread, or inline -- is driven by the
same ops and answers with the same replies; only the worker process
pickles them across a ``multiprocessing`` pipe.  Productions and WMEs
are pure data (no closures, no OS resources) and pickle directly.

Command stream (coordinator -> worker), one batch per flush::

    ("batch", [op, op, ...], seq) apply ops in order, then reply
    ("checkpoint",)               report (production names, timetags)
    ("restore", checkpoint, [op, ...])
                                  rebuild state from a resolved
                                  checkpoint (or fresh when None),
                                  replay ops quietly
    ("stop",)                     exit the worker loop

``seq`` is the coordinator-assigned per-shard batch sequence number --
the address fault injection fires on (:mod:`repro.faults`).  It is
``None`` for recovery re-dispatches, which must never re-trigger the
fault that killed the previous incarnation of the worker.

Ops inside a batch::

    ("+p", production)            compile a production into the shard
    ("-p", name)                  remove a production
    ("+w", wme)                   working-memory insertion
    ("-w", timetag)               working-memory deletion
    ("reset",)                    discard all match state, keep nothing

Reply (shard -> coordinator), one per command::

    ("ok", edits, stat_rows)      a served batch
    ("checkpoint", (names, timetags))
    ("restored", op_count)        state rebuilt (checkpoint + replay)
    ("error", repr, traceback_text)

``edits`` is the ordered conflict-set edit stream the batch produced:
``("I", instantiation)`` inserts carrying the live object, and
``("d", production_name, timetags)`` deletes, where ``timetags`` is the
instantiation's positive-CE timetag tuple.  A worker process sends
inserts as ``("i", production_name, timetags, bindings)`` instead;
timetags are the global names of WMEs, so the coordinator rebuilds the
:class:`~repro.ops5.production.Instantiation` over its own WME and
Production objects.

``stat_rows`` carries one measurement row per *WME op* in the batch:
``(op_index, affected, activations, comparisons, tokens_built)`` from
the shard's kernel counters -- the coordinator sums rows across shards
(shards hold disjoint production sets, so "affected productions" adds
correctly) into the :class:`~repro.ops5.matcher.MatchStats` record
stream.
"""

from __future__ import annotations

#: Op tags (kept short: they appear in every message).
ADD_PRODUCTION = "+p"
REMOVE_PRODUCTION = "-p"
ADD_WME = "+w"
REMOVE_WME = "-w"
RESET = "reset"

#: Command tags (coordinator -> worker).
BATCH = "batch"
CHECKPOINT = "checkpoint"
RESTORE = "restore"
STOP = "stop"

#: Reply tags (worker -> coordinator).
OK = "ok"
RESTORED = "restored"
ERROR = "error"

#: Edit tags: a live insert, its pickled-wire form, and a delete.
INSERT_REF = "I"
INSERT = "i"
DELETE = "d"

#: An edit row: ("I", inst), ("i", name, timetags, bindings) or
#: ("d", name, timetags).
Edit = tuple
#: A stats row: (op_index, affected, activations, comparisons, tokens).
StatRow = tuple
