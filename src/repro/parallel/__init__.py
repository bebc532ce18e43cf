"""Live parallel match execution (the repo's first real parallelism).

Where :mod:`repro.psim` *predicts* the paper's machine by discrete-event
simulation, this package *executes* match work concurrently: productions
are partitioned over shards -- worker processes or threads -- each
running its slice of the ruleset on the compiled kernel, with a
work-queue coordinator and a batch barrier per recognize--act cycle.
See ``docs/parallel-backend.md`` for the architecture and its
GIL-driven design constraints.

Public surface:

* :class:`ParallelMatcher` -- the engine-pluggable matcher backend;
* :func:`~repro.parallel.partition.assign_productions` and
  :func:`~repro.parallel.partition.measure_sharing_loss` -- the
  partitioner and the live sharing-loss measurement;
* :func:`~repro.parallel.validate.compare_backends` /
  :func:`~repro.parallel.validate.validate_parallel` -- differential
  validation of any backend set;
* the transports -- :data:`~repro.parallel.transport.TRANSPORTS`
  (``pipe``/``local``);
* the shard state -- :class:`ShardState`, its
  :class:`RecordingConflictSet`, and :func:`rebuild_state`, the
  recovery path's checkpoint + journal replay.
"""

from .executor import ParallelMatcher, WorkQueue, default_worker_count
from .transport import TRANSPORTS, TransportStats
from .supervisor import (
    RecoveryEvent,
    ShardFailure,
    ShardSupervisor,
    SupervisorConfig,
)
from .partition import (
    Partition,
    SharingLoss,
    assign_productions,
    measure_sharing_loss,
    route_classes,
)
from .validate import (
    DifferentialReport,
    RunRecord,
    compare_backends,
    run_recorded,
    validate_parallel,
)
from .worker import RecordingConflictSet, ShardState, rebuild_state

__all__ = [
    "ParallelMatcher",
    "WorkQueue",
    "default_worker_count",
    "TRANSPORTS",
    "TransportStats",
    "Partition",
    "SharingLoss",
    "assign_productions",
    "measure_sharing_loss",
    "route_classes",
    "DifferentialReport",
    "RunRecord",
    "compare_backends",
    "run_recorded",
    "validate_parallel",
    "RecordingConflictSet",
    "ShardState",
    "rebuild_state",
    "RecoveryEvent",
    "ShardFailure",
    "ShardSupervisor",
    "SupervisorConfig",
]
