"""Distributed training: mesh, collectives, backends, expert parallelism.

Two transports implement one :class:`ProcessGroup` API (see
``docs/distributed.md``): ``"sim"`` rendezvouses rank-threads over the
in-process reference collectives, ``"mp"`` forks real worker processes
wired by pipes and shared memory.  They are bit-identical.
"""

from repro.distributed.mesh import DeviceMesh
from repro.distributed.collectives import (
    CommLog,
    CommRecord,
    all_reduce,
    all_to_all,
    log_all_to_all,
)
from repro.distributed.backend import (
    BACKENDS,
    DistributedRunResult,
    PendingAllToAll,
    ProcessGroup,
    WorkerFailure,
    run_distributed,
)
from repro.distributed.expert_parallel import (
    ExpertParallelDMoE,
    ExpertParallelResult,
)
from repro.distributed.data_parallel import data_parallel_step

__all__ = [
    "BACKENDS",
    "DeviceMesh",
    "CommLog",
    "CommRecord",
    "DistributedRunResult",
    "PendingAllToAll",
    "ProcessGroup",
    "WorkerFailure",
    "all_reduce",
    "all_to_all",
    "log_all_to_all",
    "run_distributed",
    "ExpertParallelDMoE",
    "ExpertParallelResult",
    "data_parallel_step",
]
