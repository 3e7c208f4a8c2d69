"""Distributed solve service.

The batch runtime (:mod:`repro.runtime`) fans a sweep across the processes
of *one* machine and blocks for the whole report.  This package turns the
same prepared tasks into an always-on, multi-host service with nothing but a
shared filesystem as infrastructure:

* :mod:`~repro.distributed.spool` — :class:`WorkQueue`, a durable
  filesystem-backed broker: atomic claim/ack/requeue, lease timeouts and
  crash recovery, so any number of ``repro worker`` processes on any host
  sharing the spool directory can pull tasks;
* :mod:`~repro.distributed.worker` — :class:`SolveWorker`, the pull/solve/
  publish loop dispatching through the solver registry and the shared
  tiered result cache;
* :mod:`~repro.distributed.stream` — :class:`ResultStream`, generator-based
  iteration over results as they complete (or in submission order), with a
  backpressure window bounding in-flight tasks;
* :mod:`~repro.distributed.service` — :class:`SolveService`, the submitter
  facade: same task preparation, cache keys and seeds as the
  :class:`~repro.runtime.runner.BatchRunner`, execution by the worker fleet,
  with cross-submission duplicate coalescing through an
  :class:`InFlightIndex`;
* :mod:`~repro.distributed.gateway` / :mod:`~repro.distributed.protocol` —
  :class:`Gateway`, the asyncio HTTP front door: admission control,
  per-client token-bucket rate limits, request coalescing on the canonical
  problem hash, consistent-hash sharding across spool directories
  (:class:`~repro.distributed.spool.ShardRouter`) with recovery-based
  failover, and SSE streaming of incumbent progress;
* :mod:`~repro.distributed.incremental` — structure fingerprints and the
  :class:`WarmStartIndex`: re-submitted instances whose tree structure is
  unchanged (only profiles/costs drifted) warm-start the portfolio from the
  previous optimal cut;
* :mod:`~repro.distributed.janitor` — :class:`CacheJanitor`, size/age-capped
  LRU eviction keeping million-entry on-disk stores bounded;
* :mod:`~repro.distributed.faults` — :class:`FaultPlan` / :class:`FaultyFS`,
  seeded deterministic filesystem fault injection (ENOSPC, EIO, torn writes,
  corruption, hangs, clock skew) behind the
  :class:`~repro.runtime.fsio.FilesystemAdapter` seam every store routes
  through;
* :mod:`~repro.distributed.chaos` — :func:`run_chaos`, the harness running a
  live fleet under a fault plan and asserting the standing exactly-once /
  no-crash / metered-transition invariants.
"""

from repro.distributed.chaos import ChaosReport, run_chaos
from repro.distributed.faults import FaultPlan, FaultRule, FaultyFS
from repro.distributed.gateway import Gateway, GatewayConfig, TokenBucket
from repro.distributed.incremental import WarmStartIndex, structure_fingerprint
from repro.distributed.janitor import CacheJanitor, JanitorReport, sweep_stale_tmp
from repro.distributed.service import InFlightIndex, SolveService, Submission
from repro.distributed.spool import (
    ShardRouter,
    SpoolTask,
    WorkQueue,
    new_task_id,
)
from repro.distributed.stream import ResultStream, StreamTimeout
from repro.distributed.worker import SolveWorker, spool_cache

__all__ = [
    "CacheJanitor",
    "ChaosReport",
    "FaultPlan",
    "FaultRule",
    "FaultyFS",
    "Gateway",
    "GatewayConfig",
    "InFlightIndex",
    "JanitorReport",
    "ResultStream",
    "ShardRouter",
    "SolveService",
    "SolveWorker",
    "SpoolTask",
    "StreamTimeout",
    "Submission",
    "TokenBucket",
    "WarmStartIndex",
    "WorkQueue",
    "new_task_id",
    "run_chaos",
    "spool_cache",
    "structure_fingerprint",
    "sweep_stale_tmp",
]
