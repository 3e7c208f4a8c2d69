"""Machine-speed calibration for CPU-bound timings.

The machines this benchmark runs on are shared: the speed of one vCPU
swings by up to 2x within seconds as other tenants load the host, and the
two vCPUs swing independently.  A CPU-bound time is therefore reported in
*reference seconds*: the measured wall time multiplied by
``REFERENCE_CHUNK_S / chunk``, where ``chunk`` is the time a fixed
calibration chunk took right next to the measured work.  On a machine
whose chunk takes exactly ``REFERENCE_CHUNK_S`` a reference second is a
wall second.

The calibration is benchmark code only; nothing of the program runs in
it, so a faster program still reads faster.
"""

from __future__ import annotations

import os
import statistics
import time

#: Nominal duration of one calibration chunk (an idle 2 GHz vCPU).
REFERENCE_CHUNK_S = {"python": 0.002, "mixed": 0.004}


def chunk(kind: str = "python") -> float:
    """Time one fixed chunk of dict, tuple and sort work (~2 ms).

    ``kind="mixed"`` adds a numpy broadcast dominance test of the shape
    ``pareto_block_mask`` runs (~2 ms more), for workloads whose time is
    split between interpreter work and that kernel.
    """
    started = time.perf_counter()
    table = {}
    for i in range(4000):
        key = i % 97
        table[key] = table.get(key, 0) + i * i
    sorted(((x * 7919) % 10007, x) for x in range(2500))
    if kind == "mixed":
        import numpy as np

        grid = np.arange(1200.0).reshape(300, 4) % 7.0
        (grid[:128][None, :, :] <= grid[:, None, :]).all(-1).any(1)
    return time.perf_counter() - started


def sample(chunks: int = 1, kind: str = "python") -> float:
    """Mean chunk time over ``chunks`` chunks on the current CPU (the mean,
    not the median: a burst slows the measured work as well)."""
    return statistics.fmean(chunk(kind) for _ in range(chunks))


def sample_all_cpus(chunks: int = 2) -> float:
    """Mean over every CPU of the machine of :func:`sample`.

    For work spread over several processes on several CPUs; the calling
    thread is pinned to each CPU in turn, then its affinity is restored.
    """
    allowed = os.sched_getaffinity(0)
    try:
        samples = []
        for cpu in range(os.cpu_count() or 1):
            os.sched_setaffinity(0, {cpu})
            samples.append(sample(chunks))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(samples)


def factor(before: float, after: float, kind: str = "python") -> float:
    """Reference seconds per wall second between two samples."""
    return REFERENCE_CHUNK_S[kind] / ((before + after) / 2.0)
