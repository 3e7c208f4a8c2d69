"""Distributed solve service: spool overhead, throughput, incremental re-solve.

Three load-bearing properties of the ISSUE-3 subsystem are kept honest here:

* the filesystem spool's per-task overhead (submit → claim → ack) must stay
  far below a real solve, so brokering through a shared directory is free at
  sweep granularity;
* a fleet of ``repro worker`` subprocesses sharing the spool must drain a
  sweep completely — zero lost, zero duplicated tasks — and throughput is
  reported per worker count (scaling is only asserted on multicore hosts);
* warm re-solves of a profiles-only perturbed sweep must beat cold solves
  (the acceptance criterion: same tree hash ⇒ the previous optimal cut
  warm-starts the portfolio).
"""

import os
import subprocess
import sys
import time

import pytest

from repro.analysis.smoke import smoke_scaled
from repro.core.portfolio import PortfolioSolver
from repro.distributed import (
    SolveService,
    SolveWorker,
    WarmStartIndex,
    WorkQueue,
)
from repro.workloads.generators import random_problem

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

FLEET_SIZE = smoke_scaled(16, 6)
INSTANCE_CRUS = smoke_scaled(14, 10)

INCREMENTAL_SEEDS = smoke_scaled(6, 3)
INCREMENTAL_CRUS = smoke_scaled(20, 16)
INCREMENTAL_ROUNDS = smoke_scaled(3, 2)
DRIFT = 0.05


def fleet(count=FLEET_SIZE, n_processing=INSTANCE_CRUS):
    return [random_problem(n_processing=n_processing, n_satellites=4,
                           seed=seed, sensor_scatter=0.3)
            for seed in range(count)]


# ------------------------------------------------------------ spool overhead
def test_bench_spool_submit_claim_ack(benchmark, tmp_path):
    queue = WorkQueue(str(tmp_path / "spool"))
    payload = {"method": "colored-ssb", "n": 1}

    def round_trip():
        task_id = queue.submit(payload)
        task = queue.claim()
        queue.ack(task, {"ok": True, "objective": 1.0})
        return task_id

    task_id = benchmark(round_trip)
    assert queue.result(task_id)["ok"]


def test_bench_service_drain_in_process(benchmark, tmp_path):
    """Submit + worker drain + stream, all in-process: the service's
    bookkeeping overhead over the raw solves."""
    problems = fleet()

    def sweep():
        spool = str(tmp_path / f"spool-{time.monotonic_ns()}")
        service = SolveService(spool, cache=None)
        submission = service.submit(problems, method="colored-ssb")
        service.enqueue(submission)
        worker = SolveWorker(service.queue)
        worker.run(drain=True)
        report = service.gather(submission, timeout=60.0)
        assert report.failed == 0
        return report

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(report) == len(problems)


# -------------------------------------------------------- worker-count sweep
def _spawn_workers(spool, count):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return [subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--spool", spool,
         "--poll-interval", "0.02", "--drain"],
        env=env, stdout=subprocess.DEVNULL) for _ in range(count)]


@pytest.mark.slow
def test_distributed_throughput_vs_worker_count(tmp_path):
    """Full subprocess fleet: every task solved exactly once per worker
    count; throughput scaling is asserted only with real cores to scale on."""
    problems = fleet(count=24, n_processing=12)
    walls = {}
    for workers in (1, 2):
        spool = str(tmp_path / f"spool-{workers}")
        service = SolveService(spool, cache=None)
        submission = service.submit(problems, method="colored-ssb")
        service.enqueue(submission)
        started = time.perf_counter()
        procs = _spawn_workers(spool, workers)
        try:
            report = service.gather(submission, timeout=300.0)
        finally:
            for proc in procs:
                proc.wait()
        walls[workers] = time.perf_counter() - started
        assert report.failed == 0
        assert len(report) == len(problems)
        counts = service.queue.counts()
        assert counts["pending"] == 0 and counts["claimed"] == 0
        assert counts["results"] == len(problems)        # exactly once each
        print(f"{workers} worker(s): {len(problems) / walls[workers]:.1f} "
              f"instances/s ({walls[workers]:.2f}s)")
    if (os.cpu_count() or 1) >= 4:
        assert walls[2] < walls[1], (
            f"2 workers ({walls[2]:.2f}s) not faster than 1 ({walls[1]:.2f}s)")


# ------------------------------------------------------- incremental re-solve
def _drifted(seed, rng_seed):
    import random as _random

    problem = random_problem(n_processing=INCREMENTAL_CRUS, n_satellites=4,
                             seed=seed, sensor_scatter=1.0)
    rng = _random.Random(rng_seed)
    for cru_id, seconds in list(problem.profile.host_times().items()):
        problem.profile.set_host_time(
            cru_id, seconds * rng.uniform(1 - DRIFT, 1 + DRIFT))
    for cru_id, seconds in list(problem.profile.satellite_times().items()):
        problem.profile.set_satellite_time(
            cru_id, seconds * rng.uniform(1 - DRIFT, 1 + DRIFT))
    problem.invalidate_caches()
    return problem


def test_incremental_warm_resolve_beats_cold(benchmark):
    """The acceptance criterion: a profiles-only perturbed sweep re-solves
    measurably faster warm than cold (same tree hash ⇒ warm start)."""
    solver = PortfolioSolver(index=WarmStartIndex())
    cold_wall = 0.0
    for seed in range(INCREMENTAL_SEEDS):
        problem = random_problem(n_processing=INCREMENTAL_CRUS, n_satellites=4,
                                 seed=seed, sensor_scatter=1.0)
        started = time.perf_counter()
        _, details = solver.solve(problem)
        cold_wall += time.perf_counter() - started
        assert not details["warm_started"]

    def warm_sweep():
        wall = 0.0
        for round_index in range(INCREMENTAL_ROUNDS):
            for seed in range(INCREMENTAL_SEEDS):
                problem = _drifted(seed, rng_seed=seed * 7919 + round_index)
                started = time.perf_counter()
                _, details = solver.solve(problem)
                wall += time.perf_counter() - started
                assert details["warm_started"]
        return wall / INCREMENTAL_ROUNDS

    warm_wall = benchmark.pedantic(warm_sweep, rounds=1, iterations=1)
    speedup = cold_wall / max(warm_wall, 1e-9)
    print(f"incremental re-solve: cold {cold_wall * 1e3:.1f} ms, "
          f"warm {warm_wall * 1e3:.1f} ms, speedup {speedup:.2f}x")
    assert warm_wall < cold_wall, (
        f"warm re-solve ({warm_wall * 1e3:.1f} ms) not faster than cold "
        f"({cold_wall * 1e3:.1f} ms)")


def test_incremental_matches_cold_reference():
    """Warm results must stay exact, not merely fast."""
    from repro.core.solver import solve

    solver = PortfolioSolver(index=WarmStartIndex())
    for seed in range(INCREMENTAL_SEEDS):
        solver.solve(random_problem(n_processing=INCREMENTAL_CRUS,
                                    n_satellites=4, seed=seed,
                                    sensor_scatter=1.0))
        drifted = _drifted(seed, rng_seed=seed + 99)
        assignment, details = solver.solve(drifted)
        assert details["warm_started"]
        reference = solve(drifted, method="colored-ssb-labels")
        assert assignment.end_to_end_delay() == pytest.approx(
            reference.objective)
