"""Gateway throughput: sustained solves/sec through the HTTP front door.

The gateway earns its keep only if the HTTP + admission + routing layer is
thin next to the solves themselves.  This bench pushes a stream of unique
tiny instances through a 2-shard gateway drained by 2 in-process workers,
with keep-alive client threads, and reports sustained solves/sec plus p50
and p99 request latency.  The acceptance bar (>= 50 solves/sec end to end)
is asserted on full runs; smoke runs only keep the path exercised.
"""

import json
import http.client
import os
import statistics
import threading
import time

from repro.analysis.smoke import smoke_mode, smoke_scaled
from repro.distributed import Gateway, GatewayConfig, SolveWorker, WorkQueue
from repro.model.serialization import problem_to_json
from repro.workloads.generators import random_problem

REQUESTS = smoke_scaled(300, 40)
CLIENT_THREADS = 4
SHARDS = 2
WORKERS = 2
INSTANCE_CRUS = 6
THROUGHPUT_FLOOR = 50.0          # solves/sec on the bench box (full runs)


def _bodies():
    bodies = []
    for seed in range(REQUESTS):
        problem = random_problem(n_processing=INSTANCE_CRUS, n_satellites=3,
                                 seed=seed, sensor_scatter=0.3)
        bodies.append(json.dumps({
            "problem": json.loads(problem_to_json(problem)),
            "timeout_s": 120}))
    return bodies


class _Drainer:
    def __init__(self, queues):
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(queue,),
                                          daemon=True) for queue in queues]

    def _loop(self, queue):
        worker = SolveWorker(queue, cache=None)
        while not self._stop.is_set():
            task = queue.claim(block=True, timeout=0.02)
            if task is not None:
                worker.process(task)

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join()


def _run_load(port, bodies):
    """Fire all bodies from CLIENT_THREADS keep-alive connections."""
    latencies = []
    failures = []
    lock = threading.Lock()
    cursor = {"next": 0}

    def client():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(bodies):
                        return
                    cursor["next"] = index + 1
                started = time.perf_counter()
                conn.request("POST", "/v1/solve", body=bodies[index],
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = json.loads(response.read().decode())
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    if response.status != 200 or not payload.get("ok"):
                        failures.append((response.status, payload))
        finally:
            conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(CLIENT_THREADS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return wall, latencies, failures


def test_bench_gateway_sustained_solves(benchmark, tmp_path):
    shard_dirs = [str(tmp_path / f"shard-{index}") for index in range(SHARDS)]
    queues = [WorkQueue(directory) for directory in shard_dirs]
    gateway = Gateway(queues, GatewayConfig(port=0),
                      cache=None).start_background()
    bodies = _bodies()
    workers_per_shard = max(1, WORKERS // SHARDS)
    worker_queues = [queue for queue in queues
                     for _ in range(workers_per_shard)]
    try:
        with _Drainer(worker_queues):

            def load():
                return _run_load(gateway.port, bodies)

            wall, latencies, failures = benchmark.pedantic(
                load, rounds=1, iterations=1)
    finally:
        gateway.stop()

    assert not failures, f"{len(failures)} failed responses: {failures[:3]}"
    assert len(latencies) == REQUESTS
    rate = REQUESTS / wall
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
    print(f"gateway: {REQUESTS} solves in {wall:.2f}s = {rate:.1f} solves/s "
          f"({SHARDS} shards, {WORKERS} workers, {CLIENT_THREADS} clients); "
          f"p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms")
    if not smoke_mode() and (os.cpu_count() or 1) >= 4:
        assert rate >= THROUGHPUT_FLOOR, (
            f"gateway sustained only {rate:.1f} solves/s "
            f"(floor: {THROUGHPUT_FLOOR}/s)")
