"""The solve gateway: protocol, rate limits, coalescing, sharding, SSE."""

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.distributed import (
    Gateway,
    GatewayConfig,
    ShardRouter,
    SolveWorker,
    TokenBucket,
    WorkQueue,
    spool_cache,
)
from repro.distributed.spool import SpoolError
from repro.model.serialization import problem_to_json
from repro.runtime.cache import problem_fingerprint
from repro.workloads import random_problem

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def tiny_problem(seed=0):
    return random_problem(n_processing=6, n_satellites=3, seed=seed,
                          sensor_scatter=0.3)


def problem_body(problem, **extra):
    body = {"problem": json.loads(problem_to_json(problem))}
    body.update(extra)
    return json.dumps(body)


def post_solve(port, body, headers=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/v1/solve", body=body,
                     headers=headers or {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read().decode()
    finally:
        conn.close()


def get(port, path, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def parse_sse(text):
    """[(event, payload_dict), ...] in stream order."""
    events = []
    for block in text.split("\n\n"):
        event = data = None
        for line in block.splitlines():
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        if event is not None:
            events.append((event, data))
    return events


class ShardDrainer:
    """In-process worker threads draining every shard of a gateway; with
    ``cached`` each worker reads and writes its shard's spool cache."""

    def __init__(self, queues, cached=False):
        self.queues = queues
        self.cached = cached
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(queue,),
                                          daemon=True) for queue in queues]

    def _loop(self, queue):
        worker = SolveWorker(queue, cache=(spool_cache(queue.directory)
                                           if self.cached else None))
        while not self._stop.is_set():
            task = queue.claim(block=True, timeout=0.05)
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


@pytest.fixture
def shards(tmp_path):
    return [str(tmp_path / f"shard-{index}") for index in range(2)]


def make_gateway(shards, lease_timeout=60.0, poll_interval=0.01,
                 **config_kwargs):
    config_kwargs.setdefault("recover_interval", 0.05)
    queues = [WorkQueue(directory, lease_timeout=lease_timeout,
                        poll_interval=poll_interval) for directory in shards]
    return Gateway(queues, GatewayConfig(port=0, **config_kwargs),
                   cache=None)


# --------------------------------------------------------------- token bucket
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_take(now=0.0) == (True, 0.0)
        assert bucket.try_take(now=0.0) == (True, 0.0)
        allowed, retry_after = bucket.try_take(now=0.0)
        assert not allowed
        assert retry_after == pytest.approx(0.1)
        allowed, _ = bucket.try_take(now=0.11)
        assert allowed

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        bucket.try_take(now=0.0)
        taken = 0
        while bucket.try_take(now=10.0)[0]:    # long idle: full burst, no more
            taken += 1
            assert taken < 10
        assert taken == 3

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# --------------------------------------------------------------- shard router
class TestShardRouter:
    def _router(self, tmp_path, count=3):
        queues = [WorkQueue(str(tmp_path / f"s{index}"))
                  for index in range(count)]
        return ShardRouter(queues)

    def test_routing_is_deterministic_and_spreads(self, tmp_path):
        router = self._router(tmp_path)
        keys = [f"problem-{index}" for index in range(200)]
        first = [router.route(key) for key in keys]
        assert first == [router.route(key) for key in keys]
        assert len(set(first)) == len(router.queues)     # all shards used

    def test_unhealthy_shard_spills_only_its_keys(self, tmp_path):
        router = self._router(tmp_path)
        keys = [f"problem-{index}" for index in range(200)]
        before = {key: router.route(key) for key in keys}
        victim = before[keys[0]]
        router.mark_unhealthy(victim)
        for key in keys:
            after = router.route(key)
            assert after != victim
            if before[key] != victim:
                assert after == before[key]      # healthy keys stay put

    def test_all_unhealthy_raises(self, tmp_path):
        router = self._router(tmp_path, count=2)
        router.mark_unhealthy(0)
        router.mark_unhealthy(1)
        with pytest.raises(SpoolError, match="no healthy"):
            router.route("anything")

    def test_probe_detects_and_heals(self, tmp_path):
        router = self._router(tmp_path, count=2)
        victim_dir = router.queues[1].directory
        shutil.rmtree(victim_dir)
        assert router.probe() == [True, False]
        assert router.healthy_indices() == [0]
        WorkQueue(victim_dir)                    # remount/recreate
        assert router.probe() == [True, True]


# ------------------------------------------------------------------ endpoints
class TestEndpoints:
    def test_healthz_shards_and_errors(self, shards):
        gateway = make_gateway(shards).start_background()
        try:
            status, body = get(gateway.port, "/healthz")
            health = json.loads(body)
            assert status == 200 and health["ok"]
            assert health["healthy_shards"] == 2

            status, body = get(gateway.port, "/v1/shards")
            table = json.loads(body)["shards"]
            assert status == 200 and len(table) == 2
            assert all(entry["healthy"] for entry in table)

            status, _ = get(gateway.port, "/nope")
            assert status == 404

            status, _, body = post_solve(gateway.port, "not json")
            assert status == 400
            status, _, body = post_solve(gateway.port, json.dumps({}))
            assert status == 400 and "problem" in body

            status, body = get(gateway.port, "/metrics")
            assert status == 200
            assert "repro_gateway_requests_total" in body
        finally:
            gateway.stop()

    def test_solve_roundtrip_and_task_poll(self, shards):
        # gateway + spool + worker return the in-process objective bit for
        # bit: under the gateway's own default method and under the
        # portfolio, on instances inside its cross-check regime (n <= 14)
        from repro.core.solver import solve as solve_inline
        from repro.distributed.protocol import SolveRequest

        gateway = make_gateway(shards).start_background()
        try:
            with ShardDrainer(gateway.queues):
                for method in (None, "portfolio"):
                    for n, seed in ((6, 3), (10, 4), (14, 5)):
                        problem = random_problem(n_processing=n,
                                                 n_satellites=3, seed=seed,
                                                 sensor_scatter=0.3)
                        extra = {"method": method} if method else {}
                        status, _, body = post_solve(
                            gateway.port,
                            problem_body(problem, timeout_s=60, **extra))
                        envelope = json.loads(body)
                        assert status == 200
                        assert envelope["ok"]
                        assert envelope["status"] == "optimal"
                        expected = solve_inline(
                            problem, method=method or SolveRequest.method)
                        assert envelope["objective"] == expected.objective
                        status, body = get(
                            gateway.port, f"/v1/tasks/{envelope['task_id']}")
                        poll = json.loads(body)
                        assert status == 200 and poll["state"] == "done"
                        assert poll["result"]["objective"] == \
                            expected.objective
        finally:
            gateway.stop()


# ----------------------------------------------------------------- coalescing
class TestGatewayCoalescing:
    def test_concurrent_identical_requests_share_one_spool_task(self, shards):
        clients = 6
        gateway = make_gateway(shards).start_background()
        try:
            body = problem_body(tiny_problem(seed=11), timeout_s=60)
            results = [None] * clients

            def request(index):
                results[index] = post_solve(gateway.port, body)

            threads = [threading.Thread(target=request, args=(index,))
                       for index in range(clients)]
            for thread in threads:
                thread.start()
            # no workers yet: wait for every request to be submitted, then
            # assert the spool holds exactly one task for all of them
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if gateway._inflight == clients:
                    break
                time.sleep(0.01)
            assert gateway._inflight == clients
            tasks_spooled = sum(queue.counts()["pending"]
                                + queue.counts()["claimed"]
                                for queue in gateway.queues)
            assert tasks_spooled == 1, (
                f"{clients} identical concurrent requests spooled "
                f"{tasks_spooled} tasks — gateway coalescing failed")
            with ShardDrainer(gateway.queues):
                for thread in threads:
                    thread.join()
            envelopes = []
            for status, _, text in results:
                assert status == 200
                envelopes.append(json.loads(text))
            assert all(env["ok"] for env in envelopes)
            assert len({env["task_id"] for env in envelopes}) == 1
            assert len({env["objective"] for env in envelopes}) == 1
            coalesced = sum(1 for env in envelopes if env["coalesced"])
            assert coalesced == clients - 1
        finally:
            gateway.stop()


# ---------------------------------------------------------------- rate limits
class TestShardIdentity:
    def test_method_spellings_of_one_instance_meet_in_one_shard(self,
                                                                shards):
        """The gateway routes on the instance fingerprint, the identity part
        of the result key, so a request naming ``auto`` reads the answer a
        ``portfolio`` request for the same instance left in its shard."""
        queues = [WorkQueue(directory, poll_interval=0.01)
                  for directory in shards]
        gateway = Gateway(queues, GatewayConfig(port=0)).start_background()
        try:
            # a "<problem>:<method>" routing key sends these two spellings
            # of seed 0 to different shards of a 2-shard ring
            problem = tiny_problem(seed=0)
            with ShardDrainer(queues, cached=True):
                status, _, text = post_solve(gateway.port, problem_body(
                    problem, method="portfolio", timeout_s=60))
            first = json.loads(text)
            assert status == 200 and first["ok"] and not first["cached"]
            status, _, text = post_solve(gateway.port, problem_body(
                problem, method="auto", timeout_s=5))      # no workers
            again = json.loads(text)
            assert status == 200 and again["cached"]
            assert again["shard"] == first["shard"]
            assert again["objective"] == first["objective"]
        finally:
            gateway.stop()


class TestRateLimiting:
    def test_burst_sheds_with_429_and_retry_after(self, shards):
        gateway = make_gateway(shards, rate_per_client=2.0,
                               burst_per_client=3.0).start_background()
        try:
            # an intentionally invalid body: the rate check runs before
            # parsing, so allowed requests 400 and shed requests 429
            statuses, retry_afters = [], []
            for _ in range(8):
                status, headers, _ = post_solve(
                    gateway.port, json.dumps({}),
                    headers={"X-Client-Id": "bursty"})
                statuses.append(status)
                if status == 429:
                    retry_afters.append(headers.get("Retry-After"))
            assert statuses.count(400) == 3        # the full burst
            assert statuses.count(429) == 5        # everything past it
            assert all(value is not None and float(value) > 0
                       for value in retry_afters)
            # an unrelated client is not penalised
            status, _, _ = post_solve(gateway.port, json.dumps({}),
                                      headers={"X-Client-Id": "fresh"})
            assert status == 400
        finally:
            gateway.stop()

    def test_capacity_sheds_with_503(self, shards):
        gateway = make_gateway(shards, max_inflight=1).start_background()
        try:
            body = problem_body(tiny_problem(seed=21), timeout_s=30)
            first = threading.Thread(
                target=post_solve, args=(gateway.port, body))
            first.start()                  # occupies the only inflight slot
            deadline = time.monotonic() + 10.0
            while gateway._inflight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            status, headers, text = post_solve(
                gateway.port, problem_body(tiny_problem(seed=22),
                                           timeout_s=30))
            assert status == 503
            assert "capacity" in text
            assert headers.get("Retry-After")
            with ShardDrainer(gateway.queues):
                first.join()
        finally:
            gateway.stop()


# ------------------------------------------------------------------------ SSE
class TestProgressStreaming:
    def test_sse_replays_strictly_improving_incumbents(self, shards):
        gateway = make_gateway(shards).start_background()
        try:
            body = problem_body(tiny_problem(seed=31), stream=True,
                                timeout_s=30)
            result_holder = {}

            def request():
                result_holder["response"] = post_solve(gateway.port, body)

            client = threading.Thread(target=request)
            client.start()
            # play the worker by hand: claim, publish a noisy incumbent
            # sequence (duplicate included), then ack
            task = None
            deadline = time.monotonic() + 10.0
            while task is None and time.monotonic() < deadline:
                for queue in gateway.queues:
                    task = queue.claim()
                    if task is not None:
                        break
                time.sleep(0.01)
            assert task is not None
            queue = next(q for q in gateway.queues
                         if q.directory == os.path.dirname(
                             os.path.dirname(task.path)))
            for best in (5.0, 5.0, 3.5, 3.5, 2.0):
                assert queue.publish_progress(task, {
                    "best_objective": best, "incumbents": 1,
                    "source": "heuristic", "ts": 0.0})
                time.sleep(0.1)        # let the gateway observe each step
            queue.ack(task, {"ok": True, "status": "optimal",
                             "objective": 2.0, "placement": {},
                             "elapsed_s": 0.5})
            client.join(timeout=30.0)
            status, headers, text = result_holder["response"]
            assert status == 200
            assert headers.get("Content-Type") == "text/event-stream"
            events = parse_sse(text)
            kinds = [kind for kind, _ in events]
            assert kinds[0] == "task"
            assert kinds[-1] == "result"
            objectives = [payload["best_objective"]
                          for kind, payload in events if kind == "progress"]
            # strictly improving: duplicates and regressions filtered out
            assert objectives == sorted(set(objectives), reverse=True)
            assert objectives == [5.0, 3.5, 2.0]
            assert events[-1][1]["status"] == "optimal"
            assert events[-1][1]["objective"] == pytest.approx(2.0)
        finally:
            gateway.stop()


# ------------------------------------------------------------------- failover
class TestFailover:
    def _routed_problem(self, gateway, target_shard):
        """A tiny problem whose fingerprint routes to ``target_shard``."""
        for seed in range(200):
            problem = tiny_problem(seed=seed)
            if gateway.router.route(problem_fingerprint(problem)) == \
                    target_shard:
                return problem
        raise AssertionError("no seed routed to the target shard")

    def test_unhealthy_shard_fails_over_to_next(self, shards):
        gateway = make_gateway(shards, probe_interval=0.1,
                               default_timeout_s=60.0).start_background()
        try:
            victim = 0
            survivor = 1
            problem = self._routed_problem(gateway, victim)
            result_holder = {}

            def request():
                result_holder["response"] = post_solve(
                    gateway.port, problem_body(problem, timeout_s=60))

            client = threading.Thread(target=request)
            client.start()
            deadline = time.monotonic() + 10.0
            while (gateway.queues[victim].counts()["pending"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert gateway.queues[victim].counts()["pending"] == 1
            # the shard dies with the task spooled and no worker near it
            shutil.rmtree(shards[victim])
            with ShardDrainer([gateway.queues[survivor]]):
                client.join(timeout=60.0)
            status, _, text = result_holder["response"]
            envelope = json.loads(text)
            assert status == 200
            assert envelope["ok"] and envelope["status"] == "optimal"
            assert envelope["shard"] == survivor
        finally:
            gateway.stop()

    def test_failover_onto_a_cached_answer_returns_it(self, shards):
        """A request failed over to a shard whose cache holds the answer is
        answered from that cache, not left waiting on a task it never
        spooled."""
        from repro.core.solver import solve as solve_inline
        from repro.runtime import BatchTask
        from repro.runtime.cache import make_cache_entry

        queues = [WorkQueue(directory, poll_interval=0.01)
                  for directory in shards]
        gateway = Gateway(queues, GatewayConfig(
            port=0, probe_interval=0.1, recover_interval=0.05)
        ).start_background()
        try:
            problem = self._routed_problem(gateway, 0)
            expected = solve_inline(problem, method="colored-ssb")
            survivor = gateway.services[1]
            key = survivor.submit([BatchTask(
                problem=problem, method="colored-ssb")]).entries[0].prep.key
            survivor.cache.put(key, make_cache_entry(
                "colored-ssb", expected.objective, 0.0,
                dict(expected.assignment.placement), {},
                status=expected.status))
            result_holder = {}

            def request():
                result_holder["response"] = post_solve(
                    gateway.port, problem_body(problem, timeout_s=10))

            client = threading.Thread(target=request)
            client.start()
            deadline = time.monotonic() + 10.0
            while (queues[0].counts()["pending"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            shutil.rmtree(shards[0])           # no worker anywhere
            client.join(timeout=30.0)
            assert not client.is_alive()
            status, _, text = result_holder["response"]
            envelope = json.loads(text)
            assert status == 200
            assert envelope["ok"] and envelope["cached"]
            assert envelope["shard"] == 1
            assert envelope["objective"] == expected.objective
        finally:
            gateway.stop()

    @pytest.mark.slow
    def test_killed_worker_mid_solve_recovers_via_lease(self, shards):
        """SIGKILL a worker holding the lease: the gateway's recovery sweep
        requeues the task and a healthy worker finishes it."""
        gateway = make_gateway([shards[0]], lease_timeout=1.0,
                               default_timeout_s=120.0).start_background()
        try:
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
            env["REPRO_WORKER_SOLVE_DELAY"] = "60"
            doomed = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--spool",
                 shards[0], "--poll-interval", "0.02", "--no-cache"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            result_holder = {}

            def request():
                result_holder["response"] = post_solve(
                    gateway.port,
                    problem_body(tiny_problem(seed=41), timeout_s=120),
                    timeout=120.0)

            client = threading.Thread(target=request)
            client.start()
            queue = gateway.queues[0]
            deadline = time.monotonic() + 30.0
            while (queue.counts()["claimed"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert queue.counts()["claimed"] == 1   # stuck in the fake solve
            doomed.send_signal(signal.SIGKILL)
            doomed.wait()
            with ShardDrainer(gateway.queues):      # healthy replacement
                client.join(timeout=120.0)
            status, _, text = result_holder["response"]
            envelope = json.loads(text)
            assert status == 200
            assert envelope["ok"] and envelope["status"] == "optimal"
        finally:
            gateway.stop()


# --------------------------------------------------------- one outcome path
class TestGatewayOutcomePath:
    """The gateway writes no cache entry of its own and reads a finished
    task, dead-lettered ones included, through ``WorkQueue.outcome``."""

    def test_repeat_post_is_a_cache_hit_and_spools_nothing(self, shards,
                                                          cache_puts):
        queue = WorkQueue(shards[0], poll_interval=0.01)
        gateway = Gateway([queue], GatewayConfig(port=0)).start_background()
        try:
            body = problem_body(tiny_problem(seed=17), timeout_s=60)
            with ShardDrainer([queue], cached=True):
                status, _, text = post_solve(gateway.port, body)
            first = json.loads(text)
            assert status == 200 and first["ok"] and not first["cached"]
            assert len(cache_puts) == 1        # the worker's, and only it
            status, _, text = post_solve(gateway.port, body)   # no workers
            again = json.loads(text)
            assert status == 200 and again["ok"] and again["cached"]
            assert again["task_id"] is None
            assert again["objective"] == first["objective"]
            # the gateway never writes the cache: its first hit is the
            # worker's disk entry, which the read promotes into memory
            assert again["cache_source"] == "disk"
            status, _, text = post_solve(gateway.port, body)
            assert json.loads(text)["cache_source"] == "memory"
            assert len(cache_puts) == 1
            counts = queue.counts()
            assert counts["results"] == 1
            assert counts["pending"] == counts["claimed"] == 0
        finally:
            gateway.stop()

    @staticmethod
    def post_poisoned(gateway, seed, **extra):
        """POST a problem whose task a stand-in worker dead-letters as
        poison; returns the solve envelope."""
        queue = gateway.queues[0]

        def poison():
            task = queue.claim(block=True, timeout=30.0)
            queue.fail(task, "poisoned: crashed two workers", kind="poison",
                       **extra)

        thread = threading.Thread(target=poison)
        thread.start()
        status, _, text = post_solve(
            gateway.port, problem_body(tiny_problem(seed=seed), timeout_s=60))
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert status == 200
        return json.loads(text)

    def test_dead_lettered_task_answers_an_error_envelope(self, shards):
        gateway = make_gateway([shards[0]]).start_background()
        try:
            envelope = self.post_poisoned(gateway, seed=19)
            assert envelope["ok"] is False
            assert envelope["status"] == "error"
            assert envelope["error"] == "poisoned: crashed two workers"
            assert envelope["error_kind"] == "poison"
        finally:
            gateway.stop()

    def test_poll_of_a_dead_lettered_task_reads_its_outcome(self, shards):
        gateway = make_gateway([shards[0]]).start_background()
        try:
            envelope = self.post_poisoned(gateway, seed=23,
                                          details={"crashes": 2})
            status, body = get(gateway.port,
                               f"/v1/tasks/{envelope['task_id']}")
            poll = json.loads(body)
            assert status == 200 and poll["state"] == "failed"
            result = poll["result"]
            # the same outcome the solve envelope was built from, not the
            # raw dead-letter record with its task payload
            assert result["ok"] is False and result["status"] == "error"
            assert result["dead_lettered"] is True
            assert result["details"] == {"crashes": 2}
            for key in ("error", "error_kind"):
                assert result[key] == envelope[key]
            assert "payload" not in result and "kind" not in result
            assert "payload" not in body
        finally:
            gateway.stop()


# ------------------------------------------------------------------- tracing
class TestTracedGatewayCommand:
    """``repro gateway --trace`` hands the gateway a tracer on its spool;
    without the flag the gateway traces nothing.  A sharded gateway
    refuses ``--trace``: each shard's queue logs its own transitions."""

    @staticmethod
    def env():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        return env

    @classmethod
    def launch(cls, spool, *flags):
        """Start ``repro gateway`` on ``spool``; returns (process, port)."""
        import re
        import select

        env = cls.env()
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--spool", spool,
             "--port", "0", "--poll-interval", "0.01", *flags],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, text=True)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        deadline - time.monotonic())
            line = proc.stdout.readline() if ready else ""
            match = re.search(r"gateway listening on http://[^:]+:(\d+)",
                              line)
            if match:
                return proc, int(match.group(1))
            if not line and proc.poll() is not None:
                break
        proc.kill()
        proc.wait()
        raise AssertionError("repro gateway did not start listening")

    @staticmethod
    def stop(proc):
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def solve_once(self, spool, *flags):
        """One POST /v1/solve drained in process; returns the envelope."""
        proc, port = self.launch(spool, *flags)
        try:
            with ShardDrainer([WorkQueue(spool, poll_interval=0.01)]):
                status, _, text = post_solve(
                    port, problem_body(tiny_problem(seed=5), timeout_s=60))
            assert status == 200
            return json.loads(text)
        finally:
            self.stop(proc)

    def test_trace_writes_a_gateway_solve_span(self, tmp_path):
        from repro.observability.tracing import group_traces, load_spans

        spool = str(tmp_path / "spool")
        envelope = self.solve_once(spool, "--trace")
        assert envelope["ok"] and envelope["status"] == "optimal"
        spans = load_spans(spool)
        (solve,) = [span for span in spans if span["name"] == "gateway.solve"]
        assert solve["attrs"]["status"] == "ok"
        assert solve["dur_s"] > 0
        # the task itself was traced too: its spool transitions are spans
        assert {"submit", "claim", "ack"} <= {span["name"] for span in spans}
        # ... inside the request's trace, below its gateway.solve span
        assert len(group_traces(spans)) == 1
        parents = {span["span_id"]: span.get("parent_id") for span in spans}
        for name in ("task", "ack"):
            (span,) = [span for span in spans if span["name"] == name]
            ancestors, parent = [], span.get("parent_id")
            while parent is not None:
                ancestors.append(parent)
                parent = parents.get(parent)
            assert solve["span_id"] in ancestors

    def test_sampled_out_request_traces_no_task(self, tmp_path):
        from repro.observability.tracing import Tracer, load_spans

        spool = str(tmp_path / "spool")
        queue = WorkQueue(spool, poll_interval=0.01)
        gateway = Gateway([queue], GatewayConfig(port=0), cache=None,
                          tracer=Tracer.for_spool(spool, sample_rate=0.0))
        gateway.start_background()
        try:
            with ShardDrainer([queue]):
                status, _, text = post_solve(
                    gateway.port, problem_body(tiny_problem(seed=5),
                                               timeout_s=60))
            assert status == 200 and json.loads(text)["ok"]
        finally:
            gateway.stop()
        # the request span is kept; the task under it follows the rate
        names = [span["name"] for span in load_spans(spool)]
        assert names == ["gateway.solve"]

    def test_untraced_by_default(self, tmp_path):
        from repro.observability.tracing import load_spans

        spool = str(tmp_path / "spool")
        assert self.solve_once(spool)["ok"]
        assert load_spans(spool) == []

    @pytest.mark.parametrize("layout", ["shards", "repeated"])
    def test_trace_refuses_more_than_one_shard(self, tmp_path, layout):
        base = str(tmp_path / "spool")
        flags = (["--spool", base, "--shards", "2"] if layout == "shards"
                 else ["--spool", base + "-0", "--spool", base + "-1"])
        done = subprocess.run(
            [sys.executable, "-m", "repro", "gateway", *flags, "--port", "0",
             "--trace"],
            env=self.env(), capture_output=True, text=True, timeout=60,
            stdin=subprocess.DEVNULL)
        assert done.returncode == 2
        assert "single shard" in done.stderr
        assert "listening" not in done.stdout
