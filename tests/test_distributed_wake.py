"""Same-host wake-ups: spool waiters return on a ring, not on the next poll.

Every waiter here runs with ``poll_interval=5.0`` where the wake-up path is
under test, so anything finishing well inside a second was delivered by a
ring.  The fallback tests break the wake-up machinery instead and run with
a short poll, which must still deliver everything.
"""

import errno
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.distributed import Gateway, GatewayConfig, SolveWorker, WorkQueue
from repro.distributed import wake
from repro.distributed.stream import ResultStream
from repro.model.serialization import problem_to_json
from repro.workloads import random_problem

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: a blocking claim in a fresh process; prints the wall time it returned
CLAIM_CHILD = """
import sys, time
from repro.distributed import WorkQueue
task = WorkQueue(sys.argv[1], poll_interval=5.0).claim(block=True, timeout=60)
print(time.time(), task.task_id if task else "none", flush=True)
"""


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


def endpoints(spool, topic=None):
    try:
        names = os.listdir(os.path.join(spool, wake.WAKE_DIR))
    except OSError:
        return []
    return [n for n in names if topic is None or n.startswith(topic + "-")]


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def spawn_claimer(spool):
    WorkQueue(spool)                      # materialise the spool first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-c", CLAIM_CHILD, spool],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        wait_for(lambda: endpoints(spool, wake.CLAIM), timeout=30.0)
    except AssertionError:
        proc.kill()
        proc.wait()
        raise
    return proc


class Drainer:
    """In-process worker threads, one per queue.

    ``claim_timeout`` bounds each blocking claim, and so how long leaving
    the ``with`` block waits for the threads to notice the stop.
    """

    def __init__(self, queues, claim_timeout=0.25):
        self.queues = queues
        self.claim_timeout = claim_timeout
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._loop, args=(queue,),
                                          daemon=True) for queue in queues]

    def _loop(self, queue):
        worker = SolveWorker(queue, cache=None)
        while not self._stop.is_set():
            task = queue.claim(block=True, timeout=self.claim_timeout)
            if task is not None:
                worker.process(task)

    def __enter__(self):
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()


def solve_request(port, seed, timeout=60.0):
    problem = random_problem(n_processing=6, n_satellites=3, seed=seed,
                             sensor_scatter=0.3)
    body = json.dumps({"problem": json.loads(problem_to_json(problem))})
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/v1/solve", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def make_gateway(directories, poll_interval):
    queues = [WorkQueue(directory, poll_interval=poll_interval)
              for directory in directories]
    return Gateway(queues, GatewayConfig(port=0), cache=None)


# ------------------------------------------------------------- wake-up path
class TestWakeDelivery:
    def test_blocking_claim_in_another_process_wakes_on_submit(self, spool):
        proc = spawn_claimer(spool)
        try:
            submitted = time.time()
            task_id = WorkQueue(spool).submit({"n": 1})
            out, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        returned, claimed_id = out.split()
        assert claimed_id == task_id
        assert float(returned) - submitted < 0.5

    def test_gateway_request_completes_on_wakeups(self, tmp_path):
        directories = [str(tmp_path / "shard-0")]
        gateway = make_gateway(directories, poll_interval=5.0)
        gateway.start_background()
        try:
            # claims outlast the 0.5 s bar, so only a ring can deliver
            with Drainer(gateway.queues, claim_timeout=2.0):
                status, envelope = solve_request(gateway.port, seed=0)
                assert status == 200 and envelope["ok"]    # warm-up
                started = time.monotonic()
                status, envelope = solve_request(gateway.port, seed=1)
                elapsed = time.monotonic() - started
            assert status == 200
            assert envelope["ok"] and envelope["status"] == "optimal"
            assert elapsed < 0.5, f"request took {elapsed:.2f}s"
            assert endpoints(directories[0], wake.RESULT)
        finally:
            gateway.stop()
        assert not endpoints(directories[0])

    def test_wait_result_wakes_on_ack(self, spool):
        queue = WorkQueue(spool, poll_interval=5.0)
        task_id = queue.submit({"n": 1})
        task = queue.claim()

        def ack_when_waiting():
            wait_for(lambda: endpoints(spool, wake.RESULT))
            queue.ack(task, {"ok": True})

        thread = threading.Thread(target=ack_when_waiting)
        thread.start()
        started = time.monotonic()
        outcome = queue.wait_result(task_id, timeout=30.0)
        elapsed = time.monotonic() - started
        thread.join(timeout=10.0)
        assert outcome["ok"]
        assert elapsed < 0.5

    def test_idle_claim_wakes_at_most_once_per_poll_interval(self, spool,
                                                             monkeypatch):
        queue = WorkQueue(spool, poll_interval=0.1)
        recovers = []
        monkeypatch.setattr(queue, "recover",
                            lambda: recovers.append(time.monotonic()))
        assert queue.claim(block=True, timeout=0.55) is None
        assert 5 <= len(recovers) <= 7


# ------------------------------------------------------ endpoint lifecycle
class TestEndpointLifecycle:
    def test_sigkilled_waiter_endpoint_is_reaped_by_next_ring(self, spool):
        proc = spawn_claimer(spool)
        (name,) = endpoints(spool, wake.CLAIM)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10.0)
        proc.stdout.close()
        assert endpoints(spool, wake.CLAIM) == [name]    # nobody rang yet
        WorkQueue(spool).submit({"n": 1})
        assert endpoints(spool, wake.CLAIM) == []

    def test_other_hosts_endpoints_are_neither_written_nor_reaped(self, spool):
        queue = WorkQueue(spool)
        wake_dir = os.path.join(spool, wake.WAKE_DIR)
        os.makedirs(wake_dir, exist_ok=True)
        live = os.path.join(wake_dir, "claim-other-host-4242-0123abcd")
        dead = os.path.join(wake_dir, "claim-other-host-4243-4567abcd")
        os.mkfifo(live)
        os.mkfifo(dead)
        reader = os.open(live, os.O_RDWR | os.O_NONBLOCK)
        try:
            queue.submit({"n": 1})
            with pytest.raises(BlockingIOError):
                os.read(reader, 1)        # the ring never reached it
        finally:
            os.close(reader)
        assert sorted(endpoints(spool)) == sorted(
            [os.path.basename(live), os.path.basename(dead)])

    def test_wait_result_unlinks_its_endpoint(self, spool):
        queue = WorkQueue(spool, poll_interval=0.01)
        task_id = queue.submit({"n": 1})
        assert queue.wait_result(task_id, timeout=0.1) is None
        assert endpoints(spool) == []
        queue.ack(queue.claim(), {"ok": True})
        assert queue.wait_result(task_id, timeout=1.0)["ok"]
        assert endpoints(spool) == []

    def test_result_stream_unlinks_its_endpoint(self, spool):
        queue = WorkQueue(spool, poll_interval=5.0)
        task_ids = queue.submit_many([{"n": 0}, {"n": 1}])
        tasks = [queue.claim(), queue.claim()]

        def ack_first_when_waiting():
            wait_for(lambda: endpoints(spool, wake.RESULT))
            queue.ack(tasks[0], {"ok": True, "n": 0})

        thread = threading.Thread(target=ack_first_when_waiting)
        thread.start()
        stream = iter(ResultStream(queue, task_ids=task_ids, timeout=30.0))
        started = time.monotonic()
        task_id, outcome = next(stream)
        assert time.monotonic() - started < 0.5
        thread.join(timeout=10.0)
        assert (task_id, outcome["n"]) == (task_ids[0], 0)
        assert endpoints(spool, wake.RESULT)       # held while suspended
        stream.close()
        assert endpoints(spool) == []

        queue.ack(tasks[1], {"ok": True, "n": 1})
        finished = list(ResultStream(queue, task_ids=task_ids[1:],
                                     timeout=5.0))
        assert [tid for tid, _ in finished] == task_ids[1:]
        assert endpoints(spool) == []


# ------------------------------------------------------------ poll fallback
def _break_wakeups(mode, spool, monkeypatch):
    if mode == "mkfifo-raises":
        def refuse(*args, **kwargs):
            raise OSError(errno.EPERM, "mkfifo refused")
        monkeypatch.setattr(os, "mkfifo", refuse)
    elif mode == "no-mkfifo":
        monkeypatch.delattr(os, "mkfifo")
    elif mode == "open-raises":
        real_open = os.open

        def guarded_open(path, flags, *args, **kwargs):
            if os.path.basename(str(path)).startswith(
                    (wake.CLAIM + "-", wake.RESULT + "-")):
                raise OSError(errno.EMFILE, "open refused")
            return real_open(path, flags, *args, **kwargs)
        monkeypatch.setattr(os, "open", guarded_open)
    else:                                 # wake/ cannot be created
        os.makedirs(spool, exist_ok=True)
        with open(os.path.join(spool, wake.WAKE_DIR), "w") as handle:
            handle.write("not a directory")


FALLBACK_MODES = ["mkfifo-raises", "no-mkfifo", "open-raises",
                  "wake-unwritable"]


@pytest.mark.parametrize("mode", FALLBACK_MODES)
class TestPollFallback:
    def test_claim_finishes_by_polling(self, spool, mode, monkeypatch):
        _break_wakeups(mode, spool, monkeypatch)
        queue = WorkQueue(spool, poll_interval=0.02)
        timer = threading.Timer(0.1, queue.submit, args=({"n": 1},))
        timer.start()
        try:
            task = queue.claim(block=True, timeout=10.0)
        finally:
            timer.join(timeout=10.0)
        assert task is not None and task.payload == {"n": 1}
        assert endpoints(spool) == []

    def test_result_stream_finishes_by_polling(self, spool, mode,
                                               monkeypatch):
        _break_wakeups(mode, spool, monkeypatch)
        queue = WorkQueue(spool, poll_interval=0.02)
        task_ids = queue.submit_many([{"n": i} for i in range(3)])

        def drain():
            for _ in task_ids:
                task = queue.claim(block=True, timeout=10.0)
                queue.ack(task, {"ok": True, "n": task.payload["n"]})

        thread = threading.Thread(target=drain)
        thread.start()
        results = list(ResultStream(queue, task_ids=task_ids, timeout=30.0))
        thread.join(timeout=10.0)
        assert sorted(tid for tid, _ in results) == sorted(task_ids)
        assert endpoints(spool) == []

    def test_gateway_finishes_by_polling(self, spool, mode, monkeypatch):
        _break_wakeups(mode, spool, monkeypatch)
        gateway = make_gateway([spool], poll_interval=0.02)
        gateway.start_background()
        try:
            with Drainer(gateway.queues):
                status, envelope = solve_request(gateway.port, seed=3)
        finally:
            gateway.stop()
        assert status == 200
        assert envelope["ok"] and envelope["status"] == "optimal"
        assert endpoints(spool) == []
