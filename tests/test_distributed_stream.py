"""ResultStream ordering/backpressure and the SolveService facade."""

import os
import threading
import time

import pytest

from repro.distributed import (
    ResultStream,
    SolveService,
    SolveWorker,
    StreamTimeout,
    WorkQueue,
    spool_cache,
)
from repro.workloads import random_problem

PROBLEMS = [random_problem(n_processing=8, n_satellites=3, seed=seed,
                           sensor_scatter=0.3)
            for seed in range(6)]


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


class _BackgroundWorker:
    """Drains a queue on a thread until stopped (in-process 'fleet')."""

    def __init__(self, spool, cache=None):
        self.queue = WorkQueue(spool, poll_interval=0.01)
        self.worker = SolveWorker(self.queue, cache=cache)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            task = self.queue.claim(block=True, timeout=0.05)
            if task is not None:
                self.worker.process(task)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class TestResultStream:
    def test_yields_all_results_as_completed(self, spool):
        queue = WorkQueue(spool, poll_interval=0.01)
        task_ids = queue.submit_many([{"n": i} for i in range(4)])
        # complete them out of order before iterating
        claimed = [queue.claim() for _ in range(4)]
        for task in reversed(claimed):
            queue.ack(task, {"ok": True, "n": task.payload["n"]})
        stream = ResultStream(queue, task_ids=task_ids, timeout=5.0)
        seen = {tid: outcome["n"] for tid, outcome in stream}
        assert set(seen) == set(task_ids)

    def test_ordered_mode_preserves_submission_order(self, spool):
        queue = WorkQueue(spool, poll_interval=0.01)
        task_ids = queue.submit_many([{"n": i} for i in range(5)])

        def complete_backwards():
            tasks = [queue.claim(block=True, timeout=2.0) for _ in range(5)]
            for task in reversed(tasks):
                queue.ack(task, {"ok": True, "n": task.payload["n"]})

        thread = threading.Thread(target=complete_backwards)
        thread.start()
        ordered = list(ResultStream(queue, task_ids=task_ids, ordered=True,
                                    timeout=10.0))
        thread.join()
        assert [tid for tid, _ in ordered] == task_ids
        assert [outcome["n"] for _, outcome in ordered] == list(range(5))

    def test_window_bounds_outstanding_submissions(self, spool):
        """Backpressure: with window=2 the spool never holds more than two
        of the stream's unfinished tasks, and submission only proceeds as
        results drain."""
        queue = WorkQueue(spool, poll_interval=0.01)
        observed_outstanding = []

        def payloads():
            for i in range(7):
                yield {"n": i}

        stream = ResultStream(queue, source=payloads(), window=2, timeout=10.0)

        def drain():
            done = 0
            while done < 7:
                task = queue.claim(block=True, timeout=2.0)
                if task is None:
                    return
                counts = queue.counts()
                observed_outstanding.append(
                    counts["pending"] + counts["claimed"])
                queue.ack(task, {"ok": True, "n": task.payload["n"]})
                done += 1

        thread = threading.Thread(target=drain)
        thread.start()
        results = list(stream)
        thread.join()
        assert len(results) == 7
        assert observed_outstanding            # the drain actually sampled
        assert max(observed_outstanding) <= 2
        assert stream.outstanding == 0

    def test_timeout_raises_stream_timeout(self, spool):
        queue = WorkQueue(spool, poll_interval=0.01)
        task_ids = queue.submit_many([{"n": 1}])
        with pytest.raises(StreamTimeout, match="1 task"):
            list(ResultStream(queue, task_ids=task_ids, timeout=0.1))

    def test_dead_lettered_tasks_surface_as_errors(self, spool):
        queue = WorkQueue(spool, poll_interval=0.01)
        task_id = queue.submit({"n": 1})
        task = queue.claim()
        queue.fail(task, "poison")
        results = list(ResultStream(queue, task_ids=[task_id], timeout=5.0))
        assert len(results) == 1
        tid, outcome = results[0]
        assert tid == task_id
        assert not outcome["ok"] and outcome["dead_lettered"]
        assert "poison" in outcome["error"]

    def test_rejects_nonpositive_window(self, spool):
        with pytest.raises(ValueError):
            ResultStream(WorkQueue(spool), window=0)


class TestSolveService:
    def test_stream_matches_in_process_solves(self, spool):
        from repro.core.solver import solve

        service = SolveService(spool)
        with _BackgroundWorker(spool):
            submission = service.submit(PROBLEMS, method="colored-ssb")
            report = service.gather(submission, timeout=60.0)
        assert report.failed == 0
        expected = [solve(p, method="colored-ssb").objective for p in PROBLEMS]
        assert report.objectives() == pytest.approx(expected)
        assert [item.index for item in report] == list(range(len(PROBLEMS)))
        assert [item.tag for item in report] == [p.name for p in PROBLEMS]
        for item in report:
            assert item.assignment is not None and item.assignment.is_feasible()

    def test_as_completed_streaming_with_window(self, spool):
        service = SolveService(spool)
        with _BackgroundWorker(spool):
            submission = service.submit(PROBLEMS, method="colored-ssb")
            items = list(service.stream(submission, window=2, timeout=60.0))
        assert len(items) == len(PROBLEMS)
        assert {item.index for item in items} == set(range(len(PROBLEMS)))
        assert all(item.ok for item in items)

    def test_warm_resubmission_streams_from_cache_without_workers(self, spool):
        cache = spool_cache(spool)
        service = SolveService(spool, cache=cache)
        with _BackgroundWorker(spool, cache=cache):
            cold = service.gather(service.submit(PROBLEMS), timeout=60.0)
        # no workers are running now: the warm pass must not need any
        warm = service.gather(service.submit(PROBLEMS), timeout=5.0)
        assert warm.cache_hits == len(PROBLEMS)
        assert warm.solved == 0
        assert warm.objectives() == pytest.approx(cold.objectives())

    def test_duplicates_enqueue_once_and_fan_out(self, spool):
        service = SolveService(spool)
        sweep = [PROBLEMS[0], PROBLEMS[0], PROBLEMS[1]]
        with _BackgroundWorker(spool):
            submission = service.submit(sweep)
            report = service.gather(submission, timeout=60.0)
        assert service.queue.counts()["results"] == 2    # one per unique task
        assert report.results[0].objective == report.results[1].objective
        assert report.results[1].cached
        assert report.results[1].cache_source == "batch"
        assert report.cache_batch_hits == 1

    def test_worker_errors_stream_as_item_errors(self, spool):
        from repro.runtime import BatchTask

        service = SolveService(spool)
        tasks = [BatchTask(problem=PROBLEMS[0], method="genetic",
                           options={"generations": 0, "seed": 3}),
                 BatchTask(problem=PROBLEMS[1], method="greedy")]
        with _BackgroundWorker(spool):
            report = service.gather(service.submit(tasks), timeout=60.0)
        assert report.failed == 1
        assert not report.results[0].ok
        assert "generations" in report.results[0].error
        assert report.results[1].ok

    def test_enqueue_only_spools_without_waiting(self, spool):
        service = SolveService(spool)
        submission = service.submit(PROBLEMS[:3])
        task_ids = service.enqueue(submission)
        assert len(task_ids) == 3
        assert service.queue.counts()["pending"] == 3

    def test_stream_timeout_without_workers(self, spool):
        service = SolveService(spool)
        submission = service.submit(PROBLEMS[:2])
        with pytest.raises(StreamTimeout):
            list(service.stream(submission, timeout=0.2))


class TestStreamTimeoutPath:
    """Regression tests for the timeout-path bugs fixed in this PR."""

    def test_final_recovery_pass_runs_before_timeout(self, spool):
        """A stream must never time out on a task whose expired lease one
        recovery pass would have requeued — the last poll recovers first,
        so the spool is left unwedged for whoever waits next."""
        queue = WorkQueue(spool, lease_timeout=5.0, poll_interval=0.01)
        task_id = queue.submit({"n": 1})
        task = queue.claim()
        # backdate the claim far past the lease: the worker died long ago
        past = time.time() - 100.0
        os.utime(task.path, (past, past))
        with pytest.raises(StreamTimeout):
            list(ResultStream(queue, task_ids=[task_id], timeout=0.0))
        counts = queue.counts()
        assert counts["claimed"] == 0
        assert counts["pending"] == 1          # requeued, not abandoned

    def test_poll_sleep_clamped_to_remaining_deadline(self, spool):
        """A poll interval longer than the deadline must not stretch the
        timeout: the sleep is clamped to the remaining budget."""
        queue = WorkQueue(spool, poll_interval=0.01)
        task_id = queue.submit({"n": 1})
        started = time.monotonic()
        with pytest.raises(StreamTimeout):
            list(ResultStream(queue, task_ids=[task_id], timeout=0.2,
                              poll_interval=5.0))
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, (
            f"timeout=0.2s stream took {elapsed:.2f}s — the poll sleep "
            f"overshot the deadline")


class TestCrossSubmissionCoalescing:
    """The in-flight index: duplicate problems coalesce across submissions,
    not just within one (the per-call ``leaders`` dict bug)."""

    def test_concurrent_duplicate_submissions_spool_one_task(self, spool):
        service = SolveService(spool, cache=None)
        workers = 8
        barrier = threading.Barrier(workers)
        task_ids = []
        lock = threading.Lock()

        def submit_one():
            submission = service.submit([PROBLEMS[0]])
            barrier.wait()          # all spool writes race through acquire()
            ids = service.enqueue(submission)
            with lock:
                task_ids.extend(ids)

        threads = [threading.Thread(target=submit_one)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(task_ids) == workers
        assert len(set(task_ids)) == 1, (
            f"{len(set(task_ids))} spool tasks for {workers} identical "
            f"concurrent submissions — coalescing failed")
        assert service.queue.counts()["pending"] == 1

    def test_coalesced_submissions_all_stream_the_one_result(self, spool):
        service = SolveService(spool, cache=None)
        first = service.submit([PROBLEMS[0]])
        second = service.submit([PROBLEMS[0]])
        service.enqueue(first)
        service.enqueue(second)
        assert service.queue.counts()["pending"] == 1
        assert second.entries[0].coalesced
        with _BackgroundWorker(spool):
            report_one = service.gather(first, timeout=30.0)
            report_two = service.gather(second, timeout=30.0)
        assert report_one.failed == 0 and report_two.failed == 0
        assert report_one.objectives() == pytest.approx(
            report_two.objectives())
        assert len(service.inflight) == 0      # completed entries dropped

    def test_seedless_stochastic_submissions_never_coalesce(self, spool):
        """Independent random draws must stay independent: non-cacheable
        tasks bypass the in-flight index entirely."""
        from repro.runtime import BatchTask

        service = SolveService(spool, cache=None)

        def draw():
            return BatchTask(problem=PROBLEMS[0], method="genetic",
                             options={"generations": 1})

        first = service.submit([draw()])
        second = service.submit([draw()])
        assert not first.entries[0].prep.cacheable
        service.enqueue(first)
        service.enqueue(second)
        assert service.queue.counts()["pending"] == 2

    def test_dead_lettered_task_does_not_absorb_new_submissions(self, spool):
        service = SolveService(spool, cache=None)
        first = service.submit([PROBLEMS[0]])
        [task_id] = service.enqueue(first)
        task = service.queue.claim()
        service.queue.fail(task, "poisoned", kind="poison")
        second = service.submit([PROBLEMS[0]])
        ids = service.enqueue(second)
        assert ids and ids[0] != task_id       # fresh task, not the corpse
        assert service.queue.counts()["pending"] == 1


class TestOneOutcomePath:
    """The worker that solved a task is the only writer of its cache entry,
    and every waiter reads a finished task through ``WorkQueue.outcome``."""

    def test_gather_puts_once_per_unique_solve(self, spool, cache_puts):
        service = SolveService(spool)                  # default spool cache
        sweep = PROBLEMS + [PROBLEMS[0]]
        with _BackgroundWorker(spool, cache=spool_cache(spool)):
            report = service.gather(service.submit(sweep), timeout=60.0)
        assert report.solved == len(PROBLEMS) and report.failed == 0
        assert len(cache_puts) == len(PROBLEMS)        # one put per unique solve
        assert len(set(cache_puts)) == len(PROBLEMS)
        warm = service.gather(service.submit(PROBLEMS), timeout=5.0)
        assert warm.cache_hits == len(PROBLEMS)

    def test_uncached_worker_leaves_the_cache_empty(self, spool):
        service = SolveService(spool)                  # default spool cache
        with _BackgroundWorker(spool, cache=None):
            report = service.gather(service.submit(PROBLEMS), timeout=60.0)
        assert report.solved == len(PROBLEMS)
        assert len(spool_cache(spool).disk) == 0
        assert service.submit(PROBLEMS).cache_hits == 0

    def test_wait_result_on_a_dead_letter_is_the_stream_outcome(self, spool):
        queue = WorkQueue(spool, poll_interval=0.01)
        task_id = queue.submit({"n": 1})
        queue.fail(queue.claim(), "poisoned", kind="poison",
                   details={"labels_created": 7})
        outcome = queue.wait_result(task_id, timeout=5.0)
        assert outcome == {"task_id": task_id, "ok": False,
                           "status": "error", "error": "poisoned",
                           "error_kind": "poison",
                           "details": {"labels_created": 7},
                           "dead_lettered": True}
        [(_, streamed)] = ResultStream(queue, task_ids=[task_id], timeout=5.0)
        assert streamed == outcome

    def test_outcome_fills_a_missing_status(self, spool):
        queue = WorkQueue(spool, poll_interval=0.01)
        ok_id, bad_id, kept_id = queue.submit_many([{"n": i}
                                                    for i in range(3)])
        queue.ack(queue.claim(), {"ok": True})
        queue.ack(queue.claim(), {"ok": False, "error": "boom"})
        queue.ack(queue.claim(), {"ok": False, "status": "timeout"})
        assert queue.outcome(ok_id)["status"] == "feasible"
        assert queue.outcome(bad_id)["status"] == "error"
        assert queue.outcome(kept_id)["status"] == "timeout"
        assert queue.outcome(queue.submit({"n": 3})) is None  # outstanding
