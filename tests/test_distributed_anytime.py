"""Anytime behaviour of the distributed layer.

Covers the spool-side half of the anytime pipeline: task deadlines riding in
payloads, lease-clamped deadlines, heartbeat progress publishing, cooperative
worker shutdown (claim-to-ack cancellation requeues, never dead-letters),
feasible partials surfacing distinctly from errors in streams, and
``results/`` compaction.
"""

import json
import os
import time

import pytest

from repro.distributed import ResultStream, SolveService, SolveWorker, WorkQueue
from repro.runtime import BatchTask, default_registry, prepare_tasks, task_payload
from repro.workloads import random_problem


def payload_for(problem, method="colored-ssb", deadline_s=None, **options):
    task = BatchTask(problem=problem, method=method, options=dict(options),
                     tag=problem.name, deadline_s=deadline_s)
    prep = prepare_tasks([task], default_registry())[0]
    return task_payload(prep)


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


def hard_problem(n=50, seed=3):
    """Scattered n=50: big enough that a 50 ms budget genuinely interrupts
    the pruned DP, small enough that the answer still lands in well under a
    second."""
    return random_problem(n_processing=n, n_satellites=4, seed=seed,
                          sensor_scatter=1.0)


class TestWorkerDeadlines:
    def test_payload_deadline_produces_feasible_partial(self, spool):
        queue = WorkQueue(spool)
        task_id = queue.submit(payload_for(hard_problem(),
                                           method="pareto-dp-pruned",
                                           deadline_s=0.05))
        worker = SolveWorker(queue)
        assert worker.run(drain=True) == 1
        result = queue.result(task_id)
        assert result["ok"]
        assert result["status"] == "feasible"
        assert result["details"]["interrupted"] == "deadline"
        assert result["placement"]
        assert result["incumbent_history"]

    def test_interrupted_results_do_not_feed_the_shared_cache(self, spool):
        from repro.distributed import spool_cache

        queue = WorkQueue(spool)
        cache = spool_cache(spool)
        payload = payload_for(hard_problem(), method="pareto-dp-pruned",
                              deadline_s=0.05)
        queue.submit(payload)
        SolveWorker(queue, cache=cache).run(drain=True)
        assert cache.get(payload["key"]) is None

    @pytest.mark.parametrize("method", ["pareto-dp-pruned", "sb-bottleneck"])
    def test_deadline_clamped_to_lease_without_heartbeat(self, spool, method):
        # lease 0.05s < payload deadline 30s: the effective budget is the
        # lease, so the solve returns a partial instead of outliving it
        queue = WorkQueue(spool, lease_timeout=0.05)
        task_id = queue.submit(payload_for(hard_problem(), method=method,
                                           deadline_s=30.0))
        started = time.monotonic()
        SolveWorker(queue, heartbeat=False).run(drain=True)
        elapsed = time.monotonic() - started
        result = queue.result(task_id)
        assert result["ok"] and result["status"] == "feasible"
        assert result["details"]["interrupted"] == "deadline"
        assert elapsed < 5.0

    def test_no_deadline_still_solves_exactly(self, spool):
        # the heartbeat context is inert without a budget: same optimum as a
        # direct in-process solve
        from repro.core.solver import solve

        queue = WorkQueue(spool)
        problem = random_problem(n_processing=10, n_satellites=3, seed=5,
                                 sensor_scatter=1.0)
        task_id = queue.submit(payload_for(problem))
        SolveWorker(queue).run(drain=True)
        result = queue.result(task_id)
        assert result["ok"] and result["status"] == "optimal"
        assert result["objective"] == solve(problem).objective


class TestProgressHeartbeat:
    def test_heartbeat_publishes_incumbents_into_the_claim_file(self, spool,
                                                                monkeypatch):
        from repro.distributed.worker import SOLVE_DELAY_ENV_VAR

        # a short lease makes the heartbeat beat every ~5 ms; the solve-delay
        # hook keeps the task claimed long enough to observe the claim file
        queue = WorkQueue(spool, lease_timeout=0.02)
        problem = random_problem(n_processing=10, n_satellites=3, seed=6)
        queue.submit(payload_for(problem))
        monkeypatch.setenv(SOLVE_DELAY_ENV_VAR, "0.3")
        worker = SolveWorker(queue)

        import threading
        thread = threading.Thread(target=lambda: worker.run(max_tasks=1),
                                  daemon=True)
        thread.start()
        # the solve itself is near-instant after the delay, so the progress
        # record lands in the final heartbeat window; poll for it
        seen_progress = None
        deadline = time.monotonic() + 5.0
        claimed_dir = os.path.join(spool, "claimed")
        while thread.is_alive() and time.monotonic() < deadline:
            for name in os.listdir(claimed_dir):
                try:
                    with open(os.path.join(claimed_dir, name)) as handle:
                        record = json.load(handle)
                except (OSError, ValueError):
                    continue
                if "progress" in record:
                    seen_progress = record["progress"]
            time.sleep(0.005)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        if seen_progress is not None:      # racy window, but when seen...
            assert seen_progress["best_objective"] > 0.0
            assert seen_progress["incumbents"] >= 1

    def test_publish_progress_writes_payload_plus_progress(self, spool):
        queue = WorkQueue(spool)
        problem = random_problem(n_processing=6, n_satellites=2, seed=1)
        queue.submit(payload_for(problem))
        task = queue.claim()
        assert queue.publish_progress(task, {"best_objective": 4.2,
                                             "incumbents": 3})
        with open(task.path) as handle:
            record = json.load(handle)
        assert record["progress"] == {"best_objective": 4.2, "incumbents": 3}
        assert record["method"] == task.payload["method"]   # payload intact
        queue.ack(task, {"ok": True})

    def test_publish_progress_reports_lost_claims(self, spool):
        queue = WorkQueue(spool)
        problem = random_problem(n_processing=6, n_satellites=2, seed=1)
        queue.submit(payload_for(problem))
        task = queue.claim()
        os.unlink(task.path)              # simulate recovery requeue
        assert not queue.publish_progress(task, {"best_objective": 1.0})


class TestCooperativeStop:
    def test_stop_between_claim_and_ack_requeues_not_dead_letters(self, spool):
        queue = WorkQueue(spool)
        problem = random_problem(n_processing=8, n_satellites=3, seed=2)
        queue.submit(payload_for(problem))
        worker = SolveWorker(queue)
        task = queue.claim()
        assert task is not None
        worker.request_stop()
        assert worker.process(task) is None
        counts = queue.counts()
        assert counts["pending"] == 1      # released, no attempt consumed
        assert counts["failed"] == 0
        assert counts["claimed"] == 0
        # another worker picks the released task up and solves it normally
        assert SolveWorker(queue).run(drain=True) == 1
        assert queue.counts()["results"] == 1

    def test_repeated_cooperative_stops_never_dead_letter(self, spool):
        # rolling restarts: claim/stop/release far more times than
        # max_requeues — the attempt counter must not move, so the task can
        # never drift into failed/
        queue = WorkQueue(spool, max_requeues=2)
        problem = random_problem(n_processing=8, n_satellites=3, seed=6)
        queue.submit(payload_for(problem))
        for _ in range(8):
            worker = SolveWorker(queue)
            task = queue.claim()
            assert task is not None
            assert task.attempt == 0
            worker.request_stop()
            assert worker.process(task) is None
        counts = queue.counts()
        assert counts["pending"] == 1 and counts["failed"] == 0
        assert SolveWorker(queue).run(drain=True) == 1

    def test_run_loop_exits_on_stop(self, spool):
        queue = WorkQueue(spool)
        worker = SolveWorker(queue)
        worker.request_stop()
        assert worker.run(max_tasks=10, drain=True) == 0

    def test_stop_during_solve_before_any_incumbent_requeues(self, spool,
                                                             monkeypatch):
        # the stop can land after process()'s entry check but before the
        # solver's first incumbent: the cancelled-no-incumbent outcome must
        # be nacked back to the queue, never acked as a terminal failure
        import repro.distributed.worker as worker_module

        queue = WorkQueue(spool)
        problem = random_problem(n_processing=8, n_satellites=3, seed=4)
        queue.submit(payload_for(problem))
        worker = SolveWorker(queue)
        task = queue.claim()

        def cancelled_solve(payload, context=None):
            worker.request_stop()       # fires mid-solve, pre-incumbent
            return {"key": payload["key"], "ok": False,
                    "status": "cancelled",
                    "error": "cancelled: the context fired before any "
                             "feasible incumbent existed"}

        monkeypatch.setattr(worker_module, "solve_payload", cancelled_solve)
        assert worker.process(task) is None
        counts = queue.counts()
        assert counts["pending"] == 1 and counts["results"] == 0
        assert counts["failed"] == 0
        monkeypatch.undo()
        assert SolveWorker(queue).run(drain=True) == 1
        assert queue.counts()["results"] == 1


class TestStreamSurfacesPartials:
    def test_feasible_partial_is_distinct_from_error(self, spool):
        queue = WorkQueue(spool)
        good = queue.submit(payload_for(hard_problem(),
                                        method="pareto-dp-pruned",
                                        deadline_s=0.05))
        # a genuinely failing task (invalid GA budget) for contrast
        bad = queue.submit(payload_for(
            random_problem(n_processing=6, n_satellites=2, seed=2),
            method="genetic", generations=0, seed=1))
        SolveWorker(queue).run(max_tasks=2, drain=True)
        outcomes = dict(ResultStream(queue, task_ids=[good, bad], timeout=5.0))
        assert outcomes[good]["ok"]
        assert outcomes[good]["status"] == "feasible"
        assert outcomes[good]["details"]["interrupted"] == "deadline"
        assert not outcomes[bad]["ok"]
        assert outcomes[bad]["status"] == "error"

    def test_service_items_carry_status(self, spool):
        service = SolveService(spool, cache=None)
        problems = [hard_problem(seed=s) for s in (3, 4)]
        submission = service.submit(problems, method="pareto-dp-pruned",
                                    deadline_s=0.05)
        worker = SolveWorker(service.queue)
        import threading
        thread = threading.Thread(
            target=lambda: worker.run(max_tasks=len(problems), timeout=30.0),
            daemon=True)
        thread.start()
        items = list(service.stream(submission, timeout=30.0))
        thread.join(timeout=5.0)
        assert len(items) == 2
        for item in items:
            assert item.ok
            assert item.status == "feasible"
            assert item.partial
            assert item.details["interrupted"] == "deadline"


class TestResultsCompaction:
    def _publish_results(self, queue, count):
        ids = []
        for i in range(count):
            problem = random_problem(n_processing=5, n_satellites=2, seed=i)
            task_id = queue.submit(payload_for(problem, method="greedy"))
            ids.append(task_id)
        SolveWorker(queue).run(max_tasks=count, drain=True)
        return ids

    def test_count_cap_evicts_oldest_first(self, spool):
        queue = WorkQueue(spool)
        ids = self._publish_results(queue, 5)
        # age the earliest results so mtime order is unambiguous
        for offset, task_id in enumerate(ids):
            path = os.path.join(spool, "results", f"{task_id}.json")
            stamp = time.time() - 1000 + offset
            os.utime(path, (stamp, stamp))
        report = queue.compact_results(max_count=2)
        assert report.evicted == 3
        remaining = set(queue.result_ids())
        assert remaining == set(ids[-2:])

    def test_age_and_byte_caps(self, spool):
        queue = WorkQueue(spool)
        ids = self._publish_results(queue, 4)
        old = os.path.join(spool, "results", f"{ids[0]}.json")
        stamp = time.time() - 7200
        os.utime(old, (stamp, stamp))
        report = queue.compact_results(max_age_s=3600)
        assert report.evicted_age == 1
        assert ids[0] not in queue.result_ids()
        report = queue.compact_results(max_bytes=0)
        assert queue.counts()["results"] == 0
        assert report.evicted_bytes == 3

    def test_compaction_requires_a_cap(self, spool):
        queue = WorkQueue(spool)
        with pytest.raises(ValueError, match="at least one"):
            queue.compact_results()
