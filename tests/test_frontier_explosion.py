"""FrontierExplosion path coverage across the runtime and distributed layers.

The registry caps ``pareto-dp-pruned`` frontiers (the DP's safety valve)
so an instance that defeats its bound pruning fails fast instead of hanging
a worker.  These tests pin the whole journey of that cap: spec limits metadata, option propagation through
:mod:`repro.runtime.payload` into worker processes, the error envelope a
stream consumer sees, and the dead-letter path (a task whose worker dies
repeatedly surfaces as an error result in :class:`ResultStream`, never as a
hang).
"""

import pytest

from repro.baselines.pareto_dp import FrontierExplosion
from repro.distributed import ResultStream, SolveWorker, WorkQueue
from repro.runtime import (BatchRunner, BatchTask, default_registry,
                           prepare_tasks, task_payload)
from repro.runtime.payload import solve_payload
from repro.runtime.registry import PARETO_DP_PRUNED_MAX_FRONTIER
from repro.workloads import random_problem


def payload_for(problem, method, **options):
    task = BatchTask(problem=problem, method=method, options=dict(options),
                     tag=problem.name)
    prep = prepare_tasks([task], default_registry())[0]
    return task_payload(prep)


@pytest.fixture
def blowup_problem():
    # big enough that a max_frontier of 1-5 trips the pruned DP's valve,
    # small enough that the uncapped solve would also be instant
    return random_problem(n_processing=10, n_satellites=3, seed=4,
                          sensor_scatter=0.5)


class TestRegistryCaps:
    def test_dp_spec_declares_its_cap(self):
        spec = default_registry().resolve("pareto-dp-pruned")
        assert any("FrontierExplosion" in limit for limit in spec.limits)
        assert any(str(PARETO_DP_PRUNED_MAX_FRONTIER) in limit
                   for limit in spec.limits)
        assert any("FrontierExplosion" in limit
                   for limit in spec.metadata()["limits"])

    def test_pruned_alias_resolves(self):
        assert default_registry().resolve("dp-pruned").name == "pareto-dp-pruned"

    def test_cap_propagates_through_payload_options(self, blowup_problem):
        payload = payload_for(blowup_problem, "pareto-dp-pruned", max_frontier=2)
        assert payload["options"]["max_frontier"] == 2
        outcome = solve_payload(payload)
        assert outcome["ok"] is False
        assert "FrontierExplosion" in outcome["error"]
        assert "max_frontier=2" in outcome["error"]

    def test_default_cap_applies_when_no_option_given(self, blowup_problem):
        # the spec injects its default: the payload carries no cap yet the
        # solve is still guarded (monkey-level check: error names the default)
        from repro.core.solver import solve

        with pytest.raises(FrontierExplosion) as excinfo:
            solve(blowup_problem, method="pareto-dp-pruned", max_frontier=3)
        assert excinfo.value.limit == 3


class TestWorkerAndStream:
    def test_worker_publishes_explosion_as_error_result(self, tmp_path,
                                                        blowup_problem):
        queue = WorkQueue(str(tmp_path / "spool"))
        task_id = queue.submit(payload_for(blowup_problem, "pareto-dp-pruned",
                                           max_frontier=2))
        assert SolveWorker(queue).run(drain=True) == 1
        result = queue.result(task_id)
        assert result["ok"] is False
        assert "FrontierExplosion" in result["error"]
        # the error is a published result, not a dead letter: no retries
        assert queue.counts() == {"pending": 0, "claimed": 0,
                                  "results": 1, "failed": 0, "quarantined": 0}

    def test_stream_yields_explosion_error_without_hanging(self, tmp_path,
                                                           blowup_problem):
        queue = WorkQueue(str(tmp_path / "spool"))
        good = random_problem(n_processing=6, n_satellites=2, seed=1)
        ids = [queue.submit(payload_for(blowup_problem, "pareto-dp-pruned",
                                        max_frontier=2)),
               queue.submit(payload_for(good, "colored-ssb-labels"))]
        SolveWorker(queue).run(drain=True)
        outcomes = dict(ResultStream(queue, ids, ordered=True, timeout=30.0))
        assert set(outcomes) == set(ids)
        assert outcomes[ids[0]]["ok"] is False
        assert "FrontierExplosion" in outcomes[ids[0]]["error"]
        assert outcomes[ids[1]]["ok"] is True

    def test_dead_lettered_task_surfaces_as_error_result(self, tmp_path,
                                                         blowup_problem):
        """A worker fleet that crashes on a poison task (e.g. OOM-killed by
        an un-capped explosion) dead-letters it after max_requeues; the
        stream must yield it as an error result instead of waiting forever."""
        queue = WorkQueue(str(tmp_path / "spool"), lease_timeout=0.05,
                          max_requeues=2)
        task_id = queue.submit(payload_for(blowup_problem, "pareto-dp-pruned"))
        # simulate workers that claim and die mid-solve until dead-lettered
        for _ in range(queue.max_requeues + 1):
            task = queue.claim()
            assert task is not None
            import time
            time.sleep(0.06)              # outlive the lease, never ack
            queue.recover()
        failure = queue.failure(task_id)
        assert failure is not None
        assert "max_requeues" in failure["error"]
        ((yielded_id, outcome),) = list(
            ResultStream(queue, [task_id], timeout=10.0))
        assert yielded_id == task_id
        assert outcome["ok"] is False
        assert outcome["dead_lettered"] is True


class TestExplosionDiagnostics:
    """The cap's work counters ride the error envelope end to end."""

    def test_error_envelope_carries_the_work_counters(self, blowup_problem):
        payload = payload_for(blowup_problem, "pareto-dp-pruned", max_frontier=2)
        outcome = solve_payload(payload)
        assert outcome["ok"] is False
        details = outcome["details"]
        assert details["max_frontier"] == 2
        assert details["frontier_size"] > 2
        assert details["labels_created"] >= details["peak_frontier"] > 0
        assert all(isinstance(v, int) for v in details.values())

    @pytest.mark.parametrize("workers", [0, 1])
    def test_batch_runner_item_keeps_the_work_counters(self, blowup_problem,
                                                      workers):
        task = BatchTask(problem=blowup_problem, method="pareto-dp-pruned",
                         options={"max_frontier": 2})
        (item,) = BatchRunner(workers=workers).run([task])
        assert not item.ok and "FrontierExplosion" in item.error
        assert item.status == "error"
        assert {"frontier_size", "labels_created", "max_frontier",
                "peak_frontier"} <= set(item.details)
        assert item.details["max_frontier"] == 2
        assert item.details["labels_created"] >= item.details["peak_frontier"] > 0

    def test_exception_exposes_error_details(self, blowup_problem):
        from repro.core.solver import solve

        with pytest.raises(FrontierExplosion) as excinfo:
            solve(blowup_problem, method="pareto-dp-pruned", max_frontier=2)
        details = excinfo.value.error_details()
        assert details["labels_created"] == excinfo.value.labels_created
        assert details["peak_frontier"] == excinfo.value.peak_frontier

    def test_worker_result_and_audit_surface_the_counters(self, tmp_path,
                                                          blowup_problem):
        from repro.observability.audit import build_timelines, render_audit

        spool = str(tmp_path / "spool")
        queue = WorkQueue(spool)
        task_id = queue.submit(payload_for(blowup_problem, "pareto-dp-pruned",
                                           max_frontier=2))
        SolveWorker(queue).run(drain=True)
        result = queue.result(task_id)
        assert result["details"]["labels_created"] > 0

        (timeline,) = build_timelines(spool)
        assert timeline["outcome"] == "error"
        assert "FrontierExplosion" in timeline["error"]
        assert timeline["error_details"] == result["details"]
        rendered = render_audit([timeline], task_id=task_id)
        assert "error details:" in rendered
        assert "labels_created" in rendered

    def test_dead_letter_details_flow_through_stream_and_audit(self, tmp_path,
                                                               blowup_problem):
        from repro.observability.audit import build_timelines

        spool = str(tmp_path / "spool")
        queue = WorkQueue(spool)
        task_id = queue.submit(payload_for(blowup_problem, "pareto-dp-pruned"))
        task = queue.claim()
        diagnostics = {"labels_created": 227639, "peak_frontier": 83696}
        queue.fail(task, error="FrontierExplosion: capped",
                   details=diagnostics)
        assert queue.failure(task_id)["details"] == diagnostics

        ((_, outcome),) = list(ResultStream(queue, [task_id], timeout=10.0))
        assert outcome["dead_lettered"] is True
        assert outcome["details"] == diagnostics
        (timeline,) = build_timelines(spool)
        assert timeline["outcome"] == "dead-letter"
        assert timeline["error_details"] == diagnostics
