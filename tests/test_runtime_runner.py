"""Unit tests for the parallel BatchRunner."""

import random

import pytest

from repro.runtime import (
    BatchRunner,
    BatchTask,
    LRUResultCache,
    JSONFileCache,
    TieredResultCache,
    derive_seed,
    serial_sweep,
)
from repro.workloads import random_problem

PROBLEMS = [random_problem(n_processing=8, n_satellites=3, seed=seed,
                           sensor_scatter=0.3)
            for seed in range(5)]


class TestSerialRunner:
    def test_matches_the_serial_sweep(self):
        report = BatchRunner(workers=0).solve_many(PROBLEMS, method="colored-ssb")
        expected = [r.objective for r in serial_sweep(PROBLEMS, method="colored-ssb")]
        assert report.objectives() == pytest.approx(expected)
        assert report.solved == len(PROBLEMS)
        assert report.failed == 0 and report.cache_hits == 0

    def test_results_align_with_input_order_and_tags(self):
        report = BatchRunner(workers=0).solve_many(PROBLEMS)
        assert [item.index for item in report] == list(range(len(PROBLEMS)))
        assert [item.tag for item in report] == [p.name for p in PROBLEMS]

    def test_assignment_and_details_are_reconstructed(self):
        report = BatchRunner(workers=0).solve_many(PROBLEMS[:2])
        for item in report:
            assert item.assignment is not None and item.assignment.is_feasible()
            assert item.details["iterations"] >= 1

    def test_alias_methods_resolve(self):
        report = BatchRunner(workers=0).solve_many(PROBLEMS[:2], method="bokhari-sb")
        assert all(item.method == "sb-bottleneck" for item in report)

    def test_errors_are_data_not_exceptions(self):
        tasks = [BatchTask(problem=PROBLEMS[0], method="genetic",
                           options={"generations": 0}),
                 BatchTask(problem=PROBLEMS[1], method="greedy")]
        report = BatchRunner(workers=0).run(tasks)
        assert not report.results[0].ok
        assert "generations" in report.results[0].error
        assert report.results[1].ok
        assert report.failed == 1

    def test_unknown_method_raises_up_front(self):
        with pytest.raises(ValueError, match="unknown method"):
            BatchRunner(workers=0).solve_many(PROBLEMS[:1], method="sorcery")

    def test_seeds_argument_must_align(self):
        with pytest.raises(ValueError, match="one-to-one"):
            BatchRunner(workers=0).solve_many(PROBLEMS, method="genetic",
                                              seeds=[1, 2])

    def test_serial_deadline_is_cooperative_for_anytime_specs(self):
        # the in-process path cannot kill a solver, but anytime specs observe
        # the deadline cooperatively and return a feasible incumbent
        report = BatchRunner(workers=0).run(
            [BatchTask(problem=PROBLEMS[0], method="genetic", deadline_s=0.02,
                       options={"generations": 500_000, "population_size": 50,
                                "seed": 1})])
        item = report.results[0]
        assert item.ok and item.status == "feasible"
        assert item.details["interrupted"] == "deadline"
        assert item.assignment is not None and item.assignment.is_feasible()

    def test_interrupted_results_never_feed_the_cache(self):
        cache = LRUResultCache()
        runner = BatchRunner(workers=0, cache=cache)
        task = BatchTask(problem=PROBLEMS[0], method="genetic", deadline_s=0.02,
                         options={"generations": 500_000,
                                  "population_size": 50, "seed": 1})
        first = runner.run([task]).results[0]
        assert first.ok and first.partial
        # the partial answer must not be replayable under the same key
        assert cache.get(first.key) is None


class TestParallelRunner:
    def test_parallel_objectives_equal_serial(self):
        serial = BatchRunner(workers=0).solve_many(PROBLEMS)
        parallel = BatchRunner(workers=2, chunk_size=2).solve_many(PROBLEMS)
        assert parallel.objectives() == pytest.approx(serial.objectives())
        assert parallel.workers == 2

    def test_parallel_reconstructs_assignments(self):
        report = BatchRunner(workers=2).solve_many(PROBLEMS[:3])
        for item in report:
            assert item.assignment is not None and item.assignment.is_feasible()
            assert item.placement
            # heavyweight objects never cross the process boundary
            assert "assignment_graph" not in item.details

    def test_parallel_worker_errors_are_reported(self):
        tasks = [BatchTask(problem=PROBLEMS[0], method="genetic",
                           options={"generations": 0}),
                 BatchTask(problem=PROBLEMS[1], method="greedy")]
        report = BatchRunner(workers=2, chunk_size=1).run(tasks)
        assert not report.results[0].ok and "generations" in report.results[0].error
        assert report.results[1].ok

    @pytest.mark.slow
    def test_per_task_timeout_is_cooperative_for_anytime_specs(self):
        # a GA with an absurd budget reliably outlives the 0.75s/task budget;
        # the worker is NOT killed — the GA returns its best incumbent as a
        # feasible result instead
        report = BatchRunner(workers=1, chunk_size=1).run(
            [BatchTask(problem=PROBLEMS[0], method="genetic", deadline_s=0.75,
                       options={"generations": 500_000, "population_size": 50,
                                "seed": 1})])
        assert report.failed == 0
        item = report.results[0]
        assert item.ok and item.status == "feasible"
        assert item.details["interrupted"] == "deadline"
        assert item.placement

    def test_mixed_batch_every_spec_honours_its_deadline(self):
        # the tree GA and the DAG-relaxation GA share one process pool and
        # one mechanism: both come back as feasible deadline partials
        report = BatchRunner(workers=1, chunk_size=1).run([
            BatchTask(problem=PROBLEMS[0], method="genetic", deadline_s=0.2,
                      options={"generations": 500_000, "population_size": 50,
                               "seed": 1}),
            BatchTask(problem=PROBLEMS[1], method="dag-genetic", deadline_s=0.2,
                      options={"generations": 2_000_000,
                               "population_size": 50, "seed": 1}),
        ])
        assert report.failed == 0
        for item in report.results:
            assert item.ok and item.status == "feasible"
            assert item.details["interrupted"] == "deadline"
            assert item.placement

    @pytest.mark.parametrize("workers", [0, 1])
    def test_zero_deadline_returns_feasible_sb_bottleneck(self, workers):
        # deadline_s=0.0 is a valid budget: the SB search completes its first
        # shortest path and returns it as a feasible partial
        report = BatchRunner(workers=workers, chunk_size=1).run(
            [BatchTask(problem=PROBLEMS[0], method="sb-bottleneck",
                       deadline_s=0.0)])
        item = report.results[0]
        assert item.ok and item.status == "feasible"
        assert item.details["interrupted"] == "deadline"
        assert item.assignment is not None and item.assignment.is_feasible()


class TestSeeding:
    def test_derive_seed_is_deterministic_and_spread(self):
        a = derive_seed(7, "hash", "genetic")
        assert a == derive_seed(7, "hash", "genetic")
        assert a != derive_seed(8, "hash", "genetic")
        assert a != derive_seed(7, "hash", "random-search")
        assert 0 <= a < 2 ** 63

    def test_stochastic_sweep_is_seed_stable(self):
        runner = BatchRunner(workers=0, base_seed=11)
        first = runner.solve_many(PROBLEMS, method="genetic", generations=5,
                                  population_size=8)
        second = runner.solve_many(PROBLEMS, method="genetic", generations=5,
                                   population_size=8)
        assert first.objectives() == second.objectives()
        assert [i.seed for i in first] == [i.seed for i in second]
        assert all(item.seed is not None for item in first)

    def test_order_independence_of_derived_seeds(self):
        tasks = [BatchTask(problem=p, method="genetic",
                           options={"generations": 5, "population_size": 8},
                           tag=p.name)
                 for p in PROBLEMS]
        shuffled = list(tasks)
        random.Random(3).shuffle(shuffled)
        runner = BatchRunner(workers=0, base_seed=42)
        by_tag = {i.tag: (i.seed, i.objective) for i in runner.run(tasks)}
        by_tag_shuffled = {i.tag: (i.seed, i.objective)
                           for i in runner.run(shuffled)}
        assert by_tag == by_tag_shuffled

    def test_explicit_seed_wins_over_derivation(self):
        runner = BatchRunner(workers=0, base_seed=1)
        report = runner.run([BatchTask(problem=PROBLEMS[0], method="random-search",
                                       seed=123)])
        assert report.results[0].seed == 123

    def test_deterministic_methods_ignore_base_seed(self):
        runner = BatchRunner(workers=0, base_seed=1)
        report = runner.solve_many(PROBLEMS[:1], method="colored-ssb")
        assert report.results[0].seed is None

    def test_seedless_stochastic_tasks_stay_independent(self):
        """Without seeds, duplicate stochastic tasks are fresh draws: they
        must not dedup into one result or be replayed from the cache."""
        cache = LRUResultCache()
        runner = BatchRunner(workers=0, cache=cache)
        report = runner.run([BatchTask(problem=PROBLEMS[0], method="random-search",
                                       options={"samples": 2})
                             for _ in range(20)])
        assert report.failed == 0 and report.cache_hits == 0
        assert len(set(report.objectives())) > 1
        assert len(cache) == 0      # nondeterministic results never cached
        again = runner.run([BatchTask(problem=PROBLEMS[0], method="random-search",
                                      options={"samples": 2})])
        assert again.cache_hits == 0 and not again.results[0].cached


class TestCaching:
    def test_warm_cache_skips_solving_with_identical_objectives(self):
        cache = LRUResultCache()
        runner = BatchRunner(workers=0, cache=cache)
        cold = runner.solve_many(PROBLEMS)
        warm = runner.solve_many(PROBLEMS)
        assert warm.cache_hits == len(PROBLEMS)
        assert warm.solved == 0
        assert warm.objectives() == pytest.approx(cold.objectives())
        assert all(item.cached for item in warm)
        assert all(item.assignment == cold_item.assignment
                   for item, cold_item in zip(warm, cold))

    def test_cache_distinguishes_methods_and_options(self):
        cache = LRUResultCache()
        runner = BatchRunner(workers=0, cache=cache)
        runner.solve_many(PROBLEMS[:1], method="greedy")
        other = runner.solve_many(PROBLEMS[:1], method="pareto-dp-pruned")
        assert other.cache_hits == 0

    def test_duplicate_instances_solved_once(self):
        cache = LRUResultCache()
        runner = BatchRunner(workers=0, cache=cache)
        report = runner.solve_many([PROBLEMS[0], PROBLEMS[0], PROBLEMS[0]])
        objectives = report.objectives()
        assert objectives[0] == objectives[1] == objectives[2]
        # only one entry was actually computed and stored
        assert len(cache) == 1

    def test_in_batch_duplicates_count_as_cache_hits(self):
        """Once the first occurrence warms the cache, its duplicates in the
        same batch are cache hits (source "batch"), not fresh solves."""
        runner = BatchRunner(workers=0, cache=LRUResultCache())
        report = runner.solve_many([PROBLEMS[0], PROBLEMS[0], PROBLEMS[1]])
        assert report.solved == 2                 # two distinct instances
        assert report.cache_hits == 1
        assert report.cache_batch_hits == 1
        first, dup, other = report.results
        assert not first.cached and first.cache_source is None
        assert dup.cached and dup.cache_source == "batch"
        assert not other.cached
        assert dup.objective == first.objective

    def test_summary_distinguishes_memory_and_disk_hits(self, tmp_path):
        disk = JSONFileCache(str(tmp_path))
        runner = BatchRunner(workers=0,
                             cache=TieredResultCache(memory=LRUResultCache(),
                                                     disk=disk))
        runner.solve_many(PROBLEMS[:2])
        # a fresh runner against the same disk store: hits come from disk
        fresh = BatchRunner(workers=0,
                            cache=TieredResultCache(memory=LRUResultCache(),
                                                    disk=disk))
        warm_disk = fresh.solve_many(PROBLEMS[:2])
        assert warm_disk.cache_disk_hits == 2 and warm_disk.cache_memory_hits == 0
        assert "2 disk" in warm_disk.summary()
        # the same runner again: entries were promoted into memory
        warm_mem = fresh.solve_many(PROBLEMS[:2])
        assert warm_mem.cache_memory_hits == 2 and warm_mem.cache_disk_hits == 0
        assert "2 memory" in warm_mem.summary()
        assert all(item.cache_source == "memory" for item in warm_mem)

    def test_failed_duplicates_are_not_marked_cached(self):
        tasks = [BatchTask(problem=PROBLEMS[0], method="genetic",
                           options={"generations": 0, "seed": 7})
                 for _ in range(2)]
        report = BatchRunner(workers=0, cache=LRUResultCache()).run(tasks)
        assert report.failed == 2
        assert report.cache_hits == 0
        assert all(not item.cached for item in report)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_cache_write_per_unique_solve(self, tmp_path, cache_puts,
                                              workers):
        p, q = PROBLEMS[:2]
        runner = BatchRunner(workers=workers,
                             cache=JSONFileCache(str(tmp_path)))
        report = runner.run([p, p, p, q])
        assert report.solved == 2 and report.cache_batch_hits == 2
        assert len(cache_puts) == 2 and len(set(cache_puts)) == 2

    def test_failed_cache_write_does_not_lose_the_batch(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        runner = BatchRunner(workers=0,
                             cache=JSONFileCache(str(blocker / "cache")))
        report = runner.run([PROBLEMS[0]])
        (item,) = report
        assert item.ok and item.objective is not None
        assert report.solved == 1 and report.failed == 0

    def test_disk_cache_survives_runner_restarts(self, tmp_path):
        disk_a = TieredResultCache(disk=JSONFileCache(str(tmp_path)))
        cold = BatchRunner(workers=0, cache=disk_a).solve_many(PROBLEMS[:3])
        disk_b = TieredResultCache(disk=JSONFileCache(str(tmp_path)))
        warm = BatchRunner(workers=0, cache=disk_b).solve_many(PROBLEMS[:3])
        assert warm.cache_hits == 3 and warm.solved == 0
        assert warm.objectives() == pytest.approx(cold.objectives())

    def test_parallel_run_feeds_cache_in_parent(self):
        cache = LRUResultCache()
        runner = BatchRunner(workers=2, cache=cache)
        cold = runner.solve_many(PROBLEMS)
        warm = runner.solve_many(PROBLEMS)
        assert warm.cache_hits == len(PROBLEMS)
        assert warm.objectives() == pytest.approx(cold.objectives())


class TestReport:
    def test_summary_mentions_counts(self):
        report = BatchRunner(workers=0).solve_many(PROBLEMS[:2])
        text = report.summary()
        assert "2 tasks" in text and "2 solved" in text
        assert len(report) == 2


class TestOneBatchOutcome:
    """The serial loop, the pool and the spool service build every task's
    result from one outcome dict, so one grid reads the same through all
    three: a solve and its in-batch duplicate, a FrontierExplosion, a solve
    error, and a cache hit on a second run."""

    FIELDS = ("objective", "placement", "details", "status", "error",
              "cached", "cache_source")

    @staticmethod
    def _grid():
        blowup = random_problem(n_processing=10, n_satellites=3, seed=4,
                                sensor_scatter=0.5)
        solved = BatchTask(problem=PROBLEMS[0], method="portfolio")
        return [solved, solved,
                BatchTask(problem=blowup, method="pareto-dp-pruned",
                          options={"max_frontier": 2}),
                BatchTask(problem=PROBLEMS[1], method="genetic",
                          options={"generations": 0})]

    def _runner(self, tmp_path, workers):
        runner = BatchRunner(workers=workers, cache=JSONFileCache(
            str(tmp_path / f"cache-{workers}")))
        grid = self._grid()
        return runner.run(grid).results + runner.run(grid[:1]).results

    def _service(self, tmp_path):
        from repro.distributed import SolveService, SolveWorker
        from repro.distributed.worker import spool_cache

        spool = str(tmp_path / "spool")
        service = SolveService(spool)
        grid = self._grid()
        first = service.submit(grid)
        service.enqueue(first)
        SolveWorker(spool, cache=spool_cache(spool)).run(drain=True)
        items = service.gather(first, timeout=30.0).results
        return items + service.gather(service.submit(grid[:1]),
                                      timeout=30.0).results

    def _view(self, items):
        return [{name: getattr(item, name) for name in self.FIELDS}
                for item in items]

    def test_front_ends_build_equal_items(self, tmp_path):
        serial = self._view(self._runner(tmp_path, 0))
        assert self._view(self._runner(tmp_path, 1)) == serial
        assert self._view(self._service(tmp_path)) == serial

        solved, duplicate, explosion, genetic, hit = serial
        assert solved["status"] == "optimal" and not solved["cached"]
        assert duplicate["cache_source"] == "batch"
        assert hit["cached"] and hit["cache_source"] == "disk"
        for item in (duplicate, hit):
            assert item["objective"] == solved["objective"]
            assert item["details"] == solved["details"]
        assert explosion["status"] == "error"
        assert explosion["details"]["max_frontier"] == 2
        assert genetic["status"] == "error"
        assert "generations" in genetic["error"]

    @pytest.mark.parametrize("workers", [0, 1])
    def test_traced_task_nests_solve_then_method(self, tmp_path, workers):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracing import Tracer, load_spans

        tracer = Tracer.for_spool(str(tmp_path), registry=MetricsRegistry())
        BatchRunner(workers=workers, tracer=tracer).run([PROBLEMS[0]])
        spans = {s["name"]: s for s in load_spans(str(tmp_path))}
        assert spans["task"].get("parent_id") is None
        assert spans["solve"]["parent_id"] == spans["task"]["span_id"]
        assert (spans["method:colored-ssb"]["parent_id"]
                == spans["solve"]["span_id"])

    def test_solve_payload_error_envelope_reads_error(self):
        from repro.runtime import default_registry, prepare_tasks, task_payload
        from repro.runtime.payload import solve_payload

        task = BatchTask(problem=PROBLEMS[0], method="genetic",
                         options={"generations": 0})
        payload = task_payload(prepare_tasks([task], default_registry())[0])
        outcome = solve_payload(payload)
        assert outcome["ok"] is False and outcome["status"] == "error"
