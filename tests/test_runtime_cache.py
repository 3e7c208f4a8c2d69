"""Unit tests for the result cache (hashing, LRU, disk store, tiering)."""

import json
import os

import pytest

from repro.core.dwg import SSBWeighting
from repro.core.solver import solve
from repro.model.serialization import problem_from_json, problem_to_json
from repro.runtime import (
    JSONFileCache,
    LRUResultCache,
    TieredResultCache,
    cache_get_with_source,
    make_cache_entry,
    problem_fingerprint,
    result_key,
    shard_of,
)
from repro.workloads import paper_example_problem, random_problem


class TestFingerprints:
    def test_round_tripped_problem_hashes_identically(self, paper_problem):
        clone = problem_from_json(problem_to_json(paper_problem))
        assert problem_fingerprint(clone) == problem_fingerprint(paper_problem)

    def test_different_instances_hash_differently(self):
        a = random_problem(n_processing=8, n_satellites=3, seed=1)
        b = random_problem(n_processing=8, n_satellites=3, seed=2)
        assert problem_fingerprint(a) != problem_fingerprint(b)

    def test_key_varies_with_method_options_and_weighting(self, paper_problem):
        base = result_key(paper_problem, "colored-ssb")
        assert result_key(paper_problem, "greedy") != base
        assert result_key(paper_problem, "colored-ssb",
                          options={"seed": 1}) != base
        assert result_key(paper_problem, "colored-ssb",
                          weighting=SSBWeighting(1.0, 0.5)) != base
        assert result_key(paper_problem, "colored-ssb") == base

    def test_fingerprint_memo_is_dropped_on_invalidate(self):
        problem = random_problem(n_processing=6, n_satellites=2, seed=9)
        before = problem_fingerprint(problem)
        assert problem_fingerprint(problem) == before    # memoised path
        # mutate in place, then invalidate as the model documents
        cru_id, seconds = next(iter(problem.profile.host_times().items()))
        problem.profile.set_host_time(cru_id, seconds + 1.0)
        problem.invalidate_caches()
        assert problem_fingerprint(problem) != before
        problem.profile.set_host_time(cru_id, seconds)
        problem.invalidate_caches()
        assert problem_fingerprint(problem) == before

    def test_precomputed_problem_hash_short_circuits(self, paper_problem):
        fingerprint = problem_fingerprint(paper_problem)
        assert result_key(paper_problem, "greedy", problem_hash=fingerprint) == \
            result_key(paper_problem, "greedy")


class TestPayloadProblemText:
    """A task payload carries the canonical text the fingerprint hashes."""

    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    def test_payload_text_is_the_hashed_text(self, scatter):
        import hashlib

        from repro.runtime import (BatchTask, default_registry, prepare_tasks,
                                   task_payload)

        problems = [random_problem(n_processing=n, n_satellites=k,
                                   seed=10 * n + k, sensor_scatter=scatter)
                    for n in range(6, 21) for k in range(1, 5)]
        preps = prepare_tasks([BatchTask(problem=problem, method="greedy")
                               for problem in problems], default_registry())
        for prep in preps:
            text = task_payload(prep)["problem_json"]
            assert hashlib.sha256(
                text.encode("utf-8")).hexdigest() == prep.problem_hash
            assert problem_fingerprint(
                problem_from_json(text)) == prep.problem_hash


class TestLRUResultCache:
    def test_put_get_and_stats(self):
        cache = LRUResultCache(maxsize=4)
        assert cache.get("k") is None
        cache.put("k", {"objective": 1.0})
        assert cache.get("k") == {"objective": 1.0}
        assert cache.stats == {"hits": 1, "misses": 1}

    def test_least_recently_used_is_evicted(self):
        cache = LRUResultCache(maxsize=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") is not None     # refresh a; b is now LRU
        cache.put("c", {"v": 3})
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert len(cache) == 2

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LRUResultCache(maxsize=0)


class TestJSONFileCache:
    def test_round_trip_on_disk(self, tmp_path):
        cache = JSONFileCache(str(tmp_path / "store"))
        entry = {"entry_version": 1, "objective": 2.5, "placement": {"F1": "host"}}
        cache.put("key1", entry)
        assert cache.get("key1") == entry
        assert len(cache) == 1

    def test_corrupt_or_missing_entries_are_misses(self, tmp_path):
        cache = JSONFileCache(str(tmp_path))
        assert cache.get("absent") is None
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None
        cache.put("versioned", {"entry_version": 999, "objective": 0.0})
        assert cache.get("versioned") is None   # unknown version rejected

    def test_clear_removes_entries(self, tmp_path):
        cache = JSONFileCache(str(tmp_path))
        cache.put("a", {"entry_version": 1})
        cache.put("b", {"entry_version": 1})
        cache.clear()
        assert len(cache) == 0

    def test_writes_are_atomic_sharded_files(self, tmp_path):
        cache = JSONFileCache(str(tmp_path))
        cache.put("a", {"entry_version": 1, "objective": 1.0})
        shard = shard_of("a")
        assert len(shard) == 2 and set(shard) <= set("0123456789abcdef")
        assert os.listdir(tmp_path) == [shard]       # no stray tmp files
        with open(tmp_path / shard / "a.json", encoding="utf-8") as handle:
            assert json.load(handle)["objective"] == 1.0

    def test_keys_spread_over_two_hex_shards(self, tmp_path):
        cache = JSONFileCache(str(tmp_path))
        for i in range(64):
            cache.put(f"key{i}", {"entry_version": 1, "objective": float(i)})
        shards = os.listdir(tmp_path)
        assert all(len(s) == 2 and set(s) <= set("0123456789abcdef")
                   for s in shards)
        assert len(shards) > 1                       # actually spread out
        assert len(cache) == 64
        assert all(cache.get(f"key{i}") is not None for i in range(64))

    def test_get_with_source_reports_disk(self, tmp_path):
        cache = JSONFileCache(str(tmp_path))
        cache.put("k", {"entry_version": 1, "objective": 1.0})
        assert cache.get_with_source("k") == ({"entry_version": 1,
                                               "objective": 1.0}, "disk")
        assert cache.get_with_source("absent") == (None, None)


class TestTieredResultCache:
    def test_disk_hits_promote_into_memory(self, tmp_path):
        disk = JSONFileCache(str(tmp_path))
        disk.put("k", {"entry_version": 1, "objective": 3.0})
        tiered = TieredResultCache(memory=LRUResultCache(maxsize=8), disk=disk)
        assert tiered.get("k")["objective"] == 3.0
        assert "k" in tiered.memory

    def test_put_feeds_both_tiers(self, tmp_path):
        disk = JSONFileCache(str(tmp_path))
        tiered = TieredResultCache(disk=disk)
        tiered.put("k", {"entry_version": 1, "objective": 4.0})
        assert disk.get("k")["objective"] == 4.0
        assert tiered.get("k")["objective"] == 4.0

    def test_memory_only_when_no_disk(self):
        tiered = TieredResultCache()
        assert tiered.get("nope") is None
        tiered.put("k", {"entry_version": 1})
        assert tiered.get("k") == {"entry_version": 1}

    def test_get_with_source_distinguishes_tiers(self, tmp_path):
        disk = JSONFileCache(str(tmp_path))
        disk.put("k", {"entry_version": 1, "objective": 5.0})
        tiered = TieredResultCache(memory=LRUResultCache(maxsize=8), disk=disk)
        entry, source = tiered.get_with_source("k")
        assert entry["objective"] == 5.0 and source == "disk"
        entry, source = tiered.get_with_source("k")   # promoted on first hit
        assert entry["objective"] == 5.0 and source == "memory"
        assert tiered.get_with_source("missing") == (None, None)

    def test_cache_get_with_source_adapts_plain_stores(self):
        class PlainStore:
            def __init__(self):
                self.data = {}

            def get(self, key):
                return self.data.get(key)

            def put(self, key, entry):
                self.data[key] = entry

        store = PlainStore()
        assert cache_get_with_source(store, "k") == (None, None)
        store.put("k", {"entry_version": 1})
        assert cache_get_with_source(store, "k") == ({"entry_version": 1}, "cache")
        assert cache_get_with_source(LRUResultCache(), "k") == (None, None)


class TestEntryEquivalence:
    def test_cached_entry_reproduces_fresh_solve(self, paper_problem):
        """A cache entry round-trips the objective and placement exactly."""
        from repro.core.assignment import Assignment

        fresh = solve(paper_problem, method="colored-ssb")
        entry = make_cache_entry(fresh.method, fresh.objective,
                                 fresh.elapsed_s, fresh.assignment.placement,
                                 fresh.details, status=fresh.status)
        # the entry must be JSON-serialisable as-is
        restored = json.loads(json.dumps(entry))
        rebuilt = Assignment(problem=paper_problem,
                             placement=restored["placement"])
        assert restored["objective"] == pytest.approx(fresh.objective)
        assert rebuilt.end_to_end_delay() == pytest.approx(fresh.objective)
        assert rebuilt == fresh.assignment
