"""Quarantine semantics: corrupt files never crash a reader or lose a task."""

import json
import os

import pytest

from repro.distributed import ResultStream, WorkQueue
from repro.observability.metrics import MetricsRegistry
from repro.runtime.cache import JSONFileCache, make_cache_entry


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def queue(tmp_path, registry):
    return WorkQueue(str(tmp_path / "spool"), lease_timeout=60.0,
                     metrics=registry)


def _corrupt(path: str, payload: bytes = b'\x00\xffnot json {') -> None:
    with open(path, "wb") as handle:
        handle.write(payload)


class TestCorruptTaskPayload:
    def _submit_corrupt(self, queue):
        task_id = queue.submit({"n": 1})
        name = f"{task_id}.a0.json"
        _corrupt(os.path.join(queue.directory, "tasks", name))
        return task_id

    def test_claim_quarantines_and_dead_letters(self, queue, registry):
        task_id = self._submit_corrupt(queue)
        assert queue.claim() is None              # never raises, never yields
        counts = queue.counts()
        assert counts["quarantined"] == 1
        assert counts["failed"] == 1
        assert counts["pending"] == counts["claimed"] == 0
        assert queue.quarantined_ids() == [task_id]
        record = queue.failure(task_id)
        assert record["kind"] == "quarantined"
        assert "quarantined" in record["error"]
        assert registry.counter("repro_spool_quarantined_total").value(
            reason="task_payload") == 1

    def test_stream_surfaces_a_typed_error_not_a_hang(self, queue):
        task_id = self._submit_corrupt(queue)
        queue.claim()
        [(got_id, outcome)] = list(
            ResultStream(queue, task_ids=[task_id], timeout=5.0))
        assert got_id == task_id
        assert outcome["ok"] is False
        assert outcome["status"] == "error"
        assert outcome["error_kind"] == "quarantined"
        assert outcome["dead_lettered"] is True

    def test_healthy_tasks_claim_past_a_corrupt_one(self, queue):
        self._submit_corrupt(queue)
        good = queue.submit({"n": 2})
        task = queue.claim()
        assert task is not None and task.task_id == good

    def test_quarantine_event_is_logged(self, queue):
        task_id = self._submit_corrupt(queue)
        queue.claim()
        kinds = [(e["kind"], e.get("task_id"))
                 for e in queue.events.iter_events()]
        assert ("quarantine", task_id) in kinds
        assert ("dead_letter", task_id) in kinds

    def test_non_dict_payload_is_also_quarantined(self, queue):
        task_id = queue.submit({"n": 1})
        _corrupt(os.path.join(queue.directory, "tasks", f"{task_id}.a0.json"),
                 b'[1, 2, 3]')                    # valid JSON, wrong shape
        assert queue.claim() is None
        assert queue.counts()["quarantined"] == 1


class TestCorruptResult:
    def test_result_quarantines_and_dead_letters(self, queue, registry):
        task_id = queue.submit({"n": 1})
        task = queue.claim()
        queue.ack(task, {"ok": True, "objective": 1.0})
        _corrupt(os.path.join(queue.directory, "results", f"{task_id}.json"))
        assert queue.result(task_id) is None      # never raises
        record = queue.failure(task_id)
        assert record["kind"] == "result_corrupted"
        assert queue.counts()["quarantined"] == 1
        assert registry.counter("repro_spool_quarantined_total").value(
            reason="result") == 1

    def test_wait_result_returns_the_typed_failure(self, queue):
        task_id = queue.submit({"n": 1})
        task = queue.claim()
        queue.ack(task, {"ok": True})
        _corrupt(os.path.join(queue.directory, "results", f"{task_id}.json"))
        outcome = queue.wait_result(task_id, timeout=5.0)
        assert outcome is not None
        assert outcome["ok"] is False and outcome["dead_lettered"]
        assert outcome["error_kind"] == "result_corrupted"


class TestCorruptDeadLetterRecord:
    def test_failure_synthesizes_an_envelope(self, queue):
        task_id = queue.submit({"n": 1})
        task = queue.claim()
        queue.fail(task, "boom")
        _corrupt(os.path.join(queue.directory, "failed", f"{task_id}.json"))
        record = queue.failure(task_id)
        assert record["kind"] == "quarantined"
        assert record["task_id"] == task_id
        assert queue.counts()["quarantined"] == 1


class TestQuarantineCollisions:
    def test_repeat_quarantine_of_the_same_name_never_clobbers(self, queue):
        # two generations of the same claim name must both survive forensics
        task_id = queue.submit({"n": 1})
        path = os.path.join(queue.directory, "tasks", f"{task_id}.a0.json")
        _corrupt(path)
        assert queue.claim() is None
        queue.submit({"n": 2}, task_id=task_id)   # resubmit under same id
        _corrupt(path)
        assert queue.claim() is None
        assert queue.counts()["quarantined"] == 2


class TestCacheQuarantine:
    def test_corrupt_entry_is_a_miss_and_moves_aside(self, tmp_path):
        cache = JSONFileCache(str(tmp_path / "cache"))
        entry = make_cache_entry("greedy", 1.0, 0.1, {"u": "host"}, {})
        cache.put("key-1", entry)
        assert cache.get("key-1") == entry
        _corrupt(cache._path("key-1"))
        assert cache.get("key-1") is None         # miss, not a crash
        quarantine = tmp_path / "cache" / "quarantine"
        assert len(list(quarantine.iterdir())) == 1
        # the poisoned file is gone: the next probe is a clean miss and a
        # re-put fully heals the key
        assert cache.get("key-1") is None
        cache.put("key-1", entry)
        assert cache.get("key-1") == entry

    def test_entry_version_mismatch_is_a_plain_miss(self, tmp_path):
        cache = JSONFileCache(str(tmp_path / "cache"))
        cache.put("key-1", make_cache_entry("greedy", 1.0, 0.1, {}, {}))
        path = cache._path("key-1")
        data = json.loads(open(path).read())
        data["entry_version"] = 999
        with open(path, "w") as handle:
            json.dump(data, handle)
        assert cache.get("key-1") is None
        # format evolution is not corruption: nothing was quarantined
        assert not (tmp_path / "cache" / "quarantine").exists()
