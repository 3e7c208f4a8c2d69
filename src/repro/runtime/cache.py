"""Result cache keyed by a canonical problem hash.

A cache key identifies (instance, method, weighting, options) so a warm sweep
can skip every instance that was already solved with identical settings.  The
instance part of the key is a SHA-256 over the canonical JSON produced by
:mod:`repro.model.serialization` — two structurally identical problems hash
identically regardless of construction order of dict-valued fields.

Two stores are provided, plus a tier combining them:

* :class:`LRUResultCache` — bounded in-memory store with LRU eviction;
* :class:`JSONFileCache` — one JSON file per key, **sharded** into 256
  two-hex-character subdirectories (million-entry stores must not put every
  file into one directory); writes are atomic, and hits touch the file
  mtime so the :class:`~repro.distributed.janitor.CacheJanitor` can evict
  least-recently-*used* entries first;
* :class:`TieredResultCache` — memory in front of disk, promoting disk hits.

Stores additionally expose ``get_with_source`` returning ``(entry, tier)``
(``"memory"`` / ``"disk"``) so callers like the
:class:`~repro.runtime.runner.BatchRunner` can report which tier served each
hit; :func:`cache_get_with_source` adapts stores that only implement ``get``.

Entries are plain JSON-safe dicts (method, objective, placement, elapsed_s,
details) so they can cross process boundaries and be diffed on disk.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Any, Dict, Iterator, Mapping, Optional, Protocol, Tuple

from repro.core.dwg import SSBWeighting
from repro.model.problem import AssignmentProblem
from repro.model.serialization import problem_to_dict
from repro.observability.metrics import default_metrics

CacheEntry = Dict[str, Any]

_ENTRY_VERSION = 1


# ------------------------------------------------------------------- hashing
def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=repr)


def problem_canonical_json(problem: AssignmentProblem) -> str:
    """Compact, key-sorted JSON of an instance: the text
    :func:`problem_fingerprint` hashes and task payloads carry."""
    return _canonical_json(problem_to_dict(problem))


def problem_fingerprint(problem: AssignmentProblem) -> str:
    """SHA-256 hex digest of the canonical serialised instance.

    Memoised on the instance (serialising + hashing sits on the batch
    dispatch hot path and sweeps hash the same problems repeatedly); the
    model's ``invalidate_caches()`` drops the memo after in-place mutation.
    """
    cached = getattr(problem, "_fingerprint_cache", None)
    if cached is not None:
        return cached
    fingerprint = hashlib.sha256(
        problem_canonical_json(problem).encode("utf-8")).hexdigest()
    problem._fingerprint_cache = fingerprint
    return fingerprint


def options_fingerprint(options: Optional[Mapping[str, Any]] = None,
                        weighting: Optional[SSBWeighting] = None) -> str:
    """Stable digest of solver options + objective weighting."""
    payload = {
        "options": dict(sorted((options or {}).items())),
        "weighting": (None if weighting is None
                      else [weighting.lambda_s, weighting.lambda_b]),
    }
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def result_key(problem: AssignmentProblem, method: str,
               options: Optional[Mapping[str, Any]] = None,
               weighting: Optional[SSBWeighting] = None,
               problem_hash: Optional[str] = None) -> str:
    """The full cache key for one (instance, method, options) combination.

    ``problem_hash`` short-circuits re-hashing when the caller already
    fingerprinted the instance (the BatchRunner hashes each instance once).
    """
    instance = problem_hash or problem_fingerprint(problem)
    return f"{instance}-{method}-{options_fingerprint(options, weighting)[:16]}"


def make_cache_entry(method: str, objective: float, elapsed_s: float,
                     placement: Mapping[str, str],
                     details: Mapping[str, Any],
                     status: Optional[str] = None) -> CacheEntry:
    """The one place the entry format (and its version stamp) is defined.

    Only *uninterrupted* results are ever cached (anytime partials would
    serve sub-optimal objectives to future budget-free requests), so
    ``status`` — recorded since the anytime refactor — is always
    ``optimal`` or ``feasible`` when present.
    """
    entry: CacheEntry = {
        "entry_version": _ENTRY_VERSION,
        "method": method,
        "objective": objective,
        "elapsed_s": elapsed_s,
        "placement": dict(placement),
        "details": json_safe_details(details),
    }
    if status is not None:
        entry["status"] = status
    return entry


def _json_safe_scalar_or_list(value: Any) -> bool:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return True
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, (str, int, float, bool)) or v is None for v in value)


def json_safe_details(details: Mapping[str, Any]) -> Dict[str, Any]:
    """Keep only the JSON-representable part of a details dict.

    Scalars, flat scalar lists, and **one level** of nested dicts of those
    (e.g. the solver's ``details["profile"]`` bound-effectiveness table) are
    kept; everything else — graphs, search results, arbitrary objects — is
    dropped so the result can cross a process boundary or rest in a cache
    file.
    """
    safe: Dict[str, Any] = {}
    for key, value in details.items():
        if _json_safe_scalar_or_list(value):
            safe[key] = list(value) if isinstance(value, (list, tuple)) else value
        elif isinstance(value, Mapping):
            nested = {k: (list(v) if isinstance(v, (list, tuple)) else v)
                      for k, v in value.items()
                      if _json_safe_scalar_or_list(v)}
            if nested:
                safe[key] = nested
    return safe


# -------------------------------------------------------------------- stores
class ResultCache(Protocol):
    """Minimal store interface the runner relies on."""

    def get(self, key: str) -> Optional[CacheEntry]: ...

    def put(self, key: str, entry: CacheEntry) -> None: ...


def cache_get_with_source(cache: ResultCache, key: str
                          ) -> Tuple[Optional[CacheEntry], Optional[str]]:
    """Probe a store, reporting which tier served the hit when it can tell.

    Stores implementing ``get_with_source`` answer directly; anything else is
    probed through plain ``get`` and attributed to the generic ``"cache"``
    source.
    """
    probe = getattr(cache, "get_with_source", None)
    if probe is not None:
        return probe(key)
    entry = cache.get(key)
    return entry, ("cache" if entry is not None else None)


class _CacheStats:
    """Hit/miss accounting shared by all stores.

    Each probe also feeds the process-wide
    ``repro_cache_requests_total{tier,outcome}`` counter, so the memory /
    disk / tiered hit split shows up in metrics snapshots without callers
    polling every store's ``stats``.
    """

    #: metrics label identifying the store tier; overridden per subclass
    _metrics_tier = "cache"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._requests = default_metrics().counter(
            "repro_cache_requests_total",
            "Result-cache probes by store tier and hit/miss outcome")

    def _hit(self) -> None:
        self.hits += 1
        self._requests.inc(tier=self._metrics_tier, outcome="hit")

    def _miss(self) -> None:
        self.misses += 1
        self._requests.inc(tier=self._metrics_tier, outcome="miss")

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


class LRUResultCache(_CacheStats):
    """Bounded in-memory result store with least-recently-used eviction."""

    _metrics_tier = "memory"

    def __init__(self, maxsize: int = 4096) -> None:
        super().__init__()
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    def get(self, key: str) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self._miss()
            return None
        self._entries.move_to_end(key)
        self._hit()
        return entry

    def get_with_source(self, key: str
                        ) -> Tuple[Optional[CacheEntry], Optional[str]]:
        entry = self.get(key)
        return entry, ("memory" if entry is not None else None)

    def put(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._requests.inc(tier=self._metrics_tier, outcome="eviction")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()


def shard_of(key: str) -> str:
    """The two-hex-character shard subdirectory a key lives in.

    Sharding hashes the key instead of slicing it so arbitrary keys (not just
    the hex-prefixed ones :func:`result_key` produces) spread uniformly over
    exactly 256 directories.
    """
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:2]


def _is_shard_name(name: str) -> bool:
    return len(name) == 2 and all(c in "0123456789abcdef" for c in name)


class JSONFileCache(_CacheStats):
    """One JSON file per key, sharded into 256 two-hex subdirectories.

    ``directory/<shard>/<key>.json`` where ``shard`` is the first two hex
    characters of SHA-256 of the key — a million-entry store puts ~4k files
    per directory instead of a million in one.  Writes are atomic (tempfile +
    rename inside the shard) so concurrent workers sharing the directory can
    never observe a torn entry.  An entry file that exists but is not valid
    JSON — a torn write that landed, bit rot — is **quarantined** into
    ``directory/quarantine/`` (counted under
    ``repro_spool_quarantined_total{reason="cache_entry"}``) and served as a
    miss, so it is recomputed once instead of poisoning every future probe.
    Hits refresh the file mtime so the janitor's oldest-first eviction
    approximates least-recently-used.
    """

    _metrics_tier = "disk"

    def __init__(self, directory: str, touch_on_hit: bool = True,
                 fs=None, retry=None) -> None:
        super().__init__()
        from repro.runtime.fsio import RetryPolicy, default_fs

        self.directory = directory
        self.touch_on_hit = touch_on_hit
        self.fs = fs if fs is not None else default_fs()
        self.retry = retry if retry is not None else RetryPolicy()
        self._quarantined = default_metrics().counter(
            "repro_spool_quarantined_total",
            "Corrupt spool files moved into quarantine/, by reason")

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, shard_of(key), f"{key}.json")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside so it cannot poison future probes."""
        target_dir = os.path.join(self.directory, "quarantine")
        try:
            self.fs.makedirs(target_dir, exist_ok=True)
            self.fs.rename(
                path, os.path.join(target_dir, os.path.basename(path)))
        except OSError:
            return
        self._quarantined.inc(reason="cache_entry")

    def _load(self, path: str) -> Optional[CacheEntry]:
        try:
            raw = self.fs.read_bytes(path)
        except OSError:
            return None
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("entry_version") != _ENTRY_VERSION:
            return None
        return entry

    def get(self, key: str) -> Optional[CacheEntry]:
        path = self._path(key)
        entry = self._load(path)
        if entry is None:
            self._miss()
            return None
        if self.touch_on_hit:
            try:
                self.fs.utime(path)
            except OSError:
                pass
        self._hit()
        return entry

    def get_with_source(self, key: str
                        ) -> Tuple[Optional[CacheEntry], Optional[str]]:
        entry = self.get(key)
        return entry, ("disk" if entry is not None else None)

    def put(self, key: str, entry: CacheEntry) -> None:
        """Store one entry (atomic write, transient-I/O retry).

        A persistently failing write still raises ``OSError`` — callers on
        the solve path (worker, service) treat that as "cache unavailable"
        and carry on with the solve result.
        """
        shard_dir = os.path.join(self.directory, shard_of(key))
        self.retry.call(self.fs.makedirs, shard_dir, exist_ok=True,
                        op="cache_put")
        self.retry.call(self.fs.write_json_atomic, self._path(key), entry,
                        op="cache_put")

    def paths(self) -> Iterator[str]:
        """Every entry file currently in the store's shards."""
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return
        for name in names:
            path = os.path.join(self.directory, name)
            if _is_shard_name(name) and os.path.isdir(path):
                try:
                    inner = sorted(os.listdir(path))
                except OSError:
                    continue
                for entry_name in inner:
                    if entry_name.endswith(".json"):
                        yield os.path.join(path, entry_name)

    def __len__(self) -> int:
        return sum(1 for _ in self.paths())

    def clear(self) -> None:
        for path in list(self.paths()):
            try:
                os.unlink(path)
            except OSError:
                pass


class TieredResultCache(_CacheStats):
    """In-memory LRU in front of an optional on-disk store.

    Disk hits are promoted into memory; writes go to both tiers.
    """

    _metrics_tier = "tiered"

    def __init__(self, memory: Optional[LRUResultCache] = None,
                 disk: Optional[JSONFileCache] = None) -> None:
        super().__init__()
        self.memory = memory if memory is not None else LRUResultCache()
        self.disk = disk

    def get(self, key: str) -> Optional[CacheEntry]:
        return self.get_with_source(key)[0]

    def get_with_source(self, key: str
                        ) -> Tuple[Optional[CacheEntry], Optional[str]]:
        source: Optional[str] = "memory"
        entry = self.memory.get(key)
        if entry is None and self.disk is not None:
            entry = self.disk.get(key)
            source = "disk"
            if entry is not None:
                self.memory.put(key, entry)
        if entry is None:
            self._miss()
            return None, None
        self._hit()
        return entry, source

    def put(self, key: str, entry: CacheEntry) -> None:
        self.memory.put(key, entry)
        if self.disk is not None:
            self.disk.put(key, entry)
