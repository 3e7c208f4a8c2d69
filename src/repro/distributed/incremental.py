"""Warm-start records: the last optimal cut per tree structure.

A monitoring deployment re-solves the *same reasoning tree* over and over:
execution profiles drift with load, communication costs drift with link
quality, but the CRU tree, the sensor wiring and therefore the feasible cuts
are fixed.  The plan in hand — the cut last proved optimal for that
structure — stays feasible under any drift, and is usually near-optimal.

:func:`structure_fingerprint` hashes exactly the solve-relevant structure —
tree topology, CRU kinds, sensor attachment, satellite colours — and
deliberately **excludes** profiles, communication costs and link parameters.
Two instances with equal fingerprints have identical feasible-cut sets;
only the edge weights differ.

:class:`WarmStartIndex` remembers one cut per fingerprint (in-memory,
optionally persisted as JSON files so a fleet of workers sharing a spool
also shares warm starts).  :class:`~repro.core.portfolio.PortfolioSolver`
given an index replays the remembered cut under the new weights as one more
incumbent — the ``colored-ssb-incremental`` spec — and puts the winning cut
back after an uninterrupted solve.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional

from repro.model.problem import AssignmentProblem
from repro.runtime.fsio import default_fs


def structure_fingerprint(problem: AssignmentProblem) -> str:
    """SHA-256 over the solve-relevant *structure* of an instance.

    Includes: tree topology (parent of every CRU, child order), CRU kinds,
    the sensor→satellite attachment, and satellite identities/colours.
    Excludes: execution profiles, communication costs, link latency and
    bandwidth, names/labels — anything that only changes edge weights.
    """
    tree = problem.tree
    payload = {
        "root": tree.root_id,
        "nodes": [(cru_id, tree.cru(cru_id).kind, tree.parent_id(cru_id))
                  for cru_id in tree.cru_ids()],
        "sensors": dict(sorted(problem.sensor_attachment.items())),
        "satellites": [(sat.satellite_id, sat.color)
                       for sat in problem.system.satellites()],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class WarmStartIndex:
    """Fingerprint → last known optimal cut, shared across solves.

    A tiny two-tier store: an in-process dict in front of an optional
    directory of JSON files (one per fingerprint, written atomically), so
    every worker pulling from the same spool warm-starts off any worker's
    previous solve of the same structure.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        self._memory: Dict[str, Dict[str, Any]] = {}
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, fingerprint: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{fingerprint}.json")

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        record = self._memory.get(fingerprint)
        if record is None and self.directory:
            try:
                with open(self._path(fingerprint), "r", encoding="utf-8") as handle:
                    record = json.load(handle)
            except (OSError, ValueError):
                return None
            if not isinstance(record, dict) or "cut" not in record:
                return None
            self._memory[fingerprint] = record
        return record

    def put(self, fingerprint: str, cut: List[str], objective: float) -> None:
        record = {"cut": list(cut), "objective": objective}
        self._memory[fingerprint] = record
        if self.directory:
            default_fs().write_json_atomic(self._path(fingerprint), record)

    def __len__(self) -> int:
        count = len(self._memory)
        if self.directory:
            try:
                disk = {name[:-len(".json")]
                        for name in os.listdir(self.directory)
                        if name.endswith(".json")}
            except OSError:
                disk = set()
            count = len(disk | set(self._memory))
        return count


#: Process-wide default index used by the ``colored-ssb-incremental`` spec
#: when the caller does not provide one.
_default_index: Optional[WarmStartIndex] = None


def default_warm_index() -> WarmStartIndex:
    global _default_index
    if _default_index is None:
        _default_index = WarmStartIndex()
    return _default_index
