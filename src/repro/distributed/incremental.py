"""Incremental re-solve: reuse structure across profile/cost changes.

A monitoring deployment re-solves the *same reasoning tree* over and over:
execution profiles drift with load, communication costs drift with link
quality, but the CRU tree, the sensor wiring and therefore the colouring are
fixed.  Everything structural about the search — which tree edges are
cuttable, the assignment-graph skeleton, which cuts are feasible — depends
only on that fixed part, so consecutive solves should not start from scratch
(Novák & Witteveen's cost-complexity analysis of multi-context systems makes
the same observation: reuse across queries whose reasoning structure is
unchanged).

:func:`structure_fingerprint` hashes exactly the solve-relevant structure —
tree topology, CRU kinds, sensor attachment, satellite colours — and
deliberately **excludes** profiles, communication costs and link parameters.
Two instances with equal fingerprints have *identical* assignment-graph
skeletons and identical feasible-cut sets; only the edge weights differ.

:class:`IncrementalSolver` exploits that:

* the previous optimum's **cut** is remembered per fingerprint in a
  :class:`WarmStartIndex` (in-memory, optionally persisted as JSON files so
  a fleet of workers sharing a spool also shares warm starts);
* the **assignment-graph skeleton** built for a fingerprint is kept
  in-process and re-solves of the same structure only re-apply the σ/β
  weights (:meth:`~repro.core.assignment_graph.ColoredAssignmentGraph.reweight`)
  instead of re-colouring the tree and rebuilding faces, intervals and
  edges from scratch;
* on re-solve, the remembered cut is replayed against the *new* weights —
  it is still a feasible S→T path, so its freshly evaluated SSB weight is a
  valid incumbent bound for the label-dominance sweep;
* the sweep then starts with a near-optimal incumbent (profiles rarely move
  the optimum far), which lets bound pruning discard almost every label, and
  the beam pre-pass — whose only job is finding an incumbent — is skipped
  entirely.

The result is exact: the sweep either proves the replayed cut is still
optimal or finds the strictly better path.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.context import SolveContext
from repro.core.dwg import PathMeasures, SSBWeighting
from repro.model.problem import AssignmentProblem
from repro.runtime.fsio import default_fs

#: Default beam width for cold solves (matches LabelDominanceSearch).
_COLD_BEAM_WIDTH = 128

#: Per-skeleton cap on cached completion-potential sets (see
#: :class:`IncrementalSolver`): one per distinct cost fingerprint, FIFO.
_POTENTIALS_PER_SKELETON = 8


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


@dataclass
class IncrementalSolver:
    """Label-engine solve with structure-keyed warm starts.

    ``solve`` returns ``(assignment, details)`` in the registry-runner shape;
    details record whether a warm start applied and what it bought.
    """

    index: Optional[WarmStartIndex] = None
    weighting: Optional[SSBWeighting] = None
    beam_width: int = _COLD_BEAM_WIDTH
    #: in-process assignment-graph skeletons kept per structure fingerprint
    #: (graphs hold live problem references, so this cache is never persisted)
    max_skeletons: int = 32
    #: counters across this solver's lifetime
    warm_hits: int = field(default=0, init=False)
    cold_solves: int = field(default=0, init=False)
    skeleton_reuses: int = field(default=0, init=False)
    potentials_reuses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        from repro.core.label_search import check_beam_width

        check_beam_width(self.beam_width)
        if self.index is None:
            self.index = default_warm_index()
        self._weighting = self.weighting or SSBWeighting()
        self._measures = PathMeasures(self._weighting)
        # fingerprint -> {"graph": skeleton, "potentials": {cost_fp: pots}}
        self._skeletons: Dict[str, Dict[str, Any]] = {}

    # ------------------------------------------------------------------ solve
    def solve(self, problem: AssignmentProblem,
              context: Optional[SolveContext] = None
              ) -> Tuple[Any, Dict[str, Any]]:
        from repro.core.assignment import Assignment
        from repro.core.assignment_graph import build_assignment_graph
        from repro.core.label_search import (LabelDominanceSearch,
                                             completion_potentials)
        from repro.runtime.cache import problem_fingerprint

        fingerprint = structure_fingerprint(problem)
        entry = self._skeletons.get(fingerprint)
        skeleton_reused = entry is not None
        if skeleton_reused:
            graph = entry["graph"]
            # same structure: keep the skeleton, re-apply the drifted weights
            graph.reweight(problem)
            self.skeleton_reuses += 1
        else:
            graph = build_assignment_graph(problem)
            entry = {"graph": graph, "potentials": {}}
            if self.max_skeletons > 0:
                if len(self._skeletons) >= self.max_skeletons:
                    # drop the oldest insertion (structures churn rarely; a
                    # FIFO keeps the one-structure deployment untouched)
                    self._skeletons.pop(next(iter(self._skeletons)))
                self._skeletons[fingerprint] = entry

        # The label sweep's three backward-DAG completion bounds depend only
        # on the weighted skeleton, i.e. on structure *and* costs — so they
        # are keyed by the full problem fingerprint and reused whenever the
        # same costs are re-solved (identical re-submissions, replayed
        # queries), instead of paying three DAG passes per solve.
        from repro.graphs.dag import DagIndex

        index = DagIndex(graph.dwg.graph)   # shared by potentials + sweep
        cost_fp = problem_fingerprint(problem)
        potentials = entry["potentials"].get(cost_fp)
        potentials_reused = potentials is not None
        if potentials_reused:
            self.potentials_reuses += 1
        else:
            potentials = completion_potentials(graph.dwg, self._weighting,
                                               index)
            while len(entry["potentials"]) >= _POTENTIALS_PER_SKELETON:
                entry["potentials"].pop(next(iter(entry["potentials"])))
            entry["potentials"][cost_fp] = potentials

        warm_path = None
        incumbent = float("inf")
        record = self.index.get(fingerprint)
        if record is not None:
            try:
                warm_assignment = Assignment.from_cut(problem, record["cut"])
                warm_path = graph.assignment_to_path(warm_assignment)
                incumbent = self._measures.ssb_colored(warm_path)
            except (KeyError, ValueError):
                # foreign/stale record (fingerprint collision is ~impossible,
                # but a corrupt shared file is not): fall back to cold
                warm_path = None
                incumbent = float("inf")

        warm = warm_path is not None
        if warm and context is not None:
            context.report_incumbent(incumbent, source="warm-start")
        # with a warm incumbent the beam pre-pass has nothing left to do
        search = LabelDominanceSearch(weighting=self._weighting,
                                      beam_width=0 if warm else self.beam_width)
        result = search.search(graph.dwg, incumbent=incumbent, index=index,
                               context=context, potentials=potentials)

        if result.found:
            best_path = result.path
            best_ssb = result.ssb_weight
        elif warm:
            # nothing strictly beat the replayed cut: it is still optimal
            best_path = warm_path
            best_ssb = incumbent
        else:
            raise RuntimeError("the coloured assignment graph has no S-T path; "
                               "the instance admits no feasible assignment")

        assignment = graph.path_to_assignment(best_path)
        offloaded = [c for c in graph.path_to_cut(best_path)
                     if problem.tree.cru(c).is_processing]
        if result.interrupted is None:
            # an interrupted sweep's best path is not proven optimal: it must
            # not poison the shared warm-start index as if it were
            self.index.put(fingerprint, offloaded,
                           assignment.end_to_end_delay())
        if warm:
            self.warm_hits += 1
        else:
            self.cold_solves += 1

        details = {
            "ssb_weight": best_ssb,
            "structure_fingerprint": fingerprint,
            "warm_started": warm,
            "warm_incumbent": (incumbent if warm else None),
            "warm_cut_still_optimal": (warm and not result.found
                                       and result.interrupted is None),
            "skeleton_reused": skeleton_reused,
            "potentials_reused": potentials_reused,
            "labels_created": result.stats.labels_created,
            "labels_bound_pruned": result.stats.labels_bound_pruned,
            "profile": result.stats.profile(),
            "assignment_graph_edges": graph.number_of_edges(),
        }
        if result.interrupted is not None:
            details["interrupted"] = result.interrupted
        return assignment, details
