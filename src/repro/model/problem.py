"""The assignment problem instance.

:class:`AssignmentProblem` bundles everything §3 of the paper requires:

* the CRU tree (context reasoning procedure),
* the host-satellites system,
* the a-priori known physical attachment of every sensor to a satellite,
* the execution-time profile (``h_i``, ``s_i``),
* the communication cost model (``c_ij``, ``c_{s,i}``).

It also exposes the derived quantities the constructions of §5 need, most
importantly the *correspondent satellite* of a CRU: the unique satellite all
of the CRU's subtree sensors are wired to (if the subtree spans several
satellites, the CRU has no correspondent satellite and can only execute on
the host).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.model.costs import CommunicationCostModel
from repro.model.cru import CRUTree
from repro.model.platform import HostSatelliteSystem
from repro.model.profiles import ExecutionProfile


class AssignmentProblem:
    """A complete instance of the CRU-tree-to-host-satellites problem."""

    def __init__(
        self,
        tree: CRUTree,
        system: HostSatelliteSystem,
        sensor_attachment: Mapping[str, str],
        profile: ExecutionProfile,
        costs: Optional[CommunicationCostModel] = None,
        name: str = "assignment-problem",
    ) -> None:
        self.tree = tree
        self.system = system
        self.sensor_attachment: Dict[str, str] = dict(sensor_attachment)
        self.profile = profile
        self.costs = costs if costs is not None else CommunicationCostModel()
        self.name = name
        self._correspondent_cache: Optional[Dict[str, Optional[str]]] = None
        self._fingerprint_cache: Optional[str] = None

    # --------------------------------------------------------------- timing
    def host_time(self, cru_id: str) -> float:
        """``h_i``: execution time of CRU ``i`` on the host."""
        return self.profile.host_time(cru_id)

    def satellite_time(self, cru_id: str) -> float:
        """``s_i``: execution time of CRU ``i`` on its correspondent satellite."""
        return self.profile.satellite_time(cru_id)

    def comm_cost(self, child_id: str, parent_id: str) -> float:
        """``c_{child,parent}``: time to ship the child's output over the link."""
        return self.costs.cost(child_id, parent_id)

    # --------------------------------------------------- satellites / colours
    def satellite_of_sensor(self, sensor_id: str) -> str:
        """The satellite a sensor is physically wired to."""
        return self.sensor_attachment[sensor_id]

    def satellites_under(self, cru_id: str) -> Set[str]:
        """Satellites that own at least one sensor in the subtree of ``cru_id``."""
        return {
            self.sensor_attachment[s]
            for s in self.tree.subtree_sensor_ids(cru_id)
            if s in self.sensor_attachment
        }

    def correspondent_satellites(self) -> Dict[str, Optional[str]]:
        """CRU id -> correspondent satellite id (or ``None``).

        A CRU's correspondent satellite is the unique satellite all sensors of
        its subtree are attached to; CRUs whose subtree spans several
        satellites (or none) have no correspondent satellite and must run on
        the host.  Sensors map to their attached satellite.
        """
        return dict(self._correspondents())

    def correspondent_satellite(self, cru_id: str) -> Optional[str]:
        return self._correspondents()[cru_id]

    def offload_costs(self) -> Dict[str, float]:
        """Non-root CRU id -> ``β_u``, the satellite-side cost of cutting above it.

        ``β_u`` (§5.3) is the satellite time of every processing CRU in the
        subtree of ``u`` plus ``c_{u,parent}``, the uplink of ``u``'s output.
        A subtree is a contiguous slice of the tree's pre-order, so each entry
        is one slice sum.  Not memoised: profiles may be edited in place.
        """
        tree = self.tree
        order, _, size = tree.tree.preorder_index()
        times = [self.satellite_time(u) if tree.cru(u).is_processing else 0.0
                 for u in order]
        return {u: float(sum(times[i:i + size[i]])
                         + self.comm_cost(u, tree.parent_id(u)))
                for i, u in enumerate(order) if i}

    def _correspondents(self) -> Dict[str, Optional[str]]:
        """The memoised correspondent map (shared; callers must not mutate)."""
        if self._correspondent_cache is not None:
            return self._correspondent_cache
        result: Dict[str, Optional[str]] = {}
        # post-order so children are resolved before parents
        sat_sets: Dict[str, Set[str]] = {}
        for cru_id in self.tree.postorder():
            if self.tree.cru(cru_id).is_sensor:
                sat = self.sensor_attachment.get(cru_id)
                sat_sets[cru_id] = {sat} if sat is not None else set()
            else:
                union: Set[str] = set()
                for child in self.tree.children_ids(cru_id):
                    union |= sat_sets[child]
                sat_sets[cru_id] = union
            sats = sat_sets[cru_id]
            result[cru_id] = next(iter(sats)) if len(sats) == 1 else None
        self._correspondent_cache = result
        return result

    def color_of_satellite(self, satellite_id: str) -> str:
        return self.system.color_of(satellite_id)

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Delegates to :func:`repro.model.validation.validate_problem`."""
        from repro.model.validation import validate_problem

        validate_problem(self)

    def invalidate_caches(self) -> None:
        """Drop memoised derived data after in-place mutation (rarely needed)."""
        self._correspondent_cache = None
        self._fingerprint_cache = None

    # ----------------------------------------------------------------- misc
    def summary(self) -> str:
        """One-paragraph human-readable description used by the CLI."""
        sensors = self.tree.sensor_ids()
        return (
            f"{self.name}: {self.tree.number_of_crus()} CRUs "
            f"({len(self.tree.processing_ids())} processing, {len(sensors)} sensors), "
            f"{self.system.number_of_satellites()} satellites "
            f"({', '.join(self.system.satellite_ids())}), host "
            f"{self.system.host.host_id!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"AssignmentProblem(name={self.name!r}, crus={self.tree.number_of_crus()})"
