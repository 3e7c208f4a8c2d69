"""Assignments of CRUs onto the host-satellites system and their delay.

An assignment maps every CRU to a device: the host or one of the satellites.
The paper's feasibility rules (implicit in §3 and made structural by the
colouring of §5.1) are:

* sensors stay on the satellite they are physically wired to,
* the root runs on the host (the context-aware application consumes the
  final, higher-level context there),
* if a processing CRU runs on satellite *q*, its whole subtree runs on *q*
  and *q* is its correspondent satellite (all of its sensors are wired to
  *q*) — satellites cannot exchange data with each other, only with the host.

The objective is the **end-to-end processing delay** (§3): the satellites
work in parallel; the host "cannot start processing unless it receives the
processed context information from all the precedent CRUs located on the
satellites", so

``delay = max over satellites q of (processing time on q + transfer time from
q to the host) + total processing time on the host``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.model.problem import AssignmentProblem

#: Device identifier used for the host in placement mappings.
HOST_DEVICE = "host"


class Assignment:
    """A placement of every CRU onto a device, plus its cost breakdown."""

    def __init__(self, problem: AssignmentProblem, placement: Mapping[str, str]) -> None:
        self.problem = problem
        self.placement: Dict[str, str] = dict(placement)
        cru_ids = set(problem.tree.cru_ids())
        missing = cru_ids.difference(self.placement)
        if missing:
            raise ValueError(f"placement misses CRUs: {sorted(missing)!r}")
        extra = self.placement.keys() - cru_ids
        if extra:
            raise ValueError(f"placement references unknown CRUs: {sorted(extra)!r}")

    # ------------------------------------------------------------- factories
    @staticmethod
    def host_only(problem: AssignmentProblem) -> "Assignment":
        """Every processing CRU on the host; sensors stay on their satellites."""
        placement: Dict[str, str] = {}
        for cru_id in problem.tree.cru_ids():
            if problem.tree.cru(cru_id).is_sensor:
                placement[cru_id] = problem.satellite_of_sensor(cru_id)
            else:
                placement[cru_id] = HOST_DEVICE
        return Assignment(problem, placement)

    @staticmethod
    def from_cut(problem: AssignmentProblem, cut_children: Iterable[str]) -> "Assignment":
        """Build an assignment from a *cut*: the set of tree-edge children whose
        subtrees are offloaded to their correspondent satellites.

        Every CRU inside a cut subtree goes to the subtree's correspondent
        satellite; everything else goes to the host (sensors always stay on
        their own satellite).
        """
        placement: Dict[str, str] = {}
        for cru_id in problem.tree.cru_ids():
            if problem.tree.cru(cru_id).is_sensor:
                placement[cru_id] = problem.satellite_of_sensor(cru_id)
            else:
                placement[cru_id] = HOST_DEVICE
        for child in cut_children:
            satellite = problem.correspondent_satellite(child)
            if satellite is None:
                raise ValueError(
                    f"subtree of {child!r} spans several satellites; it cannot be offloaded")
            for cru_id in problem.tree.subtree_ids(child):
                if problem.tree.cru(cru_id).is_sensor:
                    placement[cru_id] = problem.satellite_of_sensor(cru_id)
                else:
                    placement[cru_id] = satellite
        return Assignment(problem, placement)

    # --------------------------------------------------------------- queries
    def device_of(self, cru_id: str) -> str:
        return self.placement[cru_id]

    def is_on_host(self, cru_id: str) -> bool:
        return self.placement[cru_id] == HOST_DEVICE

    def host_crus(self) -> List[str]:
        """Processing CRUs placed on the host (pre-order)."""
        return [i for i in self.problem.tree.cru_ids()
                if self.is_on_host(i) and self.problem.tree.cru(i).is_processing]

    def satellite_crus(self, satellite_id: str) -> List[str]:
        """Processing CRUs placed on a given satellite (pre-order)."""
        return [i for i in self.problem.tree.cru_ids()
                if self.placement[i] == satellite_id
                and self.problem.tree.cru(i).is_processing]

    def cut_edges(self) -> List[Tuple[str, str]]:
        """Tree edges ``(parent, child)`` whose endpoints sit on different devices.

        These are exactly the edges whose data crosses a host-satellite link.
        """
        out = []
        for parent, child in self.problem.tree.edges():
            if self.placement[parent] != self.placement[child]:
                out.append((parent, child))
        return out

    def cut_children(self) -> List[str]:
        """Children of the cut edges — the roots of the offloaded subtrees
        plus the sensors whose raw data crosses the link."""
        return [child for _, child in self.cut_edges()]

    # ------------------------------------------------------------ feasibility
    def feasibility_errors(self) -> List[str]:
        """Violations of the paper's feasibility rules (empty when feasible)."""
        problem = self.problem
        tree = problem.tree
        errors: List[str] = []

        for sensor_id in tree.sensor_ids():
            expected = problem.satellite_of_sensor(sensor_id)
            if self.placement[sensor_id] != expected:
                errors.append(
                    f"sensor {sensor_id!r} must stay on satellite {expected!r}, "
                    f"found {self.placement[sensor_id]!r}")

        if not self.is_on_host(tree.root_id):
            errors.append(f"root {tree.root_id!r} must run on the host")

        for cru_id in tree.processing_ids():
            device = self.placement[cru_id]
            if device == HOST_DEVICE:
                continue
            if not problem.system.has_satellite(device):
                errors.append(f"{cru_id!r} placed on unknown device {device!r}")
                continue
            correspondent = problem.correspondent_satellite(cru_id)
            if correspondent != device:
                errors.append(
                    f"{cru_id!r} placed on {device!r} but its correspondent satellite "
                    f"is {correspondent!r}")
            for child in tree.children_ids(cru_id):
                child_device = self.placement[child]
                if tree.cru(child).is_sensor:
                    if problem.satellite_of_sensor(child) != device:
                        errors.append(
                            f"{cru_id!r} on {device!r} has sensor child {child!r} wired "
                            f"to {problem.satellite_of_sensor(child)!r}")
                elif child_device != device:
                    errors.append(
                        f"{cru_id!r} on satellite {device!r} has child {child!r} on "
                        f"{child_device!r}; a satellite CRU needs its whole subtree local")
        return errors

    def is_feasible(self) -> bool:
        return not self.feasibility_errors()

    # --------------------------------------------------------------- objective
    def host_load(self) -> float:
        """Total host execution time (the S component of the delay)."""
        return sum(self.problem.host_time(i) for i in self.host_crus())

    def satellite_load(self, satellite_id: str) -> float:
        """Execution plus uplink transfer time of one satellite."""
        return self.satellite_loads()[satellite_id]

    def satellite_loads(self) -> Dict[str, float]:
        """Execution plus uplink transfer time of every satellite.

        One pre-order pass adds each processing CRU's time to its device,
        then one edge pass adds the uplink cost of every edge whose data
        crosses from a satellite up to the host.  Per satellite that is the
        processing CRUs in pre-order, then its cut edges in edge order.
        """
        problem = self.problem
        tree = problem.tree
        placement = self.placement
        loads: Dict[str, float] = {sid: 0 for sid in problem.system.satellite_ids()}
        for cru_id in tree.processing_ids():
            device = placement[cru_id]
            if device in loads:
                loads[device] += problem.satellite_time(cru_id)
        for parent, child in tree.edges():
            device = placement[child]
            if (device in loads and device != HOST_DEVICE
                    and placement[parent] == HOST_DEVICE):
                loads[device] += problem.comm_cost(child, parent)
        return {sid: float(load) for sid, load in loads.items()}

    def bottleneck_satellite(self) -> Optional[str]:
        loads = self.satellite_loads()
        if not loads:
            return None
        return max(loads, key=lambda sid: loads[sid])

    def max_satellite_load(self) -> float:
        loads = self.satellite_loads()
        return max(loads.values()) if loads else 0.0

    def end_to_end_delay(self) -> float:
        """The paper's objective: ``max satellite load + host load``."""
        return self.max_satellite_load() + self.host_load()

    def bottleneck_time(self) -> float:
        """Bokhari's objective on the same placement: ``max(host load, max satellite load)``."""
        return max(self.host_load(), self.max_satellite_load())

    # ----------------------------------------------------------------- report
    def breakdown(self) -> Dict[str, float]:
        """Per-device cost breakdown (host plus every satellite)."""
        out = {HOST_DEVICE: self.host_load()}
        out.update(self.satellite_loads())
        return out

    def describe(self) -> str:
        """Multi-line human-readable description used by the CLI and examples."""
        lines = [f"end-to-end delay: {self.end_to_end_delay():.6g}"]
        lines.append(f"  host load: {self.host_load():.6g}  "
                     f"({', '.join(self.host_crus()) or 'no processing CRUs'})")
        loads = self.satellite_loads()
        for sid in self.problem.system.satellite_ids():
            crus = self.satellite_crus(sid)
            lines.append(
                f"  satellite {sid}: load {loads[sid]:.6g}  "
                f"({', '.join(crus) or 'sensors only'})")
        return "\n".join(lines)

    # ------------------------------------------------------------------ misc
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.placement == other.placement and self.problem is other.problem

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.placement.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        on_host = len(self.host_crus())
        return f"Assignment(host_crus={on_host}, delay={self.end_to_end_delay():.6g})"
