"""One-call solver facade.

``solve(problem)`` runs the paper's pipeline end to end:

1. colour the CRU tree (§5.1),
2. build the coloured doubly weighted assignment graph (§5.2, §5.3),
3. search it for the optimal SSB path with the adapted algorithm (§5.4),
4. convert the path back into an assignment and report the delay.

Alternative methods (exact references, Bokhari's objective, and the
heuristics the paper lists as future work) are exposed through the same entry
point.  Dispatch goes through the solver registry
(:mod:`repro.runtime.registry`), which also carries capability metadata the
batch runtime uses — the facade stays the convenient single-instance door.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.context import SolveContext, STATUS_OPTIMAL, ensure_context
from repro.core.dwg import SSBWeighting
from repro.model.problem import AssignmentProblem


@dataclass
class SolverResult:
    """Uniform result record returned by :func:`solve` for every method.

    ``status`` is one of :data:`repro.core.context.SOLVE_STATUSES`:
    ``"optimal"`` (exact solver ran to completion), ``"feasible"`` (a valid
    assignment without an optimality proof — a heuristic, or an anytime
    solver cut short by a deadline/cancellation, in which case
    ``details["interrupted"]`` records which), or ``"timeout"`` /
    ``"cancelled"`` (the context fired before any incumbent existed;
    ``assignment`` is ``None`` and ``objective`` is ``inf``).

    ``incumbent_history`` lists every strictly improving incumbent the solve
    reported, as ``(elapsed_s, objective, source)`` triples.
    """

    method: str
    assignment: Optional[Assignment]
    objective: float                      #: end-to-end delay of the assignment
    elapsed_s: float
    details: Dict[str, Any] = field(default_factory=dict)
    status: str = STATUS_OPTIMAL
    incumbent_history: List[Tuple[float, float, Optional[str]]] = \
        field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the result carries a valid assignment."""
        return self.assignment is not None

    @property
    def proven_optimal(self) -> bool:
        return self.status == STATUS_OPTIMAL

    @property
    def interrupted(self) -> Optional[str]:
        """Why the solve was cut short (``"deadline"``/``"cancelled"``/None)."""
        return self.details.get("interrupted")

    @property
    def end_to_end_delay(self) -> float:
        return self.assignment.end_to_end_delay()

    @property
    def bottleneck_time(self) -> float:
        return self.assignment.bottleneck_time()

    def summary(self) -> str:
        if self.assignment is None:
            return f"[{self.method}] {self.status}: no feasible incumbent " \
                   f"({self.elapsed_s * 1e3:.2f} ms)"
        note = "" if self.status == STATUS_OPTIMAL else f" {self.status}"
        if self.interrupted:
            note += f"/{self.interrupted}"
        return (f"[{self.method}]{note} delay={self.objective:.6g} "
                f"host={self.assignment.host_load():.6g} "
                f"max-satellite={self.assignment.max_satellite_load():.6g} "
                f"({self.elapsed_s * 1e3:.2f} ms)")


def available_methods() -> List[str]:
    """Canonical names accepted by :func:`solve` (aliases excluded)."""
    from repro.runtime.registry import default_registry

    return default_registry().names()


def solve(problem: AssignmentProblem,
          method: str = "colored-ssb",
          weighting: Optional[SSBWeighting] = None,
          validate: bool = True,
          context: Optional[SolveContext] = None,
          deadline_s: Optional[float] = None,
          **options: Any) -> SolverResult:
    """Solve an assignment problem with the requested method.

    Parameters
    ----------
    problem:
        The instance to solve.
    method:
        One of :func:`available_methods` (or a registered alias such as
        ``"bokhari-sb"`` / ``"random"`` / ``"labels"``).  ``"colored-ssb"``
        (default) is the paper's algorithm (label-dominance finisher; pass
        ``finisher="enumeration"`` for the historical Yen fallback);
        ``"colored-ssb-labels"`` runs the label-dominance DAG sweep alone;
        ``"brute-force"`` and ``"pareto-dp"`` are exact references;
        ``"sb-bottleneck"`` optimises Bokhari's objective; ``"dag-heft"`` and
        ``"dag-genetic"`` solve the §6 DAG relaxation and project the
        placement back; the rest are the heuristics the paper lists as
        future work.
    weighting:
        SSB weighting coefficients (default: plain sum ``S + B``, i.e. the
        end-to-end delay).
    validate:
        Run structural validation of the instance before solving.
    context:
        Optional :class:`~repro.core.context.SolveContext` carrying a
        deadline, a cancellation token and/or an incumbent callback.
        Every solver observes it at iteration granularity; anytime ones
        return their best incumbent as a ``feasible`` result when it fires.
        An inert context (no deadline, no token) leaves every solver
        bit-identical to a context-free call.
    deadline_s:
        Convenience wall-clock budget in seconds; builds (or tightens) the
        context.
    options:
        Method-specific keyword options (e.g. ``seed`` for the stochastic
        heuristics, ``generations`` for the genetic algorithm).
    """
    # Imported lazily to keep repro.core importable without the runtime
    # package (and to avoid import cycles).
    from repro.runtime.registry import default_registry

    spec = default_registry().resolve(method)
    if validate:
        problem.validate()
    return spec.solve(problem, weighting=weighting,
                      context=ensure_context(context, deadline_s), **options)
