"""Racing portfolio solver: feature-scheduled stages under one context.

No single engine is the best answer at every point of the instance space:
the maximal-offload cut is effectively free but unproven, the label-dominance
sweep is the production exact engine (and the only one standing on fully
scattered large instances), and the bound-pruned Pareto DP is an independent
exact construction that doubles as a cross-check oracle.  Metareasoning over
continual operations and hybrid search/inference DCOP solvers both converge
on the same production recipe for this class of problems: an *anytime
incumbent* plus *adaptive algorithm selection*.

:class:`PortfolioSolver` implements that recipe on top of the repo's
existing plumbing:

1. **features** — cheap instance features (offloadable size ``n``, colour
   count, star width and a *scatter ratio*: how non-contiguously each
   satellite's sensors sit in the tree) decide whether the cross-check runs;
2. **greedy seed** — the maximal-offload cut, built in one pass with no
   climb, reports its objective into the shared
   :class:`~repro.core.context.SolveContext`, so an answer exists
   microseconds in, whatever happens later;
3. **label sweep** — the main exact stage (the meet-in-the-middle sweep of
   :mod:`repro.core.label_search`), bounded by the best objective so far,
   under the same shared context; its beam pre-pass does the refining a
   hill-climb from the seed would;
4. **pruned-DP cross-check** — on small/compact instances (where it costs
   little), the independent exact engine *refutes* the answer in hand: its
   one exact pass is bounded by that answer's objective (no beam pre-pass),
   so it only has to prove that no assignment beats it.  If the answer were
   suboptimal, the true optimum lies strictly inside the bound, the DP
   finds it and the portfolio takes it; agreement is recorded in the
   details, disagreement is flagged loudly.

The stages share one context: each later stage starts from the best
incumbent any earlier stage reported, and a deadline or cancellation fires
across all of them at once — the best result held at that moment comes back
as a ``feasible`` answer with per-stage attribution in ``details``.

**Warm starts.**  A deployment re-solves the same reasoning tree whenever
its profiles or costs drift.  Given a
:class:`~repro.distributed.incremental.WarmStartIndex`, the solver looks up
the cut it last proved optimal for the instance's
:func:`~repro.distributed.incremental.structure_fingerprint`, values it
under the new weights and takes the better of it and the seed as the label
stage's incumbent (the cut is still feasible: only weights changed).  A
replayed cut is usually near-optimal, so the label stage then runs with no
beam pre-pass, and an uninterrupted solve puts its winning cut back.
Without an index the solve reads and writes nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.context import SolveContext
from repro.core.dwg import SSBWeighting
from repro.model.problem import AssignmentProblem

if TYPE_CHECKING:
    from repro.distributed.incremental import WarmStartIndex

#: ``cross_check="auto"`` runs the pruned-DP stage only up to this many
#: offloadable processing CRUs — beyond it the DP costs multiples of the
#: label sweep and would blow the portfolio's time-to-optimum regret.
_CROSS_CHECK_MAX_N = 14

#: "auto" also skips the cross-check on heavily scattered instances, where
#: the DP's frontiers are known to be the expensive regime.
_CROSS_CHECK_MAX_SCATTER = 0.75

#: Star shape threshold: ``star_width`` is ``max_branching / n_processing``.
#: Wide stars used to be the DP's grinding regime (one node folding most of
#: the instance into a single huge product); the streamed fold plus
#: per-colour completion floors fixed that, so past this width the
#: cross-check is *enabled* — with its own, larger size cap below — rather
#: than skipped.
_CROSS_CHECK_MAX_STAR_WIDTH = 0.5

#: Size cap of the wide-star cross-check: the streamed pruned DP solves
#: wide stars exactly in well under a second through n≈44 (see
#: ``bench_exact_engine``); past this cap even star-shaped folds get big.
_CROSS_CHECK_MAX_STAR_N = 48

def instance_features(problem: AssignmentProblem) -> Dict[str, Any]:
    """Cheap features steering the schedule: size, colours, scatter ratio.

    The scatter ratio measures, per satellite, how many separate "runs" of
    consecutive sensors (in tree DFS order) feed it: one run per satellite
    (clustered sensors — the paper's Figure-9 expansion regime) gives 0.0;
    every sensor its own run (fully scattered — the label engine's regime)
    gives 1.0.
    """
    tree = problem.tree
    order, _, size = tree.tree.preorder_index()
    correspondent = problem.correspondent_satellites()
    satellites = problem.system.satellite_ids()

    # sensors in pre-order, labelled by their correspondent satellite; the
    # same pass counts processing CRUs and the widest fan-out of any node
    # (star shape): the children of position i start at i + 1, each
    # following one a whole subtree later
    sensor_colors: List[str] = []
    n_processing = max_branching = 0
    for i, cru_id in enumerate(order):
        if tree.cru(cru_id).is_sensor:
            satellite = correspondent[cru_id]
            if satellite is not None:
                sensor_colors.append(satellite)
            continue
        n_processing += 1
        branching, child, end = 0, i + 1, i + size[i]
        while child < end:
            branching += 1
            child += size[child]
        max_branching = max(max_branching, branching)

    runs: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    previous: Optional[str] = None
    for color in sensor_colors:
        counts[color] = counts.get(color, 0) + 1
        if color != previous:
            runs[color] = runs.get(color, 0) + 1
        previous = color
    ratios = [(runs[c] - 1) / (counts[c] - 1)
              for c in counts if counts[c] > 1]
    scatter = sum(ratios) / len(ratios) if ratios else 0.0
    return {
        "n_processing": n_processing,
        "n_satellites": len(satellites),
        "n_sensors": len(sensor_colors),
        "scatter_ratio": scatter,
        "max_branching": max_branching,
        "star_width": max_branching / max(1, n_processing),
    }


def _stage_span(context: Optional[SolveContext], stage: str):
    """A ``stage:<stage>`` child of the traced solve's span, else None.

    Each exact stage's span carries that stage's engine profile, so no
    span mixes the label sweep's counters with the DP's."""
    span = context.span if context is not None else None
    return span.child(f"stage:{stage}") if span is not None else None


@dataclass
class StageOutcome:
    """Attribution record for one portfolio stage (JSON-safe)."""

    stage: str
    objective: Optional[float]
    elapsed_s: float
    improved: bool = False
    interrupted: Optional[str] = None
    skipped: Optional[str] = None       #: why the stage did not run
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "stage": self.stage,
            "objective": self.objective,
            "elapsed_s": self.elapsed_s,
            "improved": self.improved,
        }
        if self.interrupted:
            record["interrupted"] = self.interrupted
        if self.skipped:
            record["skipped"] = self.skipped
        if self.extra:
            record.update(self.extra)
        return record


class PortfolioSolver:
    """Staged racing portfolio over greedy / label sweep / pruned DP.

    Parameters
    ----------
    weighting:
        SSB weighting shared by every stage (default: end-to-end delay).
    cross_check:
        ``"auto"`` (default) runs the independent pruned-DP stage only when
        it is cheap relative to the sweep (small, not heavily scattered
        instances); ``True``/``"always"`` forces it, ``False``/``"never"``
        disables it.  The stage is a refutation pass: the DP is handed the
        best objective so far as its bound and must find nothing strictly
        better for ``cross_check_agreed`` to hold.
    beam_width:
        Beam width of the label stage's pre-pass, which refines the
        maximal-offload seed into the search's own incumbent.
    index:
        Optional :class:`~repro.distributed.incremental.WarmStartIndex`
        of the cuts last solved per tree structure (see the module notes);
        the details then add ``structure_fingerprint``, ``warm_started``,
        ``warm_incumbent`` and ``warm_cut_still_optimal``.
    """

    def __init__(self, weighting: Optional[SSBWeighting] = None,
                 cross_check: Any = "auto",
                 beam_width: int = 128,
                 index: Optional["WarmStartIndex"] = None) -> None:
        from repro.core.label_search import check_beam_width

        if cross_check not in ("auto", "always", "never", True, False):
            raise ValueError("cross_check must be 'auto', 'always'/'never' "
                             "or a boolean")
        self.weighting = weighting or SSBWeighting()
        self.cross_check = cross_check
        check_beam_width(beam_width)
        self.beam_width = beam_width
        self.index = index

    def _objective(self, assignment: Any) -> float:
        """The assignment's objective under the solver's weighting: the
        one value every stage's answer is compared by."""
        return self.weighting.combine(assignment.host_load(),
                                      assignment.max_satellite_load())

    # ------------------------------------------------------------------ solve
    def solve(self, problem: AssignmentProblem,
              context: Optional[SolveContext] = None
              ) -> Tuple[Any, Dict[str, Any]]:
        """Run the schedule; returns ``(assignment, details)`` runner-style."""
        from repro.baselines.greedy import maximal_offload_assignment
        from repro.baselines.pareto_dp import pareto_dp_pruned_assignment
        from repro.core.assignment_graph import build_assignment_graph
        from repro.core.label_search import LabelDominanceSearch

        features = instance_features(problem)
        stages: List[StageOutcome] = []
        interrupted: Optional[str] = None
        optimal_proven = False

        # ---- stage 1: greedy — the instant incumbent seed ----------------
        started = time.perf_counter()
        best_assignment = maximal_offload_assignment(problem)
        best_objective = self._objective(best_assignment)
        if context is not None:
            context.report_incumbent(best_objective, source="portfolio-greedy")
        interrupted = context.interrupted() if context is not None else None
        stages.append(StageOutcome(
            stage="greedy", objective=best_objective,
            elapsed_s=time.perf_counter() - started, improved=True,
            interrupted=interrupted))
        winner = "greedy"

        # ---- warm start: replay the cut last solved for this structure ---
        warm_objective: Optional[float] = None
        if self.index is not None:
            from repro.core.assignment import Assignment
            from repro.distributed.incremental import structure_fingerprint

            fingerprint = structure_fingerprint(problem)
            record = self.index.get(fingerprint)
            try:
                warm_assignment = (Assignment.from_cut(problem, record["cut"])
                                   if record is not None else None)
            except (KeyError, TypeError, ValueError):
                # a corrupt shared record: solve cold
                warm_assignment = None
            if warm_assignment is not None:
                warm_objective = self._objective(warm_assignment)
                if context is not None:
                    context.report_incumbent(warm_objective,
                                             source="warm-start")
                if warm_objective <= best_objective:
                    best_assignment = warm_assignment
                    best_objective = warm_objective
                    winner = "warm-start"

        # ---- stage 2: label-dominance sweep — the main exact engine ------
        if interrupted is None:
            started = time.perf_counter()
            graph = build_assignment_graph(problem)
            # a replayed cut leaves the beam pre-pass nothing to refine
            search = LabelDominanceSearch(
                weighting=self.weighting,
                beam_width=0 if warm_objective is not None
                else self.beam_width)
            stage_span = _stage_span(context, "labels")
            result = search.search(graph.dwg, incumbent=best_objective,
                                   context=context)
            if stage_span is not None:
                stage_span.profile = result.stats.profile()
                stage_span.finish()
            interrupted = result.interrupted
            improved = False
            if result.found:
                # compare in assignment space: the path-space SSB weight can
                # sit an ulp below the same objective (another summation
                # order), and every stage compares in assignment space
                candidate = graph.path_to_assignment(result.path)
                objective = self._objective(candidate)
                improved = objective < best_objective
                if improved:
                    best_assignment, best_objective = candidate, objective
                    winner = "labels"
            if interrupted is None:
                # nothing beat the answer in hand, or the sweep found the
                # optimum: either way it is proven
                optimal_proven = True
            stages.append(StageOutcome(
                stage="labels", objective=best_objective,
                elapsed_s=time.perf_counter() - started, improved=improved,
                interrupted=interrupted,
                extra={"labels_created": result.stats.labels_created,
                       "labels_bound_pruned": result.stats.labels_bound_pruned,
                       "beam_certified": result.stats.beam_certified,
                       # kept for perfbench's portfolio.bidir_share
                       "direction": "bidirectional"}))

        # ---- stage 3: pruned-DP cross-check (independent construction) ---
        cross_check_agreed: Optional[bool] = None
        want_check = self._wants_cross_check(features)
        if interrupted is not None:
            stages.append(StageOutcome(
                stage="dp-pruned", objective=None, elapsed_s=0.0,
                skipped="context fired before the stage started"))
        elif not want_check:
            stages.append(StageOutcome(
                stage="dp-pruned", objective=None, elapsed_s=0.0,
                skipped=self._skip_reason(features)))
        else:
            started = time.perf_counter()
            # refutation: the DP's one exact pass is bounded by the answer
            # in hand, so it only has to show that nothing beats it
            stage_span = _stage_span(context, "dp-pruned")
            dp_assignment, dp_details = pareto_dp_pruned_assignment(
                problem, weighting=self.weighting, context=context,
                incumbent=best_objective)
            if stage_span is not None:
                stage_span.profile = dp_details.get("profile")
                stage_span.finish()
            dp_objective = self._objective(dp_assignment)
            # an interrupted cross-check never downgrades the result: the
            # main stages already completed (or optimality was proven) by
            # the time this stage is allowed to run
            dp_interrupted = dp_details.get("interrupted")
            improved = dp_objective < best_objective
            if improved:
                # the sweep missed something the DP found: take it — and if
                # the sweep claimed optimality this is a loud inconsistency
                best_assignment, best_objective = dp_assignment, dp_objective
                winner = "dp-pruned"
                optimal_proven = False
            cross_check_agreed = (dp_interrupted is None
                                  and dp_objective == best_objective
                                  and not improved)
            stages.append(StageOutcome(
                stage="dp-pruned", objective=dp_objective,
                elapsed_s=time.perf_counter() - started, improved=improved,
                interrupted=dp_interrupted,
                extra={"agreed": cross_check_agreed}))

        details: Dict[str, Any] = {
            "objective": best_objective,
            "winner": winner,
            "features": features,
            "stages": [stage.as_dict() for stage in stages],
            "optimal_proven": optimal_proven and interrupted is None,
        }
        if cross_check_agreed is not None:
            details["cross_check_agreed"] = cross_check_agreed
        if interrupted is not None:
            details["interrupted"] = interrupted
        if self.index is not None:
            details.update(
                structure_fingerprint=fingerprint,
                warm_started=warm_objective is not None,
                warm_incumbent=warm_objective,
                warm_cut_still_optimal=(details["optimal_proven"]
                                        and warm_objective == best_objective))
            if interrupted is None:
                # an interrupted solve's answer is not proven optimal: it
                # must not reach a shared index as if it were
                tree = problem.tree
                self.index.put(fingerprint,
                               [c for c in best_assignment.cut_children()
                                if tree.cru(c).is_processing],
                               best_objective)
        return best_assignment, details

    # ---------------------------------------------------------------- policy
    def _wants_cross_check(self, features: Dict[str, Any]) -> bool:
        if self.cross_check in (False, "never"):
            return False
        if self.cross_check in (True, "always"):
            return True
        if features["star_width"] > _CROSS_CHECK_MAX_STAR_WIDTH:
            # wide stars are the streamed DP's good regime now: the star
            # fold runs through bounded chunks with per-colour floors
            return features["n_processing"] <= _CROSS_CHECK_MAX_STAR_N
        return (features["n_processing"] <= _CROSS_CHECK_MAX_N
                and features["scatter_ratio"] <= _CROSS_CHECK_MAX_SCATTER)

    def _skip_reason(self, features: Dict[str, Any]) -> str:
        if self.cross_check in (False, "never"):
            return "cross_check disabled"
        if features["star_width"] > _CROSS_CHECK_MAX_STAR_WIDTH:
            # wide stars only skip past the (large) star-specific size cap
            return (f"star n={features['n_processing']} > "
                    f"{_CROSS_CHECK_MAX_STAR_N} (auto policy)")
        if features["n_processing"] > _CROSS_CHECK_MAX_N:
            return (f"n={features['n_processing']} > "
                    f"{_CROSS_CHECK_MAX_N} (auto policy)")
        return (f"scatter_ratio={features['scatter_ratio']:.2f} > "
                f"{_CROSS_CHECK_MAX_SCATTER} (auto policy)")
