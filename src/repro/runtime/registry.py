"""Solver registry.

Every solving method is described by a :class:`SolverSpec`: a canonical name,
the callable implementing it, aliases, and capability/complexity metadata
(exact vs. heuristic, deterministic vs. stochastic, whether it honours an
:class:`~repro.core.dwg.SSBWeighting`).  The registry replaces the ad-hoc
``if method == ...`` dispatch that used to live in :mod:`repro.core.solver`:
the facade now resolves the method name here, and higher layers (the
:class:`~repro.runtime.runner.BatchRunner`, the CLI, the experiment drivers)
can introspect capabilities — e.g. the runner only derives per-task seeds for
specs flagged ``stochastic``.

The default registry carries the paper's algorithm plus every baseline:

``colored-ssb``        the paper's adapted SSB search (exact)
``colored-ssb-labels`` label-dominance DAG sweep meeting in the middle of the
                       assignment DAG, no elimination loop (exact; aliases
                       ``labels`` / ``label-search`` / ``colored-ssb-bidir``
                       / ``bidir``)
``colored-ssb-incremental`` the portfolio warm-started from the cut last
                       solved for the same tree structure (exact; alias
                       ``incremental``)
``brute-force``        full enumeration (exact reference)
``pareto-dp-pruned``   bound-pruned Pareto DP: beam incumbent + completion
                       potentials, exact through the scattered n>=30 blowup
                       regime (aliases ``dp-pruned`` / ``pareto-dp``)
``branch-and-bound``   exact B&B over feasible cuts
``sb-bottleneck``      Bokhari's bottleneck objective (alias ``bokhari-sb``)
``greedy``             hill-climbing heuristic
``random-search``      Monte-Carlo search (alias ``random``)
``genetic``            GA heuristic
``dag-heft``           HEFT on the §6 DAG relaxation, projected to a feasible cut
``dag-genetic``        GA on the §6 DAG relaxation, projected to a feasible cut
``portfolio``          staged racing portfolio under one anytime context
                       (alias ``auto``)

Every spec observes a :class:`~repro.core.context.SolveContext`
cooperatively; ``anytime`` ones return their best incumbent as a ``feasible``
result when the context fires.  The one spec without the flag, ``dag-heft``,
holds no incumbent until it finishes, so an expired budget surfaces as a
``timeout`` result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.context import (
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    SolveContext,
    SolveInterrupted,
)
from repro.core.dwg import SSBWeighting
from repro.model.problem import AssignmentProblem
from repro.observability.metrics import default_metrics


def _observe_convergence(method: str, history: List[Any]) -> None:
    """Feed a solve's incumbent history into the convergence histograms.

    ``history[0]`` is the first feasible incumbent, ``history[-1]`` the best
    one found; their elapsed offsets are the paper-relevant anytime quality
    signals (how fast a feasible answer exists, how fast it stops
    improving), aggregated per method.
    """
    if not history:
        return
    metrics = default_metrics()
    metrics.histogram(
        "repro_incumbent_first_seconds",
        "Seconds until a solve's first feasible incumbent, by method",
    ).observe(history[0][0], method=method)
    metrics.histogram(
        "repro_incumbent_best_seconds",
        "Seconds until a solve's final best incumbent, by method",
    ).observe(history[-1][0], method=method)


class UnknownSolverError(ValueError):
    """Raised when a method name matches neither a solver nor an alias."""

    def __init__(self, name: str, available: List[str]) -> None:
        super().__init__(f"unknown method {name!r}; available: {available}")
        self.name = name
        self.available = available


# A runner takes (problem, weighting, options) and returns (assignment, details).
SolverCallable = Callable[
    [AssignmentProblem, Optional[SSBWeighting], Mapping[str, Any]],
    Tuple[Any, Dict[str, Any]],
]


@dataclass(frozen=True)
class SolverSpec:
    """One registered solving method plus its capability metadata."""

    name: str
    runner: SolverCallable
    description: str = ""
    exact: bool = False                 #: guaranteed to return the optimum
    stochastic: bool = False            #: consumes a ``seed`` option
    supports_weighting: bool = False    #: honours an SSBWeighting objective
    anytime: bool = False               #: returns a feasible incumbent on expiry
    complexity: str = "?"               #: informal worst-case complexity
    aliases: Tuple[str, ...] = ()
    limits: Tuple[str, ...] = ()        #: known blowup regimes / hard caps

    def solve(self, problem: AssignmentProblem,
              weighting: Optional[SSBWeighting] = None,
              context: Optional[SolveContext] = None,
              **options: Any) -> "SolverResult":
        """Run the method and wrap the outcome in a uniform result record.

        ``context`` is forwarded into the runner as the ``"context"``
        option; every runner polls it.  The result's ``status`` is derived
        here: ``optimal`` for an exact spec that ran uninterrupted,
        ``feasible`` otherwise; a context that fires before
        the solver holds any incumbent surfaces as a ``timeout``/
        ``cancelled`` result with no assignment.
        """
        from repro.core.solver import SolverResult

        started = time.perf_counter()
        run_options = dict(options)
        if context is not None:
            run_options["context"] = context
        # On a traced solve, wrap this method in its own child span and point
        # context.span at it for the runner's duration, so incumbent events
        # fired inside the runner attach to the method that produced them;
        # the span carries the runner's details["profile"], when it has one.
        parent_span = context.span if context is not None else None
        method_span = None
        if parent_span is not None:
            method_span = parent_span.child(f"method:{self.name}")
            context.span = method_span
        try:
            assignment, details = self.runner(problem, weighting, run_options)
        except SolveInterrupted as exc:
            if method_span is not None:
                context.span = parent_span
                method_span.finish(interrupted=exc.kind, status=exc.status)
            interrupted_history = (list(context.incumbent_history)
                                   if context is not None else [])
            _observe_convergence(self.name, interrupted_history)
            return SolverResult(
                method=self.name,
                assignment=None,
                objective=float("inf"),
                elapsed_s=time.perf_counter() - started,
                details={"interrupted": exc.kind},
                status=exc.status,
                incumbent_history=interrupted_history,
            )
        except BaseException as exc:
            if method_span is not None:
                context.span = parent_span
                method_span.finish(error=f"{type(exc).__name__}: {exc}")
            raise
        elapsed = time.perf_counter() - started
        objective = assignment.end_to_end_delay()
        interrupted = details.get("interrupted")
        status = STATUS_OPTIMAL if (self.exact and not interrupted) \
            else STATUS_FEASIBLE
        if method_span is not None:
            context.span = parent_span
            method_span.set_attr("status", status)
            method_span.set_attr("objective", objective)
            method_span.profile = details.get("profile")
            method_span.finish()
        history: List[Tuple[float, float, Optional[str]]] = []
        if context is not None:
            # the final objective always enters the history, even for solvers
            # that report no intermediate incumbents
            context.report_incumbent(objective, source=self.name)
            history = list(context.incumbent_history)
            _observe_convergence(self.name, history)
        return SolverResult(
            method=self.name,
            assignment=assignment,
            objective=objective,
            elapsed_s=elapsed,
            details=details,
            status=status,
            incumbent_history=history,
        )

    def metadata(self) -> Dict[str, Any]:
        """Capability metadata as a plain dict (for tables / JSON output)."""
        return {
            "name": self.name,
            "description": self.description,
            "exact": self.exact,
            "stochastic": self.stochastic,
            "supports_weighting": self.supports_weighting,
            "anytime": self.anytime,
            "complexity": self.complexity,
            "aliases": list(self.aliases),
            "limits": list(self.limits),
        }


class SolverRegistry:
    """Name -> :class:`SolverSpec` mapping with alias resolution."""

    def __init__(self) -> None:
        self._specs: Dict[str, SolverSpec] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------ population
    def register(self, spec: SolverSpec) -> SolverSpec:
        if spec.name in self._specs or spec.name in self._aliases:
            raise ValueError(f"solver {spec.name!r} is already registered")
        for alias in spec.aliases:
            if alias in self._specs or alias in self._aliases:
                raise ValueError(f"alias {alias!r} is already registered")
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    def register_solver(self, name: str, **metadata: Any
                        ) -> Callable[[SolverCallable], SolverCallable]:
        """Decorator form of :meth:`register`."""
        def decorate(runner: SolverCallable) -> SolverCallable:
            self.register(SolverSpec(name=name, runner=runner, **metadata))
            return runner
        return decorate

    # ------------------------------------------------------------ resolution
    def canonical_name(self, name: str) -> str:
        if name in self._specs:
            return name
        if name in self._aliases:
            return self._aliases[name]
        raise UnknownSolverError(name, self.names())

    def resolve(self, name: str) -> SolverSpec:
        return self._specs[self.canonical_name(name)]

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self, include_aliases: bool = False) -> List[str]:
        names = list(self._specs)
        if include_aliases:
            names += sorted(self._aliases)
        return names

    def specs(self) -> List[SolverSpec]:
        return list(self._specs.values())


# --------------------------------------------------------------------------
# Default registry: the paper's algorithm and every baseline.
# --------------------------------------------------------------------------
def _run_colored_ssb(problem: AssignmentProblem, weighting: Optional[SSBWeighting],
                     options: Mapping[str, Any]):
    from repro.core.assignment_graph import build_assignment_graph
    from repro.core.colored_ssb import ColoredSSBSearch

    graph = build_assignment_graph(problem)
    search = ColoredSSBSearch(weighting=weighting,
                              enable_expansion=options.get("enable_expansion", True),
                              finisher=options.get("finisher", "labels"))
    result = search.search(graph.dwg, context=options.get("context"))
    if not result.found:
        raise RuntimeError("the coloured assignment graph has no S-T path; "
                           "the instance admits no feasible assignment")
    assignment = graph.path_to_assignment(result.path)
    details = {
        "ssb_weight": result.ssb_weight,
        "s_weight": result.s_weight,
        "b_weight": result.b_weight,
        "iterations": result.iteration_count,
        "expansions": result.expansions,
        "enumerated_paths": result.enumerated_paths,
        "termination": result.termination,
        "finisher": result.finisher,
        "assignment_graph_edges": graph.number_of_edges(),
        "search_result": result,
        "assignment_graph": graph,
    }
    if result.label_stats is not None:
        details["profile"] = result.label_stats.profile()
    if result.interrupted:
        details["interrupted"] = result.interrupted
    return assignment, details


def _run_colored_ssb_labels(problem: AssignmentProblem,
                            weighting: Optional[SSBWeighting],
                            options: Mapping[str, Any]):
    """Pure label-dominance solve: one DAG sweep, no elimination loop."""
    from repro.core.assignment_graph import build_assignment_graph
    from repro.core.label_search import LabelDominanceSearch

    graph = build_assignment_graph(problem)
    search = LabelDominanceSearch(
        weighting=weighting,
        beam_width=options.get("beam_width", 128),
        dominance_window=options.get("dominance_window", 128))
    result = search.search(graph.dwg, context=options.get("context"))
    if not result.found:
        raise RuntimeError("the coloured assignment graph has no S-T path; "
                           "the instance admits no feasible assignment")
    assignment = graph.path_to_assignment(result.path)
    details = {
        "ssb_weight": result.ssb_weight,
        "s_weight": result.s_weight,
        "b_weight": result.b_weight,
        "labels_created": result.stats.labels_created,
        "labels_dominated": result.stats.labels_dominated,
        "labels_bound_pruned": result.stats.labels_bound_pruned,
        "beam_ssb": result.stats.beam_ssb,
        "profile": result.stats.profile(),
        "assignment_graph_edges": graph.number_of_edges(),
        "search_result": result,
        "assignment_graph": graph,
    }
    if result.interrupted:
        details["interrupted"] = result.interrupted
    return assignment, details


def _run_brute_force(problem, weighting, options):
    from repro.baselines import brute_force_assignment
    return brute_force_assignment(problem, weighting=weighting,
                                  context=options.get("context"))


#: Safety-valve cap of the bound-pruned DP.  Its per-state frontiers stay in
#: the hundreds through scattered n=40 (peak ~5.6k), so the cap only fires
#: on instances far beyond anything the pruning was calibrated for —
#: a true valve, not an expected failure mode.
PARETO_DP_PRUNED_MAX_FRONTIER = 65536


def _run_pareto_dp_pruned(problem, weighting, options):
    from repro.baselines import pareto_dp_pruned_assignment
    return pareto_dp_pruned_assignment(
        problem, weighting=weighting,
        max_frontier=options.get("max_frontier", PARETO_DP_PRUNED_MAX_FRONTIER),
        beam_width=options.get("beam_width", 16),
        context=options.get("context"))


def _run_bokhari_sb(problem, weighting, options):
    from repro.baselines import bokhari_sb_assignment
    return bokhari_sb_assignment(problem, context=options.get("context"))


def _run_greedy(problem, weighting, options):
    from repro.baselines import greedy_assignment
    return greedy_assignment(problem, **options)


def _run_random_search(problem, weighting, options):
    from repro.baselines import random_search_assignment
    return random_search_assignment(problem, **options)


def _run_genetic(problem, weighting, options):
    from repro.baselines import genetic_assignment
    return genetic_assignment(problem, **options)


def _run_branch_and_bound(problem, weighting, options):
    from repro.baselines import branch_and_bound_assignment
    return branch_and_bound_assignment(problem, **options)


def _run_dag_heft(problem, weighting, options):
    from repro.extensions.bridge import dag_placement_to_assignment, problem_to_dag
    from repro.extensions.dag_heuristics import heft_placement

    tasks, resources = problem_to_dag(problem)
    placement, info = heft_placement(tasks, resources,
                                     context=options.get("context"))
    assignment = dag_placement_to_assignment(problem, placement)
    return assignment, {"dag_makespan": info["makespan"],
                        "projected_delay": assignment.end_to_end_delay()}


def _run_dag_genetic(problem, weighting, options):
    from repro.extensions.bridge import dag_placement_to_assignment, problem_to_dag
    from repro.extensions.dag_heuristics import genetic_dag_placement

    tasks, resources = problem_to_dag(problem)
    placement, info = genetic_dag_placement(
        tasks, resources,
        population_size=options.get("population_size", 30),
        generations=options.get("generations", 40),
        mutation_rate=options.get("mutation_rate", 0.1),
        seed=options.get("seed"),
        context=options.get("context"))
    assignment = dag_placement_to_assignment(problem, placement)
    details = {"dag_makespan": info["makespan"],
               "dag_evaluations": info["evaluations"],
               "projected_delay": assignment.end_to_end_delay()}
    if "interrupted" in info:
        details["interrupted"] = info["interrupted"]
    return assignment, details


def _run_portfolio(problem, weighting, options, index=None):
    """Staged racing portfolio (see :mod:`repro.core.portfolio`)."""
    from repro.core.portfolio import PortfolioSolver

    solver = PortfolioSolver(weighting=weighting,
                             cross_check=options.get("cross_check", "auto"),
                             beam_width=options.get("beam_width", 128),
                             index=index)
    return solver.solve(problem, context=options.get("context"))


def _run_portfolio_warm(problem, weighting, options):
    """The portfolio warm-started from a :class:`WarmStartIndex`.

    Options: ``index`` (in-process callers), ``warm_dir`` (directory of a
    shared on-disk index — what spool workers inject), ``beam_width``
    (the pre-pass width of a solve with no cut to replay); with neither
    index option the process-wide default index is used.
    """
    from repro.distributed.incremental import WarmStartIndex, default_warm_index

    index = options.get("index")
    if index is None:
        index = (WarmStartIndex(directory=options["warm_dir"])
                 if options.get("warm_dir") else default_warm_index())
    # the cross-check follows the "auto" policy: this spec has no option
    # for it
    return _run_portfolio(problem, weighting,
                          {**options, "cross_check": "auto"}, index=index)


_DEFAULT_SPECS: Tuple[SolverSpec, ...] = (
    SolverSpec(
        name="colored-ssb",
        runner=_run_colored_ssb,
        anytime=True,
        description="the paper's adapted SSB search on the coloured assignment graph",
        exact=True,
        supports_weighting=True,
        complexity="O(|V|^2 |E|) on the assignment graph",
    ),
    SolverSpec(
        name="colored-ssb-labels",
        runner=_run_colored_ssb_labels,
        anytime=True,
        description="label-dominance sweep on the coloured assignment "
                    "graph: forward and backward half-sweeps meet in the "
                    "middle and join over the crossing edges",
        exact=True,
        supports_weighting=True,
        complexity="O(labels * out-degree) per half with Pareto/bound "
                   "pruning; join bounded by the per-colour and average "
                   "meet floors",
        aliases=("labels", "label-search", "colored-ssb-bidir", "bidir"),
    ),
    SolverSpec(
        name="colored-ssb-incremental",
        runner=_run_portfolio_warm,
        anytime=True,
        description="the portfolio warm-started from the cut last solved for "
                    "the same tree structure (profiles/costs may differ)",
        exact=True,
        supports_weighting=True,
        complexity="the portfolio's; the label sweep is bounded by the "
                   "replayed cut",
        aliases=("incremental",),
    ),
    SolverSpec(
        name="brute-force",
        runner=_run_brute_force,
        anytime=True,
        description="full enumeration of feasible cuts (exact reference)",
        exact=True,
        supports_weighting=True,
        complexity="exponential in the number of offloadable subtrees",
    ),
    SolverSpec(
        name="pareto-dp-pruned",
        runner=_run_pareto_dp_pruned,
        anytime=True,
        description="bound-pruned Pareto tree DP: beam-pre-pass incumbent + "
                    "completion-DAG potentials, exact optimum without "
                    "materialising the frontier",
        exact=True,
        supports_weighting=True,
        complexity="output-sensitive in the *pruned* frontier size",
        aliases=("dp-pruned", "pareto-dp"),
        limits=(f"safety valve: raises FrontierExplosion past max_frontier "
                f"(default {PARETO_DP_PRUNED_MAX_FRONTIER}) if an instance "
                f"defeats the pruning (calibrated exact through scattered "
                f"n=40); use colored-ssb-labels there",),
    ),
    SolverSpec(
        name="sb-bottleneck",
        runner=_run_bokhari_sb,
        anytime=True,
        description="Bokhari's bottleneck objective max(host, max satellite)",
        complexity="polynomial (SB path search)",
        aliases=("bokhari-sb",),
    ),
    SolverSpec(
        name="greedy",
        runner=_run_greedy,
        anytime=True,
        description="hill-climbing from the maximal-offload cut",
        complexity="O(steps * |T|)",
    ),
    SolverSpec(
        name="random-search",
        runner=_run_random_search,
        anytime=True,
        description="best of N uniformly sampled feasible cuts",
        stochastic=True,
        complexity="O(samples * |T|)",
        aliases=("random",),
    ),
    SolverSpec(
        name="genetic",
        runner=_run_genetic,
        anytime=True,
        description="genetic algorithm over offload-preference chromosomes",
        stochastic=True,
        complexity="O(generations * population * |T|)",
    ),
    SolverSpec(
        name="branch-and-bound",
        runner=_run_branch_and_bound,
        anytime=True,
        description="exact branch-and-bound over feasible cuts",
        exact=True,
        complexity="exponential worst case, pruned in practice",
    ),
    SolverSpec(
        name="dag-heft",
        runner=_run_dag_heft,
        description="HEFT list scheduling on the §6 DAG relaxation, "
                    "projected back to a feasible cut",
        complexity="O(|T|^2 * |R|)",
        aliases=("heft",),
    ),
    SolverSpec(
        name="dag-genetic",
        runner=_run_dag_genetic,
        anytime=True,
        description="genetic placement on the §6 DAG relaxation, "
                    "projected back to a feasible cut",
        stochastic=True,
        complexity="O(generations * population * |T|)",
    ),
    SolverSpec(
        name="portfolio",
        runner=_run_portfolio,
        description="feature-scheduled racing portfolio: maximal-offload "
                    "incumbent seed, label-dominance main stage, pruned-DP "
                    "cross-check, all under one shared anytime context",
        exact=True,
        supports_weighting=True,
        anytime=True,
        complexity="dominated by the label sweep; the seed cut is O(|T|)",
        aliases=("auto",),
    ),
)

_default: Optional[SolverRegistry] = None


def default_registry() -> SolverRegistry:
    """The process-wide registry holding the paper's method and all baselines."""
    global _default
    if _default is None:
        registry = SolverRegistry()
        for spec in _DEFAULT_SPECS:
            registry.register(spec)
        _default = registry
    return _default
