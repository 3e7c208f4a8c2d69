"""Experiment drivers — one function per experiment id of DESIGN.md.

Each driver returns a list of plain dict rows (so the benchmarks, the CLI and
EXPERIMENTS.md all print identical numbers) plus whatever summary values its
assertions need.  The drivers deliberately avoid pytest/benchmark imports so
they can be reused anywhere.

Instance sweeps (E5, E8, E10, E11) fan out through the batch runtime
(:class:`repro.runtime.BatchRunner`): serial and in-process by default so the
numbers match the historical single-threaded drivers bit-for-bit, multicore
when ``REPRO_BATCH_WORKERS`` is set.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.complexity import fit_power_law, timed
from repro.core.assignment_graph import build_assignment_graph
from repro.core.coloring import color_tree
from repro.core.colored_ssb import ColoredSSBSearch
from repro.core.labeling import label_assignment_graph
from repro.core.solver import solve
from repro.core.ssb import SSBSearch
from repro.extensions.dag_heuristics import (
    exhaustive_dag_placement,
    genetic_dag_placement,
    heft_placement,
    random_dag_placement,
)
from repro.extensions.dag_model import DAGTask, DAGTaskGraph, Resource, ResourceGraph
from repro.model.problem import AssignmentProblem
from repro.runtime import BatchRunner
from repro.simulation import ExecutionPolicy, simulate_assignment
from repro.workloads import (
    dwg_scaling_family,
    figure4_dwg,
    healthcare_scenario,
    paper_example_problem,
    random_problem,
    snmp_scenario,
    tree_scaling_family,
)

ExperimentRow = Dict[str, object]


def _solved(report):
    """Re-raise batch errors-as-data so drivers fail with the solver's message
    (the behaviour the pre-runner serial loops had)."""
    for item in report:
        if not item.ok:
            raise RuntimeError(f"{item.method} failed on "
                               f"{item.tag or f'task {item.index}'}: {item.error}")
    return report


# ----------------------------------------------------------------------- E1
def figure4_experiment() -> Dict[str, object]:
    """E1: the Figure-4 walk-through of the SSB algorithm."""
    result = SSBSearch().search(figure4_dwg())
    rows: List[ExperimentRow] = []
    for it in result.iterations:
        rows.append({
            "iteration": it.index,
            "min_S_path_S": it.s_weight,
            "min_S_path_B": it.b_weight,
            "path_SSB": it.ssb_weight,
            "candidate_after": it.candidate_after,
            "edges_removed": len(it.removed_edge_keys),
        })
    return {
        "rows": rows,
        "optimal_ssb_weight": result.ssb_weight,
        "optimal_s_weight": result.s_weight,
        "optimal_b_weight": result.b_weight,
        "shortest_path_searches": result.shortest_path_searches,
        "termination": result.termination,
    }


# ----------------------------------------------------------------------- E2
def coloring_experiment(problem: Optional[AssignmentProblem] = None) -> Dict[str, object]:
    """E2: colour propagation and conflict detection on the Figure-2 tree."""
    problem = problem or paper_example_problem()
    colored = color_tree(problem)
    rows = [{
        "edge": f"{parent}->{child}",
        "satellite": colored.edge_satellite(parent, child) or "-",
        "color": colored.edge_color(parent, child) or "conflict",
        "conflicted": colored.is_conflicted(parent, child),
    } for parent, child in problem.tree.edges()]
    return {
        "rows": rows,
        "conflicted_edges": colored.conflicted_edges(),
        "forced_host_crus": colored.forced_host_crus(),
    }


# ----------------------------------------------------------------------- E3
def assignment_graph_experiment(problem: Optional[AssignmentProblem] = None) -> Dict[str, object]:
    """E3: structure of the coloured assignment graph."""
    problem = problem or paper_example_problem()
    graph = build_assignment_graph(problem)
    rows = [{
        "assignment_edge": f"F{edge.tail}->F{edge.head}",
        "crosses_tree_edge": "->".join(graph.tree_edge_of(edge)),
        "color": next(iter(edge.data["beta"].keys())),
        "sigma": edge.data["sigma"],
        "beta": sum(edge.data["beta"].values()),
    } for edge in graph.dwg.edges()]
    conflicted = graph.colored_tree.conflicted_edges()
    return {
        "rows": rows,
        "faces": graph.num_faces,
        "edges": graph.number_of_edges(),
        "tree_edges": len(problem.tree.edges()),
        "conflicted_tree_edges": len(conflicted),
    }


# ----------------------------------------------------------------------- E4
def labeling_experiment(problem: Optional[AssignmentProblem] = None) -> Dict[str, object]:
    """E4: the σ (Figure 8) and β labels of every tree edge."""
    problem = problem or paper_example_problem()
    sigma_labels, beta_labels = label_assignment_graph(problem)
    rows = [{
        "tree_edge": f"{parent}->{child}",
        "sigma_host_weight": sigma_labels[(parent, child)],
        "beta_satellite_weight": beta_labels[(parent, child)],
    } for parent, child in problem.tree.edges()]
    return {"rows": rows, "sigma_labels": sigma_labels, "beta_labels": beta_labels}


# ----------------------------------------------------------------------- E5
def adapted_ssb_experiment(problems: Optional[Sequence[AssignmentProblem]] = None
                           ) -> Dict[str, object]:
    """E5: the adapted SSB search end to end on representative instances."""
    if problems is None:
        problems = [paper_example_problem(), healthcare_scenario(), snmp_scenario()]
    report = _solved(BatchRunner().solve_many(problems, method="colored-ssb"))
    rows: List[ExperimentRow] = []
    for problem, item in zip(problems, report):
        rows.append({
            "instance": problem.name,
            "delay": item.objective,
            "host_load": item.assignment.host_load(),
            "max_satellite_load": item.assignment.max_satellite_load(),
            "iterations": item.details["iterations"],
            "expansions": item.details["expansions"],
            "termination": item.details["termination"],
            "graph_edges": item.details["assignment_graph_edges"],
        })
    return {"rows": rows}


# ----------------------------------------------------------------------- E6
def complexity_ssb_experiment(sizes: Sequence[int] = (8, 16, 32, 64, 128),
                              edges_per_node: int = 3, seed: int = 7) -> Dict[str, object]:
    """E6: empirical scaling of the general SSB algorithm (§4.2 claim O(|V|²|E|))."""
    rows: List[ExperimentRow] = []
    ns, times = [], []
    for n, dwg in dwg_scaling_family(sizes=sizes, edges_per_node=edges_per_node, seed=seed):
        search = SSBSearch(keep_trace=False)
        result, elapsed = timed(lambda d=dwg: search.search(d))
        rows.append({
            "nodes": n,
            "edges": dwg.number_of_edges(),
            "iterations": result.iteration_count,
            "time_s": elapsed,
            "ssb_weight": result.ssb_weight,
        })
        ns.append(n)
        times.append(max(elapsed, 1e-9))
    _, exponent = fit_power_law(ns, times)
    return {"rows": rows, "fitted_exponent": exponent, "predicted_exponent_upper_bound": 3.0}


# ----------------------------------------------------------------------- E7
def complexity_colored_experiment(sizes: Sequence[int] = (8, 12, 16, 20),
                                  n_satellites: int = 4, seed: int = 11) -> Dict[str, object]:
    """E7: empirical scaling of the adapted algorithm on coloured graphs (§5.4)."""
    rows: List[ExperimentRow] = []
    edge_counts, times = [], []
    for n, problem in tree_scaling_family(sizes=sizes, n_satellites=n_satellites,
                                          sensor_scatter=0.0, seed=seed):
        graph = build_assignment_graph(problem)
        search = ColoredSSBSearch(keep_trace=False)
        result, elapsed = timed(lambda g=graph: search.search(g.dwg))
        rows.append({
            "processing_crus": n,
            "assignment_graph_edges": graph.number_of_edges(),
            "iterations": result.iteration_count,
            "expansions": result.expansions,
            "time_s": elapsed,
            "delay": result.ssb_weight,
        })
        edge_counts.append(graph.number_of_edges())
        times.append(max(elapsed, 1e-9))
    _, exponent = fit_power_law(edge_counts, times)
    return {"rows": rows, "fitted_exponent_vs_edges": exponent}


# ---------------------------------------------------------------------- E7b
def label_engine_experiment(sizes: Sequence[int] = (10, 14, 18, 22, 26, 30),
                            n_satellites: int = 4, seed: int = 3,
                            yen_cutoff: int = 18) -> Dict[str, object]:
    """E7b: the label-dominance finisher across the scattered-sensor regime.

    Sweeps fully scattered instances (``sensor_scatter=1.0`` — the regime
    where the Figure-9 expansion never applies) with the label engine, and
    runs the Yen-enumeration finisher head-to-head up to ``yen_cutoff``
    processing CRUs (beyond that enumeration is infeasible; its column reads
    NaN).  Both finishers must agree wherever both finish.
    """
    rows: List[ExperimentRow] = []
    for n in sizes:
        problem = random_problem(n_processing=n, n_satellites=n_satellites,
                                 seed=seed, sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        label_search = ColoredSSBSearch(keep_trace=False, finisher="labels")
        label_result, label_time = timed(lambda g=graph: label_search.search(g.dwg))
        stats = label_result.label_stats
        row: ExperimentRow = {
            "processing_crus": n,
            "assignment_graph_edges": graph.number_of_edges(),
            "delay": label_result.ssb_weight,
            "label_time_s": label_time,
            "labels_created": stats.labels_created if stats else 0,
            "labels_pruned": stats.labels_bound_pruned if stats else 0,
            "yen_time_s": float("nan"),
            "speedup": float("nan"),
        }
        if n <= yen_cutoff:
            yen_search = ColoredSSBSearch(keep_trace=False, finisher="enumeration")
            yen_result, yen_time = timed(lambda g=graph: yen_search.search(g.dwg))
            if yen_result.ssb_weight != label_result.ssb_weight:
                raise RuntimeError(
                    f"finisher disagreement at n={n}: labels "
                    f"{label_result.ssb_weight} vs enumeration {yen_result.ssb_weight}")
            row["yen_time_s"] = yen_time
            row["speedup"] = yen_time / max(label_time, 1e-9)
        rows.append(row)
    return {"rows": rows, "scatter": 1.0, "yen_cutoff": yen_cutoff}


# ---------------------------------------------------------------------- E7c
def incremental_resolve_experiment(seeds: Sequence[int] = tuple(range(6)),
                                   n_processing: int = 20, n_satellites: int = 4,
                                   drift: float = 0.05,
                                   rounds: int = 3) -> Dict[str, object]:
    """E7c: warm-started re-solve when only profiles/costs drift.

    For each seed, solve a scattered instance cold, then re-solve ``rounds``
    structurally identical copies whose execution profiles drifted by up to
    ``drift`` (uniformly per CRU).  The warm solves reuse the previous
    optimal cut as the portfolio's incumbent (the tree hash is unchanged,
    so the old cut is still feasible); every warm result is checked against
    an independent cold solve.  Reported per seed: cold vs mean warm solve
    time and label counts, plus how often the old cut was simply
    re-confirmed.
    """
    import random as _random

    from repro.core.portfolio import PortfolioSolver
    from repro.distributed.incremental import WarmStartIndex

    def labels_created(details: Dict[str, Any]) -> int:
        return {stage["stage"]: stage
                for stage in details["stages"]}["labels"]["labels_created"]

    rows: List[ExperimentRow] = []
    total_cold_s = total_warm_s = 0.0
    for seed in seeds:
        solver = PortfolioSolver(index=WarmStartIndex())

        def fresh() -> AssignmentProblem:
            return random_problem(n_processing=n_processing,
                                  n_satellites=n_satellites, seed=seed,
                                  sensor_scatter=1.0)

        (_, cold_details), cold_time = timed(lambda: solver.solve(fresh()))
        warm_time_total = 0.0
        warm_labels = 0
        reconfirmed = 0
        rng = _random.Random(seed * 7919 + 13)
        for _ in range(rounds):
            drifted = fresh()
            for cru_id, seconds in list(drifted.profile.host_times().items()):
                drifted.profile.set_host_time(
                    cru_id, seconds * rng.uniform(1 - drift, 1 + drift))
            for cru_id, seconds in list(drifted.profile.satellite_times().items()):
                drifted.profile.set_satellite_time(
                    cru_id, seconds * rng.uniform(1 - drift, 1 + drift))
            drifted.invalidate_caches()
            (assignment, details), elapsed = timed(
                lambda p=drifted: solver.solve(p))
            if not details["warm_started"]:
                raise RuntimeError(f"warm start missed at seed {seed}")
            reference = solve(drifted, method="colored-ssb-labels")
            if abs(assignment.end_to_end_delay() - reference.objective) > 1e-9:
                raise RuntimeError(
                    f"incremental re-solve disagreement at seed {seed}: "
                    f"{assignment.end_to_end_delay()} vs {reference.objective}")
            warm_time_total += elapsed
            warm_labels += labels_created(details)
            reconfirmed += int(details["warm_cut_still_optimal"])
        warm_mean = warm_time_total / rounds
        total_cold_s += cold_time
        total_warm_s += warm_mean
        rows.append({
            "seed": seed,
            "cold_time_s": cold_time,
            "warm_time_s": warm_mean,
            "speedup": cold_time / max(warm_mean, 1e-9),
            "cold_labels": labels_created(cold_details),
            "warm_labels": warm_labels // rounds,
            "reconfirmed": reconfirmed,
        })
    return {
        "rows": rows,
        "drift": drift,
        "mean_speedup": total_cold_s / max(total_warm_s, 1e-9),
    }


# ----------------------------------------------------------------------- E8
def ssb_vs_sb_experiment(seeds: Sequence[int] = tuple(range(10)),
                         n_processing: int = 12, n_satellites: int = 4,
                         sensor_scatter: float = 0.3) -> Dict[str, object]:
    """E8: end-to-end delay (SSB) versus bottleneck (SB) objective comparison."""
    problems = [random_problem(n_processing=n_processing, n_satellites=n_satellites,
                               seed=seed, sensor_scatter=sensor_scatter)
                for seed in seeds]
    runner = BatchRunner()
    ssb_report = _solved(runner.solve_many(problems, method="colored-ssb"))
    sb_report = _solved(runner.solve_many(problems, method="bokhari-sb"))
    rows: List[ExperimentRow] = []
    ssb_wins = 0
    ties = 0
    for seed, ssb_item, sb_item in zip(seeds, ssb_report, sb_report):
        delay_ssb = ssb_item.objective
        delay_sb = sb_item.objective
        bottleneck_ssb = ssb_item.assignment.bottleneck_time()
        bottleneck_sb = sb_item.assignment.bottleneck_time()
        if delay_ssb < delay_sb - 1e-9:
            ssb_wins += 1
        elif abs(delay_ssb - delay_sb) <= 1e-9:
            ties += 1
        rows.append({
            "seed": seed,
            "delay_ssb_optimal": delay_ssb,
            "delay_sb_optimal": delay_sb,
            "delay_ratio_sb_over_ssb": delay_sb / delay_ssb if delay_ssb else float("nan"),
            "bottleneck_ssb_optimal": bottleneck_ssb,
            "bottleneck_sb_optimal": bottleneck_sb,
        })
    return {"rows": rows, "ssb_wins_or_ties": ssb_wins + ties, "instances": len(list(seeds))}


# ----------------------------------------------------------------------- E9
def simulation_validation_experiment(problems: Optional[Sequence[AssignmentProblem]] = None
                                     ) -> Dict[str, object]:
    """E9: analytic SSB delay versus simulated delay (barrier and eager policies)."""
    if problems is None:
        problems = [paper_example_problem(), healthcare_scenario(), snmp_scenario()]
    rows: List[ExperimentRow] = []
    max_gap = 0.0
    for problem in problems:
        result = solve(problem, method="colored-ssb")
        assignment = result.assignment
        barrier = simulate_assignment(problem, assignment, ExecutionPolicy.paper_model())
        eager = simulate_assignment(problem, assignment, ExecutionPolicy.eager())
        gap = abs(barrier.end_to_end_delay - assignment.end_to_end_delay())
        max_gap = max(max_gap, gap)
        rows.append({
            "instance": problem.name,
            "analytic_delay": assignment.end_to_end_delay(),
            "simulated_delay_barrier": barrier.end_to_end_delay,
            "simulated_delay_eager": eager.end_to_end_delay,
            "barrier_gap": gap,
            "eager_speedup": assignment.end_to_end_delay() - eager.end_to_end_delay,
        })
    return {"rows": rows, "max_barrier_gap": max_gap}


# ---------------------------------------------------------------------- E10
def optimality_experiment(seeds: Sequence[int] = tuple(range(12)),
                          n_processing: int = 9, n_satellites: int = 3,
                          sensor_scatter: float = 0.5) -> Dict[str, object]:
    """E10: the adapted SSB search agrees with brute force and the
    bound-pruned Pareto DP (``pareto-dp-pruned``), two exact references that
    share no search code with it."""
    problems = [random_problem(n_processing=n_processing, n_satellites=n_satellites,
                               seed=seed, sensor_scatter=sensor_scatter)
                for seed in seeds]
    runner = BatchRunner()
    by_method = {method: _solved(runner.solve_many(problems, method=method))
                 for method in ("colored-ssb", "brute-force", "pareto-dp-pruned")}
    rows: List[ExperimentRow] = []
    mismatches = 0
    for i, seed in enumerate(seeds):
        ssb = by_method["colored-ssb"].results[i].objective
        brute = by_method["brute-force"].results[i].objective
        dp = by_method["pareto-dp-pruned"].results[i].objective
        agree = abs(ssb - brute) < 1e-9 and abs(ssb - dp) < 1e-9
        if not agree:
            mismatches += 1
        rows.append({
            "seed": seed,
            "colored_ssb": ssb,
            "brute_force": brute,
            "pareto_dp_pruned": dp,
            "agree": agree,
        })
    return {"rows": rows, "mismatches": mismatches}


# ---------------------------------------------------------------------- E11
def heuristics_experiment(seeds: Sequence[int] = tuple(range(8)),
                          n_processing: int = 14, n_satellites: int = 4,
                          sensor_scatter: float = 0.3) -> Dict[str, object]:
    """E11: heuristics (greedy / random / GA / B&B) against the exact optimum."""
    seeds = list(seeds)
    problems = [random_problem(n_processing=n_processing, n_satellites=n_satellites,
                               seed=seed, sensor_scatter=sensor_scatter)
                for seed in seeds]
    runner = BatchRunner()
    optimal_report = _solved(runner.solve_many(problems, method="colored-ssb"))
    greedy_report = _solved(runner.solve_many(problems, method="greedy"))
    rand_report = _solved(runner.solve_many(problems, method="random", samples=100,
                                            seeds=seeds))
    ga_report = _solved(runner.solve_many(problems, method="genetic", generations=30,
                                          population_size=24, seeds=seeds))
    bnb_report = _solved(runner.solve_many(problems, method="branch-and-bound"))
    rows: List[ExperimentRow] = []
    for i, seed in enumerate(seeds):
        optimal = optimal_report.results[i].objective
        greedy = greedy_report.results[i].objective
        rand = rand_report.results[i].objective
        ga = ga_report.results[i].objective
        bnb = bnb_report.results[i].objective
        rows.append({
            "seed": seed,
            "optimal": optimal,
            "greedy": greedy,
            "random_search": rand,
            "genetic": ga,
            "branch_and_bound": bnb,
            "greedy_gap_pct": 100.0 * (greedy / optimal - 1.0),
            "genetic_gap_pct": 100.0 * (ga / optimal - 1.0),
        })
    return {"rows": rows}


# ---------------------------------------------------------------------- E12
def _sample_dag_instance(seed: int = 0, n_tasks: int = 8, n_resources: int = 3
                         ) -> Tuple[DAGTaskGraph, ResourceGraph]:
    """A small DAG-tasks / DAG-resources instance for the extension experiment."""
    import random as _random

    rng = _random.Random(seed)
    tasks = DAGTaskGraph()
    resources = ResourceGraph()

    resource_ids = [f"r{i}" for i in range(n_resources)]
    for i, rid in enumerate(resource_ids):
        resources.add_resource(Resource(rid, speed=1.0 + i))
    for i in range(n_resources):
        for j in range(i + 1, n_resources):
            resources.connect(resource_ids[i], resource_ids[j], rate=rng.uniform(50, 200))

    for i in range(n_tasks):
        pinned = resource_ids[i % n_resources] if i < n_resources else None
        tasks.add_task(DAGTask(f"t{i}", work=rng.uniform(1, 5), pinned_to=pinned))
    for i in range(n_tasks):
        for j in range(i + 1, n_tasks):
            if rng.random() < 0.3:
                tasks.add_dependency(f"t{i}", f"t{j}", data_volume=rng.uniform(1, 50))
    # make sure the DAG is connected enough to be interesting
    for j in range(1, n_tasks):
        if not tasks.predecessors(f"t{j}"):
            tasks.add_dependency(f"t{j - 1}", f"t{j}", data_volume=rng.uniform(1, 50))
    return tasks, resources


def dag_extension_experiment(seeds: Sequence[int] = tuple(range(5)),
                             n_tasks: int = 8, n_resources: int = 3) -> Dict[str, object]:
    """E12: HEFT / GA / random against the exact optimum on small DAG instances."""
    rows: List[ExperimentRow] = []
    for seed in seeds:
        tasks, resources = _sample_dag_instance(seed=seed, n_tasks=n_tasks,
                                                n_resources=n_resources)
        exact, _ = exhaustive_dag_placement(tasks, resources)
        heft, _ = heft_placement(tasks, resources)
        ga, _ = genetic_dag_placement(tasks, resources, seed=seed)
        rand = random_dag_placement(tasks, resources, seed=seed)
        rows.append({
            "seed": seed,
            "exact_makespan": exact.makespan(),
            "heft_makespan": heft.makespan(),
            "genetic_makespan": ga.makespan(),
            "random_makespan": rand.makespan(),
            "heft_gap_pct": 100.0 * (heft.makespan() / exact.makespan() - 1.0),
        })
    return {"rows": rows}
