"""E10: optimality of the adapted SSB search.

The paper claims the algorithm "can find the path corresponding to the
optimal assignment which minimizes the end-to-end processing delay".  The
benchmark checks the returned delay against two independent exact references
(full enumeration and the bound-pruned Pareto tree DP) over a sweep of
random instances — both the clustered regime the paper illustrates and the
scattered-sensor regime that exercises the generalised fallback — and
measures the runtime of each solver on a common instance.
"""

import pytest

from repro.analysis.experiments import optimality_experiment
from repro.analysis.smoke import smoke_scaled
from repro.baselines import brute_force_assignment
from repro.core.solver import solve
from repro.workloads.generators import random_problem


@pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
def test_no_mismatch_against_exact_references(scatter):
    outcome = optimality_experiment(seeds=range(smoke_scaled(8, 2)),
                                    n_processing=9, n_satellites=3,
                                    sensor_scatter=scatter)
    assert outcome["mismatches"] == 0


BENCH_PROBLEM = dict(n_processing=12, n_satellites=4, seed=2, sensor_scatter=0.3)


def test_bench_colored_ssb_solver(benchmark):
    problem = random_problem(**BENCH_PROBLEM)
    result = benchmark(lambda: solve(problem))
    assert result.assignment.is_feasible()


def test_bench_brute_force_solver(benchmark):
    problem = random_problem(**BENCH_PROBLEM)
    assignment, _ = benchmark(lambda: brute_force_assignment(problem))
    assert assignment.is_feasible()
