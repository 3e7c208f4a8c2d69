"""E5 (Figures 9 & 10): the adapted SSB search on coloured assignment graphs.

Runs the paper's algorithm end to end (colouring → assignment graph →
adapted search → assignment) on the three bundled scenarios and checks the
returned delay equals the exact optimum; the benchmark measures the full
pipeline on the paper's own example.
"""

import pytest

from repro.analysis.experiments import adapted_ssb_experiment
from repro.baselines import brute_force_assignment
from repro.core.solver import solve


def test_adapted_ssb_is_optimal_on_all_scenarios(paper_problem, healthcare_problem,
                                                 snmp_problem):
    for problem in (paper_problem, healthcare_problem, snmp_problem):
        result = solve(problem)
        brute, _ = brute_force_assignment(problem)
        assert result.objective == pytest.approx(brute.end_to_end_delay()), problem.name


def test_adapted_ssb_experiment_rows(paper_problem, healthcare_problem, snmp_problem):
    outcome = adapted_ssb_experiment([paper_problem, healthcare_problem, snmp_problem])
    assert len(outcome["rows"]) == 3
    for row in outcome["rows"]:
        assert row["delay"] == pytest.approx(row["host_load"] + row["max_satellite_load"])


def test_bench_figure10_full_pipeline(benchmark, paper_problem):
    result = benchmark(lambda: solve(paper_problem))
    assert result.objective == pytest.approx(7.6)
