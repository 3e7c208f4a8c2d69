"""Pareto frontier engine benchmarks: label sweep, pruned DP, list filter.

Tracks the frontier kernels over time (the nightly smoke run emits
``BENCH_bench_frontier.json``):

* the label sweep over array buckets (completion bounds + probed windowed
  Pareto filter) across the scattered regime — the slow lane asserts that
  fully scattered ``n = 50`` solves exactly in single-digit seconds
  (measured ~1 s on a 2-core box), cross-checked by a second engine
  configuration with a different pruning trajectory;
* the **bound-pruned Pareto DP** through the old blowup wall (scattered
  ``n >= 30`` used to raise ``FrontierExplosion`` at any practical cap),
  cross-checked against the label engine — the differential harness's
  second oracle must stay cheap enough to run routinely;
* raw :func:`pareto_front` throughput (the list filter the DP settles its
  short per-node candidate lists with).
"""

import random
import time

import pytest

from repro.analysis.smoke import smoke_scaled
from repro.baselines.pareto_dp import pareto_dp_pruned_assignment
from repro.core.assignment_graph import build_assignment_graph
from repro.core.frontier import pareto_front
from repro.core.label_search import LabelDominanceSearch
from repro.workloads.generators import random_problem

SWEEP_SIZES = smoke_scaled((30, 40, 50), (14, 20))
DP_SIZES = smoke_scaled((20, 25, 30), (10, 14))
WALL_N = 50
SEED = 3


def scattered_graph(n_processing, seed=SEED):
    problem = random_problem(n_processing=n_processing, n_satellites=4,
                             seed=seed, sensor_scatter=1.0)
    return build_assignment_graph(problem)


@pytest.mark.parametrize("n_crus", SWEEP_SIZES)
def test_bench_bucketed_sweep_scattered(benchmark, n_crus):
    graph = scattered_graph(n_crus)
    engine = LabelDominanceSearch()
    result = benchmark(lambda: engine.search(graph.dwg))
    assert result.found


@pytest.mark.parametrize("n_crus", DP_SIZES)
def test_bench_pruned_dp_scattered(benchmark, n_crus):
    problem = random_problem(n_processing=n_crus, n_satellites=4,
                             seed=SEED, sensor_scatter=1.0)
    assignment, _ = benchmark(
        lambda: pareto_dp_pruned_assignment(problem))
    assert assignment.is_feasible()


def test_bench_pareto_front(benchmark):
    rng = random.Random(0)
    count = smoke_scaled(4000, 800)
    items = [(rng.random() * 10,
              tuple(rng.random() * 10 for _ in range(4)))
             for _ in range(count)]

    front = benchmark(lambda: pareto_front(items))
    assert 0 < len(front) < len(items)


@pytest.mark.slow
def test_scattered_n50_solves_exactly_in_single_digit_seconds():
    """The new wall: n=50 fully scattered, exact, < 10 s single-threaded
    (measured ~1.1 s on a 2-core box).  A different beam width and dominance window change
    the pruning trajectory and join order, never the optimum."""
    graph = scattered_graph(WALL_N)
    engine = LabelDominanceSearch()

    started = time.perf_counter()
    result = engine.search(graph.dwg)
    elapsed = time.perf_counter() - started

    assert result.found
    assert elapsed < 10.0, f"n={WALL_N} scattered took {elapsed:.2f}s"
    reference = LabelDominanceSearch(
        beam_width=32, dominance_window=256).search(graph.dwg)
    assert result.ssb_weight == reference.ssb_weight


@pytest.mark.slow
def test_pruned_dp_solves_scattered_n30_exactly():
    """The old FrontierExplosion regime: the pruned DP must agree with the
    label engine at scattered n=30 in seconds (measured ~0.2-1 s)."""
    for seed in (0, 1):
        problem = random_problem(n_processing=30, n_satellites=4, seed=seed,
                                 sensor_scatter=1.0)
        started = time.perf_counter()
        assignment, details = pareto_dp_pruned_assignment(problem)
        elapsed = time.perf_counter() - started
        assert elapsed < 20.0, f"pruned DP took {elapsed:.2f}s at seed {seed}"
        graph = build_assignment_graph(problem)
        reference = LabelDominanceSearch().search(graph.dwg)
        assert assignment.end_to_end_delay() == reference.ssb_weight
        assert details["labels_bound_pruned"] > 0
