"""Portfolio-vs-best-single-solver benchmarks (nightly ``BENCH_bench_portfolio.json``).

The portfolio's promise is *no-regret algorithm selection*: on any instance
of the topology × scatter grid its **time-to-optimum** (the moment the final
best objective is first held, read off the context's incumbent history) must
stay within 1.2x of the best single solver for that instance — while also
providing what no single solver does: an incumbent from the first
millisecond and graceful behaviour under any deadline.

The parametrised benchmark rows track portfolio wall time across the grid;
the slow-lane test computes the actual per-instance regret against the
single-solver field (labels, dp-pruned, greedy) and asserts the acceptance
bar on the noise-robust subset (instances whose best time-to-optimum is
long enough to measure).
"""

import time

import pytest

from repro.analysis.smoke import smoke_scaled
from repro.core.context import SolveContext
from repro.core.solver import solve
from repro.workloads.generators import random_problem

#: (topology kwargs, scatter) grid — matches the differential harness axes.
GRID = [
    ("chain", dict(max_children=1), 0.5),
    ("star", dict(max_children=64), 0.5),
    ("balanced", dict(max_children=2), 0.3),
    ("scattered", dict(max_children=3), 1.0),
]

#: Sized for the regime deadlines exist for: sub-ms toys would only measure
#: noise, so the regret grid runs where the exact engines take milliseconds
#: to tenths of seconds.
SIZES = smoke_scaled((16, 30, 40), (8, 12))
SEED = 5

#: Single solvers the portfolio races against (greedy climbs from its seed cut).
FIELD = ["colored-ssb-labels", "pareto-dp-pruned", "greedy"]

#: Regret is only meaningful above measurement noise on a shared CI box.
_MIN_MEASURABLE_S = 0.005


def grid_problem(topology_kwargs, scatter, n, seed=SEED):
    return random_problem(n_processing=n, n_satellites=4, seed=seed,
                          sensor_scatter=scatter, **topology_kwargs)


def time_to_optimum(problem, method, deadline_s=None):
    """(wall seconds until the final objective was first held, objective).

    A context records every improving incumbent with a timestamp; the
    time-to-optimum is the moment of the last improvement — for an exact
    solver that is when the optimum is *found*, which can be long before the
    sweep finishes proving it.  ``deadline_s`` leans on the solvers' own
    anytime machinery so a single solver that grinds on a hostile topology
    (the pruned DP on wide stars) cannot hang the bench — a deadline-cut
    solver simply reports whatever incumbent it reached.
    """
    context = SolveContext(deadline_s=deadline_s)
    started = time.perf_counter()
    result = solve(problem, method=method, context=context)
    total = time.perf_counter() - started
    if result.incumbent_history:
        first_best = result.incumbent_history[-1][0]
        return min(first_best, total), result.objective
    return total, result.objective


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("topology,kwargs,scatter",
                         [(t, k, s) for t, k, s in GRID])
def test_bench_portfolio_grid(benchmark, topology, kwargs, scatter, n):
    problem = grid_problem(kwargs, scatter, n)
    result = benchmark(lambda: solve(problem, method="portfolio"))
    assert result.assignment.is_feasible()
    assert result.status == "optimal"


def test_bench_portfolio_deadline_smoke(benchmark):
    """A 100 ms budget on scattered n=50 must come back feasible, fast."""
    problem = grid_problem(dict(max_children=3), 1.0,
                           smoke_scaled(50, 30), seed=3)
    result = benchmark(lambda: solve(problem, method="portfolio",
                                     deadline_s=0.1))
    assert result.assignment is not None
    assert result.assignment.is_feasible()


@pytest.mark.slow
def test_portfolio_time_to_optimum_regret_within_1_2x():
    """The acceptance bar: per-instance regret vs the best single solver.

    Regret = portfolio time-to-optimum / best single-solver time-to-optimum
    *among solvers that actually reached the optimum* (greedy usually does
    not).  Asserted as a geometric mean over the measurable subset — single
    instances on a noisy shared box can wobble, systematic regret cannot.
    """
    def best_of(reps, problem, method, deadline_s=None):
        """Best-of-N time-to-optimum: ms-scale single samples on a shared
        box measure scheduler noise, not the solver."""
        samples = [time_to_optimum(problem, method, deadline_s)
                   for _ in range(reps)]
        return (min(t for t, _ in samples), min(obj for _, obj in samples))

    # warm up imports / numpy / first-graph-build before any timing
    warmup = grid_problem(dict(max_children=3), 1.0, 10)
    for method in FIELD + ["portfolio"]:
        solve(warmup, method=method)

    regrets = []
    rows = []
    for topology, kwargs, scatter in GRID:
        for n in (16, 30, 40):
            problem = grid_problem(kwargs, scatter, n)
            port_time, port_objective = best_of(2, problem, "portfolio")
            # each single solver gets 5s-deadlined runs; one that fails
            # to reach the optimum inside it is simply not the best solver
            # for this instance
            field = {method: best_of(2, problem, method, deadline_s=5.0)
                     for method in FIELD}
            optimum = min([objective for _, objective in field.values()]
                          + [port_objective])
            assert port_objective == optimum, (
                f"portfolio missed the optimum on {topology}/n={n}")
            best_time = min(
                (m_time for m_time, m_objective in field.values()
                 if m_objective == optimum), default=None)
            assert best_time is not None
            rows.append((topology, n, round(port_time, 4),
                         round(best_time, 4)))
            if best_time >= _MIN_MEASURABLE_S:
                regrets.append(max(port_time, 1e-9) / max(best_time, 1e-9))
    if not regrets:
        pytest.skip("every instance solved below the measurement floor")
    geo_mean = 1.0
    for regret in regrets:
        geo_mean *= regret
    geo_mean **= 1.0 / len(regrets)
    assert geo_mean <= 1.2, (
        f"portfolio time-to-optimum regret {geo_mean:.2f}x "
        f"(rows: {rows})")
