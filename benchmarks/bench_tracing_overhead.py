"""Tracing overhead: the observability layer must be ~free when off.

Compares the scattered exact sweep across three tracer configurations (the
engines hold no tracing code; a traced solve's method span takes the
engine's ``details["profile"]`` once the engine returns):

* **untraced** — no tracer anywhere, the historical baseline;
* **disabled** — a ``Tracer(None)`` wired into the runner, exercising the
  "is tracing on?" guards on every dispatch;
* **sampled at 1%** — a real spool-backed tracer whose head sampler rejects
  this problem's hash, exercising the per-task sampling decision.

The benchmark trio feeds the ``BENCH_bench_tracing_overhead.json`` smoke
artifact; the slow-lane guard pins the acceptance numbers (disabled <= 1%
overhead, 1% sampling <= 5%) with paired per-round CPU-time ratios plus a
structural check that tracing-off runs write no spans and return the
untraced details, profile included.
"""

import time

import pytest

from repro.analysis.smoke import smoke_scaled
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer, load_spans, sampled
from repro.runtime.runner import BatchRunner
from repro.workloads.generators import random_problem

SEED = 3
BENCH_N = smoke_scaled(22, 12)
GUARD_N = 30


def scattered_problem(n_processing):
    return random_problem(
        n_processing=n_processing, n_satellites=4, seed=SEED, sensor_scatter=1.0
    )


def _runner(tracer=None):
    return BatchRunner(workers=0, tracer=tracer)


def _sampling_tracer(directory):
    return Tracer.for_spool(
        str(directory), sample_rate=0.01, registry=MetricsRegistry()
    )


def test_one_percent_sampling_rejects_this_instance(tmp_path):
    # the guard below times the sampled-out path; make sure it really is
    # sampled out, otherwise the comparison silently measures full tracing
    report = _runner(_sampling_tracer(tmp_path)).run([scattered_problem(BENCH_N)])
    assert report.results[0].ok
    assert load_spans(str(tmp_path)) == []


def test_bench_untraced_sweep(benchmark):
    problem = scattered_problem(BENCH_N)
    report = benchmark(lambda: _runner().run([problem]))
    assert report.results[0].ok


def test_bench_disabled_tracer_sweep(benchmark):
    problem = scattered_problem(BENCH_N)
    tracer = Tracer(None)
    report = benchmark(lambda: _runner(tracer).run([problem]))
    assert report.results[0].ok


def test_bench_sampled_out_sweep(benchmark, tmp_path):
    problem = scattered_problem(BENCH_N)
    tracer = _sampling_tracer(tmp_path)
    report = benchmark(lambda: _runner(tracer).run([problem]))
    assert report.results[0].ok


# Measurement-noise grace added on top of the relative budgets. Shared CI
# hardware shows several percent of per-round jitter even on paired CPU-time
# ratios of identical code; the best-round estimator below absorbs most of
# it, and this term covers the rest without hiding a real regression (any
# tracing work leaking into the untraced path costs far more than 3%, and
# is additionally caught structurally below).
NOISE_GRACE = 0.02


def _interleaved_cpu_times(rounds, thunks):
    """Per-round CPU time of each configuration, measured round-robin.

    Interleaving is the point: timing each configuration in its own block
    would let slow machine drift (thermal, frequency scaling, page cache)
    masquerade as overhead of whichever configuration ran last. CPU time
    (``time.process_time``) rather than wall time excludes scheduler
    preemption, the dominant noise source on shared hardware; the sweep is
    single-threaded and CPU-bound, so CPU time captures all of its work.
    """
    times = {name: [] for name in thunks}
    for _ in range(rounds):
        for name, fn in thunks.items():
            started = time.process_time()
            fn()
            times[name].append(time.process_time() - started)
    return times


def _best_paired_ratio(times, name):
    """Minimum per-round ratio of ``name`` vs the untraced baseline.

    Pairing within a round cancels drift (both configurations saw the same
    machine state seconds apart); taking the best round across the batch
    exploits determinism: the quietest round exposes the true relative
    cost, while a real regression beyond budget inflates every round and
    cannot produce a single passing pair.
    """
    return min(t / u for t, u in zip(times[name], times["untraced"]))


@pytest.mark.slow
def test_tracing_overhead_stays_inside_budget(tmp_path):
    """Acceptance: <= 1% overhead disabled, <= 5% at 1% head sampling.

    A single n=30 solve is ~tens of milliseconds, inside timer noise for a
    1% budget — so the guard times a 10-instance sweep (hundreds of ms of
    CPU) and compares per-round paired CPU-time ratios. The timing check is
    backed by a deterministic structural one: with tracing off or sampled
    out, no spans may be written and every solve's details, profile
    included, must equal the untraced run's.
    """
    problems = [
        random_problem(
            n_processing=GUARD_N, n_satellites=4, seed=seed, sensor_scatter=1.0
        )
        for seed in range(10)
    ]
    sampler = _sampling_tracer(tmp_path)
    baseline = _runner().run(problems)
    # the 1% path must sample (almost) everything out, or the comparison
    # silently measures full tracing instead of the sampling decision
    assert sum(sampled(item.key, 0.01) for item in baseline.results) == 0

    # structural half of the budget: with tracing off or sampled out, no
    # spans reach disk and every solve is bit-identical to untraced
    for tracer in (Tracer(None), sampler):
        report = _runner(tracer).run(problems)
        for item, base in zip(report.results, baseline.results):
            assert item.objective == base.objective
            assert item.details.get("profile") == base.details.get("profile")
    assert load_spans(str(tmp_path)) == []

    times = _interleaved_cpu_times(
        7,
        {
            "untraced": lambda: _runner().run(problems),
            "disabled": lambda: _runner(Tracer(None)).run(problems),
            "sampled": lambda: _runner(sampler).run(problems),
        },
    )
    disabled = _best_paired_ratio(times, "disabled")
    sampled_out = _best_paired_ratio(times, "sampled")

    assert disabled <= 1.01 + NOISE_GRACE, (
        f"disabled tracer costs {disabled - 1:.2%} in its quietest round "
        f"(budget 1% + {NOISE_GRACE:.0%} measurement grace)"
    )
    assert sampled_out <= 1.05 + NOISE_GRACE, (
        f"1% sampling costs {sampled_out - 1:.2%} in its quietest round "
        f"(budget 5% + {NOISE_GRACE:.0%} measurement grace)"
    )
