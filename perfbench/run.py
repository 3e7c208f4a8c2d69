"""The repository benchmark: one workload per run, answers checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

* ``gateway-unique`` — never-seen small instances through ``repro gateway``;
* ``gateway-hot``    — 32 instances with Zipf popularity, cache warmed first;
* ``solve-small``    — in-process ``solve(p, method="portfolio")`` on n 8-20;
* ``solve-scattered``— the same on scattered n=50, k=4, seeds 0-19, whole
  passes.

Every answer is compared with a committed reference optimum.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from a run that measures
an untraced phase and a traced phase back to back.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gateway_load  # noqa: E402
import instances  # noqa: E402
import speed  # noqa: E402
from layer_trace import LAYER_NAMES  # noqa: E402

#: Program launches per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untimed gateway-unique requests before measuring (worker lazy imports).
UNIQUE_WARMUP = 8
#: Upper bound on gateway-unique request rate the prepared stream covers;
#: past it the stream runs out and the run ends early.
UNIQUE_MAX_RATE = 180
#: Same for gateway-hot (only 32 distinct bodies, so the stream is cheap).
HOT_MAX_RATE = 5000
#: solve-small: operations in each phase of the traced run.
SMALL_TRACED_OPS = 600
#: Gateway load runs in blocks; throughput is the median block rate.
#: gateway-hot is CPU-bound: short blocks, each bracketed by calibration
#: samples (see speed.py).  gateway-unique is bound by poll sleeps, not by
#: CPU, and is timed in plain wall seconds.
HOT_BLOCK_S = 0.25
UNIQUE_BLOCK_S = 3.0
#: solve-scattered measures at least this many whole passes.
SCATTERED_MIN_PASSES = 3
#: Latency recorded for a failed operation: it misses every limit.
MISSED_MS = 1e9

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

GATEWAY_LAYER_UNITS = {
    "gateway.admit_ms_p50": "ms",
    "spool.queue_wait_ms_p50": "ms",
    "spool.queue_wait_ms_p99": "ms",
    "worker.pre_solve_ms_p50": "ms",
    "worker.solve_ms_p50": "ms",
    "worker.ack_ms_p50": "ms",
    "gateway.discovery_ms_p50": "ms",
    "gateway.discovery_ms_p99": "ms",
    "gateway.server_ms_p50": "ms",
    "service.cache_served_share": "ratio",
    "service.coalesced_share": "ratio",
    "worker.busy_share": "ratio",
    "spool.tasks_submitted": "count",
    "spool.requeues": "count",
}

SOLVE_LAYER_UNITS: Dict[str, str] = {}
for _layer in LAYER_NAMES:
    SOLVE_LAYER_UNITS[f"{_layer}_s"] = "s"
    SOLVE_LAYER_UNITS[f"{_layer}_calls"] = "count"
SOLVE_LAYER_UNITS.update({
    "label_search.labels_created": "count",
    "label_search.pruned_share": "ratio",
    "label_search.frontier_peak": "count",
    "portfolio.bidir_share": "ratio",
    "portfolio.cross_check_share": "ratio",
})

PER_LAYER_UNITS = {**GATEWAY_LAYER_UNITS, **SOLVE_LAYER_UNITS,
                   "trace.overhead_share": "ratio"}


# ------------------------------------------------------------------ helpers

def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics (Beta((n+1)q, (n+1)(1-q))
    weights) rather than one or two of them: among solve-scattered's 60
    solves a single order statistic is one instance's time, which jumps
    between runs; for large samples the estimate equals the plain
    quantile.  A failed operation (``inf``) counts as ``MISSED_MS``.
    """
    import numpy as np
    from scipy.special import betainc

    if not values:
        return 0.0
    ordered = np.sort(np.minimum(np.asarray(values, dtype=float), MISSED_MS))
    n = len(ordered)
    edges = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def metric_block(values: Dict[str, float],
                 units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def peak_rss_mb() -> float:
    """Largest resident set of any reaped program process (KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def latency_summary(latencies_ms: List[float]) -> Dict[str, float]:
    return {"latency_p50_ms": percentile(latencies_ms, 0.50),
            "latency_p90_ms": percentile(latencies_ms, 0.90)}


class Run:
    """State of one benchmark run: work directory, results, counters."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workdir = os.path.join(
            ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
        os.makedirs(self.workdir)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def pool(self, name: str) -> List[instances.Instance]:
        path = (os.path.join(self.args.references, f"{name}.json")
                if self.args.references else "")
        return instances.load_pool(name, path)

    def count(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(note)

    def result(self, metrics: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass


# ------------------------------------------------------------------ gateway

def _gateway_ops(run: Run, ops) -> List[float]:
    """Check each response; latencies in ms, a failure as a miss."""
    latencies = []
    for op in ops:
        ok = op.ok
        run.count(ok, f"{op.instance.pool}[{op.instance.index}]: "
                      f"{op.status_code} {op.error or ''} "
                      f"{json.dumps(op.payload)[:160]}")
        latencies.append(op.latency_s * 1e3 if ok else math.inf)
    return latencies


def _launch_gateway(run: Run):
    """Launch ``SETUP_REPEATS`` gateways; keep the last one running."""
    launches = []
    for attempt in range(SETUP_REPEATS):
        before = speed.sample_all_cpus()
        gateway = gateway_load.Gateway(ROOT, run.workdir, f"gw{attempt}")
        launches.append(gateway.setup_s
                        * speed.factor(before, speed.sample_all_cpus()))
        if attempt + 1 < SETUP_REPEATS:
            gateway.stop()
    return gateway, statistics.median(launches)


def _reference(measured: Dict[str, Any]) -> Dict[str, Any]:
    """Block factors to reference seconds (1 when uncalibrated) and the
    median block rate of a load run."""
    samples, walls = measured["samples"], measured["walls"]
    factors = ([speed.factor(samples[i], samples[i + 1])
                for i in range(len(walls))]
               if samples else [1.0] * len(walls))
    counts = [0] * len(walls)
    for op in measured["ops"]:
        counts[op.block] += 1
    rates = [count / (wall * factor)
             for count, wall, factor in zip(counts, walls, factors) if wall]
    return {"rate": statistics.median(rates) if rates else 0.0,
            "factors": factors}


def gateway_workload(run: Run, hot: bool) -> Dict[str, Any]:
    args = run.args
    pool = run.pool("unique")
    if hot:
        warmup, stream = instances.hot_stream(
            pool, args.seed, int(HOT_MAX_RATE * args.seconds))
    else:
        drawn = instances.unique_stream(
            pool, args.seed, UNIQUE_WARMUP + int(UNIQUE_MAX_RATE * args.seconds))
        warmup, stream = drawn[:UNIQUE_WARMUP], drawn[UNIQUE_WARMUP:]
    texts = instances.instance_texts(list(warmup) + list(stream))
    bodies = {index: gateway_load.request_body(text)
              for index, text in texts.items()}
    block_s = HOT_BLOCK_S if hot else UNIQUE_BLOCK_S

    def load(sequence, seconds):
        measured = gateway_load.drive(gateway.port, sequence, bodies,
                                      seconds, block_s=block_s, calibrate=hot)
        ref = _reference(measured)
        latencies = _gateway_ops(run, measured["ops"])
        ref["latencies_ms"] = [latency * ref["factors"][op.block]
                               for op, latency in zip(measured["ops"],
                                                      latencies)]
        ref.update(measured)
        return ref

    gateway, setup_s = _launch_gateway(run)
    try:
        _gateway_ops(run, gateway_load.drive(gateway.port, warmup, bodies,
                                             math.inf)["ops"])
        if not args.trace:
            measured = load(stream, args.seconds)
        else:
            half = args.seconds / 2.0
            plain = load(stream, half)
            rest = stream if hot else stream[len(plain["ops"]):]
            window_start = time.time()
            traced = load(rest, half)
            window = (window_start, time.time())
            scrape = gateway.metrics_text()
    finally:
        gateway.stop()

    if not args.trace:
        values = {"throughput_per_s": measured["rate"], "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        values.update(latency_summary(measured["latencies_ms"]))
        return metric_block(values, END_TO_END_UNITS)

    layers = gateway_load.stage_breakdown(gateway.spool, traced["ops"],
                                          traced["wall_s"], window)
    stages = {name: [v * 1e3 for v in samples]
              for name, samples in layers["stages"].items()}
    ops = traced["ops"]
    values = {
        "gateway.admit_ms_p50": percentile(stages["admit"], 0.5),
        "spool.queue_wait_ms_p50": percentile(stages["queue_wait"], 0.5),
        "spool.queue_wait_ms_p99": percentile(stages["queue_wait"], 0.99),
        "worker.pre_solve_ms_p50": percentile(stages["pre_solve"], 0.5),
        "worker.solve_ms_p50": percentile(stages["solve"], 0.5),
        "worker.ack_ms_p50": percentile(stages["ack"], 0.5),
        "gateway.discovery_ms_p50": percentile(stages["discovery"], 0.5),
        "gateway.discovery_ms_p99": percentile(stages["discovery"], 0.99),
        "gateway.server_ms_p50":
            gateway_load.server_seconds_p50(scrape) * 1e3,
        "service.cache_served_share":
            sum(bool(op.payload.get("cached")) for op in ops) / len(ops),
        "service.coalesced_share":
            sum(bool(op.payload.get("coalesced")) for op in ops) / len(ops),
        "worker.busy_share": layers["busy_share"],
        "spool.tasks_submitted": layers["tasks_submitted"],
        "spool.requeues": layers["requeues"],
        "trace.overhead_share": _overhead(plain["rate"], traced["rate"]),
    }
    return metric_block(values, PER_LAYER_UNITS)


def _overhead(untraced_rate: float, traced_rate: float) -> float:
    """Fractional throughput cost of tracing (positive = traced slower)."""
    return untraced_rate / traced_rate - 1.0 if traced_rate else 0.0


# -------------------------------------------------------------------- solve

class SolveChild:
    """One ``solve_child.py`` process; ``setup_s`` is launch → ready, in
    reference seconds from the child's own calibration samples."""

    def __init__(self, run: Run) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["TMPDIR"] = run.workdir
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "solve_child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=run.workdir, text=True)
        line = self.proc.stdout.readline().split()
        wall = time.perf_counter() - started
        if line[:1] != ["ready"]:
            self.stop()
            raise RuntimeError(f"solve child failed to start: {line!r}")
        self.setup_s = wall * speed.factor(float(line[1]), float(line[2]))

    def run_job(self, path: str) -> Dict[str, Any]:
        self.proc.stdin.write(path + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline().strip()
        if line != "done":
            raise RuntimeError(f"solve child died mid-job: {line!r} "
                               f"(exit {self.proc.poll()})")
        with open(path + ".out.json", "r", encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def solve_workload(run: Run, scattered: bool) -> Dict[str, Any]:
    args = run.args
    small = run.pool("small")
    if scattered:
        pool = run.pool("scattered")
        # whole passes: every run measures the same twenty instances
        sequence = instances.pass_stream(pool, args.seed, passes=50)
        stop_every, traced_ops = len(pool), len(pool)
        min_ops = SCATTERED_MIN_PASSES * len(pool)
        # long operations, split between the sweep's interpreter work and
        # the numpy dominance kernel: a mixed sample around each one,
        # lasting 5% of it
        calibration = {"calibrate_every": 1, "calibrate_chunks": 5,
                       "calibrate_share": 0.05, "calibrate_kind": "mixed"}
    else:
        pool = small
        sequence = instances.small_stream(pool, args.seed,
                                          int(2000 * args.seconds) + 1)
        stop_every, traced_ops, min_ops = 1, SMALL_TRACED_OPS, 0
        calibration = {"calibrate_every": 5, "calibrate_chunks": 1}
    # three untimed small solves first: lazy imports, first-call set-up
    warmup = instances.small_stream(small, args.seed + 1, 3)
    by_key = {f"{i.pool}:{i.index}": i for i in list(warmup) + sequence}
    texts = {key: instance.problem_json() for key, instance in by_key.items()}
    if args.trace:
        phases = [{"budget_s": math.inf, "max_ops": traced_ops},
                  {"budget_s": math.inf, "max_ops": traced_ops,
                   "trace": True}]
    else:
        phases = [{"budget_s": args.seconds, "stop_every": stop_every,
                   "min_ops": min_ops}]
    for phase in phases:
        phase.update(calibration)
    job = {"texts": texts,
           "warmup": [f"{i.pool}:{i.index}" for i in warmup],
           "sequence": [f"{i.pool}:{i.index}" for i in sequence],
           "phases": phases}
    path = os.path.join(run.workdir, "job.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)

    launches = []
    for _ in range(SETUP_REPEATS):
        child = SolveChild(run)
        launches.append(child.setup_s)
        if len(launches) < SETUP_REPEATS:
            child.stop()
    try:
        out = child.run_job(path)
    finally:
        child.stop()

    def check(ops) -> List[float]:
        seconds = []
        for key, _, elapsed, status, objective, error in ops:
            ok = status == "optimal" and by_key[key].matches(objective)
            run.count(ok, f"{key}: {status} {objective} {error or ''}")
            seconds.append(elapsed if ok else math.inf)
        return seconds

    check(out["warmup"])
    first = out["phases"][0]
    seconds = check(first["ops"])
    if not args.trace:
        values = {"throughput_per_s": len(seconds) / sum(seconds),
                  "setup_s": statistics.median(launches),
                  "peak_rss_mb": peak_rss_mb()}
        values.update(latency_summary([s * 1e3 for s in seconds]))
        return metric_block(values, END_TO_END_UNITS)

    traced = out["phases"][1]
    check(traced["ops"])
    trace = traced["trace"]
    values = {}
    for layer in LAYER_NAMES:
        values[f"{layer}_s"] = trace["self_s"][layer]
        values[f"{layer}_calls"] = trace["calls"][layer]
    counts = trace["counts"]
    values.update({
        "label_search.labels_created": counts["labels_created"],
        "label_search.pruned_share": counts["pruned_share"],
        "label_search.frontier_peak": trace["frontier_peak"],
        "portfolio.bidir_share": counts["bidir_share"],
        "portfolio.cross_check_share": counts["cross_check_share"],
        "trace.overhead_share": _overhead(
            len(first["ops"]) / first["ref_s"],
            len(traced["ops"]) / traced["ref_s"]),
    })
    return metric_block(values, PER_LAYER_UNITS)


WORKLOADS = {
    "gateway-unique": lambda run: gateway_workload(run, hot=False),
    "gateway-hot": lambda run: gateway_workload(run, hot=True),
    "solve-small": lambda run: solve_workload(run, scattered=False),
    "solve-scattered": lambda run: solve_workload(run, scattered=True),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default="",
                        help="directory of reference files to check against "
                             "(default: perfbench/references)")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    run = Run(args)
    try:
        metrics = WORKLOADS[args.workload](run)
    finally:
        run.close()
    for note in run.errors:
        print(f"failed: {note}", file=sys.stderr)
    print(json.dumps(run.result(metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
