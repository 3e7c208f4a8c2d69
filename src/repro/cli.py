"""Command line interface.

``repro-assign`` (or ``python -m repro``) exposes the library's main entry
points without writing any Python:

* ``solve`` — solve one of the bundled scenarios (or a problem JSON file)
  with any available method and print the assignment;
* ``simulate`` — solve and then run the discrete-event simulator, printing a
  Gantt-style trace;
* ``experiment`` — run one of the DESIGN.md experiments and print its table;
* ``describe`` — print the CRU tree, the colouring and the assignment-graph
  structure of an instance;
* ``batch`` — sweep a fleet of instances through the parallel
  :class:`~repro.runtime.BatchRunner` (process pool, result cache, explicit
  seeding) and print per-instance and aggregate statistics;
* ``worker`` — run one distributed solve worker against a spool directory
  (start any number of these, on any host sharing the filesystem);
* ``serve`` — supervise a local fleet: spawn N worker subprocesses and run
  the cache janitor on a timer;
* ``submit`` — enqueue a sweep into a spool and stream the results back as
  workers publish them (``--stream`` prints each result as it arrives);
* ``gateway`` — the HTTP front door: admission control, per-client rate
  limits, request coalescing and consistent-hash sharding over N spool
  directories, with SSE progress streaming (see README "Gateway").

The two-terminal quickstart::

    terminal A$ repro-assign serve  --spool /tmp/spool --workers 2
    terminal B$ repro-assign submit --spool /tmp/spool --count 100 --stream
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.analysis import experiments as exp
from repro.analysis.reporting import format_table
from repro.core.assignment_graph import build_assignment_graph
from repro.core.solver import available_methods, solve
from repro.model.problem import AssignmentProblem
from repro.model.serialization import problem_from_json
from repro.runtime import (
    BatchRunner,
    JSONFileCache,
    LRUResultCache,
    TieredResultCache,
    default_registry,
)
from repro.simulation import ExecutionPolicy, simulate_assignment
from repro.workloads import (
    healthcare_scenario,
    paper_example_problem,
    random_problem,
    snmp_scenario,
)

_SCENARIOS: Dict[str, Callable[[], AssignmentProblem]] = {
    "paper-example": paper_example_problem,
    "healthcare": healthcare_scenario,
    "snmp": snmp_scenario,
}

_EXPERIMENTS: Dict[str, Callable[[], Dict[str, object]]] = {
    "figure4": exp.figure4_experiment,
    "coloring": exp.coloring_experiment,
    "assignment-graph": exp.assignment_graph_experiment,
    "labeling": exp.labeling_experiment,
    "adapted-ssb": exp.adapted_ssb_experiment,
    "complexity-ssb": exp.complexity_ssb_experiment,
    "complexity-colored": exp.complexity_colored_experiment,
    "label-engine": exp.label_engine_experiment,
    "incremental-resolve": exp.incremental_resolve_experiment,
    "ssb-vs-sb": exp.ssb_vs_sb_experiment,
    "simulation": exp.simulation_validation_experiment,
    "optimality": exp.optimality_experiment,
    "heuristics": exp.heuristics_experiment,
    "dag-extension": exp.dag_extension_experiment,
}


def _load_problem(args: argparse.Namespace) -> AssignmentProblem:
    if args.problem_file:
        with open(args.problem_file, "r", encoding="utf-8") as handle:
            return problem_from_json(handle.read())
    if args.scenario == "random":
        return random_problem(n_processing=args.random_size, n_satellites=args.random_satellites,
                              seed=args.seed)
    return _SCENARIOS[args.scenario]()


def _add_problem_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=list(_SCENARIOS) + ["random"],
                        default="paper-example",
                        help="bundled scenario to solve (default: paper-example)")
    parser.add_argument("--problem-file", help="JSON problem file (overrides --scenario)")
    parser.add_argument("--random-size", type=int, default=12,
                        help="processing CRUs for --scenario random")
    parser.add_argument("--random-satellites", type=int, default=3,
                        help="satellites for --scenario random")
    parser.add_argument("--seed", type=int, default=0, help="seed for --scenario random")


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.core.context import SolveContext

    problem = _load_problem(args)
    context = None
    if args.deadline is not None or args.anytime:
        on_incumbent = None
        if args.anytime:
            def on_incumbent(objective, payload, source):
                print(f"  incumbent: {objective:.6g} ({source})", flush=True)
        context = SolveContext(deadline_s=args.deadline,
                               on_incumbent=on_incumbent)
    result = solve(problem, method=args.method, context=context)
    print(problem.summary())
    print(result.summary())
    if result.assignment is not None:
        print(result.assignment.describe())
        if context is not None:
            note = (f" ({result.interrupted}-interrupted, best-so-far)"
                    if result.interrupted else "")
            print(f"status: {result.status}{note}")
    else:
        print(f"status: {result.status} — no feasible incumbent before the "
              f"deadline")
    if args.json:
        payload = {"method": result.method,
                   "objective": (None if result.assignment is None
                                 else result.objective),
                   "status": result.status,
                   "placement": (None if result.assignment is None
                                 else result.assignment.placement)}
        if result.incumbent_history:
            payload["incumbent_history"] = [
                [round(t, 6), obj, src]
                for t, obj, src in result.incumbent_history]
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 4 if result.assignment is None else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    result = solve(problem, method=args.method)
    policy = ExecutionPolicy(barrier=not args.eager, dedicated_links=args.dedicated_links)
    run = simulate_assignment(problem, result.assignment, policy)
    print(problem.summary())
    print(result.summary())
    print(f"simulated end-to-end delay: {run.end_to_end_delay:.6g} "
          f"(analytic {result.assignment.end_to_end_delay():.6g})")
    print(run.trace.to_ascii())
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    problem = _load_problem(args)
    print(problem.summary())
    print()
    print("CRU tree (sensors marked with *):")
    print(problem.tree.to_ascii())
    print()
    graph = build_assignment_graph(problem)
    colored = graph.colored_tree
    print("Edge colouring (conflicted edges force CRUs onto the host):")
    for parent, child in problem.tree.edges():
        color = colored.edge_color(parent, child) or "CONFLICT"
        print(f"  {parent} -> {child}: {color}")
    print(f"host-forced CRUs: {', '.join(colored.forced_host_crus())}")
    print(f"assignment graph: {graph.num_faces} faces, {graph.number_of_edges()} edges")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    driver = _EXPERIMENTS[args.name]
    outcome = driver()
    rows = outcome.get("rows", [])
    print(format_table(rows, title=f"experiment: {args.name}"))
    extras = {k: v for k, v in outcome.items() if k != "rows" and not isinstance(v, (list, dict))}
    for key, value in extras.items():
        print(f"{key}: {value}")
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    if getattr(args, "verbose", False):
        rows = [spec.metadata() for spec in default_registry().specs()]
        for row in rows:
            row["aliases"] = ", ".join(row["aliases"]) or "-"
        print(format_table(rows, columns=["name", "exact", "stochastic",
                                          "anytime", "complexity", "aliases"],
                           title="registered solvers"))
        return 0
    for method in available_methods():
        print(method)
    return 0


def _batch_problems(args: argparse.Namespace) -> List[AssignmentProblem]:
    if args.problem_file:
        problems = []
        for path in args.problem_file:
            with open(path, "r", encoding="utf-8") as handle:
                problems.append(problem_from_json(handle.read()))
        return problems
    if args.scenario == "random":
        problems = []
        for i in range(args.count):
            problem = random_problem(n_processing=args.random_size,
                                     n_satellites=args.random_satellites,
                                     seed=args.seed + i,
                                     sensor_scatter=args.sensor_scatter)
            problem.name = f"{problem.name}-{args.seed + i}"
            problems.append(problem)
        return problems
    return [_SCENARIOS[args.scenario]() for _ in range(args.count)]


def _cmd_batch(args: argparse.Namespace) -> int:
    cache = None
    if not args.no_cache:
        disk = JSONFileCache(args.cache_dir) if args.cache_dir else None
        cache = TieredResultCache(memory=LRUResultCache(), disk=disk)
    try:
        problems = _batch_problems(args)
        runner = BatchRunner(workers=args.workers,
                             chunk_size=args.chunk_size,
                             cache=cache,
                             base_seed=args.seed)
        report = runner.solve_many(problems, method=args.method,
                                   deadline_s=args.deadline)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = [{
        "instance": item.tag or f"#{item.index}",
        "method": item.method,
        "objective": item.objective if item.ok else "-",
        "status": item.status or "-",
        "cached": item.cached,
        "elapsed_ms": item.elapsed_s * 1e3,
        "error": (item.error or "")[:60],
    } for item in report]
    if not args.quiet:
        print(format_table(rows, title=f"batch: {len(problems)} instances, "
                                       f"method={args.method}"))
    objectives = [item.objective for item in report if item.ok]
    print(report.summary())
    if objectives:
        print(f"objective: min={min(objectives):.6g} "
              f"mean={sum(objectives) / len(objectives):.6g} "
              f"max={max(objectives):.6g}")
    if report.wall_s > 0:
        print(f"throughput: {len(problems) / report.wall_s:.1f} instances/s")
    if args.json:
        payload = {
            "method": args.method,
            "workers": report.workers,
            "wall_s": report.wall_s,
            "cache_hits": report.cache_hits,
            "solved": report.solved,
            "failed": report.failed,
            "results": [{
                "instance": item.tag,
                "key": item.key,
                "objective": item.objective,
                "cached": item.cached,
                "elapsed_s": item.elapsed_s,
                "seed": item.seed,
                "error": item.error,
                "placement": item.placement,
            } for item in report],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 1 if report.failed else 0


# ----------------------------------------------------------- distributed
def _spool_cache(args: argparse.Namespace):
    if getattr(args, "no_cache", False):
        return None
    from repro.distributed import spool_cache

    return spool_cache(args.spool)


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.distributed import SolveWorker, WorkQueue

    queue = WorkQueue(args.spool, lease_timeout=args.lease_timeout,
                      poll_interval=args.poll_interval)
    worker = SolveWorker(queue, cache=_spool_cache(args),
                         worker_id=args.worker_id)
    # SIGTERM (e.g. submit --local-workers tearing the fleet down) becomes a
    # cooperative stop: in-flight anytime solves return their incumbent,
    # unclaimed work is released, and the metrics snapshot still gets written
    previous_handler = None
    try:
        previous_handler = signal.signal(
            signal.SIGTERM, lambda signum, frame: worker.request_stop())
    except ValueError:
        pass                        # not the main thread (e.g. tests)
    print(f"worker {worker.worker_id} pulling from {args.spool} "
          f"(lease {args.lease_timeout:g}s)", flush=True)
    try:
        handled = worker.run(max_tasks=args.max_tasks, drain=args.drain,
                             timeout=args.duration)
    except KeyboardInterrupt:
        handled = worker.processed
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        if getattr(args, "metrics_dir", None):
            base = os.path.join(args.metrics_dir,
                                f"metrics-{worker.worker_id}")
            worker.metrics.write_snapshot(base + ".json")
            worker.metrics.write_prometheus(base + ".prom")
            print(f"metrics snapshot: {base}.json", flush=True)
    print(f"worker {worker.worker_id}: {handled} task(s) processed "
          f"({worker.cache_hits} from cache)")
    return 0


def _worker_command(args: argparse.Namespace) -> List[str]:
    command = [sys.executable, "-m", "repro", "worker", "--spool", args.spool,
               "--lease-timeout", str(args.lease_timeout),
               "--poll-interval", str(args.poll_interval)]
    if getattr(args, "no_cache", False):
        command.append("--no-cache")
    if getattr(args, "drain", False):
        command.append("--drain")
    if getattr(args, "metrics_dir", None):
        command.extend(["--metrics-dir", args.metrics_dir])
    return command


def _spawn_workers(args: argparse.Namespace, count: int) -> List[subprocess.Popen]:
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return [subprocess.Popen(_worker_command(args), env=env)
            for _ in range(count)]


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.distributed import CacheJanitor, WorkQueue
    from repro.distributed.worker import CACHE_DIR

    WorkQueue(args.spool)    # materialise the spool before workers race to it
    workers = _spawn_workers(args, args.workers)
    print(f"serving {args.spool} with {args.workers} worker(s)"
          + ("" if args.drain else " — Ctrl-C to stop"), flush=True)
    janitor = None
    if (args.cache_max_entries is not None or args.cache_max_mb is not None
            or args.cache_max_age is not None):
        janitor = CacheJanitor(
            os.path.join(args.spool, CACHE_DIR),
            max_entries=args.cache_max_entries,
            max_bytes=(int(args.cache_max_mb * 1e6)
                       if args.cache_max_mb is not None else None),
            max_age_s=args.cache_max_age)
    compact_results = None
    if (args.results_max_entries is not None
            or args.results_max_mb is not None
            or args.results_max_age is not None):
        queue = WorkQueue(args.spool)

        def compact_results():
            return queue.compact_results(
                max_count=args.results_max_entries,
                max_bytes=(int(args.results_max_mb * 1e6)
                           if args.results_max_mb is not None else None),
                max_age_s=args.results_max_age)
    next_sweep = time.monotonic() + args.janitor_interval

    sweep_queue = WorkQueue(args.spool)

    def sweep() -> None:
        if janitor is not None:
            print(janitor.collect().summary(), flush=True)
        if compact_results is not None:
            print(f"results {compact_results().summary()}", flush=True)
        reaped = sweep_queue.sweep_tmp()
        if reaped:
            print(f"spool tmp sweep: reaped {reaped} abandoned staging "
                  f"file(s)", flush=True)

    try:
        while True:
            if all(proc.poll() is not None for proc in workers):
                break               # --drain fleets exit on an empty spool
            if time.monotonic() >= next_sweep:
                # always runs: even with no cache/result caps configured the
                # spool's abandoned-staging-file sweep should happen
                sweep()
                next_sweep = time.monotonic() + args.janitor_interval
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.terminate()
        for proc in workers:
            proc.wait()
    sweep()
    # workers we terminated ourselves exit with a negative (signal) code;
    # that is a clean shutdown, not a failure
    return max((max(proc.returncode or 0, 0) for proc in workers),
               default=0)


def _cmd_gateway(args: argparse.Namespace) -> int:
    from repro.distributed import Gateway, GatewayConfig, WorkQueue

    shard_dirs = list(args.spool or [])
    if not shard_dirs:
        print("error: provide --spool DIR (repeatable), optionally with "
              "--shards N to expand one directory into N shards",
              file=sys.stderr)
        return 2
    if args.shards > 1:
        if len(shard_dirs) > 1:
            print("error: --shards expands a single --spool directory; "
                  "either repeat --spool or use --shards, not both",
                  file=sys.stderr)
            return 2
        base = shard_dirs[0]
        shard_dirs = [os.path.join(base, f"shard-{index}")
                      for index in range(args.shards)]
    tracer = None
    if args.trace:
        if len(shard_dirs) > 1:
            # each shard's queue writes its spool-transition spans into its
            # own event log, so one trace would be split across the shards
            print("error: --trace records into one span log and needs a "
                  "single shard", file=sys.stderr)
            return 2
        from repro.observability.tracing import Tracer

        tracer = Tracer.for_spool(shard_dirs[0])
    queues = [WorkQueue(directory, lease_timeout=args.lease_timeout,
                        poll_interval=args.poll_interval)
              for directory in shard_dirs]
    gateway = Gateway(queues, GatewayConfig(
        host=args.host, port=args.port, rate_per_client=args.rate,
        burst_per_client=args.burst, max_inflight=args.max_inflight,
        default_timeout_s=args.timeout), tracer=tracer)
    workers: List[subprocess.Popen] = []
    if args.local_workers:
        # round-robin the local fleet across the shard directories so every
        # shard has at least one worker when workers >= shards
        for index in range(args.local_workers):
            shard_args = argparse.Namespace(
                spool=shard_dirs[index % len(shard_dirs)],
                lease_timeout=args.lease_timeout,
                poll_interval=args.poll_interval)
            workers.extend(_spawn_workers(shard_args, 1))
        print(f"spawned {len(workers)} local worker(s) across "
              f"{len(shard_dirs)} shard(s)", flush=True)
    try:
        gateway.serve_forever()
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.terminate()
        for proc in workers:
            proc.wait()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.distributed import SolveService, StreamTimeout

    try:
        problems = _batch_problems(args)
        service = SolveService(args.spool, cache=_spool_cache(args),
                               base_seed=args.seed, trace=args.trace,
                               trace_sample=args.trace_sample)
        submission = service.submit(problems, method=args.method,
                                    deadline_s=args.deadline)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.enqueue_only:
        task_ids = service.enqueue(submission)
        counts = service.queue.counts()
        print(f"enqueued {len(task_ids)} task(s) "
              f"({submission.cache_hits} already cached); "
              f"spool now: {counts}")
        return 0

    local = _spawn_workers(args, args.local_workers) if args.local_workers else []
    started = time.perf_counter()
    items = []
    failed = 0
    try:
        for item in service.stream(submission, ordered=args.ordered,
                                   window=args.window, timeout=args.timeout):
            items.append(item)
            if not item.ok:
                failed += 1
            if args.stream and not args.quiet:
                status = ("cached" if item.cached else "solved")
                if item.partial:
                    # a feasible partial is NOT an error: the deadline fired
                    # and the best incumbent came back
                    status = f"feasible/{item.details.get('interrupted')}"
                value = (f"{item.objective:.6g}" if item.ok
                         else f"ERROR {item.error[:50]}")
                print(f"[{len(items):>4}/{len(submission)}] "
                      f"{item.tag or '#' + str(item.index)}: {value} "
                      f"({status}, {item.elapsed_s * 1e3:.1f} ms)", flush=True)
    except StreamTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for proc in local:
            if proc.poll() is None:
                proc.terminate()
        for proc in local:
            proc.wait()

    wall = time.perf_counter() - started
    solved = sum(1 for item in items if item.ok and not item.cached)
    cached = sum(1 for item in items if item.cached)
    if not args.stream and not args.quiet:
        rows = [{
            "instance": item.tag or f"#{item.index}",
            "objective": item.objective if item.ok else "-",
            "cached": item.cached,
            "elapsed_ms": item.elapsed_s * 1e3,
            "error": (item.error or "")[:60],
        } for item in sorted(items, key=lambda i: i.index)]
        print(format_table(rows, title=f"submit: {len(problems)} instances, "
                                       f"method={args.method}"))
    print(f"{len(items)} tasks in {wall:.3f}s: {solved} solved, "
          f"{cached} cached, {failed} failed")
    if wall > 0 and items:
        print(f"throughput: {len(items) / wall:.1f} instances/s")
    objectives = [item.objective for item in items if item.ok]
    if objectives:
        print(f"objective: min={min(objectives):.6g} "
              f"mean={sum(objectives) / len(objectives):.6g} "
              f"max={max(objectives):.6g}")
    return 1 if failed else 0


# ---------------------------------------------------------- observability
def _cmd_top(args: argparse.Namespace) -> int:
    from repro.observability.top import render_top, run_top, spool_snapshot

    if args.once:
        print(render_top(spool_snapshot(args.spool), width=args.width))
        return 0
    run_top(args.spool, interval=args.interval, iterations=args.iterations,
            width=args.width)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.distributed.chaos import run_chaos
    from repro.distributed.faults import FaultPlan

    if args.show_plan:
        plan = FaultPlan.from_seed(args.plan, rate=args.rate)
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        return 0
    spool = args.spool or tempfile.mkdtemp(prefix="repro-chaos-")
    report = run_chaos(spool, seed=args.plan, tasks=args.tasks,
                       workers=args.workers, rate=args.rate,
                       method=args.method, timeout_s=args.timeout)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        print(f"  spool: {spool} (journal: chaos-journal.jsonl, "
              f"quarantine: quarantine/)")
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.observability.audit import build_timelines, render_audit

    timelines = build_timelines(args.spool)
    if args.json:
        print(json.dumps(timelines, indent=2, sort_keys=True))
        return 0
    print(render_audit(timelines, task_id=args.task))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability.tracing import (group_traces, load_spans,
                                             render_profile, render_waterfall,
                                             write_chrome_trace)

    try:
        spans = load_spans(args.spool)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print("no trace spans recorded in this spool "
              "(submit with --trace to record them)")
        return 1
    traces = group_traces(spans)
    if args.id:
        # accept a trace-id prefix or a task id (suffix-match, same as the
        # truncated ids repro top / audit print)
        matched = {tid: group for tid, group in traces.items()
                   if tid.startswith(args.id)}
        if not matched:
            matched = {
                tid: group for tid, group in traces.items()
                if any(args.id in str(span.get("task_id") or "")
                       for span in group)
            }
        if not matched:
            print(f"no trace matching {args.id!r} in this spool",
                  file=sys.stderr)
            return 2
        traces = matched
        spans = [span for group in traces.values() for span in group]

    if args.export:
        path = write_chrome_trace(spans, args.export)
        print(f"wrote {len(spans)} span(s) to {path} "
              f"(load in Perfetto / chrome://tracing)")

    shown = 0
    for trace_id in sorted(traces, key=lambda t: traces[t][0].get("start", 0.0)):
        if shown >= args.limit:
            print(f"... {len(traces) - shown} more trace(s) "
                  f"(raise --limit or pass an id)")
            break
        print(render_waterfall(traces[trace_id]))
        print()
        shown += 1

    if args.profile:
        profiles = 0
        for trace_id, group in traces.items():
            for span in group:
                profile = span.get("profile")
                if isinstance(profile, dict):
                    print(render_profile(
                        profile,
                        title=f"bound-effectiveness — span "
                              f"{span.get('name')} · trace {trace_id[:16]} "
                              f"({profile.get('engine')})"))
                    print()
                    profiles += 1
        if not profiles:
            print("no solver profiles recorded (profiles attach to the "
                  "method:* spans of exact-engine solves and to the "
                  "portfolio's stage:* spans)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-assign",
        description="Optimal assignment of a CRU tree onto a host-satellites system "
                    "(Mei, Pawar & Widya, IPPS 2007 — reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario and print the assignment")
    _add_problem_arguments(p_solve)
    p_solve.add_argument("--method", choices=available_methods(), default="colored-ssb")
    p_solve.add_argument("--deadline", type=float, default=None,
                         help="wall-clock budget in seconds: anytime solvers "
                              "return their best incumbent as a feasible "
                              "result when it fires")
    p_solve.add_argument("--anytime", action="store_true",
                         help="print every improving incumbent as it is found")
    p_solve.add_argument("--json", action="store_true", help="also print the placement as JSON")
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="solve and simulate one context frame")
    _add_problem_arguments(p_sim)
    p_sim.add_argument("--method", choices=available_methods(), default="colored-ssb")
    p_sim.add_argument("--eager", action="store_true",
                       help="per-CRU precedence instead of the paper's host barrier")
    p_sim.add_argument("--dedicated-links", action="store_true",
                       help="transfers overlap with satellite computation")
    p_sim.set_defaults(func=_cmd_simulate)

    p_desc = sub.add_parser("describe", help="print tree, colouring and assignment graph")
    _add_problem_arguments(p_desc)
    p_desc.set_defaults(func=_cmd_describe)

    p_exp = sub.add_parser("experiment", help="run one of the DESIGN.md experiments")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    p_exp.set_defaults(func=_cmd_experiment)

    p_methods = sub.add_parser("methods", help="list available solver methods")
    p_methods.add_argument("--verbose", action="store_true",
                           help="print the registry's capability metadata")
    p_methods.set_defaults(func=_cmd_methods)

    p_batch = sub.add_parser(
        "batch", help="sweep many instances through the parallel batch runner")
    p_batch.add_argument("--scenario", choices=list(_SCENARIOS) + ["random"],
                         default="random",
                         help="instance family to sweep (default: random)")
    p_batch.add_argument("--problem-file", nargs="*",
                         help="JSON problem files (overrides --scenario)")
    p_batch.add_argument("--count", type=int, default=20,
                         help="number of instances to generate (default: 20)")
    p_batch.add_argument("--random-size", type=int, default=12,
                         help="processing CRUs per random instance")
    p_batch.add_argument("--random-satellites", type=int, default=3,
                         help="satellites per random instance")
    p_batch.add_argument("--sensor-scatter", type=float, default=0.3,
                         help="sensor scatter of random instances")
    p_batch.add_argument("--method", default="colored-ssb",
                         help="solver method or alias (default: colored-ssb)")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: REPRO_BATCH_WORKERS or serial)")
    p_batch.add_argument("--chunk-size", type=int, default=None,
                         help="tasks per worker message")
    p_batch.add_argument("--deadline", type=float, default=None,
                         help="cooperative per-task deadline in seconds "
                              "(anytime solvers return feasible incumbents)")
    p_batch.add_argument("--seed", type=int, default=0,
                         help="base seed for instance generation and stochastic methods")
    p_batch.add_argument("--cache-dir",
                         help="on-disk result cache directory (warm runs skip solves)")
    p_batch.add_argument("--no-cache", action="store_true",
                         help="disable the result cache entirely")
    p_batch.add_argument("--json", help="write the full report to this JSON file")
    p_batch.add_argument("--quiet", action="store_true",
                         help="suppress the per-instance table")
    p_batch.set_defaults(func=_cmd_batch)

    # ------------------------------------------------------------ distributed
    p_worker = sub.add_parser(
        "worker", help="run one distributed solve worker against a spool")
    p_worker.add_argument("--spool", required=True,
                          help="spool directory shared by submitters and workers")
    p_worker.add_argument("--lease-timeout", type=float, default=60.0,
                          help="seconds before a crashed worker's task is requeued")
    p_worker.add_argument("--poll-interval", type=float, default=0.05,
                          help="fallback claim-scan cadence when no "
                               "same-host submit wakes the worker")
    p_worker.add_argument("--worker-id", help="identifier recorded in results")
    p_worker.add_argument("--max-tasks", type=int, default=None,
                          help="exit after this many tasks")
    p_worker.add_argument("--duration", type=float, default=None,
                          help="exit after this many seconds")
    p_worker.add_argument("--drain", action="store_true",
                          help="exit as soon as the spool is empty")
    p_worker.add_argument("--no-cache", action="store_true",
                          help="neither probe nor write the shared result "
                               "cache; workers are its only writers, so "
                               "what this worker solves stays uncached")
    p_worker.add_argument("--metrics-dir",
                          help="write a metrics snapshot (JSON + Prometheus "
                               "text) into this directory on exit")
    p_worker.set_defaults(func=_cmd_worker)

    p_serve = sub.add_parser(
        "serve", help="spawn a local worker fleet plus the cache janitor")
    p_serve.add_argument("--spool", required=True,
                         help="spool directory shared by submitters and workers")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker subprocesses to spawn (default: 2)")
    p_serve.add_argument("--lease-timeout", type=float, default=60.0)
    p_serve.add_argument("--poll-interval", type=float, default=0.05)
    p_serve.add_argument("--drain", action="store_true",
                         help="workers exit when the spool is empty (serve "
                              "returns once all have exited)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="workers neither probe nor write the shared "
                              "cache, so their results stay uncached")
    p_serve.add_argument("--janitor-interval", type=float, default=60.0,
                         help="seconds between cache janitor passes")
    p_serve.add_argument("--cache-max-entries", type=int, default=None,
                         help="janitor cap: entries kept in the shared cache")
    p_serve.add_argument("--cache-max-mb", type=float, default=None,
                         help="janitor cap: total cache size in MB")
    p_serve.add_argument("--cache-max-age", type=float, default=None,
                         help="janitor cap: entry age in seconds")
    p_serve.add_argument("--results-max-entries", type=int, default=None,
                         help="spool compaction cap: result files kept")
    p_serve.add_argument("--results-max-mb", type=float, default=None,
                         help="spool compaction cap: total results/ size in MB")
    p_serve.add_argument("--results-max-age", type=float, default=None,
                         help="spool compaction cap: result age in seconds")
    p_serve.add_argument("--metrics-dir",
                         help="each worker writes a metrics snapshot into "
                              "this directory on exit")
    p_serve.set_defaults(func=_cmd_serve)

    p_gateway = sub.add_parser(
        "gateway", help="HTTP front door over sharded spools (admission "
                        "control, coalescing, SSE progress)")
    p_gateway.add_argument("--spool", action="append",
                           help="spool shard directory (repeat for more "
                                "shards)")
    p_gateway.add_argument("--shards", type=int, default=0,
                           help="expand one --spool DIR into "
                                "DIR/shard-0..N-1")
    p_gateway.add_argument("--host", default="127.0.0.1")
    p_gateway.add_argument("--port", type=int, default=8080,
                           help="listen port (0 = ephemeral; the bound port "
                                "is printed on startup)")
    p_gateway.add_argument("--rate", type=float, default=None,
                           help="per-client rate limit in requests/s "
                                "(default: unlimited)")
    p_gateway.add_argument("--burst", type=float, default=10.0,
                           help="per-client burst size (token bucket depth)")
    p_gateway.add_argument("--max-inflight", type=int, default=256,
                           help="concurrent waiting solve requests before "
                                "shedding with 503")
    p_gateway.add_argument("--timeout", type=float, default=120.0,
                           help="default per-request wait budget in seconds")
    p_gateway.add_argument("--lease-timeout", type=float, default=60.0,
                           help="shard lease timeout (crashed-worker "
                                "requeue horizon)")
    p_gateway.add_argument("--poll-interval", type=float, default=0.05,
                           help="fallback scan cadence of the gateway's "
                                "waits and its local workers")
    p_gateway.add_argument("--trace", action="store_true",
                           help="record distributed trace spans (one "
                                "gateway.solve span per request, plus "
                                "submit/claim/solve/ack per task) into the "
                                "spool's event log; single shard only")
    p_gateway.add_argument("--local-workers", type=int, default=0,
                           help="spawn N worker subprocesses round-robin "
                                "across the shards")
    p_gateway.set_defaults(func=_cmd_gateway)

    p_submit = sub.add_parser(
        "submit", help="enqueue a sweep into a spool and stream the results")
    p_submit.add_argument("--spool", required=True,
                          help="spool directory shared by submitters and workers")
    p_submit.add_argument("--scenario", choices=list(_SCENARIOS) + ["random"],
                          default="random",
                          help="instance family to sweep (default: random)")
    p_submit.add_argument("--problem-file", nargs="*",
                          help="JSON problem files (overrides --scenario)")
    p_submit.add_argument("--count", type=int, default=20,
                          help="number of instances to generate (default: 20)")
    p_submit.add_argument("--random-size", type=int, default=12,
                          help="processing CRUs per random instance")
    p_submit.add_argument("--random-satellites", type=int, default=3,
                          help="satellites per random instance")
    p_submit.add_argument("--sensor-scatter", type=float, default=0.3,
                          help="sensor scatter of random instances")
    p_submit.add_argument("--method", default="colored-ssb",
                          help="solver method or alias (default: colored-ssb)")
    p_submit.add_argument("--seed", type=int, default=0,
                          help="base seed for instance generation and "
                               "stochastic methods")
    p_submit.add_argument("--deadline", type=float, default=None,
                          help="cooperative per-task deadline in seconds "
                               "(anytime solvers publish feasible incumbents)")
    p_submit.add_argument("--stream", action="store_true",
                          help="print each result the moment it arrives")
    p_submit.add_argument("--ordered", action="store_true",
                          help="yield results in submission order")
    p_submit.add_argument("--window", type=int, default=None,
                          help="backpressure: max tasks in flight at once")
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="overall deadline in seconds")
    p_submit.add_argument("--local-workers", type=int, default=0,
                          help="spawn this many worker subprocesses for the "
                               "duration of the sweep")
    p_submit.add_argument("--lease-timeout", type=float, default=60.0)
    p_submit.add_argument("--poll-interval", type=float, default=0.05)
    p_submit.add_argument("--enqueue-only", action="store_true",
                          help="spool the tasks and exit without waiting")
    p_submit.add_argument("--no-cache", action="store_true",
                          help="do not probe the shared result cache; "
                               "--local-workers then neither probe nor "
                               "write it")
    p_submit.add_argument("--quiet", action="store_true",
                          help="suppress per-instance output")
    p_submit.add_argument("--trace", action="store_true",
                          help="record distributed trace spans (submit/claim/"
                               "solve/ack) into the spool event log")
    p_submit.add_argument("--trace-sample", type=float, default=1.0,
                          help="head-sampling rate for --trace, deterministic "
                               "per problem hash (default: 1.0 = everything)")
    p_submit.add_argument("--metrics-dir",
                          help="each local worker writes a metrics snapshot "
                               "into this directory on exit")
    p_submit.set_defaults(func=_cmd_submit, drain=False)

    # ---------------------------------------------------------- observability
    p_top = sub.add_parser(
        "top", help="live terminal dashboard over a spool directory")
    p_top.add_argument("--spool", required=True,
                       help="spool directory to observe")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between redraws (default: 1)")
    p_top.add_argument("--iterations", type=int, default=None,
                       help="stop after this many frames (default: forever)")
    p_top.add_argument("--once", action="store_true",
                       help="print a single frame without clearing the screen")
    p_top.add_argument("--width", type=int, default=100,
                       help="maximum rendered line width (default: 100)")
    p_top.set_defaults(func=_cmd_top)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection plan against a live worker fleet "
             "and verify the exactly-once invariants")
    p_chaos.add_argument("--spool", default=None,
                         help="spool directory to abuse (default: a fresh "
                              "temporary directory, left in place for "
                              "forensics)")
    p_chaos.add_argument("--plan", type=int, default=0, metavar="SEED",
                         help="fault-plan seed; the same seed replays the "
                              "same fault schedule (default: 0)")
    p_chaos.add_argument("--workers", type=int, default=2,
                         help="worker threads to run (default: 2)")
    p_chaos.add_argument("--tasks", type=int, default=200,
                         help="tasks to submit (default: 200)")
    p_chaos.add_argument("--rate", type=float, default=0.05,
                         help="base per-call fault probability (default: "
                              "0.05)")
    p_chaos.add_argument("--method", default="greedy",
                         help="solver method for the chaos tasks (default: "
                              "greedy — fast, so the run stresses the spool "
                              "rather than the solver)")
    p_chaos.add_argument("--timeout", type=float, default=120.0,
                         help="overall budget in seconds before the run is "
                              "declared wedged (default: 120)")
    p_chaos.add_argument("--show-plan", action="store_true",
                         help="print the fault plan as JSON and exit")
    p_chaos.add_argument("--json", action="store_true",
                         help="print the report as JSON")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_audit = sub.add_parser(
        "audit", help="reconstruct per-task solve timelines from a spool")
    p_audit.add_argument("--spool", required=True,
                         help="spool directory to audit")
    p_audit.add_argument("--task", default=None,
                         help="print the full event timeline of one task id")
    p_audit.add_argument("--json", action="store_true",
                         help="dump raw timelines as JSON instead of a table")
    p_audit.set_defaults(func=_cmd_audit)

    p_trace = sub.add_parser(
        "trace", help="inspect distributed trace spans recorded in a spool")
    p_trace.add_argument("--spool", required=True,
                         help="spool directory whose event log holds the spans")
    p_trace.add_argument("id", nargs="?", default=None,
                         help="trace-id prefix or task id to focus on "
                              "(default: every trace)")
    p_trace.add_argument("--export", default=None, metavar="FILE",
                         help="write the selected spans as Chrome trace-event "
                              "JSON (Perfetto / chrome://tracing loadable)")
    p_trace.add_argument("--profile", action="store_true",
                         help="print the bound-effectiveness pruning table "
                              "for each span that carries a solver profile")
    p_trace.add_argument("--limit", type=int, default=10,
                         help="max waterfalls to print without an id "
                              "(default: 10)")
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
