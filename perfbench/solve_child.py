"""Child process of the solve workloads: the program under an address cap.

Launched by ``run.py`` with the program's ``src`` directory on
``PYTHONPATH``.  The child caps its own address space, imports the
program and builds its solver registry, then prints ``ready`` with a
calibration sample from its start and one from that moment.  It then
reads one line from stdin: ``exit``, or the path of a job file.

A job holds the instance texts (keyed ``pool:index``), a few warm-up
keys solved untimed first (lazy imports and first-call set-up), the
sequence of keys to solve, and one or more phases.  Each phase solves the
sequence from its start with ``solve(problem, method="portfolio")``, one
call at a time.  It stops at a multiple of ``stop_every`` operations, and
after at least ``min_ops``, once its summed solve time reaches
``budget_s`` (or after ``max_ops``).  A problem object is deserialised
fresh for every operation, outside the timed call.

A calibration sample (:mod:`speed`) is taken before every
``calibrate_every`` operations and after the last one; it lasts
``calibrate_chunks`` chunks, or ``calibrate_share`` of the operation just
finished if that is longer, of the ``calibrate_kind`` chunk.  Each operation's
time is also recorded in reference seconds, scaled by the samples around
its block.  A traced phase wraps the layer functions (:mod:`layer_trace`)
and scales their self times alike.  Results go to ``<job>.out.json``;
the child prints ``done`` and exits.

An operation that raises (``MemoryError`` under the cap included) is
recorded as a failure and the loop continues.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import speed

#: Address-space cap of the child.  The heaviest committed instance
#: (scattered n=50 seed 0, routed to the forward sweep) peaks near 0.8 GB
#: resident; a frontier blowup past the cap raises MemoryError inside the
#: solve instead of driving the shared machine out of memory.
ADDRESS_CAP_BYTES = 2 * 1024 ** 3


def run_phase(solve, problem_from_json, texts, sequence, phase):
    from layer_trace import LayerClock, portfolio_counts

    clock = LayerClock() if phase.get("trace") else None
    ops = []
    blocks = []          #: calibration block of each operation
    samples = []         #: calibration samples bracketing the blocks
    details_list = []
    solve_s = 0.0
    budget = phase["budget_s"]
    stop_every = phase.get("stop_every", 1)
    every = phase.get("calibrate_every", 5)
    chunks = phase.get("calibrate_chunks", 1)
    share = phase.get("calibrate_share", 0.0)
    kind = phase.get("calibrate_kind", "python")
    nominal = speed.REFERENCE_CHUNK_S[kind]
    elapsed = 0.0
    if clock is not None:
        clock.install()
    try:
        for position, key in enumerate(sequence[:phase.get("max_ops")]):
            if (position % stop_every == 0 and solve_s >= budget
                    and position >= phase.get("min_ops", 0)):
                break
            if position % every == 0:
                samples.append(speed.sample(
                    max(chunks, int(share * elapsed / nominal)), kind))
            problem = problem_from_json(texts[key])
            t0 = time.perf_counter()
            try:
                result = solve(problem, method="portfolio")
            except Exception as exc:  # noqa: BLE001 - a failed operation
                elapsed = time.perf_counter() - t0
                ops.append([key, elapsed, "error", None,
                            f"{type(exc).__name__}: {exc}"[:200]])
                details_list.append(None)
            else:
                elapsed = time.perf_counter() - t0
                ops.append([key, elapsed, result.status, result.objective,
                            None])
                details_list.append(result.details if clock is not None
                                    else None)
            blocks.append(len(samples) - 1)
            solve_s += elapsed
            del problem
    finally:
        if clock is not None:
            clock.uninstall()
    samples.append(speed.sample(
        max(chunks, int(share * elapsed / nominal)), kind))
    for op, block in zip(ops, blocks):
        op.insert(2, op[1] * speed.factor(samples[block], samples[block + 1],
                                          kind))
    ref_s = sum(op[2] for op in ops)
    out = {"ops": ops, "solve_s": solve_s, "ref_s": ref_s, "trace": None}
    if clock is not None:
        scale = ref_s / solve_s if solve_s else 1.0
        out["trace"] = {
            "self_s": {name: value * scale
                       for name, value in clock.self_s.items()},
            "calls": clock.calls, "frontier_peak": clock.frontier_peak,
            "counts": portfolio_counts(details_list)}
    return out


def main() -> int:
    started = speed.sample(2)
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_CAP_BYTES, ADDRESS_CAP_BYTES))
    from repro.core.solver import solve
    from repro.model.serialization import problem_from_json
    from repro.runtime.registry import default_registry

    default_registry()
    print(f"ready {started!r} {speed.sample(2)!r}", flush=True)
    command = sys.stdin.readline().strip()
    if command in ("", "exit"):
        return 0
    with open(command, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    texts = job["texts"]
    warmup = run_phase(solve, problem_from_json, texts, job["warmup"],
                       {"budget_s": float("inf")})
    phases = [run_phase(solve, problem_from_json, texts, job["sequence"],
                        phase) for phase in job["phases"]]
    tmp = command + ".out.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"warmup": warmup["ops"], "phases": phases}, handle)
    os.replace(tmp, command + ".out.json")
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
