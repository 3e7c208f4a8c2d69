"""``repro top`` — a live terminal dashboard over a spool directory.

Pure functions compute (:func:`spool_snapshot`) and render
(:func:`render_top`) one frame; :func:`run_top` wraps them in a plain
ANSI-redraw loop (no curses, no dependencies), so the same snapshot/render
path is unit-testable and usable one-shot in CI via ``repro top --once``.

Everything shown is reconstructed from spool artifacts alone — directory
listings, claim-file progress records, result files, and the event log —
so ``top`` can watch a fleet it shares nothing with but the filesystem.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.distributed.spool import (
    CLAIMED_DIR,
    FAILED_DIR,
    RESULTS_DIR,
    TASKS_DIR,
    _split_name,
)
from repro.observability.events import EVENT_PROGRESS, EventLog

#: Results whose mtime falls inside this window count toward throughput.
THROUGHPUT_WINDOW_S = 60.0

#: Eight-level block characters for incumbent convergence sparklines.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

_SPOOL_SUBDIRS = (TASKS_DIR, CLAIMED_DIR, RESULTS_DIR, FAILED_DIR)


def sparkline(values: List[float], width: int = 16) -> str:
    """Render a numeric series as a fixed-width block-character sparkline.

    Objectives *decrease* as incumbents improve, so the line typically
    falls; a flat line means the solve converged.
    """
    if not values:
        return ""
    if len(values) > width:
        values = values[-width:]
    low, high = min(values), max(values)
    if high <= low:
        return SPARK_CHARS[0] * len(values)
    scale = (len(SPARK_CHARS) - 1) / (high - low)
    return "".join(SPARK_CHARS[int((v - low) * scale)] for v in values)


def spool_snapshot(
    directory: str,
    now: Optional[float] = None,
    window_s: float = THROUGHPUT_WINDOW_S,
) -> Dict[str, Any]:
    """One observation of a spool: depths, leases, throughput, progress."""
    now = time.time() if now is None else now
    snapshot: Dict[str, Any] = {"directory": directory, "ts": now}

    counts: Dict[str, int] = {}
    for sub in _SPOOL_SUBDIRS:
        try:
            names = os.listdir(os.path.join(directory, sub))
        except OSError:
            names = []
        counts[sub] = sum(1 for n in names if n.endswith(".json"))
    snapshot["counts"] = counts

    # claimed tasks: lease age + latest published progress per claim file
    claimed: List[Dict[str, Any]] = []
    claimed_dir = os.path.join(directory, CLAIMED_DIR)
    try:
        names = sorted(os.listdir(claimed_dir))
    except OSError:
        names = []
    for name in names:
        parts = _split_name(name)
        if parts is None:
            continue
        path = os.path.join(claimed_dir, name)
        try:
            stat = os.stat(path)
        except OSError:
            continue
        record: Dict[str, Any] = {
            "task_id": parts["task_id"],
            "attempt": parts["attempt"],
        }
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            payload = {}
        record["method"] = payload.get("method")
        progress = payload.get("progress") or {}
        record["best_objective"] = progress.get("best_objective")
        record["incumbents"] = progress.get("incumbents")
        # lease age measures *solver activity*: prefer the wall-clock stamp
        # the worker publishes with each progress record — the raw mtime is
        # bumped by every idle lease renewal (utime), so it only says the
        # worker is alive, not when the solve last improved
        progress_ts = progress.get("ts")
        if isinstance(progress_ts, (int, float)) and progress_ts > 0:
            record["lease_age_s"] = max(0.0, now - float(progress_ts))
        else:
            record["lease_age_s"] = max(0.0, now - stat.st_mtime)
        claimed.append(record)
    snapshot["claimed"] = claimed

    # per-solver throughput: results published inside the trailing window
    throughput: Dict[str, Dict[str, Any]] = {}
    results_dir = os.path.join(directory, RESULTS_DIR)
    try:
        names = os.listdir(results_dir)
    except OSError:
        names = []
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(results_dir, name)
        try:
            stat = os.stat(path)
        except OSError:
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            continue
        method = str(result.get("method") or "?")
        bucket = throughput.setdefault(
            method,
            {"total": 0, "recent": 0, "cached": 0},
        )
        bucket["total"] += 1
        if result.get("cached"):
            bucket["cached"] += 1
        if now - stat.st_mtime <= window_s:
            bucket["recent"] += 1
    for bucket in throughput.values():
        bucket["per_s"] = bucket["recent"] / window_s if window_s > 0 else 0.0
    snapshot["throughput"] = throughput
    snapshot["window_s"] = window_s

    # incumbent series per task from progress events (the claim file only
    # holds the latest record; the event log has the whole trajectory)
    series: Dict[str, List[float]] = {}
    for event in EventLog.for_spool(directory).iter_events():
        if event.get("kind") != EVENT_PROGRESS:
            continue
        task_id = event.get("task_id")
        objective = (event.get("progress") or {}).get("best_objective")
        if task_id is None or not isinstance(objective, (int, float)):
            continue
        series.setdefault(str(task_id), []).append(float(objective))
    snapshot["progress_series"] = series
    return snapshot


def render_top(snapshot: Dict[str, Any], width: int = 80) -> str:
    """Render one snapshot as a multi-line text frame."""
    counts = snapshot.get("counts", {})
    stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(snapshot.get("ts", 0)))
    depth_parts = [
        f"{counts.get('tasks', 0)} pending",
        f"{counts.get('claimed', 0)} claimed",
        f"{counts.get('results', 0)} results",
        f"{counts.get('failed', 0)} failed",
    ]
    lines = [
        f"repro top — {snapshot.get('directory', '?')}",
        stamp,
        "",
        "queue depth: " + " | ".join(depth_parts),
        "",
    ]

    throughput = snapshot.get("throughput", {})
    window_s = snapshot.get("window_s", THROUGHPUT_WINDOW_S)
    lines.append(f"solver throughput (last {window_s:.0f}s)")
    if throughput:
        name_w = max(len(m) for m in throughput)
        for method in sorted(throughput):
            bucket = throughput[method]
            rate = f"{bucket['per_s']:7.2f}/s"
            tallies = "  ".join(
                [
                    f"{bucket['recent']:>4} recent",
                    f"{bucket['total']:>5} total",
                    f"{bucket['cached']:>4} cached",
                ]
            )
            lines.append(f"  {method:<{name_w}}  {rate}  {tallies}")
    else:
        lines.append("  (no results yet)")
    lines.append("")

    claimed = snapshot.get("claimed", [])
    series = snapshot.get("progress_series", {})
    lines.append(f"in flight ({len(claimed)} leases)")
    if claimed:
        for record in claimed:
            task_id = record["task_id"]
            objective = record.get("best_objective")
            objective_text = "-" if objective is None else f"{objective:.6g}"
            spark = sparkline(series.get(task_id, []))
            method = record.get("method") or "?"
            head = f"  {task_id[-17:]:<17} a{record['attempt']} {method:<22} "
            lease = f"lease {record['lease_age_s']:6.1f}s"
            lines.append(head + f"{lease}  best {objective_text:<12} {spark}")
    else:
        lines.append("  (idle)")
    return "\n".join(line[:width] for line in lines)


def run_top(
    directory: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    width: int = 100,
    stream=None,
    clear: bool = True,
) -> int:
    """Redraw loop: snapshot, render, sleep.  Returns frames drawn."""
    import sys

    out = stream if stream is not None else sys.stdout
    frames = 0
    try:
        while iterations is None or frames < iterations:
            frame = render_top(spool_snapshot(directory), width=width)
            if clear:
                out.write("\x1b[2J\x1b[H")
            out.write(frame + "\n")
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
