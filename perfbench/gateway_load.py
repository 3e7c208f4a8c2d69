"""The gateway workloads: launch ``repro gateway``, drive it, read its records.

The gateway runs as the shipped CLI does (``repro gateway --spool DIR
--port 0 --local-workers 1``), with the default poll and lease settings,
in its own process group.  Its stdout and the worker's go to a log file,
which is how set-up completion is seen: the gateway has printed its port,
the worker has printed that it is pulling, and ``/healthz`` answers 200.

Load comes from one process with two closed-loop keep-alive clients (two
threads, two connections).  Per-layer times come from outside: client
wall-clock send/receive stamps joined by ``task_id`` with the spool's
``events.jsonl`` (through ``repro.observability.audit.build_timelines``),
plus one ``/metrics`` scrape at the end.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import speed
from instances import Instance

_LISTEN_RE = re.compile(r"gateway listening on http://[^:]+:(\d+)")
_WORKER_READY = "pulling from"
#: Closed-loop clients: two threads, two keep-alive connections, one per
#: CPU of the 2-vCPU dev box.
CLIENTS = 2
_STOP_WAIT_S = 15.0
#: Response fields the benchmark reads (the rest is dropped on arrival).
_KEPT = ("ok", "status", "objective", "task_id", "cached", "coalesced")
_SETUP_TIMEOUT_S = 60.0


class Gateway:
    """One ``repro gateway`` process (plus its local worker)."""

    def __init__(self, root: str, workdir: str, name: str) -> None:
        self.spool = os.path.join(workdir, name, "spool")
        os.makedirs(self.spool)
        self.log_path = os.path.join(workdir, name, "gateway.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = os.path.join(workdir, name)
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "gateway",
                 "--spool", self.spool, "--port", "0", "--local-workers", "1"],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=os.path.join(workdir, name),
                start_new_session=True)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + _SETUP_TIMEOUT_S
        port: Optional[int] = None
        worker_ready = False
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited during set-up: "
                                   f"{self._log_tail()}")
            with open(self.log_path, "r", encoding="utf-8") as log:
                text = log.read()
            match = _LISTEN_RE.search(text)
            if match:
                port = int(match.group(1))
            worker_ready = _WORKER_READY in text
            if port is not None and worker_ready and self._healthy(port):
                return port
            time.sleep(0.002)
        raise RuntimeError(f"gateway not ready within {_SETUP_TIMEOUT_S:g}s: "
                           f"{self._log_tail()}")

    @staticmethod
    def _healthy(port: int) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8") as log:
                return log.read()[-2000:]
        except OSError:
            return ""

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT the process group (the gateway stops its worker), wait."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(timeout=_STOP_WAIT_S)
        except subprocess.TimeoutExpired:
            pass
        # reap stragglers of the group (the worker) whatever happened above
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def request_body(problem_json: str) -> bytes:
    """A ``POST /v1/solve`` body with the server-default method."""
    return ('{"problem": ' + problem_json + ', "timeout_s": 120}').encode()


@dataclass
class Op:
    instance: Instance
    sent_wall: float
    received_wall: float
    latency_s: float
    block: int             #: load block the request ran in
    status_code: int
    payload: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.status_code == 200
                and self.payload.get("ok") is True
                and self.payload.get("status") == "optimal"
                and self.instance.matches(self.payload.get("objective")))


def drive(port: int, instances: Sequence[Instance],
          bodies: Dict[int, bytes], seconds: float, block_s: float = math.inf,
          calibrate: bool = False) -> Dict[str, Any]:
    """Closed loop: ``CLIENTS`` keep-alive connections send ``instances`` in
    order until ``seconds`` of load have passed or the stream runs out.

    The load runs in blocks of ``block_s``; between blocks the clients
    pause until in-flight requests have completed.  With ``calibrate`` a
    calibration sample (:func:`speed.sample_all_cpus`) brackets every
    block, so each block's times can be scaled to reference seconds.
    """
    ops: List[Op] = []
    lock = threading.Lock()
    cursor = iter(instances)
    conns = [http.client.HTTPConnection("127.0.0.1", port, timeout=120)
             for _ in range(CLIENTS)]
    exhausted = threading.Event()

    def client(slot: int, block: int, stop_at: float) -> None:
        conn = conns[slot]
        while time.perf_counter() < stop_at:
            with lock:
                instance = next(cursor, None)
            if instance is None:
                exhausted.set()
                return
            sent_wall = time.time()
            t0 = time.perf_counter()
            try:
                conn.request("POST", "/v1/solve",
                             body=bodies[instance.index],
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                raw = response.read()
                op = Op(instance, sent_wall, time.time(),
                        time.perf_counter() - t0, block, response.status)
                try:
                    payload = json.loads(raw)
                    op.payload = {key: payload.get(key) for key in _KEPT}
                except (ValueError, AttributeError):
                    op.error = "unparseable response"
            except (OSError, http.client.HTTPException) as exc:
                op = Op(instance, sent_wall, time.time(),
                        time.perf_counter() - t0, block, 0,
                        error=f"{type(exc).__name__}: {exc}")
                conn.close()
                conn = conns[slot] = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=120)
            with lock:
                ops.append(op)

    walls: List[float] = []
    samples: List[float] = []
    # the load generator's own collector pauses would land on latencies
    gc.collect()
    gc.disable()
    try:
        if calibrate:
            samples.append(speed.sample_all_cpus())
        while sum(walls) < seconds and not exhausted.is_set():
            started = time.perf_counter()
            stop_at = started + min(block_s, seconds - sum(walls))
            threads = [threading.Thread(target=client,
                                        args=(slot, len(walls), stop_at))
                       for slot in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            walls.append(time.perf_counter() - started)
            if calibrate:
                samples.append(speed.sample_all_cpus())
    finally:
        gc.enable()
        for conn in conns:
            conn.close()
    return {"ops": ops, "walls": walls, "samples": samples,
            "wall_s": sum(walls), "exhausted": exhausted.is_set()}


# ------------------------------------------------------------ layer records

def _first(events: List[Dict[str, Any]], kind: str) -> Optional[float]:
    for event in events:
        if event.get("kind") == kind:
            return event.get("ts")
    return None


def stage_breakdown(spool: str, ops: Sequence[Op], wall_s: float,
                    window: Sequence[float]) -> Dict[str, Any]:
    """Partition each spooled request by the spool's lifecycle events.

    send → submit → claim → solve_start → solve_end → ack → receive: the six
    stages add up to the client-side latency exactly.
    """
    from repro.observability.audit import build_timelines

    timelines = {record["task_id"]: record
                 for record in build_timelines(spool)}
    stages: Dict[str, List[float]] = {name: [] for name in (
        "admit", "queue_wait", "pre_solve", "solve", "ack", "discovery")}
    for op in ops:
        task_id = op.payload.get("task_id")
        record = timelines.get(task_id) if task_id else None
        if record is None or op.payload.get("coalesced"):
            continue
        events = record["events"]
        marks = [op.sent_wall, _first(events, "submit"),
                 _first(events, "claim"), _first(events, "solve_start"),
                 _first(events, "solve_end"), _first(events, "ack"),
                 op.received_wall]
        if any(mark is None for mark in marks):
            continue
        for name, start, end in zip(stages, marks, marks[1:]):
            stages[name].append(end - start)
    lo, hi = window
    submits = requeues = 0
    for record in timelines.values():
        for event in record["events"]:
            if lo <= event.get("ts", 0.0) <= hi:
                submits += event.get("kind") == "submit"
                requeues += event.get("kind") == "requeue"
    return {"stages": stages,
            "busy_share": sum(stages["solve"]) / wall_s if wall_s else 0.0,
            "tasks_submitted": submits, "requeues": requeues}


def server_seconds_p50(metrics_text: str) -> float:
    """Median of ``repro_gateway_request_seconds{route="solve"}``."""
    for line in metrics_text.splitlines():
        if (line.startswith("repro_gateway_request_seconds{")
                and 'route="solve"' in line and 'quantile="0.5"' in line):
            return float(line.rsplit(" ", 1)[1])
    raise RuntimeError("no solve-route latency summary in /metrics")
