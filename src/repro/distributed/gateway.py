"""The solve gateway: an asyncio HTTP front door over the worker fleet.

Everything below ``POST /v1/solve`` already existed — :class:`SolveService`
prepares and coalesces tasks, the spool brokers them, workers solve and
publish.  What was missing is the thing that stands between *clients* and
the spool: admission control, fairness, and a network protocol.  The
gateway adds exactly that, with no dependency beyond the standard library:

* **admission control** — a hard cap on concurrently-waiting solve
  requests (503 + ``repro_gateway_shed_total{reason="capacity"}``), on top
  of the protocol layer's framing limits;
* **per-client rate limits** — one token bucket per client id (the
  ``X-Client-Id`` header, else the peer address); an empty bucket is a 429
  with ``Retry-After`` so well-behaved clients back off instead of spinning;
* **request coalescing** — identical problems from concurrent clients meet
  in the :class:`~repro.distributed.service.InFlightIndex` of the shard
  that owns their canonical hash and share one spool task; every attached
  request is counted in ``repro_gateway_coalesced_total`` and all of them
  stream the single result;
* **sharding + failover** — a :class:`~repro.distributed.spool.ShardRouter`
  consistent-hashes each problem across N spool directories.  While a
  request waits, the gateway runs the lease-recovery sweep (a worker that
  died mid-solve has its task requeued, no client action needed) and
  periodically re-probes shard health; a request waiting on a shard that
  goes unhealthy is transparently resubmitted to the next healthy shard
  (``repro_gateway_failover_total``);
* **progress streaming** — ``"stream": true`` (or ``Accept:
  text/event-stream``) turns the response into Server-Sent Events replaying
  the best-so-far incumbents that anytime solves publish into their claim
  file, filtered to strictly improving objectives, terminated by a
  ``result`` event;
* **wake-ups, not sleeps** — each shard has one ``result`` wake-up endpoint
  (:mod:`repro.distributed.wake`) on the event loop; a same-host ack,
  dead-letter or progress publish rings it and every request waiting on
  that shard re-probes its own result at once.  Liveness checks, lease
  recovery and shard probes stay on the shard's ``poll_interval`` cadence,
  which is also the fallback when no ring comes.

Endpoints::

    GET  /healthz       liveness + per-shard health
    GET  /metrics       Prometheus exposition of the process registry
    GET  /v1/shards     shard table: directory, healthy, occupancy
    POST /v1/solve      solve one instance (JSON in; JSON or SSE out)
    GET  /v1/tasks/ID   poll a task: state, progress, outcome

The server is single-threaded asyncio; spool operations are local-
filesystem metadata calls (fractions of a millisecond), so they run inline
rather than through an executor — the simplicity is worth more than the
microseconds, and the benchmark holds the throughput bar honest.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.distributed import wake
from repro.distributed.protocol import (
    HttpRequest,
    ProtocolError,
    SolveRequest,
    error_response,
    json_response,
    parse_solve_request,
    read_request,
    sse_event,
    sse_preamble,
)
from repro.distributed.service import SolveService, _Entry
from repro.distributed.spool import ShardRouter, SpoolError, WorkQueue
from repro.model.problem import AssignmentProblem
from repro.model.serialization import problem_from_json
from repro.observability.tracing import Span, Tracer
from repro.runtime.cache import problem_fingerprint
from repro.runtime.registry import SolverRegistry
from repro.runtime.runner import BatchTask


class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at ``rate``/s."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float,
                 now: Optional[float] = None) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = time.monotonic() if now is None else now

    def try_take(self, now: Optional[float] = None) -> Tuple[bool, float]:
        """``(allowed, retry_after_s)`` — retry_after is 0 when allowed."""
        now = time.monotonic() if now is None else now
        self.tokens = min(self.burst,
                          self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class ClientLimiter:
    """Per-client token buckets with a bounded client table (LRU evict)."""

    def __init__(self, rate: float, burst: float,
                 max_clients: int = 10_000) -> None:
        self.rate = rate
        self.burst = burst
        self.max_clients = max_clients
        self._buckets: Dict[str, TokenBucket] = {}

    def check(self, client: str) -> Tuple[bool, float]:
        bucket = self._buckets.pop(client, None)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            while len(self._buckets) >= self.max_clients:
                # oldest-touched client first (dict preserves insert order)
                self._buckets.pop(next(iter(self._buckets)))
        self._buckets[client] = bucket      # re-insert = touch
        return bucket.try_take()


@dataclass
class GatewayConfig:
    """Tunables for one gateway process."""

    host: str = "127.0.0.1"
    port: int = 0                       #: 0 = ephemeral (bound port printed)
    rate_per_client: Optional[float] = None   #: requests/s; None disables
    burst_per_client: float = 10.0
    max_inflight: int = 256             #: concurrent waiting solve requests
    max_body_bytes: int = 4 * 1024 * 1024
    default_timeout_s: float = 120.0    #: per-request wait budget
    recover_interval: float = 0.25      #: min spacing of lease-recovery sweeps
    probe_interval: float = 1.0         #: min spacing of shard health probes
    vanish_polls: int = 3               #: consecutive misses ⇒ task vanished


class Gateway:
    """Serve solve requests over HTTP, brokered through sharded spools.

    Parameters
    ----------
    shards:
        Spool directories (or prebuilt :class:`WorkQueue` instances — tests
        pass these to control lease timeouts).  One :class:`SolveService`
        per shard keeps each shard's in-flight coalescing index exactly
        where its duplicates land, because the router sends a given problem
        hash to one shard deterministically.  A waiting request falls back
        to polling its shard every ``WorkQueue.poll_interval``.
    cache:
        Result cache each shard's :class:`SolveService` probes before it
        spools a task.  Only the workers write results into a cache, so it
        must be the store they write: the default ``"spool"`` (each shard's
        colocated store, the one ``repro worker`` uses) or ``None``.
    """

    def __init__(self, shards: Sequence[Union[str, WorkQueue]],
                 config: Optional[GatewayConfig] = None,
                 registry: Optional[SolverRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 cache: Any = "spool") -> None:
        if not shards:
            raise ValueError("gateway needs at least one spool shard")
        self.config = config or GatewayConfig()
        self.queues: List[WorkQueue] = [
            shard if isinstance(shard, WorkQueue) else WorkQueue(shard)
            for shard in shards]
        self.router = ShardRouter(self.queues)
        self.services: List[SolveService] = [
            SolveService(queue, cache=cache, registry=registry,
                         tracer=tracer) for queue in self.queues]
        self.tracer = tracer
        self.metrics = self.queues[0].metrics
        self._requests_total = self.metrics.counter(
            "repro_gateway_requests_total",
            "Gateway HTTP requests by route and status code")
        self._request_seconds = self.metrics.histogram(
            "repro_gateway_request_seconds",
            "Gateway request wall time by route")
        self._coalesced_total = self.metrics.counter(
            "repro_gateway_coalesced_total",
            "Solve requests attached to an identical in-flight solve")
        self._shed_total = self.metrics.counter(
            "repro_gateway_shed_total",
            "Requests rejected before solving (rate limit, capacity)")
        self._inflight_gauge = self.metrics.gauge(
            "repro_gateway_inflight",
            "Solve requests currently waiting on a result")
        self._failover_total = self.metrics.counter(
            "repro_gateway_failover_total",
            "Waiting solves resubmitted after their shard went unhealthy")
        self._limiter = (ClientLimiter(self.config.rate_per_client,
                                       self.config.burst_per_client)
                         if self.config.rate_per_client else None)
        self._inflight = 0
        self._last_recover = 0.0
        self._last_probe = 0.0
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        #: per shard: the ``result`` wake-up endpoint and the event the
        #: requests waiting on that shard block on (replaced on every ring)
        self._endpoints: List[wake.Endpoint] = []
        self._wakes: List[asyncio.Event] = []

    # -------------------------------------------------------------- lifecycle
    async def _open(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        for index, queue in enumerate(self.queues):
            endpoint = wake.Endpoint(queue.directory, wake.RESULT)
            self._endpoints.append(endpoint)
            self._wakes.append(asyncio.Event())
            if endpoint.open():
                loop.add_reader(endpoint.fd, self._on_wake, index)

    def _on_wake(self, index: int) -> None:
        """A ring on shard ``index``: release every request waiting on it."""
        self._endpoints[index].drain()
        self._wakes[index].set()
        self._wakes[index] = asyncio.Event()

    def _close_endpoints(self, loop: asyncio.AbstractEventLoop) -> None:
        for endpoint in self._endpoints:
            if endpoint.fd is not None:
                loop.remove_reader(endpoint.fd)
            endpoint.close()
        self._endpoints = []
        self._wakes = []

    async def _serve(self) -> None:
        await self._open()
        print(f"gateway listening on http://{self.config.host}:{self.port} "
              f"({len(self.queues)} shard(s))", flush=True)
        try:
            async with self._server:
                await self._server.serve_forever()
        finally:
            self._close_endpoints(asyncio.get_running_loop())

    def serve_forever(self) -> None:
        """Run the gateway on this thread until interrupted (CLI path)."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass

    def start_background(self) -> "Gateway":
        """Run the server on a daemon thread; returns once the port is bound."""

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self._open())
            self._started.set()
            try:
                loop.run_forever()
            finally:
                self._close_endpoints(loop)
                self._server.close()
                loop.run_until_complete(self._server.wait_closed())
                to_cancel = asyncio.all_tasks(loop)
                for task in to_cancel:
                    task.cancel()
                if to_cancel:
                    loop.run_until_complete(
                        asyncio.gather(*to_cancel, return_exceptions=True))
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-gateway")
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("gateway failed to bind within 10s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop = None
            self._thread = None

    # ------------------------------------------------------------ connection
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.config.max_body_bytes)
                except ProtocolError as exc:
                    self._count(route="other", code=exc.status)
                    writer.write(error_response(exc))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                if request is None:
                    return
                keep_alive = await self._dispatch(request, writer, peer_host)
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _count(self, route: str, code: int) -> None:
        self._requests_total.inc(route=route, code=str(code))

    async def _dispatch(self, request: HttpRequest,
                        writer: asyncio.StreamWriter,
                        peer_host: str) -> bool:
        """Route one request; returns whether to keep the connection."""
        started = time.monotonic()
        route = "other"
        try:
            if request.path == "/healthz" and request.method == "GET":
                route = "healthz"
                writer.write(self._healthz())
            elif request.path == "/metrics" and request.method == "GET":
                route = "metrics"
                writer.write(_plain(
                    200, self.metrics.to_prometheus().encode("utf-8")))
            elif request.path == "/v1/shards" and request.method == "GET":
                route = "shards"
                writer.write(self._shards())
            elif request.path.startswith("/v1/tasks/") \
                    and request.method == "GET":
                route = "tasks"
                writer.write(self._task_status(
                    request.path[len("/v1/tasks/"):]))
            elif request.path == "/v1/solve":
                route = "solve"
                if request.method != "POST":
                    raise ProtocolError(405, "use POST /v1/solve")
                return await self._solve(request, writer, peer_host, started)
            else:
                raise ProtocolError(404, f"no such endpoint: {request.path}")
            self._count(route, 200)
            return True
        except ProtocolError as exc:
            self._count(route, exc.status)
            writer.write(error_response(exc))
            return False
        except Exception as exc:       # noqa: BLE001 — boundary of the server
            self._count(route, 500)
            writer.write(error_response(
                ProtocolError(500, f"internal error: {exc}")))
            return False
        finally:
            self._request_seconds.observe(time.monotonic() - started,
                                          route=route)

    # ---------------------------------------------------------- small routes
    def _healthz(self) -> bytes:
        healthy = self.router.healthy_indices()
        return json_response(200 if healthy else 503, {
            "ok": bool(healthy),
            "shards": len(self.queues),
            "healthy_shards": len(healthy),
            "inflight": self._inflight,
        })

    def _shards(self) -> bytes:
        table = []
        for index, queue in enumerate(self.queues):
            entry: Dict[str, Any] = {
                "index": index,
                "directory": queue.directory,
                "healthy": self.router.is_healthy(index),
            }
            try:
                entry["counts"] = queue.counts()
            except OSError:
                entry["counts"] = None
            table.append(entry)
        return json_response(200, {"shards": table})

    def _task_status(self, task_id: str) -> bytes:
        if not task_id:
            raise ProtocolError(404, "missing task id")
        shard = self.router.find_task(task_id)
        if shard is None:
            raise ProtocolError(404, f"unknown task: {task_id}")
        queue = self.queues[shard]
        outcome = queue.outcome(task_id)
        if outcome is not None:
            state = "failed" if outcome.get("dead_lettered") else "done"
            return json_response(200, {"task_id": task_id, "shard": shard,
                                       "state": state, "result": outcome})
        return json_response(200, {"task_id": task_id, "shard": shard,
                                   "state": "running",
                                   "progress": queue.progress(task_id)})

    # ---------------------------------------------------------------- solve
    async def _solve(self, request: HttpRequest,
                     writer: asyncio.StreamWriter, peer_host: str,
                     started: float) -> bool:
        # shed *before* touching the body: a rejected request should cost
        # the gateway as close to nothing as possible
        client = request.headers.get("x-client-id", peer_host)
        if self._limiter is not None:
            allowed, retry_after = self._limiter.check(client)
            if not allowed:
                self._shed_total.inc(reason="rate")
                self._count("solve", 429)
                writer.write(json_response(
                    429, {"error": "rate limit exceeded",
                          "retry_after_s": round(retry_after, 3)},
                    headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
                    keep_alive=False))
                return False
        if self._inflight >= self.config.max_inflight:
            self._shed_total.inc(reason="capacity")
            self._count("solve", 503)
            writer.write(json_response(
                503, {"error": "gateway at capacity"},
                headers={"Retry-After": "1"}, keep_alive=False))
            return False

        solve = parse_solve_request(request)
        try:
            problem = problem_from_json(solve.problem_json)
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(400, f"invalid problem: {exc}") from exc

        self._inflight += 1
        self._inflight_gauge.set(self._inflight)
        span = (self.tracer.root("gateway.solve", client=client)
                if self.tracer is not None else None)
        try:
            envelope = await self._solve_and_wait(problem, solve, writer,
                                                  started, span)
            if envelope is not None:            # non-SSE: one JSON response
                self._count("solve", 200)
                writer.write(json_response(200, envelope))
            if span is not None:
                span.finish(status="ok")
            return envelope is not None          # SSE closes the connection
        except ProtocolError:
            if span is not None:
                span.finish(status="error")
            raise
        finally:
            self._inflight -= 1
            self._inflight_gauge.set(self._inflight)

    def _submit(self, problem: AssignmentProblem, solve: SolveRequest,
                span: Optional[Span]) -> Tuple[int, Optional[str],
                                               _Entry, SolveService]:
        """Route + submit one problem; ``(shard, task_id, entry, service)``.

        ``task_id`` is ``None`` on a cache hit (nothing was spooled).  The
        shard's :class:`SolveService` does the heavy lifting: cache probe,
        canonical key, and cross-client coalescing through its in-flight
        index.  A spooled task's span nests under the request's ``span``,
        so a traced request is one trace.
        """
        task = BatchTask(problem=problem, method=solve.method,
                         options=dict(solve.options), tag=problem.name,
                         deadline_s=solve.deadline_s)
        # route on the instance's fingerprint, the identity part of the
        # result key: every spelling of one instance and method (an alias,
        # "auto") meets in the same shard's in-flight index and cache; the
        # fingerprint is memoised, so prepare_tasks reuses it
        shard = self.router.route(problem_fingerprint(problem))
        service = self.services[shard]
        submission = service.submit([task])
        entry = submission.entries[0]
        if entry.cached_entry is not None:
            return shard, None, entry, service
        entry.parent = span
        service.enqueue(submission)
        if entry.coalesced:
            self._coalesced_total.inc()
        return shard, entry.task_id, entry, service

    async def _solve_and_wait(self, problem: AssignmentProblem,
                              solve: SolveRequest,
                              writer: asyncio.StreamWriter,
                              started: float, span: Optional[Span]
                              ) -> Optional[Dict[str, Any]]:
        """Submit and wait for the outcome; returns the JSON envelope, or
        ``None`` after writing an SSE stream (stream responses are written
        here, terminal JSON responses by the caller)."""
        try:
            shard, task_id, entry, service = self._submit(problem, solve, span)
        except SpoolError as exc:
            raise ProtocolError(503, str(exc)) from exc

        sse = solve.stream
        if sse:
            writer.write(sse_preamble())
            writer.write(sse_event("task", {
                "task_id": task_id, "shard": shard,
                "coalesced": entry.coalesced,
                "cached": entry.cached_entry is not None}))
            await writer.drain()

        if entry.cached_entry is not None:
            return await self._finish(
                self._envelope_from_cache(entry, shard), sse, writer)

        timeout = solve.timeout_s or self.config.default_timeout_s
        deadline = started + timeout
        queue = service.queue
        last_best: Optional[float] = None
        missing_polls = 0
        next_beat = time.monotonic() + queue.poll_interval
        while True:
            # taken before the probe: a ring landing after it sets this event
            rung = self._wakes[shard]
            outcome = None
            try:
                outcome = queue.outcome(task_id)
            except OSError:
                self.router.probe()    # a sick shard: re-judge immediately
            if outcome is not None:
                service.complete(entry, task_id, outcome)
                return await self._finish(
                    self._envelope_from_outcome(outcome, task_id, shard,
                                                entry), sse, writer)

            if sse:
                record = None
                try:
                    record = queue.progress(task_id)
                except OSError:
                    pass
                best = (record or {}).get("best_objective")
                if (isinstance(best, (int, float))
                        and (last_best is None or best < last_best)):
                    # strictly improving incumbents only: heartbeat
                    # republishes are dropped, regressions cannot happen
                    last_best = float(best)
                    writer.write(sse_event("progress", {
                        "task_id": task_id,
                        "best_objective": last_best,
                        "incumbents": record.get("incumbents"),
                        "source": record.get("source")}))
                    await writer.drain()

            # a ring only re-probes this request's own files; the fleet
            # chores below keep the poll cadence however often rings come
            if time.monotonic() >= next_beat:
                next_beat = time.monotonic() + queue.poll_interval
                self._maybe_recover()
                self._maybe_probe()
                vanished = False
                healthy = self.router.is_healthy(shard)
                if healthy:
                    # a task with no artifact anywhere (not pending, not
                    # claimed, no result, no dead-letter) was lost to
                    # external cleanup; one listing can race the claim
                    # rename, so require consecutive misses before
                    # resubmitting
                    try:
                        live = queue.task_live(task_id)
                    except OSError:
                        live = False
                    missing_polls = 0 if live else missing_polls + 1
                    vanished = missing_polls >= self.config.vanish_polls
                if vanished or not healthy:
                    shard, task_id, entry, service, queue = self._failover(
                        problem, solve, span, shard, sse, writer,
                        vanished=vanished)
                    if entry.cached_entry is not None:
                        return await self._finish(
                            self._envelope_from_cache(entry, shard), sse,
                            writer)
                    if sse:
                        await writer.drain()
                    last_best = None   # new task: replay improvements fresh
                    missing_polls = 0
                    continue

            now = time.monotonic()
            if now >= deadline:
                service.complete(entry, task_id,
                                 {"ok": False, "status": "timeout"})
                if sse:
                    writer.write(sse_event("error", {
                        "error": f"request timed out after {timeout:.3g}s",
                        "task_id": task_id}))
                    await writer.drain()
                    self._count("solve", 504)
                    return None
                raise ProtocolError(
                    504, f"solve did not finish within {timeout:.3g}s "
                         f"(task {task_id} may still complete; poll "
                         f"/v1/tasks/{task_id})")
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    rung.wait(), max(min(next_beat, deadline) - now, 0.0))

    def _failover(self, problem: AssignmentProblem, solve: SolveRequest,
                  span: Optional[Span], dead_shard: int, sse: bool,
                  writer: asyncio.StreamWriter, vanished: bool = False
                  ) -> Tuple[int, Optional[str], _Entry, SolveService,
                             WorkQueue]:
        """Resubmit a waiting solve to the next healthy shard."""
        self._failover_total.inc()
        if vanished:
            # the shard is fine but the task is gone — re-route will land
            # on the same shard and enqueue a fresh task
            self.router.probe()
        try:
            shard, task_id, entry, service = self._submit(problem, solve,
                                                          span)
        except SpoolError as exc:
            raise ProtocolError(503, str(exc)) from exc
        if sse:
            writer.write(sse_event("failover", {
                "from_shard": dead_shard, "to_shard": shard,
                "task_id": task_id, "vanished": vanished}))
        return shard, task_id, entry, service, service.queue

    async def _finish(self, envelope: Dict[str, Any], sse: bool,
                      writer: asyncio.StreamWriter
                      ) -> Optional[Dict[str, Any]]:
        if not sse:
            return envelope
        writer.write(sse_event("result", envelope))
        await writer.drain()
        self._count("solve", 200)
        return None

    # ------------------------------------------------------------- envelopes
    @staticmethod
    def _envelope_from_cache(entry: _Entry, shard: int) -> Dict[str, Any]:
        cached = entry.cached_entry or {}
        return {"task_id": None, "shard": shard, "ok": True,
                "status": cached.get("status") or "feasible",
                "objective": cached.get("objective"),
                "placement": dict(cached.get("placement") or {}),
                "elapsed_s": cached.get("elapsed_s", 0.0),
                "cached": True, "cache_source": entry.cache_source,
                "coalesced": False}

    @staticmethod
    def _envelope_from_outcome(outcome: Dict[str, Any], task_id: str,
                               shard: int, entry: _Entry) -> Dict[str, Any]:
        envelope = {"task_id": task_id, "shard": shard,
                    "ok": bool(outcome.get("ok")),
                    "status": outcome["status"],
                    "cached": bool(outcome.get("cached")),
                    "coalesced": entry.coalesced}
        if envelope["ok"]:
            envelope["objective"] = outcome.get("objective")
            envelope["placement"] = dict(outcome.get("placement") or {})
            envelope["elapsed_s"] = outcome.get("elapsed_s", 0.0)
        else:
            envelope["error"] = outcome.get("error", "unknown error")
            envelope["error_kind"] = outcome.get("error_kind")
        return envelope

    # ------------------------------------------------------------ fleet beat
    def _maybe_recover(self) -> None:
        now = time.monotonic()
        if now - self._last_recover >= self.config.recover_interval:
            self._last_recover = now
            try:
                self.router.recover_all()
            except OSError:
                self.router.probe()

    def _maybe_probe(self) -> None:
        now = time.monotonic()
        if now - self._last_probe >= self.config.probe_interval:
            self._last_probe = now
            self.router.probe()


def _plain(status: int, body: bytes) -> bytes:
    from repro.distributed.protocol import response

    return response(status, body, content_type="text/plain; version=0.0.4")
