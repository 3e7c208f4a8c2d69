"""Distributed tracing: span model, sampling, cross-process continuity.

The continuity test runs a real two-worker fleet (``repro worker``
subprocesses) against a spool and asserts one shared trace id threads
submit → claim → solve → ack across process boundaries.  The bit-identity
test pins the observability contract: tracing a solve must not change its
result.
"""

import collections
import json
import os
import subprocess
import sys
import time

import pytest

from repro.distributed import SolveService, SolveWorker, WorkQueue
from repro.observability.events import EventLog
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import (
    Tracer,
    chrome_trace,
    group_traces,
    load_spans,
    render_profile,
    render_waterfall,
    sampled,
    write_chrome_trace,
)
from repro.workloads import random_problem

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


class TestSpanModel:
    def test_span_round_trip_through_event_log(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        tracer = Tracer(log, registry=MetricsRegistry())
        with tracer.start("root", task_id="t-1", method="colored-ssb") as root:
            root.add_event("incumbent", objective=4.0)
            with root.child("inner") as inner:
                inner.set_attr("depth", 1)

        spans = load_spans(log)
        assert [s["name"] for s in spans] == ["root", "inner"]
        root_rec, inner_rec = spans
        assert root_rec["trace_id"] == inner_rec["trace_id"]
        assert inner_rec["parent_id"] == root_rec["span_id"]
        assert root_rec["task_id"] == "t-1"
        assert root_rec["attrs"]["method"] == "colored-ssb"
        assert root_rec["events"][0]["name"] == "incumbent"
        assert inner_rec["attrs"]["depth"] == 1
        assert root_rec["dur_s"] >= inner_rec["dur_s"] >= 0.0

    def test_finish_is_idempotent(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        tracer = Tracer(log, registry=MetricsRegistry())
        span = tracer.start("once")
        span.finish()
        span.finish()
        assert len(load_spans(log)) == 1

    def test_spans_total_counter(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer(EventLog(str(tmp_path / "e.jsonl")), registry=registry)
        tracer.start("solve").finish()
        tracer.start("solve").finish()
        assert registry.get("repro_trace_spans_total").value(kind="solve") == 2

    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(None)
        assert not tracer.enabled
        assert tracer.root("task", problem_hash="ff" * 16) is None
        assert tracer.resume({"trace_id": "x", "log": ""}, "solve") is None
        assert Tracer.from_context(None) is None
        assert Tracer.from_context({"trace_id": "x"}) is None


class TestSampling:
    def test_head_sampling_is_deterministic_and_bounded(self):
        digest = "deadbeef" + "0" * 56
        assert sampled(digest, 1.0)
        assert not sampled(digest, 0.0)
        assert all(sampled(digest, 0.5) == sampled(digest, 0.5)
                   for _ in range(5))

    def test_rate_selects_roughly_that_share(self):
        import hashlib

        digests = [hashlib.sha256(str(i).encode()).hexdigest()
                   for i in range(2000)]
        share = sum(sampled(d, 0.25) for d in digests) / len(digests)
        assert 0.18 < share < 0.32

    def test_sampled_out_root_returns_none(self, tmp_path):
        tracer = Tracer(EventLog(str(tmp_path / "e.jsonl")), sample_rate=0.0)
        assert tracer.root("task", problem_hash="ab" * 32) is None


class TestBitIdentity:
    def test_traced_solve_matches_untraced_solve(self, tmp_path):
        """Tracing observes; it must never change the solver's answer."""
        from repro.runtime.runner import BatchRunner

        problem = random_problem(n_processing=14, n_satellites=3, seed=11,
                                 sensor_scatter=1.0)
        plain = BatchRunner(workers=0).run([problem]).results[0]
        tracer = Tracer.for_spool(str(tmp_path), registry=MetricsRegistry())
        traced = BatchRunner(workers=0, tracer=tracer).run([problem]).results[0]

        assert traced.objective == plain.objective
        assert traced.placement == plain.placement
        assert traced.details == plain.details
        # and the traced run actually recorded solve + method spans
        names = [s["name"] for s in load_spans(str(tmp_path))]
        assert "solve" in names
        assert any(name.startswith("method:") for name in names)

    def test_label_profile_splits_the_bounds(self):
        from repro import solve

        problem = random_problem(n_processing=12, n_satellites=3, seed=5,
                                 sensor_scatter=1.0)
        # no beam: the exact pass runs
        item = solve(problem, method="colored-ssb-labels", beam_width=0)

        profile = item.details["profile"]
        assert profile["engine"] == "label-search"
        assert profile["beam_certified"] is False
        assert profile["labels_created"] > 0
        # the sweep checks the per-colour and Lagrangian bounds and the
        # meet pre-filter; the DP's floor slot is not in its profile
        assert "pruned_floor" not in profile
        assert "pruned_joint" not in profile
        assert profile["pruned_total"] == (profile["pruned_colour"]
                                           + profile["pruned_lagrange"]
                                           + profile["pruned_meet"])
        # the uncertified pass picked a Lagrangian weighting: its root
        # bound rides along, at most the optimum
        assert profile["lagrange_root"] <= item.details["ssb_weight"]
        # the midpoint probe found the optimum, or missed and the pass reran
        assert profile["exact_passes"] in (1, 2)

    @pytest.mark.parametrize("n, seed", [(24, 0), (30, 1)])
    @pytest.mark.parametrize("method, options", [
        ("colored-ssb", {}),
        ("colored-ssb-labels", {"beam_width": 0}),
        ("colored-ssb-labels", {"beam_width": 128}),
        ("pareto-dp-pruned", {}),
    ], ids=["colored-ssb", "labels-beam0", "labels-beam128", "dp-pruned"])
    def test_span_profile_equals_details(self, tmp_path, method, options, n,
                                         seed):
        """A traced exact solve's method span carries its details' profile
        as a whole: one record per engine run.  The scattered instances
        keep the beam from certifying, so the exact pass runs (twice on
        n=24 seed 0, where the label sweep's probe misses)."""
        from repro.runtime.runner import BatchRunner, BatchTask

        problem = random_problem(n_processing=n, n_satellites=4, seed=seed,
                                 sensor_scatter=1.0)
        tracer = Tracer.for_spool(str(tmp_path), registry=MetricsRegistry())
        task = BatchTask(problem=problem, method=method, options=options)
        item = BatchRunner(workers=0, tracer=tracer).run([task]).results[0]

        profile = item.details["profile"]
        assert profile["labels_created"] > 0
        assert profile.get("beam_certified") in (None, False)
        (method_span,) = [s for s in load_spans(str(tmp_path))
                          if str(s["name"]).startswith("method:")]
        assert method_span["profile"] == profile

    @pytest.mark.parametrize("n, seed", [(10, 0), (12, 1), (14, 2)])
    @pytest.mark.parametrize("method", ["portfolio", "colored-ssb-incremental"],
                             ids=["portfolio", "incremental"])
    def test_portfolio_profiles_sit_on_stage_spans(self, tmp_path, method, n,
                                                   seed):
        """Each exact stage of a traced portfolio records its own engine's
        profile on a ``stage:*`` span; the method span carries none.  The
        warm-started portfolio's first solve of a structure runs the same
        stages."""
        from repro.baselines.greedy import maximal_offload_assignment
        from repro.baselines.pareto_dp import pareto_dp_pruned_assignment
        from repro.core.assignment_graph import build_assignment_graph
        from repro.core.dwg import SSBWeighting
        from repro.core.label_search import LabelDominanceSearch
        from repro.runtime.runner import BatchRunner, BatchTask

        problem = random_problem(n_processing=n, n_satellites=3, seed=seed,
                                 sensor_scatter=0.3)
        tracer = Tracer.for_spool(str(tmp_path), registry=MetricsRegistry())
        options = ({"warm_dir": str(tmp_path / "warm")}
                   if method == "colored-ssb-incremental" else {})
        task = BatchTask(problem=problem, method=method, options=options)
        item = BatchRunner(workers=0, tracer=tracer).run([task]).results[0]
        # the cross-check ran and agreed: the labels stage's objective is
        # the answer
        assert item.details["cross_check_agreed"] is True
        assert item.details.get("warm_started") in (None, False)
        seed = maximal_offload_assignment(problem)

        spans = {s["name"]: s for s in load_spans(str(tmp_path))}
        method_span = spans[f"method:{method}"]
        assert "profile" not in method_span
        for name in ("stage:labels", "stage:dp-pruned"):
            assert spans[name]["parent_id"] == method_span["span_id"]
        dwg = build_assignment_graph(problem).dwg
        label_profile = LabelDominanceSearch().search(
            dwg, incumbent=SSBWeighting().combine(
                seed.host_load(), seed.max_satellite_load())
        ).stats.profile()
        _, dp_details = pareto_dp_pruned_assignment(
            problem, incumbent=item.details["objective"])
        assert spans["stage:labels"]["profile"] == label_profile
        assert spans["stage:dp-pruned"]["profile"] == dp_details["profile"]
        assert dp_details["profile"]["engine"] == "pareto-dp"
        assert dp_details["profile"]["labels_created"] > 0

    def test_certified_profile_says_why_it_counts_nothing(self, tmp_path):
        from repro.runtime.runner import BatchRunner

        problem = random_problem(n_processing=12, n_satellites=3, seed=5,
                                 sensor_scatter=1.0)
        tracer = Tracer.for_spool(str(tmp_path), registry=MetricsRegistry())
        item = BatchRunner(workers=0, tracer=tracer).run([problem]).results[0]

        profile = item.details["profile"]
        assert profile["beam_certified"] is True
        assert profile["labels_created"] == 0
        assert profile["lagrange_root"] is None
        assert profile["exact_passes"] == 0
        assert profile["nodes_swept"] == 0
        span_profile = next(
            s["profile"] for s in load_spans(str(tmp_path))
            if str(s["name"]).startswith("method:") and s.get("profile"))
        assert span_profile == profile


class TestCrossProcessContinuity:
    def _spawn_worker(self, spool):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--spool", spool,
             "--poll-interval", "0.02"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    @pytest.mark.timeout(180)
    def test_one_trace_id_spans_submit_claim_solve_ack(self, spool):
        problems = [random_problem(n_processing=8, n_satellites=3, seed=s)
                    for s in (1, 2)]
        service = SolveService(spool, cache=None, trace=True)
        submission = service.submit(problems)
        workers = [self._spawn_worker(spool) for _ in range(2)]
        try:
            report = service.gather(submission, timeout=120.0)
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.wait()
        assert report.failed == 0

        traces = group_traces(load_spans(spool))
        assert len(traces) == len(problems)
        for spans in traces.values():
            names = {s["name"] for s in spans}
            assert {"task", "submit", "claim", "solve", "ack"} <= names
            assert any(n.startswith("method:") for n in names)
            assert len({s["trace_id"] for s in spans}) == 1
            # submit side and solve side are different processes
            submit_pid = next(s["pid"] for s in spans if s["name"] == "submit")
            solve_pid = next(s["pid"] for s in spans if s["name"] == "solve")
            assert submit_pid == os.getpid()
            assert solve_pid != submit_pid
            # child spans reference parents inside the same trace
            ids = {s["span_id"] for s in spans}
            solve = next(s for s in spans if s["name"] == "solve")
            assert solve["parent_id"] in ids

    def test_in_process_worker_continues_the_trace(self, spool):
        problem = random_problem(n_processing=8, n_satellites=3, seed=3)
        service = SolveService(spool, cache=None, trace=True)
        submission = service.submit([problem])
        service.enqueue(submission)
        SolveWorker(service.queue, cache=None).run(drain=True)
        (spans,) = group_traces(load_spans(spool)).values()
        names = {s["name"] for s in spans}
        assert {"submit", "claim", "solve", "ack"} <= names

    def test_untraced_submission_records_no_spans(self, spool):
        problem = random_problem(n_processing=8, n_satellites=3, seed=4)
        service = SolveService(spool, cache=None)
        submission = service.submit([problem])
        service.enqueue(submission)
        SolveWorker(service.queue, cache=None).run(drain=True)
        assert load_spans(spool) == []


class TestOneRecordPerTransition:
    """A traced spool transition writes one record: its lifecycle event,
    which carries the span fields, and no separate ``kind="span"`` line."""

    QUEUE_SPANS = ("submit", "claim", "ack", "requeue")
    SPAN_FIELDS = ("span_id", "parent_id", "start", "dur_s", "pid")

    def _drain(self, spool, trace, count=2):
        problems = [random_problem(n_processing=8, n_satellites=3, seed=s)
                    for s in range(count)]
        service = SolveService(spool, cache=None, trace=trace)
        submission = service.submit(problems)
        service.enqueue(submission)
        SolveWorker(service.queue, cache=None).run(drain=True)
        # gathering finishes each task's root span
        assert service.gather(submission, timeout=60.0).failed == 0
        return EventLog.for_spool(spool).read()

    def test_one_line_per_task_and_transition(self, spool):
        events = self._drain(spool, trace=True)
        lines = collections.Counter((e.get("task_id"), e["kind"])
                                    for e in events)
        task_ids = {e["task_id"] for e in events if e["kind"] == "submit"}
        assert len(task_ids) == 2
        for task_id in task_ids:
            for kind in ("submit", "claim", "ack"):
                assert lines[(task_id, kind)] == 1
        assert not [e for e in events if e["kind"] == "span"
                    and e.get("name") in self.QUEUE_SPANS]

    def test_transition_spans_hang_off_the_task_root(self, spool):
        self._drain(spool, trace=True)
        traces = group_traces(load_spans(spool))
        assert len(traces) == 2
        for spans in traces.values():
            (root,) = [s for s in spans if s["name"] == "task"]
            by_name = {s["name"]: s for s in spans
                       if s["name"] in self.QUEUE_SPANS}
            assert set(by_name) == {"submit", "claim", "ack"}
            for span in by_name.values():
                assert span["parent_id"] == root["span_id"]
                assert span["pid"] == os.getpid()
                assert span["start"] <= span["ts"]
                assert span["dur_s"] >= 0.0
            assert by_name["claim"]["attrs"]["attempt"] == 0
            assert by_name["ack"]["attrs"]["status"] == "optimal"

    def test_traced_nack_writes_one_requeue_span(self, spool):
        problem = random_problem(n_processing=8, n_satellites=3, seed=3)
        service = SolveService(spool, cache=None, trace=True)
        service.enqueue(service.submit([problem]))
        service.queue.nack(service.queue.claim())
        events = EventLog.for_spool(spool).read()
        assert [e["kind"] for e in events].count("requeue") == 1
        (requeue,) = [s for s in load_spans(spool) if s["name"] == "requeue"]
        assert requeue["attrs"]["attempt"] == 1
        assert requeue["pid"] == os.getpid()

    def test_untraced_records_carry_no_span_fields(self, spool):
        events = self._drain(spool, trace=False)
        assert len(events) == 2 * 5
        for event in events:
            assert not set(self.SPAN_FIELDS) & set(event)
            assert "trace_id" not in event

    def test_span_counter_counts_each_traced_submit(self, spool):
        registry = MetricsRegistry()
        queue = WorkQueue(spool, metrics=registry)
        service = SolveService(queue, cache=None, trace=True)
        problems = [random_problem(n_processing=8, n_satellites=3, seed=s)
                    for s in range(3)]
        service.enqueue(service.submit(problems))
        spans_total = registry.get("repro_trace_spans_total")
        assert spans_total.value(kind="submit") == 3
        queue.submit({"method": "colored-ssb"})      # untraced: not a span
        assert spans_total.value(kind="submit") == 3


class TestChromeExport:
    def _spans(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        tracer = Tracer(log, registry=MetricsRegistry())
        with tracer.start("solve", task_id="t-9") as span:
            span.add_event("incumbent", objective=2.0)
            span.profile = {"engine": "label-search", "labels_created": 3,
                            "pruned_floor": 1, "pruned_total": 1}
            span.child("method:colored-ssb").finish()
        return load_spans(log)

    def test_chrome_trace_schema(self, tmp_path):
        payload = chrome_trace(self._spans(tmp_path))
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        for event in events:
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0
                assert event["cat"] == "repro"
            if event["ph"] == "i":
                assert event["s"] == "p"
        complete = [e for e in events if e["ph"] == "X"]
        args = next(e["args"] for e in complete if e["name"] == "solve")
        assert args["task_id"] == "t-9"
        assert args["profile"]["labels_created"] == 3
        json.dumps(payload)    # must be JSON-serialisable as-is

    def test_write_chrome_trace_round_trips(self, tmp_path):
        out = str(tmp_path / "trace.json")
        assert write_chrome_trace(self._spans(tmp_path), out) == out
        with open(out, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["traceEvents"]


class TestRendering:
    def test_waterfall_lists_spans_and_events(self, tmp_path):
        log = EventLog(str(tmp_path / "events.jsonl"))
        tracer = Tracer(log, registry=MetricsRegistry())
        with tracer.start("task", task_id="t-2") as root:
            child = root.child("solve")
            child.add_event("incumbent", objective=1.0)
            time.sleep(0.001)
            child.finish()
        (spans,) = group_traces(load_spans(log)).values()
        text = render_waterfall(spans)
        assert "task" in text and "solve" in text
        assert "incumbent" in text
        assert spans[0]["trace_id"] in text

    @staticmethod
    def _profile(**counts):
        """A label-search profile dict, as ``details["profile"]`` holds it."""
        profile = {"engine": "label-search", "labels_created": 0,
                   "labels_dominated": 0, "pruned_colour": 0,
                   "pruned_lagrange": 0, "pruned_meet": 0, "pruned_floor": 0,
                   "frontier_peak": 0, "settle_batches": 0, "nodes_swept": 0}
        profile.update(counts)
        profile["pruned_total"] = sum(
            profile[key] for key in ("pruned_floor", "pruned_colour",
                                     "pruned_lagrange", "pruned_meet"))
        return profile

    def test_profile_table_shares_sum_to_rejected_total(self):
        text = render_profile(self._profile(
            labels_created=10, labels_dominated=2, pruned_floor=6,
            pruned_colour=3, pruned_meet=1, frontier_peak=4,
            settle_batches=1))
        assert "label-search" in text
        assert "10" in text
        assert "floor bound" in text and "per-colour joint" in text
        assert "joint average-load" not in text
        assert "( 60.0%)" in text and "( 30.0%)" in text and "( 10.0%)" in text

    def test_profile_table_renders_per_colour_and_meet_rows(self):
        text = render_profile(self._profile(
            labels_created=20, labels_dominated=1, pruned_floor=2,
            pruned_colour=8, pruned_lagrange=4, pruned_meet=6,
            frontier_peak=6, settle_batches=1))
        assert "per-colour joint" in text and "( 40.0%)" in text
        assert "meet-in-the-middle" in text and "( 30.0%)" in text

    def test_profile_table_renders_the_lagrangian_rows(self):
        profile = self._profile(labels_created=10, pruned_colour=2,
                                pruned_lagrange=6, pruned_meet=2,
                                frontier_peak=3, settle_batches=1)
        assert "Lagrangian root" not in render_profile(profile)
        profile["lagrange_root"] = 32.5
        text = render_profile(profile)
        assert "Lagrangian w-weighted load bound" in text
        assert "( 60.0%)" in text
        assert "Lagrangian root bound" in text and "32.5" in text

    def test_profile_table_renders_the_exact_passes(self):
        profile = self._profile(labels_created=4, frontier_peak=2,
                                settle_batches=1)
        assert "exact passes" not in render_profile(profile)
        profile["exact_passes"] = 2
        assert "exact passes                         2" in render_profile(profile)

    def test_profile_table_renders_the_dp_beam_pre_pass(self):
        profile = self._profile(labels_created=4)
        assert "beam pre-pass" not in render_profile(profile)
        profile["beam_labels_created"] = 1234
        lines = [line.strip() for line in render_profile(profile).splitlines()]
        assert "beam pre-pass                    1,234 created" in lines

    def test_profile_table_says_when_the_beam_certified(self):
        profile = self._profile()
        assert "certified" not in render_profile(profile)
        profile["beam_certified"] = False
        assert "certified" not in render_profile(profile)
        profile["beam_certified"] = True
        assert "exact pass skipped" in render_profile(profile)
