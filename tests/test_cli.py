"""Unit tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.model.serialization import problem_to_json
from repro.workloads import paper_example_problem


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--method", "sorcery"])


class TestSolveCommand:
    def test_solve_paper_example(self, capsys):
        assert main(["solve", "--scenario", "paper-example"]) == 0
        out = capsys.readouterr().out
        assert "colored-ssb" in out
        assert "end-to-end delay" in out

    def test_solve_with_json_output(self, capsys):
        assert main(["solve", "--scenario", "healthcare", "--json"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert "placement" in data and data["method"] == "colored-ssb"

    def test_solve_random_scenario(self, capsys):
        assert main(["solve", "--scenario", "random", "--random-size", "8",
                     "--seed", "3", "--method", "pareto-dp-pruned"]) == 0
        assert "pareto-dp-pruned" in capsys.readouterr().out

    def test_solve_problem_file(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(paper_example_problem()))
        assert main(["solve", "--problem-file", str(path)]) == 0
        assert "paper-figure-2-example" in capsys.readouterr().out


class TestOtherCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", "--scenario", "snmp"]) == 0
        out = capsys.readouterr().out
        assert "simulated end-to-end delay" in out

    def test_simulate_eager(self, capsys):
        assert main(["simulate", "--scenario", "healthcare", "--eager"]) == 0
        assert "simulated" in capsys.readouterr().out

    def test_describe(self, capsys):
        assert main(["describe", "--scenario", "paper-example"]) == 0
        out = capsys.readouterr().out
        assert "CRU tree" in out
        assert "CONFLICT" in out
        assert "assignment graph" in out

    def test_experiment_figure4(self, capsys):
        assert main(["experiment", "figure4"]) == 0
        out = capsys.readouterr().out
        assert "optimal_ssb_weight: 20.0" in out

    def test_experiment_coloring(self, capsys):
        assert main(["experiment", "coloring"]) == 0
        assert "conflict" in capsys.readouterr().out

    def test_methods(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "colored-ssb" in out and "brute-force" in out


class TestDistributedCommands:
    def test_submit_requires_a_spool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_enqueue_only_then_worker_then_warm_submit(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["submit", "--spool", spool, "--scenario", "random",
                     "--count", "3", "--random-size", "6",
                     "--enqueue-only"]) == 0
        assert "enqueued 3 task(s)" in capsys.readouterr().out
        # drain in-process (the subprocess path is covered by the worker tests)
        assert main(["worker", "--spool", spool, "--drain"]) == 0
        assert "3 task(s) processed" in capsys.readouterr().out
        # warm re-submit: everything streams from the shared cache instantly
        assert main(["submit", "--spool", spool, "--scenario", "random",
                     "--count", "3", "--random-size", "6", "--stream",
                     "--timeout", "10"]) == 0
        out = capsys.readouterr().out
        assert "3 cached" in out and "0 failed" in out

    def test_submit_stream_with_inline_worker(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        import threading

        from repro.distributed import SolveWorker, WorkQueue

        queue = WorkQueue(spool, poll_interval=0.01)
        worker = SolveWorker(queue)
        thread = threading.Thread(
            target=lambda: worker.run(max_tasks=2, timeout=30.0))
        thread.start()
        try:
            code = main(["submit", "--spool", spool, "--scenario", "random",
                         "--count", "2", "--random-size", "6", "--no-cache",
                         "--stream", "--ordered", "--window", "1",
                         "--timeout", "30"])
        finally:
            thread.join()
        assert code == 0
        out = capsys.readouterr().out
        assert "2 solved" in out
        assert "random-6x3-seed0-0" in out

    def test_worker_drain_on_empty_spool(self, tmp_path, capsys):
        assert main(["worker", "--spool", str(tmp_path / "spool"),
                     "--drain"]) == 0
        assert "0 task(s) processed" in capsys.readouterr().out
