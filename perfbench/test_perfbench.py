"""Self-test of the benchmark (run from the repository root)::

    python3 -m pytest -q perfbench/test_perfbench.py

A tiny pass runs all four workloads, untraced and traced, against a
reference directory whose scattered pool holds only its three fastest
instances.  It checks that every metric of ``BENCHMARK.json`` is emitted
with its unit, that a wrong reference objective counts as a failure, that
one workload seed always generates byte-identical inputs, and that the
benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import instances  # noqa: E402

WORKLOADS = ("gateway-unique", "gateway-hot", "solve-small",
             "solve-scattered")
#: scattered seeds that solve in well under a second each
FAST_SCATTERED = (2, 9, 12)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """The committed references, with the scattered pool cut down."""
    directory = tmp_path_factory.mktemp("references")
    for pool in instances.POOL_SPECS:
        shutil.copy(instances.reference_path(pool), directory)
    path = directory / "scattered.json"
    data = json.loads(path.read_text())
    data["rows"] = [row for row in data["rows"] if row[0] in FAST_SCATTERED]
    path.write_text(json.dumps(data))
    return directory


def bench(workload, references, trace=0, seconds=1.0, seed=3, cwd=ROOT,
          script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--references", str(references)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_emits_every_metric(workload, trace, references):
    out = bench(workload, references, trace=trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload,pool", (("solve-small", "small"),
                                           ("gateway-hot", "unique")))
def test_wrong_reference_counts_as_failure(workload, pool, references,
                                           tmp_path):
    for name in instances.POOL_SPECS:
        shutil.copy(os.path.join(references, f"{name}.json"), tmp_path)
    path = tmp_path / f"{pool}.json"
    data = json.loads(path.read_text())
    for row in data["rows"]:
        row[4] += 1.0
    path.write_text(json.dumps(data))
    out = bench(workload, tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_one_seed_generates_byte_identical_inputs():
    unique = instances.load_pool("unique")
    small = instances.load_pool("small")
    scattered = instances.load_pool("scattered")

    def generate(seed):
        streams = [instances.unique_stream(unique, seed, 40),
                   instances.hot_stream(unique, seed, 200)[1],
                   instances.small_stream(small, seed, 60),
                   instances.pass_stream(scattered, seed, 2)]
        return [[(i.pool, i.index, instances.instance_texts([i])[i.index])
                 for i in stream] for stream in streams]

    first, again, other = generate(7), generate(7), generate(8)
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    # gateway-hot: one working set for every seed, a different sequence
    assert {i[1] for i in first[1]} <= {
        i.index for i in instances.hot_stream(unique, 8, 1)[0]}


def test_stale_reference_is_detected():
    row = instances.load_pool("unique")[0]
    stale = instances.Instance(row.pool, row.index, row.seed + 1, row.n,
                               row.k, row.scatter, row.objective, row.digest)
    with pytest.raises(RuntimeError, match="no longer generates"):
        stale.problem_json()


def test_refuses_to_run_without_the_program(references, tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("solve-small", references, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
