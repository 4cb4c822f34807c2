"""Tests of the benchmark itself, on tiny documents.

* the same seed twice gives identical counts (bytes, round trips, store
  size, query and update counts), on every workload;
* another seed still passes every answer check;
* the answer checks catch errors: a wrong expected answer, or one altered
  server share that FULL verification must reject, makes the affected
  operations count as failed and the run incorrect (exit code 1, result
  line still printed);
* the comparison rule of ``compare.py``;
* without the program next to it, the benchmark fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench import compare

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lookup-large", "xpath-catalog", "edit-mix")

#: Every tiny run the tests need: name -> (workload, seed, extra arguments).
RUNS = {
    **{f"{w}-a": (w, 3, ("--trace", "1")) for w in WORKLOADS},
    **{f"{w}-b": (w, 3, ("--trace", "1")) for w in WORKLOADS},
    **{f"{w}-other": (w, 4, ()) for w in WORKLOADS},
    "fault-expected": ("lookup-large", 5, ("--inject-fault", "expected")),
    "fault-share": ("lookup-large", 5, ("--inject-fault", "share")),
}


def run_bench(directory, name, cpu):
    """One tiny run on one CPU; returns ``(last stdout line, full result file)``."""
    workload, seed, extra = RUNS[name]
    faulty = "--inject-fault" in extra
    out = os.path.join(directory, f"{name}.json")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--scale", "tiny",
         "--workdir", os.path.join(directory, name),
         "--out", out, *extra],
        capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: os.sched_setaffinity(0, [cpu]))
    assert done.returncode == (1 if faulty else 0), done.stderr[-3000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    with open(out, "r", encoding="utf-8") as handle:
        return last, json.load(handle)


@pytest.fixture(scope="module")
def runs():
    """All runs at once, one per CPU at a time (each run pins itself to one)."""
    cpus = sorted(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory() as directory:
        with ThreadPoolExecutor(max_workers=len(cpus)) as pool:
            futures = {name: pool.submit(run_bench, directory, name,
                                         cpus[index % len(cpus)])
                       for index, name in enumerate(RUNS)}
        yield {name: future.result() for name, future in futures.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_counts_other_seed_still_correct(runs, workload):
    (first, first_full), (second, second_full), (other, other_full) = (
        runs[f"{workload}-{suffix}"] for suffix in ("a", "b", "other"))
    for last, full in ((first, first_full), (second, second_full),
                       (other, other_full)):
        assert last["correct"] and last["failed"] == 0, full["failures"]
        assert all(check["ok"] for check in full["checks"].values())
    assert first_full["detail"]["counts"] == second_full["detail"]["counts"]
    exact = [name for name in first["metrics"]
             if name in first_full["detail"]["counts"]]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert set(other["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert set(first["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert all(entry["value"] > 0 for entry in other["metrics"].values())


def test_wrong_expected_answer_counts_as_failed(runs):
    last, full = runs["fault-expected"]
    rounds = sum(full["detail"]["rounds_per_session"][0])
    assert not last["correct"]
    assert last["failed"] == rounds        # the same lookup, once per round
    assert all("lookup" in failure for failure in full["failures"])


def test_altered_server_share_counts_as_failed(runs):
    last, full = runs["fault-share"]
    assert "altered_node" in full["detail"]
    assert not last["correct"]
    assert last["failed"] > 0
    assert last["failed"] < last["attempted"]
    assert any("VerificationError" in failure for failure in full["failures"])


def test_compare_rule():
    lower = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2]
    gain = verdict_of(lower, [v * 0.8 for v in lower])
    assert gain == "gain"
    assert verdict_of(lower, [v * 1.02 for v in lower]) == "no worse"
    assert verdict_of(lower, [v * 1.3 for v in lower]) == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict_of(noisy, lower) == "unresolved"
    assert verdict_of(noisy, [1.0] * 10) == "gain"      # every run better


def verdict_of(parent, change):
    return compare.verdict(parent, change, "lower", 0.1)["verdict"]


def test_compare_setup_spread_exempt_and_failures_invalidate(tmp_path):
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1,
                           spread_rule=False)["verdict"] == "no worse"
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.1}]}))
    for side, failed in (("parent", 0), ("change", 1)):
        (tmp_path / side).mkdir()
        for index, value in enumerate(noisy):
            (tmp_path / side / f"{index:02d}.json").write_text(json.dumps({
                "workload": "w", "trace": 0, "correct": True,
                "attempted": 100, "failed": failed if index == 0 else 0,
                "provenance": {"started_at": index},
                "metrics": {"setup_s": {"value": value, "unit": "s"}}}))
    lines, bad = compare.compare(str(tmp_path / "parent"), str(tmp_path / "parent"),
                                 str(benchmark))
    assert not bad and "no worse: setup_s" in lines[0]
    lines, bad = compare.compare(str(tmp_path / "parent"), str(tmp_path / "change"),
                                 str(benchmark))
    assert bad and "invalid" in lines[0]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, exit != 0."""
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
