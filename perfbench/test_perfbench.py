"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def package():
    return worker.import_program()


def test_spec_names_the_workloads_and_the_traced_metrics(package):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    traced = set(Tracer(package).layer_metrics()) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == traced


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_seed_gives_one_request_list(name):
    requests = WORKLOADS[name].requests
    assert requests(7) == requests(7)
    if name in ("checks", "crosscheck"):
        assert requests(7) != requests(8)
        assert len(requests(7)) == len(requests(8))


@pytest.mark.parametrize("name,limit", [
    ("census", None), ("consistency", None), ("checks", 200), ("crosscheck", 40),
])
def test_traced_counts_repeat_across_runs(package, name, limit):
    workload = WORKLOADS[name]
    counts = []
    for _ in range(2):
        requests = workload.requests(3)[:limit]
        runner = worker.Runner(package, workload, requests)
        metrics, _ = worker.measure_traced(runner, package, seconds=0)
        assert runner.failed == 0
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert any(k.endswith(".calls") and v for k, v in counts[0].items())


def test_runaway_allocation_is_a_counted_failure():
    code = (
        "import worker\n"
        "from workloads import Workload\n"
        "worker.cap_address_space()\n"
        "alloc = Workload('alloc', (), None, lambda cx, n: bytearray(n), len,\n"
        "                 lambda cx, request, out: True)\n"
        "runner = worker.Runner(worker.import_program(), alloc, [10, 1 << 40, 10])\n"
        "runner.check(runner.job()[2])\n"
        "print(runner.attempted, runner.failed)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["3", "1"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_result_line_follows_the_contract(tmp_path):
    done = run_bench("--workload", "consistency", "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--results", str(tmp_path / "runs.jsonl"))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    record = json.loads((tmp_path / "runs.jsonl").read_text())
    assert {"git_sha", "python", "nproc", "platform", "seed", "argv",
            "COXSPH_ENUM_CAP"} <= set(record["manifest"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench("--workload", "census", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_marks_wide_rows_unresolved(tmp_path):
    def write(path, values):
        with open(path, "w") as fh:
            for v in values:
                fh.write(json.dumps({"workload": "census", "result": {"metrics": {
                    "wall_s": {"value": v, "unit": "s"}}}}) + "\n")

    write(tmp_path / "old.jsonl", [1.0, 1.01, 0.99, 1.0])
    write(tmp_path / "new.jsonl", [0.5, 1.5, 0.4, 1.6])
    out = io.StringIO()
    run.compare(tmp_path / "old.jsonl", tmp_path / "new.jsonl", SPEC, out)
    row = next(line for line in out.getvalue().splitlines() if "wall_s" in line)
    assert row.rstrip().endswith("unresolved")
    write(tmp_path / "new.jsonl", [0.5, 0.51, 0.49, 0.5])
    out = io.StringIO()
    run.compare(tmp_path / "old.jsonl", tmp_path / "new.jsonl", SPEC, out)
    row = next(line for line in out.getvalue().splitlines() if "wall_s" in line)
    assert "unresolved" not in row and "0.500" in row
